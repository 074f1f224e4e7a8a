//! General matrix-matrix multiplication for [`CMat`].
//!
//! Sizes here are the *subspace* dimension N (bands), so the strategy is
//! simplicity + thread parallelism over output rows: both operands are
//! packed into contiguous row-major panels so the inner kernel is a
//! contiguous complex dot product, then rows of `C` are computed in
//! parallel. Tall-and-skinny products against wavefunction blocks live in
//! [`crate::bands`].

use crate::cmat::CMat;
use crate::complex::Complex64;
use crate::cvec::dotu;
use crate::parallel::par_ranges;
use parking_lot::Mutex;
use std::borrow::Cow;

/// How an operand enters the product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as-is.
    None,
    /// Use the transpose.
    Trans,
    /// Use the conjugate transpose.
    ConjTrans,
}

/// Packs `op(A)` row-major, borrowing when the stored layout already
/// matches (`Op::None` costs nothing).
pub(crate) fn packed(a: &CMat, op: Op) -> Cow<'_, CMat> {
    match op {
        Op::None => Cow::Borrowed(a),
        Op::Trans => Cow::Owned(a.transpose()),
        Op::ConjTrans => Cow::Owned(a.herm()),
    }
}

/// Packs `op(B)` *transposed* row-major — row `j` holds column `j` of
/// `op(B)` — borrowing when `op_b` already yields contiguous columns
/// (`Op::Trans` costs nothing).
pub(crate) fn packed_cols(b: &CMat, op: Op) -> Cow<'_, CMat> {
    match op {
        Op::None => Cow::Owned(b.transpose()),
        Op::Trans => Cow::Borrowed(b),
        Op::ConjTrans => {
            // (B^H)^T = conj(B): the stored layout, conjugated.
            Cow::Owned(CMat::from_fn(b.rows(), b.cols(), |r, c| b[(r, c)].conj()))
        }
    }
}

/// Computes `alpha * op(A) * op(B) + beta * C0`.
///
/// When `c0` is `None`, `beta` must multiply an implicit zero matrix.
pub fn gemm(
    alpha: Complex64,
    a: &CMat,
    op_a: Op,
    b: &CMat,
    op_b: Op,
    beta: Complex64,
    c0: Option<&CMat>,
) -> CMat {
    let ap = packed(a, op_a);
    // Pack op(B) transposed so each output column is a contiguous row.
    let bp = packed_cols(b, op_b);
    let (m, k) = (ap.rows(), ap.cols());
    let n = bp.rows();
    assert_eq!(k, bp.cols(), "gemm inner dimension mismatch");
    if let Some(c0) = c0 {
        assert_eq!((c0.rows(), c0.cols()), (m, n), "gemm C dimension mismatch");
    }

    let mut c = CMat::zeros(m, n);
    {
        let rows: Vec<Mutex<&mut [Complex64]>> =
            c.as_mut_slice().chunks_mut(n).map(Mutex::new).collect();
        par_ranges(m, n * k, |lo, hi| {
            for (i, crow_m) in rows.iter().enumerate().take(hi).skip(lo) {
                let arow = ap.row(i);
                let mut crow = crow_m.lock();
                for j in 0..n {
                    let mut v = (dotu(arow, bp.row(j))) * alpha;
                    if let Some(c0) = c0 {
                        v += beta * c0[(i, j)];
                    }
                    crow[j] = v;
                }
            }
        });
    }
    c
}

/// Convenience: `A^H * B`.
pub fn herm_matmul(a: &CMat, b: &CMat) -> CMat {
    gemm(Complex64::ONE, a, Op::ConjTrans, b, Op::None, Complex64::ZERO, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn naive(a: &CMat, b: &CMat) -> CMat {
        let mut c = CMat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = Complex64::ZERO;
                for l in 0..a.cols() {
                    s += a[(i, l)] * b[(l, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    fn test_mat(r: usize, c: usize, phase: f64) -> CMat {
        CMat::from_fn(r, c, |i, j| {
            c64(
                ((i * 7 + j * 3) as f64 * 0.37 + phase).sin(),
                ((i as f64) - 0.5 * j as f64 + phase).cos(),
            )
        })
    }

    #[test]
    fn matches_naive_product() {
        let a = test_mat(5, 7, 0.1);
        let b = test_mat(7, 4, 0.9);
        let c = gemm(Complex64::ONE, &a, Op::None, &b, Op::None, Complex64::ZERO, None);
        assert!(c.max_abs_diff(&naive(&a, &b)) < 1e-13);
    }

    #[test]
    fn transposed_operands() {
        let a = test_mat(6, 3, 0.2);
        let b = test_mat(6, 5, 0.4);
        // A^T * B
        let c = gemm(Complex64::ONE, &a, Op::Trans, &b, Op::None, Complex64::ZERO, None);
        assert!(c.max_abs_diff(&naive(&a.transpose(), &b)) < 1e-13);
        // A^H * B
        let ch = herm_matmul(&a, &b);
        assert!(ch.max_abs_diff(&naive(&a.herm(), &b)) < 1e-13);
        // A * B^H with scaling
        let d = test_mat(4, 3, 1.3);
        let e = gemm(c64(0.0, 2.0), &d, Op::None, &a, Op::ConjTrans, Complex64::ZERO, None);
        assert!(e.max_abs_diff(&naive(&d, &a.herm()).scaled(c64(0.0, 2.0))) < 1e-13);
    }

    #[test]
    fn beta_accumulation() {
        let a = test_mat(3, 3, 0.5);
        let b = test_mat(3, 3, 0.8);
        let c0 = test_mat(3, 3, 2.0);
        let c = gemm(Complex64::ONE, &a, Op::None, &b, Op::None, c64(-1.0, 0.0), Some(&c0));
        let expect = naive(&a, &b).sub(&c0);
        assert!(c.max_abs_diff(&expect) < 1e-13);
    }

    #[test]
    fn herm_product_of_self_is_hermitian() {
        let a = test_mat(8, 5, 0.3);
        let s = herm_matmul(&a, &a);
        assert!(s.hermiticity_error() < 1e-13);
        // Diagonal entries are column norms: positive.
        for i in 0..5 {
            assert!(s[(i, i)].re > 0.0);
            assert!(s[(i, i)].im.abs() < 1e-13);
        }
    }
}
