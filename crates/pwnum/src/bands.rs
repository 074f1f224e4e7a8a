//! Tall-and-skinny kernels over band-major wavefunction blocks.
//!
//! A wavefunction block Φ holds `n_bands` orbitals, each a contiguous
//! vector of `band_len` grid/plane-wave coefficients, stored back-to-back
//! (band-major). The two hot operations of the PT-IM method on this layout
//! are
//!
//! * the overlap matrix `S = A^H B` (an N×N reduction over the grid,
//!   the `Φ*Φ` / `Φ*HΦ` of the paper), and
//! * the subspace rotation `B = A Q` (the basis change `φ = Φ Q` used by
//!   the occupation-matrix diagonalization optimization, Eq. 12).
//!
//! Both are parallelized over bands with scoped threads.

use crate::cmat::CMat;
use crate::complex::Complex64;
use crate::cvec::{axpy, dotc, zero_fill};
use crate::parallel::{par_chunks_mut_on, par_ranges, workers_for};
use parking_lot::Mutex;

/// Splits a band-major buffer into per-band slices.
#[inline]
pub fn band(data: &[Complex64], band_len: usize, i: usize) -> &[Complex64] {
    &data[i * band_len..(i + 1) * band_len]
}

/// Mutable variant of [`band`].
#[inline]
pub fn band_mut(data: &mut [Complex64], band_len: usize, i: usize) -> &mut [Complex64] {
    &mut data[i * band_len..(i + 1) * band_len]
}

/// Number of bands in a band-major buffer.
#[inline]
pub fn n_bands(data: &[Complex64], band_len: usize) -> usize {
    debug_assert_eq!(data.len() % band_len, 0);
    data.len() / band_len
}

/// Overlap matrix `S[i][j] = <a_i | b_j>` between two band-major blocks.
///
/// `scale` multiplies every entry (grid quadrature weight `dV`).
pub fn overlap(a: &[Complex64], b: &[Complex64], band_len: usize, scale: f64) -> CMat {
    let na = n_bands(a, band_len);
    let nb = n_bands(b, band_len);
    let mut s = CMat::zeros(na, nb);
    {
        let rows: Vec<Mutex<&mut [Complex64]>> =
            s.as_mut_slice().chunks_mut(nb).map(Mutex::new).collect();
        par_ranges(na, nb * band_len, |lo, hi| {
            for (i, row_m) in rows.iter().enumerate().take(hi).skip(lo) {
                let ai = band(a, band_len, i);
                let mut row = row_m.lock();
                for j in 0..nb {
                    row[j] = dotc(ai, band(b, band_len, j)).scale(scale);
                }
            }
        });
    }
    s
}

/// Subspace rotation `out_j = sum_i a_i * q[i][j]` (i.e. `Out = A Q` with
/// bands as columns of the abstract Ng×N matrix).
///
/// `out` must have `band_len * q.cols()` elements.
pub fn rotate(a: &[Complex64], q: &CMat, band_len: usize, out: &mut [Complex64]) {
    let na = n_bands(a, band_len);
    assert_eq!(q.rows(), na, "rotate: Q row count must match band count");
    assert_eq!(out.len(), band_len * q.cols(), "rotate: bad output size");
    par_chunks_mut_on(workers_for(q.cols(), na * band_len), out, band_len, |j, oj| {
        zero_fill(oj);
        for i in 0..na {
            let qij = q[(i, j)];
            if qij != Complex64::ZERO {
                axpy(qij, band(a, band_len, i), oj);
            }
        }
    });
}

/// `out_j += alpha * sum_i a_i * q[i][j]` — rotation with accumulation.
pub fn rotate_acc(
    alpha: Complex64,
    a: &[Complex64],
    q: &CMat,
    band_len: usize,
    out: &mut [Complex64],
) {
    let na = n_bands(a, band_len);
    assert_eq!(q.rows(), na, "rotate_acc: Q row count must match band count");
    assert_eq!(out.len(), band_len * q.cols(), "rotate_acc: bad output size");
    par_chunks_mut_on(workers_for(q.cols(), na * band_len), out, band_len, |j, oj| {
        for i in 0..na {
            let w = alpha * q[(i, j)];
            if w != Complex64::ZERO {
                axpy(w, band(a, band_len, i), oj);
            }
        }
    });
}

/// Linear combination of two blocks: `out = ca*a + cb*b`, band-wise —
/// memory-bound, so one streaming loop split into one contiguous chunk
/// per worker is the schedule on every platform (`gemm.lincomb` span).
pub fn lincomb(
    ca: Complex64,
    a: &[Complex64],
    cb: Complex64,
    b: &[Complex64],
    out: &mut [Complex64],
) {
    let _s = pwobs::span("gemm.lincomb");
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    // One contiguous chunk per worker.
    let workers = workers_for(out.len(), 1);
    let chunk_len = out.len().div_ceil(workers).max(1);
    par_chunks_mut_on(workers, out, chunk_len, |c, o| {
        let lo = c * chunk_len;
        for ((ov, &av), &bv) in o.iter_mut().zip(&a[lo..]).zip(&b[lo..]) {
            *ov = ca * av + cb * bv;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn make_block(nb: usize, len: usize, seed: f64) -> Vec<Complex64> {
        (0..nb * len)
            .map(|k| c64((k as f64 * 0.13 + seed).sin(), (k as f64 * 0.07 - seed).cos()))
            .collect()
    }

    #[test]
    fn overlap_matches_reference() {
        let (nb, len) = (4, 17);
        let a = make_block(nb, len, 0.2);
        let b = make_block(nb, len, 1.1);
        let s = overlap(&a, &b, len, 2.0);
        for i in 0..nb {
            for j in 0..nb {
                let expect = dotc(band(&a, len, i), band(&b, len, j)).scale(2.0);
                assert!((s[(i, j)] - expect).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn overlap_of_self_is_hermitian_psd() {
        let a = make_block(5, 23, 0.7);
        let s = overlap(&a, &a, 23, 1.0);
        assert!(s.hermiticity_error() < 1e-13);
        for i in 0..5 {
            assert!(s[(i, i)].re > 0.0);
        }
    }

    #[test]
    fn rotate_by_identity_is_copy() {
        let a = make_block(3, 11, 0.4);
        let mut out = vec![Complex64::ZERO; a.len()];
        rotate(&a, &CMat::identity(3), 11, &mut out);
        for (x, y) in a.iter().zip(&out) {
            assert!((*x - *y).abs() < 1e-15);
        }
    }

    #[test]
    fn rotate_matches_explicit_sum() {
        let (nb, len, nout) = (3, 9, 2);
        let a = make_block(nb, len, 0.9);
        let q = CMat::from_fn(nb, nout, |i, j| c64(i as f64 - j as f64, 0.5 * (i + j) as f64));
        let mut out = vec![Complex64::ZERO; len * nout];
        rotate(&a, &q, len, &mut out);
        for j in 0..nout {
            for g in 0..len {
                let mut expect = Complex64::ZERO;
                for i in 0..nb {
                    expect += band(&a, len, i)[g] * q[(i, j)];
                }
                assert!((band(&out, len, j)[g] - expect).abs() < 1e-13);
            }
        }
        // rotate_acc doubles the result when applied twice with alpha=1.
        let mut out2 = out.clone();
        rotate_acc(Complex64::ONE, &a, &q, len, &mut out2);
        for (x, y) in out.iter().zip(&out2) {
            assert!((y.abs() - 2.0 * x.abs()).abs() < 1e-12);
        }
    }

    #[test]
    fn rotation_preserves_overlap_under_unitary() {
        // Q unitary (a permutation + phase) => (AQ)^H (AQ) = Q^H S Q.
        let (nb, len) = (3, 29);
        let a = make_block(nb, len, 0.3);
        let mut q = CMat::zeros(3, 3);
        q[(0, 1)] = c64(0.0, 1.0);
        q[(1, 2)] = c64(1.0, 0.0);
        q[(2, 0)] = c64(-1.0, 0.0);
        let mut out = vec![Complex64::ZERO; a.len()];
        rotate(&a, &q, len, &mut out);
        let s = overlap(&a, &a, len, 1.0);
        let s_rot = overlap(&out, &out, len, 1.0);
        let expect = crate::gemm::gemm(
            Complex64::ONE,
            &q,
            crate::gemm::Op::ConjTrans,
            &s.matmul(&q),
            crate::gemm::Op::None,
            Complex64::ZERO,
            None,
        );
        assert!(s_rot.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn lincomb_midpoint() {
        let a = make_block(2, 8, 0.1);
        let b = make_block(2, 8, 2.2);
        let mut out = vec![Complex64::ZERO; a.len()];
        lincomb(c64(0.5, 0.0), &a, c64(0.5, 0.0), &b, &mut out);
        for k in 0..a.len() {
            assert!((out[k] - (a[k] + b[k]).scale(0.5)).abs() < 1e-15);
        }
    }
}
