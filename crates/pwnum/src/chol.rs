//! Cholesky factorization and triangular solves for Hermitian
//! positive-definite matrices.
//!
//! Used for (a) Cholesky-QR orthonormalization of wavefunction blocks
//! (`Φ (L^{-H})` with `Φ^HΦ = LL^H`), (b) the projector
//! `P̃ = Φ (Φ^HΦ)^{-1} Φ^H` of the PT-IM update, and (c) the ACE
//! construction (`-M = LL^H`, `ξ = W L^{-H}`, paper Sec. IV-A2).

use crate::cmat::CMat;
use crate::complex::Complex64;

/// Error for a factorization that encountered a non-positive pivot.
#[derive(Debug, Clone, PartialEq)]
pub struct NotPositiveDefinite {
    /// Index of the failing pivot.
    pub pivot: usize,
    /// Value of the failing pivot.
    pub value: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix not positive definite at pivot {} (value {:.3e})", self.pivot, self.value)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Computes the lower-triangular Cholesky factor `L` with `A = L L^H`.
pub fn cholesky(a: &CMat) -> Result<CMat, NotPositiveDefinite> {
    let _s = pwobs::span("gemm.cholesky");
    assert!(a.is_square(), "cholesky requires a square matrix");
    let n = a.rows();
    let mut l = CMat::zeros(n, n);
    for j in 0..n {
        // Diagonal pivot.
        let mut d = a[(j, j)].re;
        for k in 0..j {
            d -= l[(j, k)].norm_sqr();
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(NotPositiveDefinite { pivot: j, value: d });
        }
        let ljj = d.sqrt();
        l[(j, j)] = Complex64::from_re(ljj);
        for i in j + 1..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)].conj();
            }
            l[(i, j)] = s.scale(1.0 / ljj);
        }
    }
    Ok(l)
}

/// Solves `L x = b` for lower-triangular `L` (forward substitution).
pub fn solve_lower(l: &CMat, b: &[Complex64]) -> Vec<Complex64> {
    let n = l.rows();
    assert_eq!(b.len(), n);
    let mut x = b.to_vec();
    for i in 0..n {
        for k in 0..i {
            let lik = l[(i, k)];
            let xk = x[k];
            x[i] -= lik * xk;
        }
        x[i] /= l[(i, i)];
    }
    x
}

/// Solves `L^H x = b` for lower-triangular `L` (backward substitution on
/// the conjugate transpose).
pub fn solve_lower_herm(l: &CMat, b: &[Complex64]) -> Vec<Complex64> {
    let n = l.rows();
    assert_eq!(b.len(), n);
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        for k in i + 1..n {
            let lki = l[(k, i)].conj();
            let xk = x[k];
            x[i] -= lki * xk;
        }
        x[i] /= l[(i, i)].conj();
    }
    x
}

/// Solves the HPD system `A X = B` (with `B` given column-wise as a
/// matrix) through one Cholesky factorization.
///
/// Both triangular passes run over whole rows of the row-major `X`, every
/// right-hand side at once; each element sees the same operations in the
/// same order as [`solve_lower`] then [`solve_lower_herm`] on its column.
pub fn solve_hpd(a: &CMat, b: &CMat) -> Result<CMat, NotPositiveDefinite> {
    let _s = pwobs::span("gemm.solve_hpd");
    let l = cholesky(a)?;
    let n = a.rows();
    assert_eq!(b.rows(), n, "solve_hpd: right-hand side has the wrong row count");
    let m = b.cols();
    let mut x = b.clone();
    if m == 0 {
        // No right-hand side (and `chunks_exact` needs a non-zero width).
        return Ok(x);
    }
    let xs = x.as_mut_slice();
    // L Y = B: x_i −= l_ik·x_k for k ascending, then x_i /= l_ii.
    for i in 0..n {
        let (done, rest) = xs.split_at_mut(i * m);
        let xi = &mut rest[..m];
        for (k, xk) in done.chunks_exact(m).enumerate() {
            let lik = l[(i, k)];
            xi.iter_mut().zip(xk).for_each(|(y, &z)| *y -= lik * z);
        }
        let lii = l[(i, i)];
        xi.iter_mut().for_each(|y| *y /= lii);
    }
    // Lᴴ X = Y: x_i −= conj(l_ki)·x_k for k ascending from i + 1, then
    // x_i /= conj(l_ii).
    for i in (0..n).rev() {
        let (head, solved) = xs.split_at_mut((i + 1) * m);
        let xi = &mut head[i * m..];
        for (k, xk) in (i + 1..n).zip(solved.chunks_exact(m)) {
            let lki = l[(k, i)].conj();
            xi.iter_mut().zip(xk).for_each(|(y, &z)| *y -= lki * z);
        }
        let lii = l[(i, i)].conj();
        xi.iter_mut().for_each(|y| *y /= lii);
    }
    Ok(x)
}

/// Inverse of a lower-triangular matrix.
pub fn invert_lower(l: &CMat) -> CMat {
    let n = l.rows();
    let mut inv = CMat::zeros(n, n);
    for j in 0..n {
        let mut e = vec![Complex64::ZERO; n];
        e[j] = Complex64::ONE;
        let x = solve_lower(l, &e);
        for i in 0..n {
            inv[(i, j)] = x[i];
        }
    }
    inv
}

/// Inverse of an HPD matrix through its Cholesky factorization.
pub fn invert_hpd(a: &CMat) -> Result<CMat, NotPositiveDefinite> {
    solve_hpd(a, &CMat::identity(a.rows()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::gemm::{gemm, herm_matmul, Op};

    fn hpd(n: usize, seed: f64) -> CMat {
        // A = B^H B + n*I is HPD.
        let b = CMat::from_fn(n, n, |r, c| {
            c64(((r * 5 + c) as f64 * 0.31 + seed).sin(), ((r + c * 3) as f64 * 0.17).cos())
        });
        let mut a = herm_matmul(&b, &b);
        for i in 0..n {
            a[(i, i)] += Complex64::from_re(n as f64);
        }
        a
    }

    /// The column-at-a-time body `solve_hpd` replaced: gathers each
    /// right-hand side and runs the two vector solves on it.
    fn solve_hpd_columns(a: &CMat, b: &CMat) -> Result<CMat, NotPositiveDefinite> {
        let l = cholesky(a)?;
        let n = a.rows();
        let mut x = CMat::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col: Vec<Complex64> = (0..n).map(|i| b[(i, j)]).collect();
            let y = solve_lower(&l, &col);
            let z = solve_lower_herm(&l, &y);
            for i in 0..n {
                x[(i, j)] = z[i];
            }
        }
        Ok(x)
    }

    #[test]
    fn row_wise_solve_matches_the_column_oracle_bit_for_bit() {
        for (n, m) in [(10, 0), (1, 1), (10, 10), (32, 5), (64, 64), (128, 1), (128, 128)] {
            let a = hpd(n, 0.7);
            let b = CMat::from_fn(n, m, |r, c| {
                c64((r as f64 * 0.37 - c as f64).sin(), (c as f64 * 0.11 + r as f64).cos())
            });
            let (x, want) = (solve_hpd(&a, &b).unwrap(), solve_hpd_columns(&a, &b).unwrap());
            let bits = |x: &CMat| {
                x.as_slice()
                    .iter()
                    .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&x), bits(&want), "n={n} m={m}");
        }
    }

    #[test]
    fn factorization_reconstructs() {
        for n in [1, 2, 5, 12] {
            let a = hpd(n, 0.4);
            let l = cholesky(&a).unwrap();
            let llh = gemm(Complex64::ONE, &l, Op::None, &l, Op::ConjTrans, Complex64::ZERO, None);
            assert!(llh.max_abs_diff(&a) < 1e-10 * n as f64, "n={n}");
            // L is lower triangular with positive real diagonal.
            for r in 0..n {
                assert!(l[(r, r)].re > 0.0);
                assert!(l[(r, r)].im.abs() < 1e-15);
                for c in r + 1..n {
                    assert_eq!(l[(r, c)], Complex64::ZERO);
                }
            }
        }
    }

    #[test]
    fn solves_agree_with_inverse() {
        let a = hpd(7, 1.1);
        let b = CMat::from_fn(7, 2, |r, c| c64(r as f64 - c as f64, 0.5 * r as f64));
        let x = solve_hpd(&a, &b).unwrap();
        let ax = a.matmul(&x);
        assert!(ax.max_abs_diff(&b) < 1e-9);

        let inv = invert_hpd(&a).unwrap();
        assert!(a.matmul(&inv).max_abs_diff(&CMat::identity(7)) < 1e-9);
    }

    #[test]
    fn triangular_solves() {
        let a = hpd(6, 0.9);
        let l = cholesky(&a).unwrap();
        let b: Vec<Complex64> = (0..6).map(|i| c64(i as f64, -(i as f64) * 0.5)).collect();
        let y = solve_lower(&l, &b);
        let ly = l.mul_vec(&y);
        for i in 0..6 {
            assert!((ly[i] - b[i]).abs() < 1e-11);
        }
        let z = solve_lower_herm(&l, &b);
        let lhz = l.herm().mul_vec(&z);
        for i in 0..6 {
            assert!((lhz[i] - b[i]).abs() < 1e-11);
        }
    }

    #[test]
    fn invert_lower_is_inverse() {
        let a = hpd(5, 2.0);
        let l = cholesky(&a).unwrap();
        let li = invert_lower(&l);
        assert!(l.matmul(&li).max_abs_diff(&CMat::identity(5)) < 1e-10);
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = CMat::identity(3);
        a[(2, 2)] = c64(-1.0, 0.0);
        match cholesky(&a) {
            Err(e) => assert_eq!(e.pivot, 2),
            Ok(_) => panic!("indefinite matrix accepted"),
        }
    }
}
