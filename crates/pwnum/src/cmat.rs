//! Dense row-major complex matrices.
//!
//! These hold the *small* square objects of the PT-IM method — the
//! occupation matrix σ, overlap matrices Φ\*Φ and Φ\*HΦ, rotation matrices
//! Q — whose dimension is the number of bands N (tens to a few thousand),
//! never the grid size. Tall-and-skinny wavefunction blocks use the
//! band-major kernels in [`crate::bands`] instead.

use crate::complex::{c64, Complex64};
use std::ops::{Index, IndexMut};

/// A dense `rows x cols` complex matrix, row-major.
#[derive(Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl std::fmt::Debug for CMat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:?} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl CMat {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat { rows, cols, data: vec![Complex64::ZERO; rows * cols] }
    }

    /// Creates the identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix from a function of the index pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        CMat { rows, cols, data }
    }

    /// Builds a diagonal matrix from real entries.
    pub fn from_real_diag(d: &[f64]) -> Self {
        let n = d.len();
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::from_re(d[i]);
        }
        m
    }

    /// Wraps an existing buffer (must have `rows*cols` elements).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "CMat::from_vec size mismatch");
        CMat { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True for square matrices.
    #[inline(always)]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Borrow of row `r`.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[Complex64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Conjugate transpose `A^H`.
    pub fn herm(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Plain transpose `A^T`.
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest absolute entry difference against `other`.
    pub fn max_abs_diff(&self, other: &CMat) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// `self + other`.
    pub fn add(&self, other: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self.data.iter().zip(&other.data).map(|(a, b)| *a + *b).collect();
        CMat { rows: self.rows, cols: self.cols, data }
    }

    /// `self - other`.
    pub fn sub(&self, other: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self.data.iter().zip(&other.data).map(|(a, b)| *a - *b).collect();
        CMat { rows: self.rows, cols: self.cols, data }
    }

    /// `self * s` for a complex scalar.
    pub fn scaled(&self, s: Complex64) -> CMat {
        let data = self.data.iter().map(|a| *a * s).collect();
        CMat { rows: self.rows, cols: self.cols, data }
    }

    /// In-place `self += s * other`.
    pub fn axpy(&mut self, s: Complex64, other: &CMat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = b.mul_add(s, *a);
        }
    }

    /// Matrix product `self * rhs` (naive-blocked; see [`crate::gemm`] for
    /// the op-aware variant).
    pub fn matmul(&self, rhs: &CMat) -> CMat {
        crate::gemm::gemm(
            Complex64::ONE,
            self,
            crate::gemm::Op::None,
            rhs,
            crate::gemm::Op::None,
            Complex64::ZERO,
            None,
        )
    }

    /// Matrix-vector product `self * x`.
    pub fn mul_vec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(self.cols, x.len(), "mul_vec dimension mismatch");
        let mut y = vec![Complex64::ZERO; self.rows];
        for (r, yv) in y.iter_mut().enumerate() {
            *yv = crate::cvec::dotu(self.row(r), x);
        }
        y
    }

    /// Hermitian part `(A + A^H)/2` — used to re-symmetrize σ after each
    /// PT-IM update (paper Alg. 1 line 13, "conjugate symmetrize σ").
    pub fn hermitian_part(&self) -> CMat {
        assert!(self.is_square());
        CMat::from_fn(self.rows, self.cols, |r, c| {
            (self[(r, c)] + self[(c, r)].conj()).scale(0.5)
        })
    }

    /// Measures departure from Hermiticity, `max |A - A^H|`.
    pub fn hermiticity_error(&self) -> f64 {
        assert!(self.is_square());
        let mut e: f64 = 0.0;
        for r in 0..self.rows {
            for c in 0..self.cols {
                e = e.max((self[(r, c)] - self[(c, r)].conj()).abs());
            }
        }
        e
    }

    /// Commutator `[A, B] = AB - BA`.
    pub fn commutator(&self, b: &CMat) -> CMat {
        self.matmul(b).sub(&b.matmul(self))
    }

    /// Real parts of the diagonal.
    pub fn real_diag(&self) -> Vec<f64> {
        assert!(self.is_square());
        (0..self.rows).map(|i| self[(i, i)].re).collect()
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = Complex64;
    #[inline(always)]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline(always)]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Builds a random Hermitian matrix with entries of magnitude ~1 from the
/// supplied uniform generator (test helper shared by several crates).
pub fn random_hermitian(n: usize, mut uniform: impl FnMut() -> f64) -> CMat {
    let mut a = CMat::zeros(n, n);
    for r in 0..n {
        for c in r..n {
            if r == c {
                a[(r, c)] = Complex64::from_re(uniform());
            } else {
                let z = c64(uniform(), uniform());
                a[(r, c)] = z;
                a[(c, r)] = z.conj();
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = CMat::from_fn(3, 3, |r, c| c64((r + 1) as f64, c as f64));
        let i = CMat::identity(3);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-15);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn herm_is_involution() {
        let a = CMat::from_fn(2, 4, |r, c| c64(r as f64, c as f64 - 1.0));
        assert!(a.herm().herm().max_abs_diff(&a) < 1e-15);
        assert_eq!(a.herm().rows(), 4);
    }

    #[test]
    fn trace_and_commutator() {
        let a = CMat::from_fn(3, 3, |r, c| c64((r * 3 + c) as f64, 0.0));
        let b = CMat::identity(3).scaled(c64(2.0, 0.0));
        // [A, 2I] = 0
        assert!(a.commutator(&b).fro_norm() < 1e-14);
        assert_eq!(a.trace(), c64(12.0, 0.0));
    }

    #[test]
    fn hermitian_part_is_hermitian() {
        let a = CMat::from_fn(4, 4, |r, c| c64(r as f64 * 0.3 + 1.0, c as f64 - 2.0));
        let h = a.hermitian_part();
        assert!(h.hermiticity_error() < 1e-15);
        // Idempotent on Hermitian input.
        assert!(h.hermitian_part().max_abs_diff(&h) < 1e-15);
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = CMat::from_fn(3, 2, |r, c| c64(r as f64 + 1.0, c as f64));
        let x = vec![c64(1.0, 1.0), c64(-2.0, 0.5)];
        let xm = CMat::from_vec(2, 1, x.clone());
        let y = a.mul_vec(&x);
        let ym = a.matmul(&xm);
        for i in 0..3 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-14);
        }
    }

    #[test]
    fn diag_constructor() {
        let d = CMat::from_real_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), c64(6.0, 0.0));
        assert_eq!(d.real_diag(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn random_hermitian_is_hermitian() {
        let mut seed = 1u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a = random_hermitian(6, &mut rng);
        assert!(a.hermiticity_error() < 1e-15);
    }
}
