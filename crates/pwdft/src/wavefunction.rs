//! Wavefunction blocks: N bands of plane-wave coefficients.
//!
//! Storage convention: **G-space on the cutoff sphere, band-major** —
//! band `i` occupies the contiguous slice `[i*ng, (i+1)*ng)` of the
//! buffer, where `ng` is the sphere's plane-wave count, holding the
//! *unnormalized forward FFT* of the real-space orbital at the sphere's
//! grid points ([`PwGrid::sphere`], ascending). With the pwfft
//! conventions (`forward` unnormalized, `inverse` 1/n-normalized) this
//! makes `to_real` a scatter onto the grid plus one `inverse` call, and
//! the inner product `<a|b> = (Ω/N²) Σ_G ã* b̃` with N the FFT grid size.
//! Nothing outside the sphere is stored, so nothing there can be nonzero.

use crate::gvec::PwGrid;
use pwnum::backend;
use pwnum::bands;
use pwnum::chol::{cholesky, invert_lower};
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;
use pwnum::eigh;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A block of `n_bands` plane-wave orbitals on a common grid.
#[derive(Clone, Debug)]
pub struct Wavefunction {
    /// Number of bands (orbitals).
    pub n_bands: usize,
    /// Plane waves per band: the cutoff sphere's count
    /// ([`PwGrid::n_pw`]), not the FFT grid size.
    pub ng: usize,
    /// `<a|b>` scale factor `Ω/N²`, N the FFT grid size.
    pub ip_scale: f64,
    /// Band-major sphere coefficients.
    pub data: Vec<Complex64>,
}

impl Wavefunction {
    /// Zero-initialized block.
    pub fn zeros(grid: &PwGrid, n_bands: usize) -> Self {
        let (ng, n) = (grid.n_pw(), grid.len() as f64);
        let data = vec![Complex64::ZERO; n_bands * ng];
        Wavefunction { n_bands, ng, ip_scale: grid.volume() / (n * n), data }
    }

    /// Randomized, orthonormalized block on the cutoff sphere — the
    /// standard starting guess for the ground-state solver.
    ///
    /// # Panics
    /// When `n_bands` exceeds the sphere's plane-wave count: no basis of
    /// that size holds that many orthonormal bands.
    pub fn random(grid: &PwGrid, n_bands: usize, seed: u64) -> Self {
        assert!(
            n_bands <= grid.n_pw(),
            "{n_bands} bands requested, but the cutoff sphere holds only {} plane waves",
            grid.n_pw()
        );
        let mut wf = Self::zeros(grid, n_bands);
        let mut rng = StdRng::seed_from_u64(seed);
        for b in 0..n_bands {
            for (z, g2) in wf.band_mut(b).iter_mut().zip(&grid.sphere_g2) {
                // Decay with |G|² for smoother starting vectors.
                let damp = 1.0 / (1.0 + g2);
                *z = Complex64::new(
                    rng.gen_range(-1.0..1.0) * damp,
                    rng.gen_range(-1.0..1.0) * damp,
                );
            }
        }
        wf.orthonormalize_cholesky();
        wf
    }

    /// Borrow of band `i`'s coefficients.
    #[inline]
    pub fn band(&self, i: usize) -> &[Complex64] {
        bands::band(&self.data, self.ng, i)
    }

    /// Mutable borrow of band `i`.
    #[inline]
    pub fn band_mut(&mut self, i: usize) -> &mut [Complex64] {
        bands::band_mut(&mut self.data, self.ng, i)
    }

    /// Overlap matrix `S[i][j] = <self_i | other_j>`.
    pub fn overlap(&self, other: &Wavefunction) -> CMat {
        assert_eq!(self.ng, other.ng);
        backend::overlap(&self.data, &other.data, self.ng, self.ip_scale)
    }

    /// Inner product of two single bands.
    pub fn dot(&self, i: usize, other: &Wavefunction, j: usize) -> Complex64 {
        pwnum::cvec::dotc(self.band(i), other.band(j)).scale(self.ip_scale)
    }

    /// Returns `self * Q` (subspace rotation; Q is `n_bands x n_out`).
    pub fn rotated(&self, q: &CMat) -> Wavefunction {
        let mut out = Wavefunction {
            n_bands: q.cols(),
            ng: self.ng,
            ip_scale: self.ip_scale,
            data: vec![Complex64::ZERO; q.cols() * self.ng],
        };
        backend::rotate(&self.data, q, self.ng, &mut out.data);
        out
    }

    /// Cholesky-QR orthonormalization: `Φ ← Φ L^{-H}` with `Φ^HΦ = LL^H`.
    /// Fast; requires a numerically full-rank block.
    pub fn orthonormalize_cholesky(&mut self) {
        let s = self.overlap(self);
        let l = cholesky(&s).expect("orthonormalize: rank-deficient wavefunction block");
        let q = invert_lower(&l).herm();
        let mut out = vec![Complex64::ZERO; self.data.len()];
        backend::rotate(&self.data, &q, self.ng, &mut out);
        self.data = out;
    }

    /// Löwdin (symmetric) orthonormalization: `Φ ← Φ S^{-1/2}`.
    ///
    /// Produces the orthonormal set *closest* to the input — exactly what
    /// the PT-IM step needs after updating Φ (paper Alg. 1 line 13), since
    /// it perturbs the parallel-transport gauge least.
    pub fn orthonormalize_lowdin(&mut self) {
        let s = self.overlap(self);
        let e = eigh(&s);
        // S^{-1/2} = V diag(w^{-1/2}) V^H.
        let n = self.n_bands;
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            assert!(
                e.values[i] > 1e-14,
                "Löwdin orthonormalization: singular overlap (w={})",
                e.values[i]
            );
            let w = 1.0 / e.values[i].sqrt();
            for r in 0..n {
                m[(r, i)] = e.vectors[(r, i)].scale(w);
            }
        }
        let q = backend::gemm(
            Complex64::ONE,
            &m,
            pwnum::gemm::Op::None,
            &e.vectors,
            pwnum::gemm::Op::ConjTrans,
            Complex64::ZERO,
            None,
        );
        let mut out = vec![Complex64::ZERO; self.data.len()];
        backend::rotate(&self.data, &q, self.ng, &mut out);
        self.data = out;
    }

    /// Transforms band `i` to real space into `out` (length N, the FFT
    /// grid of `grid`).
    pub fn to_real(&self, grid: &PwGrid, i: usize, out: &mut [Complex64]) {
        out.fill(Complex64::ZERO);
        grid.scatter(self.band(i), out);
        grid.fft().inverse(out);
    }

    /// Transforms all bands to real space (band-major buffer): every
    /// band scattered onto the grid, then one batched inverse FFT.
    pub fn to_real_all(&self, grid: &PwGrid) -> Vec<Complex64> {
        let n = grid.len();
        let mut out = vec![Complex64::ZERO; self.n_bands * n];
        for (b, full) in out.chunks_exact_mut(n).enumerate() {
            grid.scatter(self.band(b), full);
        }
        grid.fft().inverse_many(&mut out, self.n_bands);
        out
    }

    /// Builds a block from band-major real-space values: one batched
    /// forward FFT, then each band's sphere coefficients.
    pub fn from_real(grid: &PwGrid, mut real: Vec<Complex64>) -> Self {
        let n = grid.len();
        assert_eq!(real.len() % n, 0);
        let n_bands = real.len() / n;
        grid.fft().forward_many(&mut real, n_bands);
        let mut wf = Self::zeros(grid, n_bands);
        for (b, full) in real.chunks_exact(n).enumerate() {
            grid.gather(full, wf.band_mut(b));
        }
        wf
    }

    /// Max |coefficient| difference against another block.
    pub fn max_abs_diff(&self, other: &Wavefunction) -> f64 {
        pwnum::cvec::max_abs_diff(&self.data, &other.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Cell;

    fn test_grid() -> PwGrid {
        let cell = Cell::silicon_supercell(1, 1, 1);
        PwGrid::with_dims(&cell, 3.0, [8, 8, 8])
    }

    #[test]
    fn random_block_is_orthonormal() {
        let grid = test_grid();
        let wf = Wavefunction::random(&grid, 6, 42);
        let s = wf.overlap(&wf);
        assert!(s.max_abs_diff(&CMat::identity(6)) < 1e-10);
    }

    #[test]
    fn block_stores_the_cutoff_sphere() {
        let grid = test_grid();
        let wf = Wavefunction::random(&grid, 3, 1);
        assert_eq!(wf.ng, grid.n_pw());
        assert!(wf.ng < grid.len());
        assert_eq!(wf.data.len(), 3 * grid.n_pw());
        let n = grid.len() as f64;
        assert_eq!(wf.ip_scale, grid.volume() / (n * n));
    }

    #[test]
    #[should_panic(expected = "148 bands requested, but the cutoff sphere holds only 147 plane waves")]
    fn more_bands_than_plane_waves_fail_before_the_cholesky() {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 2.0, [8, 8, 8]);
        assert_eq!(grid.n_pw(), 147);
        let _ = Wavefunction::random(&grid, 148, 7);
    }

    #[test]
    fn real_space_normalization() {
        let grid = test_grid();
        let wf = Wavefunction::random(&grid, 2, 7);
        let mut r = vec![Complex64::ZERO; grid.len()];
        wf.to_real(&grid, 0, &mut r);
        let norm: f64 = r.iter().map(|z| z.norm_sqr()).sum::<f64>() * grid.dv();
        assert!((norm - 1.0).abs() < 1e-10, "real-space norm {norm}");
    }

    #[test]
    fn roundtrip_real_gspace() {
        let grid = test_grid();
        let wf = Wavefunction::random(&grid, 3, 3);
        let real = wf.to_real_all(&grid);
        let back = Wavefunction::from_real(&grid, real);
        assert!(wf.max_abs_diff(&back) < 1e-10);
    }

    #[test]
    fn lowdin_vs_cholesky_both_orthonormalize() {
        let grid = test_grid();
        let mut a = Wavefunction::random(&grid, 4, 9);
        // Deliberately deorthonormalize.
        let alpha = Complex64::new(0.3, 0.1);
        let b0 = a.band(0).to_vec();
        pwnum::cvec::axpy(alpha, &b0, a.band_mut(1));
        let mut b = a.clone();

        a.orthonormalize_cholesky();
        b.orthonormalize_lowdin();
        assert!(a.overlap(&a).max_abs_diff(&CMat::identity(4)) < 1e-9);
        assert!(b.overlap(&b).max_abs_diff(&CMat::identity(4)) < 1e-9);
    }

    #[test]
    fn lowdin_minimal_change_property() {
        // For an already orthonormal block, Löwdin is the identity.
        let grid = test_grid();
        let wf = Wavefunction::random(&grid, 5, 11);
        let mut l = wf.clone();
        l.orthonormalize_lowdin();
        assert!(wf.max_abs_diff(&l) < 1e-9);
    }

    #[test]
    fn rotation_by_unitary_preserves_orthonormality() {
        let grid = test_grid();
        let wf = Wavefunction::random(&grid, 3, 13);
        // Build a unitary from a random Hermitian matrix.
        let h = pwnum::cmat::random_hermitian(3, {
            let mut s = 5u64;
            move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            }
        });
        let u = eigh(&h).vectors;
        let rot = wf.rotated(&u);
        assert!(rot.overlap(&rot).max_abs_diff(&CMat::identity(3)) < 1e-9);
    }
}
