//! Electron density from mixed-state orbitals.
//!
//! The finite-temperature density is `ρ(r) = 2 Σ_ij σ_ij φ_i(r) φ_j*(r)`
//! (spin factor 2, paper Eq. 2). Two evaluation strategies from the paper:
//!
//! * **baseline** — the direct double loop over (i,j) pairs
//!   (Sec. III-C1, cost O(N²·Ng) grid work after N FFTs);
//! * **diagonalized** — rotate to the natural-orbital basis `φ = Φ Q`
//!   with `σ = Q D Q*` (Eq. 11–12) and sum N weighted densities
//!   (Sec. IV-A1, O(N·Ng) after N FFTs).
//!
//! Both must agree to machine precision; a unit test enforces it.

use crate::gvec::PwGrid;
use crate::wavefunction::Wavefunction;
use pwnum::bands;
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;
use pwnum::eigh;

/// Spin degeneracy factor (closed-shell).
pub const SPIN_FACTOR: f64 = 2.0;

/// Baseline mixed-state density: explicit `Σ_ij σ_ij φ_i φ_j*` pair loop.
pub fn density_mixed_baseline(grid: &PwGrid, phi: &Wavefunction, sigma: &CMat) -> Vec<f64> {
    let n = phi.n_bands;
    assert_eq!(sigma.rows(), n);
    assert_eq!(sigma.cols(), n);
    let real = phi.to_real_all(grid);
    let ng = grid.len();
    let mut rho = vec![0.0f64; ng];
    // Diagonal terms + twice the real part of the upper triangle
    // (σ Hermitian makes ρ real).
    for i in 0..n {
        let pi = bands::band(&real, ng, i);
        let sii = sigma[(i, i)].re;
        if sii != 0.0 {
            for (r, z) in rho.iter_mut().zip(pi) {
                *r += sii * z.norm_sqr();
            }
        }
        for j in i + 1..n {
            let sij = sigma[(i, j)];
            if sij == Complex64::ZERO {
                continue;
            }
            let pj = bands::band(&real, ng, j);
            for ((r, zi), zj) in rho.iter_mut().zip(pi).zip(pj) {
                // σ_ij φ_i φ_j* + σ_ji φ_j φ_i* = 2 Re(σ_ij φ_i φ_j*).
                let prod = *zi * zj.conj();
                *r += 2.0 * (sij.re * prod.re - sij.im * prod.im);
            }
        }
    }
    for r in rho.iter_mut() {
        *r *= SPIN_FACTOR;
    }
    rho
}

/// Result of the σ-diagonalization: natural orbitals and occupations.
pub struct NaturalOrbitals {
    /// Rotated orbitals `φ̃ = Φ Q` (G-space).
    pub phi: Wavefunction,
    /// Real occupations `d_i` (eigenvalues of σ, ascending).
    pub occ: Vec<f64>,
    /// The unitary `Q` (columns = eigenvectors of σ).
    pub q: CMat,
}

/// Diagonalizes σ and rotates the orbitals (paper Eq. 11–12); the
/// rotation `Φ Q` is the band-op hot path of the σ-diagonalization.
pub fn natural_orbitals(phi: &Wavefunction, sigma: &CMat) -> NaturalOrbitals {
    let _s = pwobs::span("gemm.natural_orbitals");
    let e = eigh(sigma);
    let rotated = phi.rotated(&e.vectors);
    NaturalOrbitals { phi: rotated, occ: e.values, q: e.vectors }
}

/// Density from natural orbitals: `ρ = 2 Σ_i d_i |φ̃_i|²`.
pub fn density_from_natural(grid: &PwGrid, nat: &NaturalOrbitals) -> Vec<f64> {
    density_diag(grid, &nat.phi, &nat.occ)
}

/// Density from orbitals with *diagonal* occupations (also used for the
/// pure-state / ground-state case where σ is already diagonal).
pub fn density_diag(grid: &PwGrid, phi: &Wavefunction, occ: &[f64]) -> Vec<f64> {
    assert_eq!(occ.len(), phi.n_bands);
    let real = phi.to_real_all(grid);
    let ng = grid.len();
    let mut rho = vec![0.0f64; ng];
    for (i, &d) in occ.iter().enumerate() {
        if d.abs() < 1e-15 {
            continue;
        }
        let pi = bands::band(&real, ng, i);
        for (r, z) in rho.iter_mut().zip(pi) {
            *r += d * z.norm_sqr();
        }
    }
    for r in rho.iter_mut() {
        *r *= SPIN_FACTOR;
    }
    rho
}

/// Integrated electron count `∫ ρ dV`.
pub fn electron_count(grid: &PwGrid, rho: &[f64]) -> f64 {
    rho.iter().sum::<f64>() * grid.dv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Cell;
    use pwnum::c64;

    fn setup() -> (PwGrid, Wavefunction) {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 3.0, [8, 8, 8]);
        let wf = Wavefunction::random(&grid, 5, 21);
        (grid, wf)
    }

    fn test_sigma(n: usize) -> CMat {
        // Hermitian with eigenvalues in (0,1): build f(H) from a random H.
        let h = pwnum::cmat::random_hermitian(n, {
            let mut s = 77u64;
            move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            }
        });
        let e = eigh(&h);
        let d: Vec<f64> = e.values.iter().map(|&w| 1.0 / (1.0 + (3.0 * w).exp())).collect();
        let dm = CMat::from_real_diag(&d);
        let vd = e.vectors.matmul(&dm);
        pwnum::gemm::gemm(
            Complex64::ONE,
            &vd,
            pwnum::gemm::Op::None,
            &e.vectors,
            pwnum::gemm::Op::ConjTrans,
            Complex64::ZERO,
            None,
        )
        .hermitian_part()
    }

    #[test]
    fn baseline_equals_diagonalized() {
        let (grid, wf) = setup();
        let sigma = test_sigma(5);
        let rho_base = density_mixed_baseline(&grid, &wf, &sigma);
        let nat = natural_orbitals(&wf, &sigma);
        let rho_diag = density_from_natural(&grid, &nat);
        let max_diff = rho_base
            .iter()
            .zip(&rho_diag)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-10, "baseline vs diag density: {max_diff}");
    }

    #[test]
    fn electron_count_is_trace() {
        let (grid, wf) = setup();
        let sigma = test_sigma(5);
        let rho = density_mixed_baseline(&grid, &wf, &sigma);
        let ne = electron_count(&grid, &rho);
        let expect = SPIN_FACTOR * sigma.trace().re;
        assert!((ne - expect).abs() < 1e-8, "Ne={ne} vs 2 tr σ = {expect}");
    }

    #[test]
    fn density_is_real_nonnegative_for_valid_sigma() {
        let (grid, wf) = setup();
        let sigma = test_sigma(5);
        let rho = density_mixed_baseline(&grid, &wf, &sigma);
        // σ has eigenvalues in (0,1) -> ρ ≥ 0 everywhere.
        let rmin = rho.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(rmin > -1e-12, "density must be nonnegative, min {rmin}");
    }

    #[test]
    fn pure_state_identity_occupations() {
        let (grid, wf) = setup();
        let occ = vec![1.0; 5];
        let sigma = CMat::identity(5);
        let a = density_diag(&grid, &wf, &occ);
        let b = density_mixed_baseline(&grid, &wf, &sigma);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn natural_occupations_preserve_trace() {
        let (_, wf) = setup();
        let sigma = test_sigma(5);
        let nat = natural_orbitals(&wf, &sigma);
        let sum: f64 = nat.occ.iter().sum();
        assert!((sum - sigma.trace().re).abs() < 1e-10);
        for &d in &nat.occ {
            assert!((-1e-10..=1.0 + 1e-10).contains(&d));
        }
    }

    #[test]
    fn off_diagonal_sigma_changes_density() {
        let (grid, wf) = setup();
        let mut sigma = CMat::identity(5).scaled(c64(0.5, 0.0));
        let rho0 = density_mixed_baseline(&grid, &wf, &sigma);
        sigma[(0, 1)] = c64(0.2, 0.1);
        sigma[(1, 0)] = c64(0.2, -0.1);
        let rho1 = density_mixed_baseline(&grid, &wf, &sigma);
        let diff: f64 = rho0.iter().zip(&rho1).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6, "off-diagonal σ must matter");
        // Trace unchanged -> same electron count.
        let n0 = electron_count(&grid, &rho0);
        let n1 = electron_count(&grid, &rho1);
        assert!((n0 - n1).abs() < 1e-8);
    }
}
