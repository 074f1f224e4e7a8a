//! Ground-state self-consistent field driver.
//!
//! Two stages, as in the paper's initial-state preparation:
//!
//! 1. [`scf_lda`] — semi-local SCF with blocked-Davidson diagonalization,
//!    Fermi–Dirac smearing at the target temperature (8000 K in the
//!    paper's production runs), and Anderson density mixing.
//! 2. [`scf_hybrid`] — hybrid-functional refinement: an outer ACE loop
//!    (rebuild `W = VxΦ`, compress, inner SCF with the fixed ACE
//!    operator) — the same double-loop structure PT-IM-ACE reuses during
//!    time propagation (Fig. 4b).
//!
//! The result is the `(Φ(0), σ(0))` initial condition for rt-TDDFT, with
//! σ(0) the diagonal Fermi–Dirac occupation matrix.

use crate::ace::AceOperator;
use crate::davidson::davidson;
use crate::density::{density_diag, electron_count};
use crate::energy::{kinetic_energy, EnergyBreakdown};
use crate::fock::{FockOperator, FockOptions};
use crate::hamiltonian::{build_hxc, Exchange, Hamiltonian};
use crate::mixing::AndersonMixerReal;
use crate::smearing::{occupations, KB_HARTREE};
use crate::system::DftSystem;
use crate::wavefunction::Wavefunction;
use std::sync::Arc;

/// SCF parameters.
#[derive(Clone, Debug)]
pub struct ScfConfig {
    /// Number of bands (use `cell.n_bands(extra_per_atom)`).
    pub n_bands: usize,
    /// Electronic temperature in kelvin (paper: 8000 K).
    pub temperature_k: f64,
    /// Density convergence threshold (max |Δρ| integrated).
    pub tol_rho: f64,
    /// Maximum SCF iterations.
    pub max_scf: usize,
    /// Davidson iterations per SCF cycle.
    pub davidson_iters: usize,
    /// Davidson residual tolerance.
    pub davidson_tol: f64,
    /// Anderson mixing history depth (paper: 20).
    pub mix_depth: usize,
    /// Mixing damping.
    pub mix_beta: f64,
    /// RNG seed for the starting orbitals.
    pub seed: u64,
}

impl Default for ScfConfig {
    fn default() -> Self {
        ScfConfig {
            n_bands: 0,
            temperature_k: 8000.0,
            tol_rho: 1e-6,
            max_scf: 60,
            davidson_iters: 8,
            davidson_tol: 1e-7,
            mix_depth: 20,
            mix_beta: 0.5,
            seed: 12345,
        }
    }
}

/// Hybrid-functional stage parameters.
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// Mixing fraction α (paper: 0.25).
    pub alpha: f64,
    /// Screening ω in bohr⁻¹ (HSE06: 0.106).
    pub omega: f64,
    /// Outer ACE iterations.
    pub outer_iters: usize,
    /// Exchange-energy convergence threshold between outers.
    pub tol_ex: f64,
    /// Fock pair-block scheduler options (screening cutoff, tile size).
    pub fock: FockOptions,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            alpha: 0.25,
            omega: crate::fock::HSE_OMEGA,
            outer_iters: 5,
            tol_ex: 1e-6,
            fock: FockOptions::default(),
        }
    }
}

/// Converged ground state.
pub struct GroundState {
    /// Kohn–Sham orbitals (G-space, orthonormal, ascending energy).
    pub phi: Wavefunction,
    /// Band energies.
    pub eigs: Vec<f64>,
    /// Fermi–Dirac occupations `f_i ∈ [0,1]`.
    pub occ: Vec<f64>,
    /// Chemical potential.
    pub mu: f64,
    /// Converged density.
    pub rho: Vec<f64>,
    /// Energy breakdown.
    pub energies: EnergyBreakdown,
    /// SCF iterations used.
    pub iterations: usize,
    /// Final density residual.
    pub rho_residual: f64,
    /// Total occupation weight dropped by Fock screening across the
    /// hybrid stage's exchange rebuilds
    /// ([`crate::fock::FockApplyStats::skipped_weight`] summed over
    /// outers — the screening error-bound handle; 0 for LDA and at the
    /// default cutoff).
    pub fock_skipped_weight: f64,
}

fn assemble_energies(
    sys: &DftSystem,
    phi: &Wavefunction,
    occ: &[f64],
    rho: &[f64],
    e_hartree: f64,
    e_xc: f64,
    exact_exchange: f64,
) -> EnergyBreakdown {
    EnergyBreakdown {
        kinetic: kinetic_energy(&sys.grid, phi, occ),
        eei: sys.eei_energy(rho),
        hartree: e_hartree,
        xc: e_xc,
        exact_exchange,
        external: 0.0,
        ewald: sys.e_ewald,
    }
}

/// Runs the semi-local (LDA) SCF loop.
pub fn scf_lda(sys: &DftSystem, cfg: &ScfConfig) -> GroundState {
    assert!(cfg.n_bands > 0, "ScfConfig::n_bands must be set");
    let kt = KB_HARTREE * cfg.temperature_k;
    let ne = sys.n_electrons();
    let zeros = vec![0.0; sys.grid.len()];

    let mut rho = sys.uniform_density();
    let mut phi = Wavefunction::random(&sys.grid, cfg.n_bands, cfg.seed);
    let mut mixer = AndersonMixerReal::new(cfg.mix_depth, cfg.mix_beta);
    let mut eigs = vec![0.0; cfg.n_bands];
    let mut occ = vec![0.0; cfg.n_bands];
    let mut mu = 0.0;
    let mut last_hxc = build_hxc(&sys.grid, &sys.fft, &rho);
    let mut residual = f64::INFINITY;
    let mut iterations = 0;

    for it in 0..cfg.max_scf {
        iterations = it + 1;
        let h = Hamiltonian::new(
            &sys.grid,
            &sys.vloc,
            &last_hxc.vhxc,
            &zeros,
            0.0,
            Exchange::None,
            None,
        );
        let r = davidson(&h, &sys.grid, phi, cfg.davidson_iters, cfg.davidson_tol);
        phi = r.phi;
        eigs.copy_from_slice(&r.eigs);
        let (mu_new, occ_new) = occupations(&eigs, ne, kt);
        mu = mu_new;
        occ = occ_new;

        let rho_out = density_diag(&sys.grid, &sys.fft, &phi, &occ);
        // Relative L1 density change: ∫|Δρ| dV / Ne (paper's 1e-6 criterion).
        residual = rho.iter().zip(&rho_out).map(|(a, b)| (a - b).abs()).sum::<f64>()
            * sys.grid.dv()
            / ne;
        if residual < cfg.tol_rho {
            rho = rho_out;
            last_hxc = build_hxc(&sys.grid, &sys.fft, &rho);
            break;
        }
        rho = mixer.step(&rho, &rho_out);
        // Keep the density physical after extrapolation.
        let mut clipped = false;
        for r in rho.iter_mut() {
            if *r < 0.0 {
                *r = 0.0;
                clipped = true;
            }
        }
        if clipped {
            // Renormalize to the correct electron count.
            let n_now = electron_count(&sys.grid, &rho);
            let scale = ne / n_now.max(1e-30);
            for r in rho.iter_mut() {
                *r *= scale;
            }
        }
        last_hxc = build_hxc(&sys.grid, &sys.fft, &rho);
    }

    let energies = assemble_energies(sys, &phi, &occ, &rho, last_hxc.e_hartree, last_hxc.e_xc, 0.0);
    GroundState {
        phi,
        eigs,
        occ,
        mu,
        rho,
        energies,
        iterations,
        rho_residual: residual,
        fock_skipped_weight: 0.0,
    }
}

/// Hybrid-functional refinement with the ACE double loop, starting from a
/// (usually LDA) ground state.
pub fn scf_hybrid(
    sys: &DftSystem,
    cfg: &ScfConfig,
    hyb: &HybridConfig,
    start: GroundState,
) -> GroundState {
    let kt = KB_HARTREE * cfg.temperature_k;
    let ne = sys.n_electrons();
    let zeros = vec![0.0; sys.grid.len()];
    let fock = FockOperator::with_options(
        &sys.grid,
        hyb.omega,
        pwnum::backend::default_backend().clone(),
        hyb.fock,
    );

    let mut gs = start;
    let mut last_ex = 0.0;

    for _outer in 0..hyb.outer_iters {
        // Rebuild the ACE operator on the current orbitals (σ diagonal in
        // the ground state, so the natural orbitals are the orbitals
        // themselves) — pair-symmetric: targets alias sources, so the
        // scheduler solves only i ≤ j pairs.
        let (ace, _w, ex_full, fstats) =
            AceOperator::build_from_fock(&fock, &sys.grid, &sys.fft, &gs.phi, &gs.occ);
        gs.fock_skipped_weight += fstats.skipped_weight;
        let ace = Arc::new(ace);

        // Inner SCF with the fixed ACE operator.
        let mut mixer = AndersonMixerReal::new(cfg.mix_depth, cfg.mix_beta);
        let mut rho = gs.rho.clone();
        let mut hxc = build_hxc(&sys.grid, &sys.fft, &rho);
        for _inner in 0..cfg.max_scf {
            let h = Hamiltonian::new(
                &sys.grid,
                &sys.vloc,
                &hxc.vhxc,
                &zeros,
                hyb.alpha,
                Exchange::Ace(Arc::clone(&ace)),
                None,
            );
            let r = davidson(&h, &sys.grid, gs.phi.clone(), cfg.davidson_iters, cfg.davidson_tol);
            gs.phi = r.phi;
            gs.eigs.copy_from_slice(&r.eigs);
            let (mu_new, occ_new) = occupations(&gs.eigs, ne, kt);
            gs.mu = mu_new;
            gs.occ = occ_new;
            let rho_out = density_diag(&sys.grid, &sys.fft, &gs.phi, &gs.occ);
            let res = rho.iter().zip(&rho_out).map(|(a, b)| (a - b).abs()).sum::<f64>()
                * sys.grid.dv()
                / ne;
            gs.rho_residual = res;
            if res < cfg.tol_rho {
                rho = rho_out;
                hxc = build_hxc(&sys.grid, &sys.fft, &rho);
                break;
            }
            rho = mixer.step(&rho, &rho_out);
            for r in rho.iter_mut() {
                *r = r.max(0.0);
            }
            hxc = build_hxc(&sys.grid, &sys.fft, &rho);
        }
        gs.rho = rho;
        gs.energies = assemble_energies(
            sys,
            &gs.phi,
            &gs.occ,
            &gs.rho,
            hxc.e_hartree,
            hxc.e_xc,
            hyb.alpha * ex_full,
        );
        if (ex_full - last_ex).abs() < hyb.tol_ex {
            break;
        }
        last_ex = ex_full;
    }
    gs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Cell;

    fn small_system() -> DftSystem {
        // Single Si unit cell at a deliberately low cutoff so the test
        // runs in seconds; physics is qualitative, invariants are exact.
        DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 3.0, [10, 10, 10])
    }

    fn small_cfg(n_bands: usize) -> ScfConfig {
        ScfConfig {
            n_bands,
            temperature_k: 8000.0,
            tol_rho: 1e-5,
            max_scf: 50,
            davidson_iters: 8,
            davidson_tol: 1e-7,
            mix_depth: 10,
            mix_beta: 0.6,
            seed: 7,
        }
    }

    #[test]
    fn lda_scf_converges_and_conserves_charge() {
        let sys = small_system();
        let cfg = small_cfg(20);
        let gs = scf_lda(&sys, &cfg);
        assert!(gs.rho_residual < 1e-4, "residual {}", gs.rho_residual);
        let ne = electron_count(&sys.grid, &gs.rho);
        assert!((ne - 32.0).abs() < 1e-6, "electron count {ne}");
        // Fractional occupations present at 8000 K.
        let frac = gs.occ.iter().filter(|&&f| f > 0.01 && f < 0.99).count();
        assert!(frac >= 2, "expect smearing at 8000 K, got {frac} fractional");
        // Total energy should be negative (bound crystal).
        assert!(gs.energies.total() < 0.0, "E = {}", gs.energies.total());
        // Eigenvalues sorted.
        for w in gs.eigs.windows(2) {
            assert!(w[0] <= w[1] + 1e-10);
        }
    }

    #[test]
    fn hybrid_stage_adds_negative_exchange() {
        let sys = small_system();
        let cfg = small_cfg(20);
        let gs = scf_lda(&sys, &cfg);
        let e_lda = gs.energies.total();
        let hyb = HybridConfig { outer_iters: 2, ..Default::default() };
        let gsh = scf_hybrid(&sys, &cfg, &hyb, gs);
        assert!(gsh.energies.exact_exchange < 0.0);
        // Energy changed by the exchange term's magnitude scale.
        assert!(
            (gsh.energies.total() - e_lda).abs() > 1e-4,
            "hybrid must shift the total energy"
        );
        let ne = electron_count(&sys.grid, &gsh.rho);
        assert!((ne - 32.0).abs() < 1e-6);
    }
}
