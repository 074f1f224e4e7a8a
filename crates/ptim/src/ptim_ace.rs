//! PT-IM-ACE: the double-SCF-loop propagator of Fig. 4(b).
//!
//! The expensive Fock operator is evaluated only when an ACE operator is
//! (re)built: once at `t_n` and once per outer iteration at the midpoint.
//! The predictor and inner SCF are PT-IM's own (`space::Midpoint`) with
//! the *frozen* low-rank `V_ACE` as the H apply — each inner `HΦ` costs
//! two thin GEMMs instead of N² Poisson solves. The paper reports the
//! Fock count dropping from ~25 to ~5 per step (5 outer × ~13 inner).

use crate::engine::TdEngine;
use crate::propagate::{midpoint_parts, step_envelope, StepStats};
use crate::ptim::PtimConfig;
use crate::space::{HApply, Midpoint, Serial};
use crate::state::TdState;
use pwdft::mixing::AndersonMixer;
use pwdft::{AceOperator, Wavefunction};
use pwnum::cmat::CMat;
use std::sync::Arc;

/// PT-IM-ACE parameters.
#[derive(Clone, Copy, Debug)]
pub struct PtimAceConfig {
    /// Time step (a.u.). Paper: 50 as.
    pub dt: f64,
    /// Maximum outer (ACE rebuild) iterations (paper average: 5).
    pub max_outer: usize,
    /// Maximum inner fixed-point iterations per outer (paper average: 13).
    pub max_inner: usize,
    /// Density convergence threshold for the inner loop.
    pub tol_rho: f64,
    /// Exchange-energy convergence threshold for the outer loop
    /// (paper: 1e-6).
    pub tol_ex: f64,
    /// Anderson history depth.
    pub anderson_depth: usize,
    /// Anderson damping.
    pub anderson_beta: f64,
}

impl Default for PtimAceConfig {
    fn default() -> Self {
        PtimAceConfig {
            dt: 50.0 / crate::laser::AU_TIME_AS,
            max_outer: 5,
            max_inner: 13,
            tol_rho: 1e-6,
            tol_ex: 1e-6,
            anderson_depth: 20,
            anderson_beta: 0.6,
        }
    }
}

/// One PT-IM-ACE time step (Fig. 4b) inside the step envelope: PT-IM's
/// predictor and midpoint loop on a frozen ACE, rebuilt at the midpoint
/// until `E_x` settles (`tol_ex`). A failed PT map ends the step at once.
pub fn ptim_ace_step(
    eng: &TdEngine,
    state: &TdState,
    cfg: &PtimAceConfig,
) -> (TdState, StepStats) {
    step_envelope(eng, state, cfg.dt, "step.ptim_ace", |eng, start_err| {
        assert!(eng.hybrid.alpha != 0.0, "PT-IM-ACE requires a hybrid functional");
        let (dt, max_scf, tol_rho) = (cfg.dt, cfg.max_inner, cfg.tol_rho);
        let (anderson_depth, anderson_beta) = (cfg.anderson_depth, cfg.anderson_beta);
        let inner = PtimConfig { dt, max_scf, tol_rho, anderson_depth, anderson_beta };
        let (prev, time) = ((&state.phi, &state.sigma), state.time);
        let (space, stats) = (&mut Serial, StepStats::default());
        let mut step = Midpoint { eng, space, prev, time, cfg: &inner, stats };

        // The predictor on the t_n ACE: its exchange images are freed
        // before the evaluation, the operator before the outer loop.
        let (h_n, _) = frozen_ace(eng, prev, &mut step.stats);
        let Some((mut next, _)) = step.predictor(&h_n) else { return step.end(None, start_err) };
        drop(h_n);

        let mut ex_prev = f64::INFINITY;
        let mut mixer = AndersonMixer::new(anderson_depth, anderson_beta);
        for outer in 0..cfg.max_outer {
            step.stats.outer_iters = outer + 1;
            let mid = midpoint_parts(prev, (&next.phi, &next.sigma));
            let (h_mid, ex_mid) = frozen_ace(eng, (&mid.0, &mid.1), &mut step.stats);
            // Outer convergence on the exchange energy (Fig. 4b decision).
            if (ex_mid - ex_prev).abs() < cfg.tol_ex {
                step.stats.converged = true;
                break;
            }
            ex_prev = ex_mid;
            // Inner SCF on the frozen V_ACE, from an empty history and no
            // previous density; its convergence is not the step's.
            mixer.reset();
            if step.fixed_point(&mut next, &mut mixer, None, &h_mid).is_none() {
                return step.end(None, start_err);
            }
        }
        step.end(Some(next), start_err)
    })
}

/// One Fock build (counted in `fock_applies`): the exchange images of
/// `(Φ, σ)` compressed into ACE, returned as the frozen H apply — two
/// thin GEMMs per `HΦ` — with the exchange energy.
fn frozen_ace(
    eng: &TdEngine,
    (phi, sigma): (&Wavefunction, &CMat),
    stats: &mut StepStats,
) -> (Box<HApply<'static, Serial>>, f64) {
    let (w, ex, fstats) = eng.exchange_images_stats(phi, sigma);
    stats.fock_applies += 1;
    stats.fock_skipped_weight += fstats.skipped_weight;
    let gemm_stage = eng.hybrid.fock.precision.subspace_gemm;
    let ace = Arc::new(AceOperator::build_with_policy(phi, &w, gemm_stage));
    (Box::new(move |eng, _, ev, phi, _| eng.hamiltonian_ace(&ev, Arc::clone(&ace)).apply(phi)), ex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HybridParams;
    use crate::laser::LaserPulse;
    use crate::ptim::{ptim_step, PtimConfig};
    use pwdft::{Cell, DftSystem, Wavefunction};
    use pwnum::cmat::CMat;

    fn fixture() -> (DftSystem, TdState, HybridParams) {
        let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
        let mut phi = Wavefunction::random(&sys.grid, 3, 71);
        phi.orthonormalize_lowdin();
        let sigma = CMat::from_real_diag(&[1.0, 0.6, 0.3]);
        (sys, TdState { phi, sigma, time: 0.0 }, HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() })
    }

    #[test]
    fn ace_step_preserves_invariants() {
        let (sys, st, hyb) = fixture();
        let eng = TdEngine::new(&sys, LaserPulse::off(), hyb);
        let cfg = PtimAceConfig { dt: 0.4, ..Default::default() };
        let (next, stats) = ptim_ace_step(&eng, &st, &cfg);
        assert!(next.orthonormality_error() < 1e-9);
        assert!(next.sigma_hermiticity_error() < 1e-12);
        assert!((next.electron_count() - st.electron_count()).abs() < 1e-8);
        assert!(stats.fock_applies <= cfg.max_outer + 1);
        assert!(stats.fock_applies >= 2);
    }

    #[test]
    fn ace_matches_dense_ptim() {
        // The headline consistency check: PT-IM-ACE must reproduce the
        // dense PT-IM step to the fixed-point tolerance.
        let (sys, st, hyb) = fixture();
        let eng = TdEngine::new(&sys, LaserPulse::off(), hyb);
        let dt = 0.3;
        let dense_cfg = PtimConfig { dt, max_scf: 60, tol_rho: 1e-10, ..Default::default() };
        let ace_cfg = PtimAceConfig {
            dt,
            max_outer: 8,
            max_inner: 30,
            tol_rho: 1e-10,
            tol_ex: 1e-10,
            ..Default::default()
        };
        let (dense_next, dense_stats) = ptim_step(&eng, &st, &dense_cfg);
        let (ace_next, _) = ptim_ace_step(&eng, &st, &ace_cfg);
        assert!(dense_stats.converged);

        // Compare gauge-invariant objects: the density and σ spectrum.
        let rho_dense =
            eng.eval(&dense_next.phi, &dense_next.sigma, dense_next.time).rho;
        let rho_ace = eng.eval(&ace_next.phi, &ace_next.sigma, ace_next.time).rho;
        let res = crate::propagate::density_residual(
            &rho_dense,
            &rho_ace,
            sys.grid.dv(),
            st.electron_count(),
        );
        assert!(res < 5e-5, "ACE vs dense density mismatch: {res}");

        let ev_d = pwnum::eigh(&dense_next.sigma).values;
        let ev_a = pwnum::eigh(&ace_next.sigma).values;
        for (a, b) in ev_d.iter().zip(&ev_a) {
            assert!((a - b).abs() < 5e-4, "σ spectra differ: {a} vs {b}");
        }
    }

    #[test]
    fn fock_count_reduction_vs_dense() {
        // The whole point of ACE (paper: 25 -> 5). On this toy system the
        // exact counts differ, but ACE must use strictly fewer Fock
        // builds than dense PT-IM uses applications.
        let (sys, st, hyb) = fixture();
        let eng = TdEngine::new(&sys, LaserPulse::off(), hyb);
        let dt = 0.4;
        let (_, dense_stats) = ptim_step(
            &eng,
            &st,
            &PtimConfig { dt, max_scf: 40, tol_rho: 1e-9, ..Default::default() },
        );
        let (_, ace_stats) = ptim_ace_step(
            &eng,
            &st,
            &PtimAceConfig { dt, tol_rho: 1e-9, tol_ex: 1e-8, ..Default::default() },
        );
        assert!(
            ace_stats.fock_applies < dense_stats.fock_applies,
            "ACE {} vs dense {}",
            ace_stats.fock_applies,
            dense_stats.fock_applies
        );
    }
}
