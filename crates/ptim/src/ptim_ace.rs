//! PT-IM-ACE: the double-SCF-loop propagator of Fig. 4(b).
//!
//! The expensive Fock operator is evaluated only when an ACE operator is
//! (re)built: once at `t_n` and once per outer iteration at the midpoint.
//! The inner SCF then iterates the PT-IM fixed point with the *frozen*
//! low-rank `V_ACE` — each inner `HΦ` costs two thin GEMMs instead of N²
//! Poisson solves. The paper reports the Fock count dropping from ~25 to
//! ~5 per step (5 outer × ~13 inner on the 384-atom system).

use crate::engine::TdEngine;
use crate::propagate::{
    density_residual, midpoint_parts, pt_update, step_with_drift_guard, StepStats,
};
use crate::space::{finish, Serial};
use crate::state::TdState;
use pwdft::mixing::AndersonMixer;
use pwdft::AceOperator;
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

impl PtimAceConfig {
    /// The same configuration with a different time step — how the
    /// recovery ladder builds its halved-dt retries.
    pub fn with_dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }
}

/// One PT-IM-ACE time step (Fig. 4b). Under a reduced precision policy
/// the step runs the drift monitor.
pub fn ptim_ace_step(
    eng: &TdEngine,
    state: &TdState,
    cfg: &PtimAceConfig,
) -> (TdState, StepStats) {
    step_with_drift_guard(eng, |e| ptim_ace_step_once(e, state, cfg))
}

/// One unguarded PT-IM-ACE step (the drift monitor wraps this).
fn ptim_ace_step_once(
    eng: &TdEngine,
    state: &TdState,
    cfg: &PtimAceConfig,
) -> (TdState, StepStats) {
    let _s = pwobs::span("step.ptim_ace");
    assert!(eng.hybrid.alpha != 0.0, "PT-IM-ACE requires a hybrid functional");
    let solve_snap = eng.counters.snapshot();
    let start_err = crate::propagate::monitor_active(eng)
        .then(|| state.orthonormality_error());
    let dt = cfg.dt;
    let t_mid = state.time + 0.5 * dt;
    let ne = state.electron_count();
    let dv = eng.sys.grid.dv();
    let (be, start) = (&*eng.backend, (&state.phi, &state.sigma));
    let mut stats = StepStats::default();

    // ACE at t_n (one Fock build), used for the predictor step. Scoped:
    // the exchange images, the operator and H_n are freed before the
    // outer loop builds its own.
    let gemm_stage = eng.hybrid.fock.precision.subspace_gemm;
    let mut next = {
        let (w_n, _ex_n, fstats) = eng.exchange_images_stats(&state.phi, &state.sigma);
        stats.fock_applies += 1;
        stats.fock_skipped_weight += fstats.skipped_weight;
        let ace_n =
            AceOperator::build_with_policy(eng.backend.clone(), &state.phi, &w_n, gemm_stage);
        drop(w_n);
        let ev_n = eng.eval(&state.phi, &state.sigma, state.time);
        let h_n = eng.hamiltonian_ace(&ev_n, ace_n);
        let (phi, sigma) = pt_update(state, &h_n, &state.phi, &state.sigma, dt);
        TdState { phi, sigma, time: state.time + dt }
    };

    let mut ex_prev = f64::INFINITY;
    let mut mixer = AndersonMixer::new(cfg.anderson_depth, cfg.anderson_beta);
    let (mut x, mut tx) = (Vec::new(), Vec::new());

    for outer in 0..cfg.max_outer {
        stats.outer_iters = outer + 1;
        // Rebuild the midpoint ACE operator from the current iterate
        // (one Fock build per outer iteration).
        let (phi_mid0, sigma_mid0) = midpoint_parts(be, start, (&next.phi, &next.sigma));
        let (w_mid, ex_mid, fstats) = eng.exchange_images_stats(&phi_mid0, &sigma_mid0);
        stats.fock_applies += 1;
        stats.fock_skipped_weight += fstats.skipped_weight;
        let ace_mid = Arc::new(AceOperator::build_with_policy(
            eng.backend.clone(),
            &phi_mid0,
            &w_mid,
            gemm_stage,
        ));

        // Outer convergence on the exchange energy (Fig. 4b decision).
        if (ex_mid - ex_prev).abs() < cfg.tol_ex {
            stats.converged = true;
            break;
        }
        ex_prev = ex_mid;

        // Inner SCF with the frozen V_ACE; each inner solve starts from
        // an empty history.
        mixer.reset();
        let mut rho_prev: Option<Vec<f64>> = None;
        for inner in 0..cfg.max_inner {
            stats.scf_iters += 1;
            let (phi_mid, sigma_mid) = midpoint_parts(be, start, (&next.phi, &next.sigma));
            let ev_mid = eng.eval(&phi_mid, &sigma_mid, t_mid);
            if let Some(prev) = &rho_prev {
                stats.residual = density_residual(&ev_mid.rho, prev, dv, ne);
                if stats.residual < cfg.tol_rho {
                    break;
                }
            }
            rho_prev = Some(ev_mid.rho.clone());
            let h_mid = eng.hamiltonian_ace(&ev_mid, Arc::clone(&ace_mid));
            let (phi_new, sigma_new) = pt_update(state, &h_mid, &phi_mid, &sigma_mid, dt);
            next.pack_into(&mut x);
            TdState { phi: phi_new, sigma: sigma_new, time: next.time }.pack_into(&mut tx);
            next.unpack_into(&mixer.step(&x, &tx));
            let _ = inner;
        }
    }

    (stats.fock_solves_fp64, stats.fock_solves_fp32) = eng.counters.since(solve_snap);
    stats.pool_peak_bytes = crate::propagate::pool_peak_bytes(eng);
    finish(&mut Serial(be), be, &mut next, start_err, &mut stats);
    (next, stats)
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
