//! PT-CN: the parallel-transport Crank–Nicolson propagator of Jia, An,
//! Wang & Lin (JCTC 2018) — the paper's *predecessor* baseline.
//!
//! PT-CN solves, by fixed-point iteration,
//!
//! ```text
//! Φ_{n+1} + (iΔt/2)(I − P_{n+1}) H_{n+1} Φ_{n+1}
//!     = Φ_n − (iΔt/2)(I − P_n) H_n Φ_n
//! ```
//!
//! It assumes a **pure state** (σ = I on the occupied manifold): there is
//! no occupation-matrix dynamics at all. That is exactly the limitation
//! the paper's introduction names — "the current PT-CN scheme is only
//! applicable for systems with band gaps" — and the reason PT-IM exists.
//! A regression test below demonstrates the failure: for a
//! fractionally-occupied σ, PT-CN (which freezes σ) diverges from the RK4
//! reference while PT-IM tracks it.

use crate::engine::TdEngine;
use crate::propagate::{density_residual, step_with_drift_guard, StepStats};
use crate::state::TdState;
use pwdft::mixing::AndersonMixer;
use pwdft::Wavefunction;
use pwnum::chol::solve_hpd;
use pwnum::complex::{c64, Complex64};

/// PT-CN parameters.
#[derive(Clone, Copy, Debug)]
pub struct PtcnConfig {
    /// Time step (a.u.).
    pub dt: f64,
    /// Maximum fixed-point iterations.
    pub max_scf: usize,
    /// Density convergence threshold (relative L1).
    pub tol_rho: f64,
    /// Anderson history depth.
    pub anderson_depth: usize,
    /// Anderson damping.
    pub anderson_beta: f64,
}

impl Default for PtcnConfig {
    fn default() -> Self {
        PtcnConfig {
            dt: 50.0 / crate::laser::AU_TIME_AS,
            max_scf: 30,
            tol_rho: 1e-8,
            anderson_depth: 20,
            anderson_beta: 0.6,
        }
    }
}

impl PtcnConfig {
    /// The same configuration with a different time step — how the
    /// recovery ladder builds its halved-dt retries.
    pub fn with_dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }
}

/// `(I − P) H Φ` with `P = Φ (Φ^HΦ)⁻¹ Φ^H` — the parallel-transport
/// residual force on the orbital block.
fn pt_force(h: &pwdft::Hamiltonian, phi: &Wavefunction) -> Vec<Complex64> {
    let ng = phi.ng;
    let be = &*h.backend;
    let hphi = h.apply(phi);
    let s = phi.overlap_with(be, phi);
    let hm = phi.overlap_with(be, &hphi).hermitian_part();
    let c = solve_hpd(&s, &hm).expect("overlap must remain positive definite");
    let mut force = hphi.data;
    be.rotate_acc(Complex64::from_re(-1.0), &phi.data, &c, ng, &mut force);
    force
}

/// One PT-CN step. The occupation matrix is carried along *unchanged*
/// (the scheme has no σ dynamics — its defining limitation). Under a
/// reduced precision policy the step runs the drift monitor.
pub fn ptcn_step(eng: &TdEngine, state: &TdState, cfg: &PtcnConfig) -> (TdState, StepStats) {
    step_with_drift_guard(eng, |e| ptcn_step_once(e, state, cfg))
}

/// One unguarded PT-CN step (the drift monitor wraps this).
fn ptcn_step_once(eng: &TdEngine, state: &TdState, cfg: &PtcnConfig) -> (TdState, StepStats) {
    let _s = pwobs::span("step.ptcn");
    let solve_snap = eng.counters.snapshot();
    let start_err = crate::propagate::monitor_active(eng)
        .then(|| state.orthonormality_error());
    let dt = cfg.dt;
    let ne = state.electron_count();
    let dv = eng.sys.grid.dv();
    let mut stats = StepStats::default();

    // Constant right-hand side: Φ_n − (iΔt/2)(I−P_n)H_nΦ_n. Scoped: only
    // it and the density outlive H_n, its natural orbitals and the force.
    let (rhs, mut rho_prev) = {
        let ev_n = eng.eval(&state.phi, &state.sigma, state.time);
        let h_n = eng.hamiltonian_dense(&ev_n);
        let force_n = pt_force(&h_n, &state.phi);
        let mut rhs = Wavefunction::zeros_like(&state.phi);
        eng.backend.lincomb(
            Complex64::ONE,
            &state.phi.data,
            c64(0.0, -0.5 * dt),
            &force_n,
            &mut rhs.data,
        );
        (rhs, ev_n.rho)
    };
    if eng.hybrid.alpha != 0.0 {
        stats.fock_applies += 1;
    }

    // Fixed point on Φ_{n+1}.
    let mut next =
        TdState { phi: state.phi.clone(), sigma: state.sigma.clone(), time: state.time + dt };
    let mut mixer = AndersonMixer::new(cfg.anderson_depth, cfg.anderson_beta);
    let mut image = Wavefunction::zeros_like(&next.phi);

    for it in 0..cfg.max_scf {
        stats.scf_iters = it + 1;
        let ev = eng.eval(&next.phi, &state.sigma, state.time + dt);
        stats.residual = density_residual(&ev.rho, &rho_prev, dv, ne);
        rho_prev = ev.rho.clone();
        if it > 0 && stats.residual < cfg.tol_rho {
            stats.converged = true;
            break;
        }
        let h = eng.hamiltonian_dense(&ev);
        if eng.hybrid.alpha != 0.0 {
            stats.fock_applies += 1;
        }
        let force = pt_force(&h, &next.phi);
        // T(Φ) = rhs − (iΔt/2)(I−P)HΦ.
        eng.backend.lincomb(
            Complex64::ONE,
            &rhs.data,
            c64(0.0, -0.5 * dt),
            &force,
            &mut image.data,
        );
        next.phi.data = mixer.step(&next.phi.data, &image.data);
    }

    if let Some(e0) = start_err {
        stats.orthonormality_drift = (next.orthonormality_error() - e0).max(0.0);
    }
    (stats.fock_solves_fp64, stats.fock_solves_fp32) = eng.counters.since(solve_snap);
    stats.pool_peak_bytes = crate::propagate::pool_peak_bytes(eng);
    next.phi.orthonormalize_lowdin();
    (next, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HybridParams;
    use crate::laser::LaserPulse;
    use crate::ptim::{ptim_step, PtimConfig};
    use crate::rk4::{rk4_step, Rk4Config};
    use pwdft::{Cell, DftSystem};
    use pwnum::cmat::CMat;

    fn fixture(occ: &[f64]) -> (DftSystem, TdState) {
        let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
        let mut phi = Wavefunction::random(&sys.grid, occ.len(), 47);
        phi.orthonormalize_lowdin();
        let sigma = CMat::from_real_diag(occ);
        (sys, TdState { phi, sigma, time: 0.0 })
    }

    fn dipole_after(
        eng: &TdEngine,
        run: impl FnOnce(&TdEngine) -> TdState,
    ) -> f64 {
        let s = run(eng);
        let ev = eng.eval(&s.phi, &s.sigma, s.time);
        eng.dipole_x(&ev.rho)
    }

    #[test]
    fn ptcn_conserves_energy_pure_state_field_free() {
        let (sys, st) = fixture(&[1.0, 1.0, 1.0]);
        let eng =
            TdEngine::new(&sys, LaserPulse::off(), HybridParams { alpha: 0.0, omega: 0.1, ..Default::default() });
        let e0 = eng.total_energy(&st).total();
        let mut s = st;
        let cfg = PtcnConfig { dt: 0.5, ..Default::default() };
        for _ in 0..5 {
            let (next, stats) = ptcn_step(&eng, &s, &cfg);
            assert!(stats.converged, "PT-CN fixed point");
            s = next;
        }
        let e1 = eng.total_energy(&s).total();
        assert!((e1 - e0).abs() < 1e-4 * e0.abs().max(1.0), "drift {e0} -> {e1}");
        assert!(s.orthonormality_error() < 1e-9);
    }

    #[test]
    fn ptcn_matches_ptim_for_pure_states() {
        // With σ = I the commutator dynamics vanish and PT-CN and PT-IM
        // integrate the same flow (both are second-order symmetric).
        let (sys, st) = fixture(&[1.0, 1.0, 1.0]);
        let laser = LaserPulse { e0: 0.02, omega: 0.1, t_center: 4.0, t_width: 4.0 };
        let eng = TdEngine::new(&sys, laser, HybridParams { alpha: 0.0, omega: 0.1, ..Default::default() });
        let dt = 0.5;
        let n = 4;

        let d_cn = dipole_after(&eng, |eng| {
            let mut s = st.clone();
            for _ in 0..n {
                let (next, _) = ptcn_step(&eng, &s, &PtcnConfig { dt, ..Default::default() });
                s = next;
            }
            s
        });
        let d_im = dipole_after(&eng, |eng| {
            let mut s = st.clone();
            for _ in 0..n {
                let (next, _) = ptim_step(
                    &eng,
                    &s,
                    &PtimConfig { dt, max_scf: 40, tol_rho: 1e-9, ..Default::default() },
                );
                s = next;
            }
            s
        });
        // Both are second-order but not the same scheme (trapezoidal vs
        // midpoint): agreement is O(Δt²)-tight, not exact.
        assert!(
            (d_cn - d_im).abs() < 5e-3 * d_im.abs().max(1.0),
            "pure-state PT-CN {d_cn} vs PT-IM {d_im}"
        );
    }

    #[test]
    fn ptcn_fails_for_mixed_states_where_ptim_succeeds() {
        // The paper's core motivation (Sec. I): PT-CN freezes σ, so for a
        // fractionally-occupied system under a field it diverges from the
        // exact (RK4) dynamics, while PT-IM tracks them.
        let occ = [1.0, 0.7, 0.4, 0.15];
        let (sys, st) = fixture(&occ);
        let laser = LaserPulse { e0: 0.05, omega: 0.1, t_center: 4.0, t_width: 4.0 };
        let eng = TdEngine::new(&sys, laser, HybridParams { alpha: 0.0, omega: 0.1, ..Default::default() });
        let dt = 1.0;
        let n = 4;

        // Reference: RK4 with a small step.
        let d_ref = dipole_after(&eng, |eng| {
            let mut s = st.clone();
            for _ in 0..n * 25 {
                let (next, _) = rk4_step(&eng, &s, &Rk4Config { dt: dt / 25.0 });
                s = next;
            }
            s
        });
        let d_im = dipole_after(&eng, |eng| {
            let mut s = st.clone();
            for _ in 0..n {
                let (next, _) = ptim_step(
                    &eng,
                    &s,
                    &PtimConfig { dt, max_scf: 40, tol_rho: 1e-9, ..Default::default() },
                );
                s = next;
            }
            s
        });
        let d_cn = dipole_after(&eng, |eng| {
            let mut s = st.clone();
            for _ in 0..n {
                let (next, _) = ptcn_step(&eng, &s, &PtcnConfig { dt, ..Default::default() });
                s = next;
            }
            s
        });

        let err_im = (d_im - d_ref).abs();
        let err_cn = (d_cn - d_ref).abs();
        assert!(
            err_cn > 3.0 * err_im,
            "PT-CN must be qualitatively worse for mixed states: \
             |Δ_CN| = {err_cn:.3e} vs |Δ_IM| = {err_im:.3e} (reference {d_ref:.5})"
        );
    }
}
