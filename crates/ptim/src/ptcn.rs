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
//! with PT-IM's projection `(I − P)HΦ` (`space::pt_project`) and Löwdin
//! step (`space::finish`); its fixed point is its own, over Φ alone and
//! with no midpoint. It assumes a **pure state** (σ = I on the occupied
//! manifold): no occupation-matrix dynamics at all — the limitation the
//! paper's introduction names ("the current PT-CN scheme is only
//! applicable for systems with band gaps") and the reason PT-IM exists.
//! A test below shows PT-CN (σ frozen) diverging from RK4 for a
//! fractionally-occupied σ while PT-IM tracks it.

use crate::engine::TdEngine;
use crate::propagate::{density_residual, step_envelope, StepStats};
use crate::space::{apply_h, failed, finish, pt_project, BandSpace, Serial};
use crate::state::TdState;
use pwdft::mixing::AndersonMixer;
use pwdft::Wavefunction;
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

/// One PT-CN step inside the step envelope. σ is carried along
/// *unchanged* (the scheme has no σ dynamics — its defining limitation);
/// a failed PT projection ends the step at once with NaN Φ/σ.
pub fn ptcn_step(eng: &TdEngine, state: &TdState, cfg: &PtcnConfig) -> (TdState, StepStats) {
    step_envelope(eng, state, cfg.dt, "step.ptcn", |eng, start_err| {
        let (be, dt, dv, ne) = (&*eng.backend, cfg.dt, eng.sys.grid.dv(), state.electron_count());
        let (space, mut stats) = (&mut Serial(be), StepStats::default());
        let fail = |stats| failed((&state.phi, &state.sigma), state.time + dt, stats);
        // `base − (iΔt/2)(I − P)HΦ` with the dense H at `ev`; `None` when
        // the PT projection fails.
        let half_step =
            |space: &mut Serial, ev, phi: &Wavefunction, base: &Wavefunction, st: &mut StepStats| {
                let hphi = apply_h(eng, space, ev, phi, st);
                let (force, _) = pt_project(space, phi, hphi)?;
                let mut out = Wavefunction::zeros_like(phi);
                let coef = c64(0.0, -0.5 * dt);
                be.lincomb(Complex64::ONE, &base.data, coef, &force.data, &mut out.data);
                Some(out)
            };

        // Constant right-hand side: Φ_n − (iΔt/2)(I−P_n)H_nΦ_n.
        let mut ev = space.evaluate(eng, &state.phi, &state.sigma, state.time);
        let mut rho_prev = std::mem::take(&mut ev.rho);
        let Some(rhs) = half_step(space, ev, &state.phi, &state.phi, &mut stats) else {
            return fail(stats);
        };

        // Fixed point on Φ_{n+1}: T(Φ) = rhs − (iΔt/2)(I−P)HΦ.
        let mut next =
            TdState { phi: state.phi.clone(), sigma: state.sigma.clone(), time: state.time + dt };
        let mut mixer = AndersonMixer::new(cfg.anderson_depth, cfg.anderson_beta);
        for it in 0..cfg.max_scf {
            stats.scf_iters = it + 1;
            let mut ev = space.evaluate(eng, &next.phi, &state.sigma, state.time + dt);
            stats.residual = density_residual(&ev.rho, &rho_prev, dv, ne);
            rho_prev = std::mem::take(&mut ev.rho);
            if it > 0 && stats.residual < cfg.tol_rho {
                stats.converged = true;
                break;
            }
            let Some(image) = half_step(space, ev, &next.phi, &rhs, &mut stats) else {
                return fail(stats);
            };
            next.phi.data = mixer.step(&next.phi.data, &image.data);
        }
        finish(space, be, &mut next, start_err, &mut stats);
        (next, stats)
    })
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
                let (next, _) = ptcn_step(eng, &s, &PtcnConfig { dt, ..Default::default() });
                s = next;
            }
            s
        });
        let d_im = dipole_after(&eng, |eng| {
            let mut s = st.clone();
            for _ in 0..n {
                let (next, _) = ptim_step(
                    eng,
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
                let (next, _) = rk4_step(eng, &s, &Rk4Config { dt: dt / 25.0 });
                s = next;
            }
            s
        });
        let d_im = dipole_after(&eng, |eng| {
            let mut s = st.clone();
            for _ in 0..n {
                let (next, _) = ptim_step(
                    eng,
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
                let (next, _) = ptcn_step(eng, &s, &PtcnConfig { dt, ..Default::default() });
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
