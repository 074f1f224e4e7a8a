//! Fourth-order Runge–Kutta reference propagator (the paper's accuracy
//! baseline, Fig. 7).
//!
//! RK4 works in the Schrödinger gauge: `i ∂_t Ψ = H(t, P) Ψ` with the
//! occupation matrix *constant* (gauge equivalence to PT-IM is exactly
//! what Fig. 7 validates). Stability requires sub-attosecond steps —
//! the paper uses Δt 100× smaller than PT-IM's 50 as.

use crate::engine::TdEngine;
use crate::propagate::{step_envelope, StepStats};
use crate::space::{apply_h, BandSpace, Serial};
use crate::state::TdState;
use pwdft::Wavefunction;
use pwnum::bands;
use pwnum::complex::{c64, Complex64};

/// RK4 step size configuration.
#[derive(Clone, Copy, Debug)]
pub struct Rk4Config {
    /// Time step (a.u.). Paper: 0.5 as ≈ 0.0207 a.u.
    pub dt: f64,
}

/// Derivative `f(t, Φ) = −i H(t, P[Φ, σ]) Φ` at fixed σ: the dense H
/// apply at the point Φ itself, its exchange charged to `stats`.
fn derivative(
    eng: &TdEngine,
    phi: &Wavefunction,
    state: &TdState,
    t: f64,
    stats: &mut StepStats,
) -> Wavefunction {
    let space = &mut Serial(&*eng.backend);
    let ev = space.evaluate(eng, phi, &state.sigma, t);
    let mut hphi = apply_h(eng, space, ev, phi, stats);
    for z in hphi.data.iter_mut() {
        *z *= c64(0.0, -1.0);
    }
    hphi
}

fn axpy_block(alpha: f64, x: &Wavefunction, y: &Wavefunction) -> Wavefunction {
    let mut out = Wavefunction::zeros_like(y);
    bands::lincomb(
        Complex64::from_re(alpha),
        &x.data,
        Complex64::ONE,
        &y.data,
        &mut out.data,
    );
    out
}

/// One RK4 step; returns the new state and step statistics
/// (4 Hamiltonian applications = 4 Fock evaluations in hybrid mode),
/// inside the step envelope.
pub fn rk4_step(eng: &TdEngine, state: &TdState, cfg: &Rk4Config) -> (TdState, StepStats) {
    step_envelope(eng, state, cfg.dt, "step.rk4", |eng, start_err| {
        let (dt, t) = (cfg.dt, state.time);
        let mut stats = StepStats { converged: true, ..Default::default() };
        let k1 = derivative(eng, &state.phi, state, t, &mut stats);
        let phi2 = axpy_block(0.5 * dt, &k1, &state.phi);
        let k2 = derivative(eng, &phi2, state, t + 0.5 * dt, &mut stats);
        let phi3 = axpy_block(0.5 * dt, &k2, &state.phi);
        let k3 = derivative(eng, &phi3, state, t + 0.5 * dt, &mut stats);
        let phi4 = axpy_block(dt, &k3, &state.phi);
        let k4 = derivative(eng, &phi4, state, t + dt, &mut stats);

        let mut phi_next = state.phi.clone();
        for (((o, a), b), (c, d)) in phi_next
            .data
            .iter_mut()
            .zip(&k1.data)
            .zip(&k4.data)
            .zip(k2.data.iter().zip(&k3.data))
        {
            *o += (*a + *b + (*c + *d).scale(2.0)).scale(dt / 6.0);
        }

        let next = TdState { phi: phi_next, sigma: state.sigma.clone(), time: t + dt };
        // RK4 never re-orthonormalizes, so the step's *increase* in
        // orthonormality error is the drift signal — the state's own
        // (cumulative) error would eventually trip the monitor from
        // ordinary integration drift on long runs.
        stats.orthonormality_drift =
            start_err.map(|e0| (next.orthonormality_error() - e0).max(0.0)).unwrap_or(0.0);
        (next, stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HybridParams;
    use crate::laser::LaserPulse;
    use pwdft::{Cell, DftSystem};
    use pwnum::cmat::CMat;

    fn fixture() -> (DftSystem, TdState) {
        let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
        let mut phi = Wavefunction::random(&sys.grid, 3, 41);
        phi.orthonormalize_lowdin();
        let sigma = CMat::from_real_diag(&[1.0, 0.7, 0.3]);
        let st = TdState { phi, sigma, time: 0.0 };
        (sys, st)
    }

    #[test]
    fn rk4_preserves_orthonormality_and_charge() {
        let (sys, st) = fixture();
        let eng =
            TdEngine::new(&sys, LaserPulse::off(), HybridParams { alpha: 0.0, omega: 0.1, ..Default::default() });
        let cfg = Rk4Config { dt: 0.02 };
        let mut s = st;
        for _ in 0..10 {
            let (next, _) = rk4_step(&eng, &s, &cfg);
            s = next;
        }
        assert!(s.orthonormality_error() < 1e-6, "ortho {}", s.orthonormality_error());
        assert!((s.electron_count() - 4.0).abs() < 1e-10);
        assert!((s.time - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rk4_energy_conservation_field_free() {
        let (sys, st) = fixture();
        let eng =
            TdEngine::new(&sys, LaserPulse::off(), HybridParams { alpha: 0.0, omega: 0.1, ..Default::default() });
        let e0 = eng.total_energy(&st).total();
        let cfg = Rk4Config { dt: 0.02 };
        let mut s = st;
        for _ in 0..20 {
            let (next, _) = rk4_step(&eng, &s, &cfg);
            s = next;
        }
        let e1 = eng.total_energy(&s).total();
        assert!(
            (e1 - e0).abs() < 1e-5 * e0.abs().max(1.0),
            "energy drift {e0} -> {e1}"
        );
    }

    #[test]
    fn rk4_counts_fock_in_hybrid_mode() {
        let (sys, st) = fixture();
        let eng = TdEngine::new(&sys, LaserPulse::off(), HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() });
        let (_, stats) = rk4_step(&eng, &st, &Rk4Config { dt: 0.01 });
        assert_eq!(stats.fock_applies, 4);
    }
}
