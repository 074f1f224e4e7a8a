//! Shared propagation primitives: the step envelope every serial
//! propagator runs in, the public PT-IM update map (Eq. 6) and step
//! statistics.

use crate::engine::TdEngine;
use crate::space::{failed, pt_map, Serial};
use crate::state::TdState;
use pwdft::hamiltonian::Hamiltonian;
use pwdft::Wavefunction;
use pwnum::bands;
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;

/// Per-step cost/convergence statistics (the quantities the paper's
/// Fig. 9 discussion tracks: SCF counts and Fock-operator applications).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Fixed-point (inner SCF) iterations used.
    pub scf_iters: usize,
    /// Outer (ACE rebuild) iterations, 0 for non-ACE propagators.
    pub outer_iters: usize,
    /// Number of full Fock-exchange evaluations (`VxΦ` builds or dense
    /// applications) in this step.
    pub fock_applies: usize,
    /// Whether the fixed point converged within the iteration budget.
    pub converged: bool,
    /// Final density residual (relative L1).
    pub residual: f64,
    /// Total occupation weight dropped by Fock screening across the
    /// step's exchange evaluations (Σ of
    /// [`FockApplyStats::skipped_weight`](pwdft::FockApplyStats) — the
    /// error-bound handle of DESIGN.md §3; 0 at the default cutoff).
    /// Filled by every propagator: PT-IM-ACE's ACE builds, the dense
    /// applies of PT-IM and RK4, and the ring exchange of
    /// `dist_ptim_step`, where it is this rank's share (summed over
    /// ranks, the serial weight).
    pub fock_skipped_weight: f64,
    /// Screened Poisson solves performed in fp64 during this step
    /// (snapshot delta of the engine's shared
    /// [`SolveCounters`](pwdft::fock::SolveCounters)). In
    /// `dist_ptim_step` it is this rank's share, as for
    /// `fock_skipped_weight` (summed over ranks, the step's solves).
    pub fock_solves_fp64: usize,
    /// Screened Poisson solves performed in fp32 during this step —
    /// the per-step precision count of the mixed pipeline. After an
    /// auto-promotion this still includes the discarded fp32 work. This
    /// rank's share in `dist_ptim_step`.
    pub fock_solves_fp32: usize,
    /// The step's *increase* in the propagated orbitals' orthonormality
    /// error, measured before the end-of-step constraints — the drift
    /// signal the precision monitor trips on. Only measured (nonzero)
    /// when the monitor is active: a reduced exchange stage with a
    /// finite `promote_drift` on a hybrid run.
    pub orthonormality_drift: f64,
    /// 1 when the drift monitor tripped and the step was recomputed at
    /// fp64 (see
    /// [`PrecisionPolicy::promote_drift`](pwnum::precision::PrecisionPolicy)).
    pub precision_promotions: usize,
    /// Number of dt halvings the recovery ladder needed before this
    /// step's result was finite (0 on a healthy step; see
    /// [`step_with_recovery`](crate::resilience::step_with_recovery)).
    pub recovery_dt_halvings: usize,
    /// Checkpoint restores charged to this step by the
    /// [`resilience::run`](crate::resilience::run) driver (the step that
    /// finally succeeded after a restore carries the count).
    pub recovery_restores: usize,
    /// High-water mark of the backend buffer pools (fp64 + fp32 arenas,
    /// bytes) as of the end of this step — the engine-lifetime peak from
    /// [`Backend::pool_stats`](pwnum::backend::Backend::pool_stats), not
    /// a per-step delta (pools only grow, so the last step's value is
    /// the run's working-set peak).
    pub pool_peak_bytes: usize,
}

/// The step envelope of the three serial propagators, around
/// `body(engine, start_err)`. A non-finite `state` is the [`failed`] step
/// at once: no `eigh` of a NaN σ, no ACE build. Otherwise: the step span,
/// the solve snapshot, `start_err` (the starting orthonormality error,
/// when a hybrid run's reduced exchange stage is monitored), the body,
/// the solve counts and the pool peak — under the drift guard, which
/// recomputes the whole step on an all-fp64 engine when the drift is
/// above [`PrecisionPolicy::promote_drift`](pwnum::precision::PrecisionPolicy)
/// or non-finite. The guard is for *catastrophic* fp32 failures; routine
/// fp32 rounding sits orders of magnitude below the default threshold
/// (DESIGN.md §"Precision error budget").
pub(crate) fn step_envelope<'s>(
    eng: &TdEngine<'s>,
    state: &TdState,
    dt: f64,
    span: &'static str,
    body: impl Fn(&TdEngine<'s>, Option<f64>) -> (TdState, StepStats),
) -> (TdState, StepStats) {
    if !state.all_finite() {
        return failed((&state.phi, &state.sigma), state.time + dt, StepStats::default());
    }
    let monitors = |e: &TdEngine| e.hybrid.alpha != 0.0 && e.hybrid.fock.precision.monitors_drift();
    let step = |eng: &TdEngine<'s>| {
        let _s = pwobs::span(span);
        let solve_snap = eng.counters.snapshot();
        let start_err = monitors(eng).then(|| state.orthonormality_error());
        let (next, mut stats) = body(eng, start_err);
        (stats.fock_solves_fp64, stats.fock_solves_fp32) = eng.counters.since(solve_snap);
        let ps = eng.backend.pool_stats();
        stats.pool_peak_bytes = ps.fp64.peak_bytes + ps.fp32.peak_bytes;
        (next, stats)
    };
    let _s = pwobs::span("step.guard");
    let (next, stats) = step(eng);
    // Not tripped: a finite drift at or under the threshold.
    if !monitors(eng) || stats.orthonormality_drift <= eng.hybrid.fock.precision.promote_drift {
        return (next, stats);
    }
    // Auto-promotion: recompute the step at fp64. The discarded
    // attempt's solves stay visible in the stats so cost accounting is
    // honest.
    let (next64, mut stats64) = step(&eng.promoted());
    stats64.precision_promotions = 1;
    stats64.fock_solves_fp32 += stats.fock_solves_fp32;
    stats64.fock_solves_fp64 += stats.fock_solves_fp64;
    // Keep the drift value that tripped the guard (the promoted rerun's
    // monitor is inactive, so it would otherwise report 0).
    stats64.orthonormality_drift = stats.orthonormality_drift;
    (next64, stats64)
}

/// The midpoint `(Φ, σ)` of two states (Eq. 4).
pub fn midpoint(a: &TdState, b: &TdState) -> (Wavefunction, CMat) {
    midpoint_parts((&a.phi, &a.sigma), (&b.phi, &b.sigma))
}

/// [`midpoint`] of two `(Φ, σ)` blocks.
pub(crate) fn midpoint_parts(
    a: (&Wavefunction, &CMat),
    b: (&Wavefunction, &CMat),
) -> (Wavefunction, CMat) {
    let mut phi = Wavefunction::zeros_like(a.0);
    let half = Complex64::from_re(0.5);
    bands::lincomb(half, &a.0.data, half, &b.0.data, &mut phi.data);
    (phi, a.1.add(b.1).scaled(half).hermitian_part())
}

/// One application of the PT-IM update map (Eq. 6):
///
/// ```text
/// Φ_{n+1} = Φ_n − iΔt (I − P̃_mid) H_mid Φ_mid
/// σ_{n+1} = σ_n − iΔt [Φ_mid^H H_mid Φ_mid, σ_mid]
/// ```
///
/// `h` must be the Hamiltonian at the midpoint time/density. Exactly one
/// `HΦ` (hence one Fock application in dense mode) is performed. The
/// propagators run this PT map inside their fixed point; this public
/// Eq. 6 entry is what `ptim/tests/properties.rs` property-tests. When
/// the midpoint overlap is not positive definite (a non-finite `Φ_mid`)
/// the result is NaN-filled rather than a panic.
pub fn pt_update(
    prev: &TdState,
    h: &Hamiltonian,
    phi_mid: &Wavefunction,
    sigma_mid: &CMat,
    dt: f64,
) -> (Wavefunction, CMat) {
    let _s = pwobs::span("gemm.pt_update");
    let be = &*h.backend;
    let prev = (&prev.phi, &prev.sigma);
    let map = pt_map(&mut Serial(be), prev, (phi_mid, sigma_mid), h.apply(phi_mid), dt);
    map.unwrap_or_else(|| {
        let (nan, _) = failed(prev, f64::NAN, StepStats::default());
        (nan.phi, nan.sigma)
    })
}

/// Relative L1 difference between two densities (per electron).
pub fn density_residual(rho_a: &[f64], rho_b: &[f64], dv: f64, n_electrons: f64) -> f64 {
    rho_a
        .iter()
        .zip(rho_b)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        * dv
        / n_electrons
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{HybridParams, TdEngine};
    use crate::laser::LaserPulse;
    use pwdft::{Cell, DftSystem, Wavefunction};

    fn fixture() -> (DftSystem, TdState) {
        let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
        let phi = Wavefunction::random(&sys.grid, 4, 9);
        let sigma = CMat::from_real_diag(&[1.0, 0.9, 0.5, 0.2]);
        let st = TdState { phi, sigma, time: 0.0 };
        (sys, st)
    }

    #[test]
    fn midpoint_of_identical_states_is_identity() {
        let (_, st) = fixture();
        let (phi, sigma) = midpoint(&st, &st);
        assert!(phi.max_abs_diff(&st.phi) < 1e-15);
        assert!(sigma.max_abs_diff(&st.sigma) < 1e-15);
    }

    #[test]
    fn pt_update_preserves_sigma_trace_and_hermiticity() {
        let (sys, st) = fixture();
        let eng =
            TdEngine::new(&sys, LaserPulse::off(), HybridParams { alpha: 0.0, omega: 0.1, ..Default::default() });
        let ev = eng.eval(&st.phi, &st.sigma, 0.0);
        let h = eng.hamiltonian_dense(&ev);
        let (_, sigma_next) = pt_update(&st, &h, &st.phi, &st.sigma, 0.1);
        // Trace conserved exactly (commutators are traceless).
        assert!((sigma_next.trace().re - st.sigma.trace().re).abs() < 1e-10);
        assert!(sigma_next.trace().im.abs() < 1e-12);
        // Hermiticity preserved by -i[H,σ].
        assert!(sigma_next.hermiticity_error() < 1e-10);
    }

    #[test]
    fn pt_update_slow_orbital_motion() {
        // The parallel-transport projection removes the Φ-span component
        // of HΦ: for an H whose action keeps Φ inside its own span, the
        // orbital update vanishes (this is the "slowest gauge" property).
        let (sys, st) = fixture();
        let eng =
            TdEngine::new(&sys, LaserPulse::off(), HybridParams { alpha: 0.0, omega: 0.1, ..Default::default() });
        let ev = eng.eval(&st.phi, &st.sigma, 0.0);
        let h = eng.hamiltonian_dense(&ev);
        let (phi_next, _) = pt_update(&st, &h, &st.phi, &st.sigma, 0.05);
        // Components of (Φ_{n+1} − Φ_n) inside span(Φ_n) must vanish.
        let mut diff = Wavefunction::zeros_like(&st.phi);
        bands::lincomb(
            Complex64::ONE,
            &phi_next.data,
            Complex64::from_re(-1.0),
            &st.phi.data,
            &mut diff.data,
        );
        let proj = st.phi.overlap(&diff);
        assert!(proj.fro_norm() < 1e-9, "in-span drift {}", proj.fro_norm());
    }

    #[test]
    fn density_residual_metric() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 2.5, 2.5];
        let r = density_residual(&a, &b, 0.5, 2.0);
        assert!((r - 0.25).abs() < 1e-14);
        assert_eq!(density_residual(&a, &a, 0.5, 2.0), 0.0);
    }
}
