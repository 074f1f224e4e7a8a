//! One PT fixed point over a band subspace (DESIGN.md §3). A
//! [`BandSpace`] is the layout of a step's band block — the whole block
//! on one process ([`Serial`]) or one rank's block over a communicator
//! (`distributed::Banded`); the PT projection, PT map (Eq. 6), predictor,
//! Anderson-mixed midpoint loop and Löwdin step are written once, here.

use crate::engine::{EvalPoint, TdEngine};
use crate::propagate::{density_residual, midpoint_parts, StepStats};
use crate::ptim::PtimConfig;
use crate::state::TdState;
use pwdft::density::SPIN_FACTOR;
use pwdft::mixing::AndersonMixer;
use pwdft::Wavefunction;
use pwnum::backend::Backend;
use pwnum::chol::solve_hpd;
use pwnum::cmat::CMat;
use pwnum::complex::{c64, Complex64};
use pwnum::eigh;
use pwnum::gemm::Op;

/// What a PT-IM step varies with the layout of its band block. Blocks
/// hold this space's bands; overlaps come back replicated.
pub(crate) trait BandSpace {
    /// Natural orbitals, density and potentials at `(Φ, σ, t)` — split
    /// from the H apply so a converged iteration never pays for one.
    fn evaluate(&mut self, eng: &TdEngine, phi: &Wavefunction, sigma: &CMat, t: f64) -> EvalPoint;
    /// `HΦ` at an evaluated point, cutoff-masked.
    fn apply_h(&mut self, eng: &TdEngine, ev: EvalPoint, phi: &Wavefunction) -> Wavefunction;
    /// `AᴴB` over every band of the space.
    fn overlap(&mut self, a: &Wavefunction, b: &Wavefunction) -> CMat;
    /// `ΦQ`.
    fn rotate(&mut self, phi: &Wavefunction, q: &CMat) -> Wavefunction;
    /// `out −= ΦQ` (the PT projection; `rotate_acc` with α = −1).
    fn rotate_sub(&mut self, phi: &Wavefunction, q: &CMat, out: &mut Wavefunction);
}

/// The whole block on one process, on one compute backend.
pub(crate) struct Serial<'b>(pub(crate) &'b dyn Backend);

impl BandSpace for Serial<'_> {
    fn evaluate(&mut self, eng: &TdEngine, phi: &Wavefunction, sigma: &CMat, t: f64) -> EvalPoint {
        eng.eval(phi, sigma, t)
    }

    fn apply_h(&mut self, eng: &TdEngine, ev: EvalPoint, phi: &Wavefunction) -> Wavefunction {
        eng.hamiltonian_dense(&ev).apply(phi)
    }

    fn overlap(&mut self, a: &Wavefunction, b: &Wavefunction) -> CMat {
        a.overlap_with(self.0, b)
    }

    fn rotate(&mut self, phi: &Wavefunction, q: &CMat) -> Wavefunction {
        phi.rotated_with(self.0, q)
    }

    fn rotate_sub(&mut self, phi: &Wavefunction, q: &CMat, out: &mut Wavefunction) {
        self.0.rotate_acc(Complex64::from_re(-1.0), &phi.data, q, phi.ng, &mut out.data);
    }
}

/// The H apply a fixed point runs at an evaluated point, charging any
/// exchange it performs to the step's statistics.
pub(crate) type HApply<'a, S> =
    dyn Fn(&TdEngine, &mut S, EvalPoint, &Wavefunction, &mut StepStats) -> Wavefunction + 'a;

/// The parallel-transport projection `(I − P)HΦ = HΦ − Φ S⁻¹Hm`, with
/// `S = ΦᴴΦ`, returned with `Hm = ΦᴴHΦ`. `None` when `S` is not positive
/// definite (a non-finite or collapsed Φ); `S` is replicated, so every
/// rank of a band space agrees.
pub(crate) fn pt_project<S: BandSpace>(
    space: &mut S,
    phi: &Wavefunction,
    mut hphi: Wavefunction,
) -> Option<(Wavefunction, CMat)> {
    let s = space.overlap(phi, phi);
    let hm = space.overlap(phi, &hphi).hermitian_part();
    let c = solve_hpd(&s, &hm).ok()?;
    space.rotate_sub(phi, &c, &mut hphi);
    Some((hphi, hm))
}

/// The PT-IM update map (Eq. 6) given `HΦ_mid`:
///
/// ```text
/// Φ_{n+1} = Φ_n − iΔt (I − P_mid) HΦ_mid
/// σ_{n+1} = σ_n − iΔt [Hm, σ_mid]
/// ```
///
/// `None` when the [`pt_project`]ion fails.
pub(crate) fn pt_map<S: BandSpace>(
    space: &mut S,
    be: &dyn Backend,
    prev: (&Wavefunction, &CMat),
    mid: (&Wavefunction, &CMat),
    hphi: Wavefunction,
    dt: f64,
) -> Option<(Wavefunction, CMat)> {
    let (force, hm) = pt_project(space, mid.0, hphi)?;
    let mut phi = Wavefunction::zeros_like(prev.0);
    be.lincomb(Complex64::ONE, &prev.0.data, c64(0.0, -dt), &force.data, &mut phi.data);
    let mut sigma = prev.1.clone();
    sigma.axpy(c64(0.0, -dt), &hm.commutator(mid.1));
    Some((phi, sigma))
}

/// A failed step from `prev`: NaN-filled `(Φ, σ)` shaped like the block
/// at `time`, residual NaN, not converged — so the recovery ladder's
/// finiteness check trips, with no Löwdin and no further `eigh`.
pub(crate) fn failed(
    prev: (&Wavefunction, &CMat),
    time: f64,
    mut stats: StepStats,
) -> (TdState, StepStats) {
    let (nan, n) = (c64(f64::NAN, f64::NAN), prev.1.rows());
    let phi = Wavefunction { data: vec![nan; prev.0.data.len()], ..*prev.0 };
    (stats.residual, stats.converged) = (f64::NAN, false);
    (TdState { phi, sigma: CMat::from_vec(n, n, vec![nan; n * n]), time }, stats)
}

/// The implicit-midpoint fixed point of one step on `space` from
/// `prev = (Φ_n, σ_n)` at `time` under `cfg` (Δt, `max_scf`, `tol_rho`),
/// accumulating `stats`. Each piece takes the H apply as an argument.
pub(crate) struct Midpoint<'a, 's, S> {
    pub(crate) eng: &'a TdEngine<'s>,
    pub(crate) space: &'a mut S,
    pub(crate) prev: (&'a Wavefunction, &'a CMat),
    pub(crate) time: f64,
    pub(crate) cfg: &'a PtimConfig,
    pub(crate) stats: StepStats,
}

impl<S: BandSpace> Midpoint<'_, '_, S> {
    /// Alg. 1 line 1, the map at `(Φ_n, σ_n, t_n)`: the first iterate and
    /// the density at `(Φ_n, σ_n)`; `None` when the map fails.
    pub(crate) fn predictor(&mut self, apply: &HApply<S>) -> Option<(TdState, Vec<f64>)> {
        let mut ev = self.space.evaluate(self.eng, self.prev.0, self.prev.1, self.time);
        let rho = std::mem::take(&mut ev.rho);
        let (phi, sigma) = self.update(ev, self.prev, apply)?;
        Some((TdState { phi, sigma, time: self.time + self.cfg.dt }, rho))
    }

    /// The Anderson-mixed midpoint loop (Alg. 1 lines 3–12) from `next`,
    /// adding to `scf_iters`: whether it converged, `None` when a PT map
    /// fails. The residual is taken from `rho_prev` on and tested from
    /// the second iteration.
    pub(crate) fn fixed_point(
        &mut self,
        next: &mut TdState,
        mixer: &mut AndersonMixer,
        mut rho_prev: Option<Vec<f64>>,
        apply: &HApply<S>,
    ) -> Option<bool> {
        let (be, dv) = (&*self.eng.backend, self.eng.sys.grid.dv());
        let (ne, t_mid) = (SPIN_FACTOR * self.prev.1.trace().re, self.time + 0.5 * self.cfg.dt);
        for it in 0..self.cfg.max_scf {
            self.stats.scf_iters += 1;
            let (phi_mid, sigma_mid) = midpoint_parts(be, self.prev, (&next.phi, &next.sigma));
            let mut ev = self.space.evaluate(self.eng, &phi_mid, &sigma_mid, t_mid);
            // Alg. 1 line 11: the midpoint density stopped changing.
            if let Some(rho) = &rho_prev {
                self.stats.residual = density_residual(&ev.rho, rho, dv, ne);
                if it > 0 && self.stats.residual < self.cfg.tol_rho {
                    return Some(true);
                }
            }
            rho_prev = Some(std::mem::take(&mut ev.rho));
            let (phi, sigma) = self.update(ev, (&phi_mid, &sigma_mid), apply)?;
            // Anderson on the stacked unknown (Alg. 1 line 8), packed per
            // iteration rather than kept: idle iterates held through the
            // next evaluation's exchange are a distributed step's memory
            // peak.
            let x = next.pack();
            let tx = TdState { phi, sigma, time: next.time }.pack();
            next.unpack_into(&mixer.step(&x, &tx));
        }
        Some(false)
    }

    /// The step's result: `next` after [`finish`] (drift measured from
    /// `err0`), or the [`failed`] step when a PT map failed (`None`).
    pub(crate) fn end(mut self, next: Option<TdState>, err0: Option<f64>) -> (TdState, StepStats) {
        let (prev, time) = (self.prev, self.time + self.cfg.dt);
        let Some(mut next) = next else { return failed(prev, time, self.stats) };
        finish(self.space, &*self.eng.backend, &mut next, err0, &mut self.stats);
        (next, self.stats)
    }

    /// One H apply at `mid` and the PT map.
    fn update(
        &mut self,
        ev: EvalPoint,
        mid: (&Wavefunction, &CMat),
        apply: &HApply<S>,
    ) -> Option<(Wavefunction, CMat)> {
        let _s = pwobs::span("gemm.pt_update");
        let hphi = apply(self.eng, self.space, ev, mid.0, &mut self.stats);
        pt_map(self.space, &*self.eng.backend, self.prev, mid, hphi, self.cfg.dt)
    }
}

/// One PT-IM step (Alg. 1) of the block `prev = (Φ_n, σ_n)` at `time`:
/// the predictor, the midpoint loop and [`finish`] on the dense H apply
/// (one `VxΦ` each, counted, when α ≠ 0). A failed PT map ends it at once.
pub(crate) fn ptim_body<S: BandSpace>(
    eng: &TdEngine,
    space: &mut S,
    prev: (&Wavefunction, &CMat),
    time: f64,
    cfg: &PtimConfig,
    start_err: Option<f64>,
) -> (TdState, StepStats) {
    let dense: &HApply<S> = &|eng, space, ev, phi, stats| {
        stats.fock_applies += usize::from(eng.hybrid.alpha != 0.0);
        space.apply_h(eng, ev, phi)
    };
    let mut step = Midpoint { eng, space, prev, time, cfg, stats: StepStats::default() };
    let Some((mut next, rho)) = step.predictor(dense) else { return step.end(None, start_err) };
    let mut mixer = AndersonMixer::new(cfg.anderson_depth, cfg.anderson_beta);
    let Some(converged) = step.fixed_point(&mut next, &mut mixer, Some(rho), dense) else {
        return step.end(None, start_err);
    };
    step.stats.converged = converged;
    step.end(Some(next), start_err)
}

/// Alg. 1 line 13 — Löwdin `Φ ← Φ S^{-1/2}`, σ conjugate-symmetrized —
/// after recording the drift from `start_err` (the orthonormality error
/// the step started from, when the precision monitor is on).
pub(crate) fn finish<S: BandSpace>(
    space: &mut S,
    be: &dyn Backend,
    next: &mut TdState,
    start_err: Option<f64>,
    stats: &mut StepStats,
) {
    if let Some(e0) = start_err {
        let s = space.overlap(&next.phi, &next.phi);
        stats.orthonormality_drift = (s.max_abs_diff(&CMat::identity(s.rows())) - e0).max(0.0);
    }
    let _s = pwobs::span("gemm.constraints");
    let es = eigh(&space.overlap(&next.phi, &next.phi));
    assert!(
        es.values.iter().all(|&w| w > 1e-14),
        "singular overlap in Löwdin step: {:?}",
        es.values
    );
    let n = es.values.len();
    let m = CMat::from_fn(n, n, |r, i| es.vectors[(r, i)].scale(1.0 / es.values[i].sqrt()));
    let q =
        be.gemm(Complex64::ONE, &m, Op::None, &es.vectors, Op::ConjTrans, Complex64::ZERO, None);
    next.phi = space.rotate(&next.phi, &q);
    next.sigma = next.sigma.hermitian_part();
}
