//! One PT fixed point over a band subspace (DESIGN.md §3). A
//! [`BandSpace`] is the layout of a step's band block — the whole block
//! on one process ([`Serial`]) or one rank's block over a communicator
//! (`distributed::Banded`); the dense H apply, PT map (Eq. 6, with its
//! projection), predictor, Anderson-mixed midpoint loop and Löwdin step
//! are written once, here.

use crate::engine::{EvalPoint, TdEngine};
use crate::propagate::{density_residual, midpoint_parts, StepStats};
use crate::ptim::PtimConfig;
use crate::state::TdState;
use pwdft::density::SPIN_FACTOR;
use pwdft::hamiltonian::Exchange;
use pwdft::mixing::AndersonMixer;
use pwdft::{FockApplyStats, Wavefunction};
use pwnum::backend::Backend;
use pwnum::bands;
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
    /// The exchange images `W = VxΦ` of the block Φ that `ev` was
    /// evaluated at, from its natural orbitals alone, with the apply's
    /// statistics — the exchange term of [`apply_h`].
    fn exchange(&mut self, eng: &TdEngine, ev: EvalPoint) -> (Wavefunction, FockApplyStats);
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

    fn exchange(&mut self, eng: &TdEngine, ev: EvalPoint) -> (Wavefunction, FockApplyStats) {
        // Φ = Φ̃Qᴴ, so VxΦ = (VxΦ̃)Qᴴ: the images of its own natural
        // orbitals.
        let (w, _, stats) = eng.images(&ev.nat, &ev.nat_r);
        (w, stats)
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

/// The dense H apply `HΦ` at the point `ev` evaluated at `phi`: the
/// local Hamiltonian, plus α·W from the space's
/// [`BandSpace::exchange`]. The exchange counts one
/// `fock_applies` and its screened weight when α ≠ 0.
pub(crate) fn apply_h<S: BandSpace>(
    eng: &TdEngine,
    space: &mut S,
    mut ev: EvalPoint,
    phi: &Wavefunction,
    stats: &mut StepStats,
) -> Wavefunction {
    // Blocks go back as soon as their last reader is done: 16 rank
    // threads hold every live block 16 times over.
    ev.nat.phi.data = Vec::new();
    let mut hphi = eng.hamiltonian(&ev.vhxc, &ev.vext, Exchange::None).apply(phi);
    let alpha = eng.hybrid.alpha;
    if alpha == 0.0 {
        return hphi;
    }
    let (w, fstats) = space.exchange(eng, ev);
    stats.fock_applies += 1;
    stats.fock_skipped_weight += fstats.skipped_weight;
    for (h, x) in hphi.data.iter_mut().zip(&w.data) {
        *h += x.scale(alpha);
    }
    hphi
}

/// The PT-IM update map (Eq. 6) given `HΦ_mid`:
///
/// ```text
/// Φ_{n+1} = Φ_n − iΔt (I − P_mid) HΦ_mid
/// σ_{n+1} = σ_n − iΔt [Hm, σ_mid]
/// ```
///
/// with the parallel-transport projection `(I − P)HΦ = HΦ − Φ S⁻¹Hm`,
/// `S = ΦᴴΦ` and `Hm = ΦᴴHΦ` at the midpoint. `None` when `S` is not
/// positive definite (a non-finite or collapsed Φ); `S` is replicated,
/// so every rank of a band space agrees.
pub(crate) fn pt_map<S: BandSpace>(
    space: &mut S,
    prev: (&Wavefunction, &CMat),
    mid: (&Wavefunction, &CMat),
    mut hphi: Wavefunction,
    dt: f64,
) -> Option<(Wavefunction, CMat)> {
    let s = space.overlap(mid.0, mid.0);
    let hm = space.overlap(mid.0, &hphi).hermitian_part();
    let c = solve_hpd(&s, &hm).ok()?;
    space.rotate_sub(mid.0, &c, &mut hphi);
    let mut phi = Wavefunction::zeros_like(prev.0);
    bands::lincomb(Complex64::ONE, &prev.0.data, c64(0.0, -dt), &hphi.data, &mut phi.data);
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
        let dv = self.eng.sys.grid.dv();
        let (ne, t_mid) = (SPIN_FACTOR * self.prev.1.trace().re, self.time + 0.5 * self.cfg.dt);
        for it in 0..self.cfg.max_scf {
            self.stats.scf_iters += 1;
            let (phi_mid, sigma_mid) = midpoint_parts(self.prev, (&next.phi, &next.sigma));
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
        pt_map(self.space, self.prev, mid, hphi, self.cfg.dt)
    }
}

/// One PT-IM step (Alg. 1) of the block `prev = (Φ_n, σ_n)` at `time`:
/// the predictor, the midpoint loop and [`finish`] on the dense
/// [`apply_h`]. A failed PT map ends it at once.
pub(crate) fn ptim_body<S: BandSpace>(
    eng: &TdEngine,
    space: &mut S,
    prev: (&Wavefunction, &CMat),
    time: f64,
    cfg: &PtimConfig,
    start_err: Option<f64>,
) -> (TdState, StepStats) {
    let dense: &HApply<S> = &apply_h;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HybridParams;
    use crate::laser::LaserPulse;
    use crate::ptim::ptim_step;
    use crate::rk4::{rk4_step, Rk4Config};
    use pwdft::{Cell, DftSystem, FockOptions};
    use pwnum::backend::{BackendHandle, Blocked, Reference};
    use std::sync::Arc;
    use pwnum::precision::PrecisionPolicy;

    fn fixture(occ: &[f64]) -> (DftSystem, TdState) {
        let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
        let mut phi = Wavefunction::random(&sys.grid, occ.len(), 31);
        phi.orthonormalize_lowdin();
        (sys, TdState { phi, sigma: CMat::from_real_diag(occ), time: 0.0 })
    }

    fn hybrid(fock: FockOptions) -> HybridParams {
        HybridParams { alpha: 0.25, omega: 0.2, fock }
    }

    fn ptim_cfg() -> PtimConfig {
        PtimConfig { dt: 0.5, max_scf: 10, tol_rho: 1e-7, ..Default::default() }
    }

    #[test]
    fn self_image_apply_matches_generic_dense_apply() {
        // A non-diagonal σ, so the natural orbitals are a genuine rotation.
        let (sys, mut st) = fixture(&[0.9, 0.6, 0.3, 0.1]);
        for (i, j, z) in [(0, 2, c64(0.12, 0.05)), (1, 3, c64(-0.04, 0.03)), (0, 1, c64(0.07, 0.0))] {
            st.sigma[(i, j)] = z;
            st.sigma[(j, i)] = z.conj();
        }
        let laser = LaserPulse { e0: 0.05, omega: 0.15, t_center: 0.3, t_width: 0.5 };
        for (policy, tol) in [(PrecisionPolicy::fp64(), 1e-12), (PrecisionPolicy::mixed(), 1e-6)] {
            let backends: [BackendHandle; 2] = [Arc::new(Reference), Arc::new(Blocked::new())];
            for be in backends {
                let name = be.name();
                let fock = FockOptions::default().with_precision(policy);
                let eng = TdEngine::with_backend(&sys, laser.clone(), hybrid(fock), be);
                let ev = eng.eval(&st.phi, &st.sigma, 0.3);
                assert!(ev.nat.q.max_abs_diff(&CMat::identity(4)) > 0.1, "Q is the identity");
                let generic = eng.hamiltonian_dense(&ev).apply(&st.phi);
                let mut stats = StepStats::default();
                let own = apply_h(&eng, &mut Serial(&*eng.backend), ev, &st.phi, &mut stats);
                let scale = generic.data.iter().map(|z| z.abs()).fold(0.0, f64::max);
                let rel = own.max_abs_diff(&generic) / scale;
                assert!(rel <= tol, "{name} {policy:?}: relative difference {rel:e} > {tol:e}");
                assert_eq!(stats.fock_applies, 1);
            }
        }
    }

    #[test]
    fn dense_propagators_run_pair_symmetric_solves() {
        // n(n+1)/2 solves per exchange apply, not the asymmetric n².
        let (sys, st) = fixture(&[1.0, 0.6, 0.4]);
        let pairs = 3 * 4 / 2;
        let eng = TdEngine::new(&sys, LaserPulse::off(), hybrid(FockOptions::default()));
        for (name, (_, stats)) in [
            ("ptim", ptim_step(&eng, &st, &ptim_cfg())),
            ("rk4", rk4_step(&eng, &st, &Rk4Config { dt: 0.02 })),
        ] {
            assert!(stats.fock_applies > 1, "{name}: {} applies", stats.fock_applies);
            assert_eq!(stats.fock_solves_fp64, stats.fock_applies * pairs, "{name}");
        }
    }

    #[test]
    fn dense_propagators_report_screened_weight() {
        // A cutoff of 0.1 screens the 0.01 band of every apply; cutoff 0
        // screens nothing.
        let (sys, st) = fixture(&[1.0, 0.6, 0.01]);
        let weights = |cutoff| {
            let fock = FockOptions::default().with_occ_cutoff(cutoff);
            let eng = TdEngine::new(&sys, LaserPulse::off(), hybrid(fock));
            [
                ptim_step(&eng, &st, &ptim_cfg()).1.fock_skipped_weight,
                rk4_step(&eng, &st, &Rk4Config { dt: 0.02 }).1.fock_skipped_weight,
            ]
        };
        for (screened, exact) in weights(0.1).into_iter().zip(weights(0.0)) {
            assert!(screened > 0.0, "screened weight {screened}");
            assert_eq!(exact, 0.0);
        }
    }
}
