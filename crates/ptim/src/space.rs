//! One PT-IM body over a band subspace (DESIGN.md §3). A [`BandSpace`]
//! is the layout of a step's band block — the whole block on one process
//! ([`Serial`]) or one rank's block over a communicator
//! (`distributed::Banded`); the predictor, midpoint, PT map (Eq. 6),
//! Anderson mixing and Löwdin step are written once, here.

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
    /// `out −= ΦQ` (the PT map's projection; `rotate_acc` with α = −1).
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

/// The PT-IM update map (Eq. 6) given `HΦ_mid`, with `S = Φ_midᴴΦ_mid`
/// and `Hm = Φ_midᴴHΦ_mid`:
///
/// ```text
/// Φ_{n+1} = Φ_n − iΔt (HΦ_mid − Φ_mid S⁻¹Hm)
/// σ_{n+1} = σ_n − iΔt [Hm, σ_mid]
/// ```
///
/// `None` when `S` is not positive definite (a non-finite or collapsed
/// `Φ_mid`); `S` is replicated, so every rank of a band space agrees.
pub(crate) fn pt_map<S: BandSpace>(
    space: &mut S,
    be: &dyn Backend,
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
    be.lincomb(Complex64::ONE, &prev.0.data, c64(0.0, -dt), &hphi.data, &mut phi.data);
    let mut sigma = prev.1.clone();
    sigma.axpy(c64(0.0, -dt), &hm.commutator(mid.1));
    Some((phi, sigma))
}

/// NaN-filled `(Φ, σ)` shaped like the given block: what a failed PT map
/// leaves, so the recovery ladder's finiteness check trips.
pub(crate) fn poisoned(phi: &Wavefunction, sigma: &CMat) -> (Wavefunction, CMat) {
    let (nan, n) = (c64(f64::NAN, f64::NAN), sigma.rows());
    (
        Wavefunction { data: vec![nan; phi.data.len()], ..*phi },
        CMat::from_vec(n, n, vec![nan; n * n]),
    )
}

/// One PT-IM step (Alg. 1) of the block `prev = (Φ_n, σ_n)` at `time`:
/// the predictor, the Anderson-mixed midpoint fixed point, then
/// [`finish`]. A failed PT map ends the step at once with NaN Φ/σ and
/// residual — no Löwdin, no further `eigh`.
pub(crate) fn ptim_body<S: BandSpace>(
    eng: &TdEngine,
    space: &mut S,
    prev: (&Wavefunction, &CMat),
    time: f64,
    cfg: &PtimConfig,
    start_err: Option<f64>,
) -> (TdState, StepStats) {
    let (be, dt, dv) = (&*eng.backend, cfg.dt, eng.sys.grid.dv());
    let ne = SPIN_FACTOR * prev.1.trace().re;
    let mut stats = StepStats::default();
    let failed = |mut stats: StepStats| {
        let (phi, sigma) = poisoned(prev.0, prev.1);
        (stats.residual, stats.converged) = (f64::NAN, false);
        (TdState { phi, sigma, time: time + dt }, stats)
    };
    // One HΦ (hence one VxΦ in hybrid mode) and the PT map.
    let update = |space: &mut S, ev, mid: (&Wavefunction, &CMat), stats: &mut StepStats| {
        let _s = pwobs::span("gemm.pt_update");
        let hphi = space.apply_h(eng, ev, mid.0);
        stats.fock_applies += usize::from(eng.hybrid.alpha != 0.0);
        pt_map(space, be, prev, mid, hphi, dt)
    };

    // Predictor (Alg. 1 line 1): the map with the midpoint at (Φ_n, σ_n).
    let mut ev = space.evaluate(eng, prev.0, prev.1, time);
    let mut rho_prev = std::mem::take(&mut ev.rho);
    let Some((phi, sigma)) = update(space, ev, prev, &mut stats) else { return failed(stats) };
    let mut next = TdState { phi, sigma, time: time + dt };
    let mut mixer = AndersonMixer::new(cfg.anderson_depth, cfg.anderson_beta);

    for it in 0..cfg.max_scf {
        stats.scf_iters = it + 1;
        let (phi_mid, sigma_mid) = midpoint_parts(be, prev, (&next.phi, &next.sigma));
        let mut ev = space.evaluate(eng, &phi_mid, &sigma_mid, time + 0.5 * dt);
        // Alg. 1 line 11: the midpoint density stopped changing.
        stats.residual = density_residual(&ev.rho, &rho_prev, dv, ne);
        rho_prev = std::mem::take(&mut ev.rho);
        if it > 0 && stats.residual < cfg.tol_rho {
            stats.converged = true;
            break;
        }
        let Some((phi, sigma)) = update(space, ev, (&phi_mid, &sigma_mid), &mut stats) else {
            return failed(stats);
        };
        // Anderson on the stacked unknown (Alg. 1 line 8), packed per
        // iteration rather than kept: idle iterates held through the next
        // evaluation's exchange are a distributed step's memory peak.
        let x = next.pack();
        let tx = TdState { phi, sigma, time: next.time }.pack();
        next.unpack_into(&mixer.step(&x, &tx));
    }

    finish(space, be, &mut next, start_err, &mut stats);
    (next, stats)
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
