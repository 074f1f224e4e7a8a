//! Band-parallel PT-IM over the [`mpisim`] runtime — the paper's
//! distributed implementation (Sec. III-A, IV-B).
//!
//! [`dist_ptim_step`] runs the PT-IM body of the serial
//! [`crate::ptim::ptim_step`] on this rank's band block; this module
//! supplies only what the layout changes (the distributed overlap,
//! rotation, density and Fock exchange below) and the σ accounting.
//!
//! Data layout follows Fig. 1: the wavefunction block Φ is distributed by
//! *band index*; overlap matrices are formed by transposing to
//! *grid-point* distribution with `MPI_Alltoallv` and reducing partial
//! N×N products with `MPI_Allreduce`. [`dist_rotate`] and the
//! distributed Fock exchange circulate band blocks among ranks on one
//! ring driver (the crate-private band-block ring); the exchange picks
//! its transport with one of the paper's strategies:
//!
//! * [`ExchangeStrategy::Bcast`] — baseline: every band block is
//!   broadcast from its owner (Fig. 5a);
//! * [`ExchangeStrategy::Ring`] — neighbor point-to-point rotation
//!   (`MPI_Sendrecv`, Fig. 5b);
//! * [`ExchangeStrategy::AsyncRing`] — nonblocking rotation: the next
//!   block's `isend`/`irecv` are posted before the current block's
//!   Poisson solves and completed after them (`MPI_Isend/Irecv/Wait`,
//!   Fig. 5c);
//! * [`ExchangeStrategy::RingOverlap`] — the ring-pipelined overlapped
//!   exchange: the `AsyncRing` schedule, bit for bit.
//!
//! Every rank holds at least one band ([`BandDistribution::new`] panics
//! otherwise), as on the paper's platforms, where Fig. 10's largest
//! points give each rank 1 (ARM) or 5 (GPU) orbitals. So there is one
//! distributed exchange, [`dist_fock_apply_pure`]: the operator applied
//! to this rank's own natural orbitals on the pair-symmetric half ring,
//! which the step's H apply rotates back to the block's gauge. Every
//! strategy runs the same block kernels (precision policy honored), so all
//! produce the same physics (unit-tested against the serial code) and
//! differ only in which timing category the virtual clock charges —
//! exactly Table I.
//! Nonblocking transfers record their hidden/visible split as the
//! overlap-efficiency metric ([`mpisim::Stats::overlap_efficiency`]).
//! Optionally the replicated square matrices (σ, Φ\*Φ,
//! Φ\*HΦ) live in node-shared SHM windows (Sec. IV-B3) to cut their
//! footprint to `1/ranks-per-node`.

use crate::engine::{EvalPoint, HybridParams, TdEngine};
use crate::grid2d::{circulate, half_ring_fock_apply, Transport};
use crate::laser::LaserPulse;
use crate::propagate::StepStats;
use crate::ptim::PtimConfig;
use crate::space::{ptim_body, BandSpace};
use crate::state::TdState;
use mpisim::{Comm, Tag};
use pwdft::density::{density_diag, NaturalOrbitals};
use pwdft::{DftSystem, FockApplyStats, FockOperator, PwGrid, Wavefunction};
use pwnum::backend::default_backend;
use pwnum::chol::solve_hpd;
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;
use pwnum::eigh;
use pwnum::parallel::block_range;
use std::sync::Arc;

/// Wavefunction-exchange strategy for the distributed Fock operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeStrategy {
    /// Broadcast every block from its owner (baseline, Fig. 5a).
    Bcast,
    /// Synchronous ring rotation (Fig. 5b).
    Ring,
    /// Asynchronous ring with communication/computation overlap (Fig. 5c).
    AsyncRing,
    /// Ring-pipelined overlapped exchange: transfers posted before each
    /// block's pair solves, per-transfer hidden/visible accounting. The
    /// same schedule as [`ExchangeStrategy::AsyncRing`].
    RingOverlap,
}

impl ExchangeStrategy {
    /// The ring transport the strategy runs on.
    fn transport(self) -> Transport {
        match self {
            ExchangeStrategy::Bcast => Transport::Bcast,
            ExchangeStrategy::Ring => Transport::Sendrecv,
            ExchangeStrategy::AsyncRing | ExchangeStrategy::RingOverlap => Transport::Nonblocking,
        }
    }
}

/// How one distributed Fock exchange runs: the strategy plus the modeled
/// per-solve compute cost the virtual clock charges between transfers —
/// what gives the nonblocking strategies something to hide communication
/// behind. A bare [`ExchangeStrategy`] converts to a plan with zero
/// solve cost (data plane only; physics identical).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExchangePlan {
    /// Communication strategy.
    pub strategy: ExchangeStrategy,
    /// Modeled compute seconds charged per screened-Poisson pair solve.
    pub solve_cost_s: f64,
}

impl From<ExchangeStrategy> for ExchangePlan {
    fn from(strategy: ExchangeStrategy) -> Self {
        ExchangePlan { strategy, solve_cost_s: 0.0 }
    }
}

/// Contiguous band distribution over ranks, at least one band on each.
#[derive(Clone, Debug)]
pub struct BandDistribution {
    /// Total bands N.
    pub n_bands: usize,
    /// Number of ranks.
    pub n_ranks: usize,
}

impl BandDistribution {
    /// Creates the distribution. Panics unless `0 < n_ranks ≤ n_bands`:
    /// the distributed exchange has no schedule for a rank without bands.
    pub fn new(n_bands: usize, n_ranks: usize) -> Self {
        assert!(n_ranks > 0);
        assert!(
            n_bands >= n_ranks,
            "{n_bands} bands on {n_ranks} ranks: every rank must hold at least one band"
        );
        BandDistribution { n_bands, n_ranks }
    }

    /// Number of bands owned by `rank`.
    pub fn count(&self, rank: usize) -> usize {
        self.range(rank).len()
    }

    /// Global band range owned by `rank` (the shared balanced partition
    /// [`block_range`], as [`dist_overlap`]'s grid-point ranges).
    pub fn range(&self, rank: usize) -> std::ops::Range<usize> {
        block_range(self.n_bands, self.n_ranks, rank)
    }
}

/// Distributed mixed state: local band slice + replicated σ.
#[derive(Clone)]
pub struct DistState {
    /// Locally owned bands (G-space).
    pub phi_local: Wavefunction,
    /// Occupation matrix (replicated on every rank; optionally mirrored
    /// in an SHM window for memory accounting).
    pub sigma: CMat,
    /// Physical time (a.u.).
    pub time: f64,
}

/// Distributed run configuration.
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Fock exchange communication strategy.
    pub strategy: ExchangeStrategy,
    /// Store replicated square matrices in node-shared windows.
    pub use_shm: bool,
    /// Hybrid functional parameters.
    pub hybrid: HybridParams,
    /// Modeled compute seconds charged to the virtual clock per exchange
    /// pair solve (see [`ExchangePlan::solve_cost_s`]); 0 keeps the step
    /// purely data-plane as before.
    pub solve_cost_s: f64,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            strategy: ExchangeStrategy::Ring,
            use_shm: false,
            hybrid: HybridParams::default(),
            solve_cost_s: 0.0,
        }
    }
}

/// Slices the full state into this rank's local portion (every rank holds
/// the same full state deterministically, e.g. from a replicated SCF).
pub fn scatter_state(comm: &Comm, full: &TdState, dist: &BandDistribution) -> DistState {
    let range = dist.range(comm.rank());
    let ng = full.phi.ng;
    let mut phi_local = Wavefunction {
        n_bands: range.len(),
        ng,
        ip_scale: full.phi.ip_scale,
        data: vec![Complex64::ZERO; range.len() * ng],
    };
    phi_local.data.copy_from_slice(&full.phi.data[range.start * ng..range.end * ng]);
    DistState { phi_local, sigma: full.sigma.clone(), time: full.time }
}

/// Gathers the distributed state back to a full state (allgatherv).
pub fn gather_state(comm: &mut Comm, st: &DistState, dist: &BandDistribution) -> TdState {
    let blocks = comm.hier_allgatherv(st.phi_local.data.clone());
    let ng = st.phi_local.ng;
    let mut data = Vec::with_capacity(dist.n_bands * ng);
    for b in blocks {
        data.extend_from_slice(&b);
    }
    let phi = Wavefunction {
        n_bands: dist.n_bands,
        ng,
        ip_scale: st.phi_local.ip_scale,
        data,
    };
    TdState { phi, sigma: st.sigma.clone(), time: st.time }
}

/// Distributed overlap `S = A^H B` (full N×N, replicated result):
/// band→grid transpose via `alltoallv`, local partial GEMM over the grid
/// slice, then `allreduce` — the paper's Fig. 1 workflow. Rank `r` owns
/// the sphere points whose FFT-grid index lies in the shared balanced
/// partition [`block_range`] of `grid` (Fig. 1 right): each partial then
/// sums, in order, the nonzero terms of the same grid block, so the
/// result does not depend on how many points the sphere drops.
pub fn dist_overlap(
    comm: &mut Comm,
    dist: &BandDistribution,
    grid: &PwGrid,
    a_local: &Wavefunction,
    b_local: &Wavefunction,
) -> CMat {
    let p = comm.size();
    let n = dist.n_bands;
    assert_eq!(a_local.ng, grid.n_pw(), "blocks must hold the grid's sphere");
    let part = |r: usize| grid.sphere_range(block_range(grid.len(), p, r));
    let my_part = part(comm.rank());

    // Transpose both blocks to grid-point distribution.
    let transpose = |comm: &mut Comm, w: &Wavefunction| -> Vec<Vec<Complex64>> {
        let chunks: Vec<Vec<Complex64>> = (0..p)
            .map(|r| {
                let gr = part(r);
                let mut c = Vec::with_capacity(w.n_bands * gr.len());
                for b in 0..w.n_bands {
                    c.extend_from_slice(&w.band(b)[gr.clone()]);
                }
                c
            })
            .collect();
        comm.alltoallv_auto(chunks)
    };
    let a_t = transpose(comm, a_local);
    let b_t = transpose(comm, b_local);

    // Assemble (N x ng_local) band-major buffers ordered by global band.
    let glen = my_part.len();
    let assemble = |parts: &[Vec<Complex64>]| -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; n * glen];
        for (src, part) in parts.iter().enumerate() {
            let r = dist.range(src);
            assert_eq!(part.len(), r.len() * glen);
            out[r.start * glen..r.end * glen].copy_from_slice(part);
        }
        out
    };

    let partial = if glen > 0 {
        let a_g = assemble(&a_t);
        let b_g = assemble(&b_t);
        default_backend().overlap(&a_g, &b_g, glen, a_local.ip_scale)
    } else {
        CMat::zeros(n, n)
    };
    let reduced = comm.hier_allreduce(partial.as_slice().to_vec());
    CMat::from_vec(n, n, reduced)
}

/// Tag base of [`dist_rotate`]'s block transfers.
const ROTATE_TAG: Tag = 7_000;

/// Distributed subspace rotation `out_j = Σ_i φ_i Q[i][j]` for locally
/// owned `j`, circulating source blocks around the ring (`sendrecv`).
pub fn dist_rotate(
    comm: &mut Comm,
    dist: &BandDistribution,
    phi_local: &Wavefunction,
    q: &CMat,
) -> Wavefunction {
    let data = rotate_bands(comm, dist, &phi_local.data, phi_local.ng, q);
    Wavefunction { n_bands: dist.count(comm.rank()), data, ..*phi_local }
}

/// [`dist_rotate`] of band-major blocks of `len`-point bands (G-space
/// coefficients or real-space grids alike).
fn rotate_bands(
    comm: &mut Comm,
    dist: &BandDistribution,
    local: &[Complex64],
    len: usize,
    q: &CMat,
) -> Vec<Complex64> {
    let my = dist.range(comm.rank());
    let n_out = my.len();
    let mut out = vec![Complex64::ZERO; n_out * len];
    let hops = comm.size() - 1;
    circulate(comm, Arc::from(local), Transport::Sendrecv, ROTATE_TAG, hops, |_, src, block| {
        let src_range = dist.range(src);
        // Accumulate this block's bands into every local target at once:
        // one blocked accumulate with the `src_range × my` block of Q
        // (per target, sources still add in ascending band order).
        let q_blk =
            CMat::from_fn(src_range.len(), n_out, |i, j| q[(src_range.start + i, my.start + j)]);
        default_backend().rotate_acc(Complex64::ONE, block, &q_blk, len, &mut out);
    });
    out
}

/// Distributed mixed-state density from natural orbitals: the serial
/// density of the local bands + `allreduce` (the hierarchical
/// shm-staged variant when `node_aware`).
pub fn dist_density(
    comm: &mut Comm,
    sys: &DftSystem,
    nat_local: &Wavefunction,
    occ_local: &[f64],
    node_aware: bool,
) -> Vec<f64> {
    let rho = density_diag(&sys.grid, nat_local, occ_local);
    if node_aware {
        comm.hier_allreduce(rho)
    } else {
        comm.allreduce(rho)
    }
}

/// The distributed [`FockOperator::apply_pure`]: `VxΦ̃` of this rank's
/// own natural orbitals `nat_r_local` (real space, band-major; `occ` the
/// global occupations), with this rank's [`FockApplyStats`] — what
/// [`dist_ptim_step`]'s H apply runs.
///
/// The targets are the sources, so the apply runs on the half ring: each
/// source block travels `⌈(p−1)/2⌉` hops instead of `p − 1`, and each
/// pair of bands is solved once, on one of its two owners, and scattered
/// into both — this rank's image and a partial image of the visiting
/// block, which goes back to its owner. Summed over ranks the solves,
/// screened pairs and screened weight are the serial `apply_pure`'s
/// `n(n+1)/2` (the weight to rounding); the three ring strategies return
/// the same bits, `Bcast` the same values to rounding.
///
/// `plan` is the strategy plus the modeled per-solve compute cost (a
/// bare [`ExchangeStrategy`] still works and charges nothing); with a
/// nonzero cost the virtual clock advances by each block's solves before
/// the next transfer completes, which is what lets the nonblocking
/// strategies hide wire time. The charge is the same on every strategy,
/// so simulated strategy comparisons stay apples-to-apples.
pub fn dist_fock_apply_pure(
    comm: &mut Comm,
    fock: &FockOperator,
    dist: &BandDistribution,
    nat_r_local: &[Complex64],
    occ: &[f64],
    plan: impl Into<ExchangePlan>,
) -> (Vec<Complex64>, FockApplyStats) {
    let plan: ExchangePlan = plan.into();
    let (transport, cost) = (plan.strategy.transport(), plan.solve_cost_s);
    half_ring_fock_apply(comm, fock, dist, nat_r_local.to_vec(), occ, transport, cost)
}

/// The inverse of the rotation `Q̂` that built the circulated natural
/// orbitals `Φ̃ = ΦQ̂`, replicated: column block `s` of `Q̂` holds rank
/// `s`'s eigenvectors of its own σ copy (`q` here), gathered once. Each
/// rank mixes its own σ copy, so after a step that stops short of its
/// fixed point the copies differ (by ≈ 1e-6 on `dist_ring16`) and no one
/// rank's `Qᴴ` inverts `Q̂`; `Φ = Φ̃Q̂⁻¹` holds regardless. With one σ
/// everywhere `Q̂ = Q` and `Q̂⁻¹ = Qᴴ` to rounding. A non-finite `Q̂` (a
/// NaN σ) gives `Qᴴ`, so the NaN travels on to the step's health check.
fn natural_inverse(comm: &mut Comm, dist: &BandDistribution, q: &CMat) -> CMat {
    let (n, mine) = (q.rows(), dist.range(comm.rank()));
    let cols: Vec<Complex64> = (0..n).flat_map(|k| mine.clone().map(move |i| q[(k, i)])).collect();
    let blocks = comm.hier_allgatherv(cols);
    let mut q_hat = CMat::zeros(n, n);
    for (s, block) in blocks.iter().enumerate() {
        let range = dist.range(s);
        for k in 0..n {
            for (c, i) in range.clone().enumerate() {
                q_hat[(k, i)] = block[k * range.len() + c];
            }
        }
    }
    // Q̂⁻¹ = (Q̂ᴴQ̂)⁻¹Q̂ᴴ.
    let q_hat_h = q_hat.herm();
    solve_hpd(&q_hat_h.matmul(&q_hat), &q_hat_h).unwrap_or_else(|_| q.herm())
}

/// Anderson history depth of the distributed step's mixer.
const ANDERSON_DEPTH: usize = 10;
/// Anderson damping of the distributed step's mixer.
const ANDERSON_BETA: f64 = 0.6;

/// This rank's band block over the communicator: the band space the
/// distributed step runs the one PT-IM body on.
struct Banded<'c, 'a> {
    comm: &'c mut Comm,
    dist: &'a BandDistribution,
    grid: &'a PwGrid,
    cfg: &'a DistConfig,
    fock: FockOperator<'a>,
}

impl BandSpace for Banded<'_, '_> {
    fn evaluate(&mut self, eng: &TdEngine, phi: &Wavefunction, sigma: &CMat, t: f64) -> EvalPoint {
        // σ diagonalized (replicated), the block rotated around the ring,
        // the density reduced over ranks.
        let e = eigh(sigma);
        let nat = dist_rotate(self.comm, self.dist, phi, &e.vectors);
        let occ: Vec<f64> = self.dist.range(self.comm.rank()).map(|g| e.values[g]).collect();
        let rho = dist_density(self.comm, eng.sys, &nat, &occ, self.cfg.use_shm);
        eng.point(NaturalOrbitals { phi: nat, occ: e.values, q: e.vectors }, rho, t)
    }

    fn exchange(&mut self, eng: &TdEngine, mut ev: EvalPoint) -> (Wavefunction, FockApplyStats) {
        // The images of this rank's own natural orbitals on the half ring
        // (which takes the real-space orbitals over as its buffer),
        // rotated back to the block's gauge around the ring:
        // VxΦ = (VxΦ̃)Q̂⁻¹, Q̂⁻¹ = Qᴴ wherever σ is one matrix.
        let (sys, cfg) = (eng.sys, self.cfg);
        let nat_r = std::mem::take(&mut ev.nat_r);
        let (vx_nat, stats) = half_ring_fock_apply(
            self.comm,
            &self.fock,
            self.dist,
            nat_r,
            &ev.nat.occ,
            cfg.strategy.transport(),
            cfg.solve_cost_s,
        );
        let back = natural_inverse(self.comm, self.dist, &ev.nat.q);
        drop(ev);
        let vx_r = rotate_bands(self.comm, self.dist, &vx_nat, sys.grid.len(), &back);
        drop(vx_nat);
        (Wavefunction::from_real_with(&*eng.backend, &sys.grid, vx_r), stats)
    }

    fn overlap(&mut self, a: &Wavefunction, b: &Wavefunction) -> CMat {
        dist_overlap(self.comm, self.dist, self.grid, a, b)
    }

    fn rotate(&mut self, phi: &Wavefunction, q: &CMat) -> Wavefunction {
        dist_rotate(self.comm, self.dist, phi, q)
    }

    fn rotate_sub(&mut self, phi: &Wavefunction, q: &CMat, out: &mut Wavefunction) {
        // The ring-ordered rotation into a zeroed block, then subtracted:
        // accumulating in place would reorder the sum.
        let rot = dist_rotate(self.comm, self.dist, phi, q);
        for (o, r) in out.data.iter_mut().zip(&rot.data) {
            *o -= *r;
        }
    }
}

/// One distributed PT-IM time step (dense diagonalized exchange): the
/// PT-IM body of the serial [`crate::ptim::ptim_step`] on this rank's
/// band block, each rank mixing its (local Φ, σ) with Anderson depth 10
/// and damping 0.6.
///
/// Resilience: drive the outer loop with [`Comm::begin_step`] so injected
/// faults ([`mpisim::FaultPlan`]) fire at the intended application step.
/// Every blocking exchange inside the step pre-checks its peers with
/// [`Comm::require_alive`], so a crashed rank surfaces on the survivors
/// as an attributed `peer rank terminated` panic naming the dead rank,
/// the requiring rank, the operation, and the step — never a deadlock.
/// A non-finite block on any rank ends the step on every rank with a NaN
/// state: the replicated midpoint overlap fails everywhere at once.
#[allow(clippy::too_many_arguments)]
pub fn dist_ptim_step(
    comm: &mut Comm,
    sys: &DftSystem,
    laser: &LaserPulse,
    cfg: &DistConfig,
    dist: &BandDistribution,
    state: &DistState,
    dt: f64,
    max_scf: usize,
    tol_rho: f64,
) -> (DistState, StepStats) {
    let _s = pwobs::span("step.dist");

    // Memory accounting for the non-scalable square matrices
    // (Sec. IV-B3): either one SHM window per node or a private copy per
    // rank. Contents are identical everywhere, so only accounting differs.
    if cfg.use_shm {
        let n = dist.n_bands;
        let win = comm.shm_window::<f64>(0xC0FFEE, 2 * n * n);
        if comm.rank() == comm.node_leader() {
            let flat: Vec<f64> =
                state.sigma.as_slice().iter().flat_map(|z| [z.re, z.im]).collect();
            win.write(0, &flat);
        }
        comm.node_barrier();
    } else {
        let n = dist.n_bands as u64;
        comm.alloc_private(16 * n * n);
    }

    let eng = TdEngine::new(sys, laser.clone(), cfg.hybrid);
    let mut space = Banded { comm, dist, grid: &sys.grid, cfg, fock: eng.fock_operator() };
    let (anderson_depth, anderson_beta) = (ANDERSON_DEPTH, ANDERSON_BETA);
    let fp = PtimConfig { dt, max_scf, tol_rho, anderson_depth, anderson_beta };
    let prev = (&state.phi_local, &state.sigma);
    let solve_snap = eng.counters.snapshot();
    let (next, mut stats) = ptim_body(&eng, &mut space, prev, state.time, &fp, None);
    (stats.fock_solves_fp64, stats.fock_solves_fp32) = eng.counters.since(solve_snap);
    (DistState { phi_local: next.phi, sigma: next.sigma, time: next.time }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::density_residual;
    use mpisim::{Cluster, NetworkModel};
    use pwdft::Cell;
    use pwnum::complex::c64;

    fn fixture() -> (DftSystem, TdState) {
        let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
        let mut phi = Wavefunction::random(&sys.grid, 4, 77);
        phi.orthonormalize_lowdin();
        let mut sigma = CMat::from_real_diag(&[1.0, 0.8, 0.5, 0.2]);
        sigma[(0, 1)] = c64(0.05, 0.02);
        sigma[(1, 0)] = c64(0.05, -0.02);
        (sys, TdState { phi, sigma, time: 0.0 })
    }

    #[test]
    fn band_distribution_covers_all() {
        let d = BandDistribution::new(10, 3);
        assert_eq!(d.count(0), 4);
        assert_eq!(d.count(1), 3);
        assert_eq!(d.count(2), 3);
        assert_eq!(d.range(0), 0..4);
        assert_eq!(d.range(1), 4..7);
        assert_eq!(d.range(2), 7..10);
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let (_, st) = fixture();
        let out = Cluster::ideal(3).run(|c| {
            let dist = BandDistribution::new(4, c.size());
            let local = scatter_state(c, &st, &dist);
            let full = gather_state(c, &local, &dist);
            full.phi.max_abs_diff(&st.phi)
        });
        for (d, _) in &out {
            assert!(*d < 1e-15);
        }
    }

    #[test]
    fn dist_overlap_matches_serial() {
        let (sys, st) = fixture();
        let serial = st.phi.overlap(&st.phi);
        for p in [1, 2, 3, 4] {
            let sref = serial.clone();
            let st2 = st.clone();
            let sys = &sys;
            let out = Cluster::ideal(p).run(move |c| {
                let dist = BandDistribution::new(4, c.size());
                let local = scatter_state(c, &st2, &dist);
                let s = dist_overlap(c, &dist, &sys.grid, &local.phi_local, &local.phi_local);
                s.max_abs_diff(&sref)
            });
            for (d, _) in &out {
                assert!(*d < 1e-10, "p={p}: overlap mismatch {d}");
            }
        }
    }

    #[test]
    fn dist_rotate_matches_serial() {
        let (_, st) = fixture();
        let e = eigh(&st.sigma);
        let serial = st.phi.rotated(&e.vectors);
        let out = Cluster::ideal(3).run(|c| {
            let dist = BandDistribution::new(4, c.size());
            let local = scatter_state(c, &st, &dist);
            let rot = dist_rotate(c, &dist, &local.phi_local, &e.vectors);
            let full = gather_state(
                c,
                &DistState { phi_local: rot, sigma: st.sigma.clone(), time: 0.0 },
                &dist,
            );
            full.phi.max_abs_diff(&serial)
        });
        for (d, _) in &out {
            assert!(*d < 1e-10, "rotate mismatch {d}");
        }
    }

    #[test]
    fn all_strategies_match_serial_fock() {
        // One band per rank, as at the paper's largest ARM points: the
        // half ring's images are the serial target-major apply of the
        // natural orbitals to themselves, on every strategy.
        let (sys, st) = fixture();
        let e = eigh(&st.sigma);
        let nat = st.phi.rotated(&e.vectors);
        let fock = FockOperator::new(&sys.grid, 0.2);
        let nat_r = nat.to_real_all(&sys.grid);
        let serial = fock.apply_diag(&nat_r, &e.values, &nat_r);
        let ng = sys.grid.len();

        for strategy in [
            ExchangeStrategy::Bcast,
            ExchangeStrategy::Ring,
            ExchangeStrategy::AsyncRing,
            ExchangeStrategy::RingOverlap,
        ] {
            let out = Cluster::ideal(4).run(|c| {
                let dist = BandDistribution::new(4, c.size());
                let my = dist.range(c.rank());
                let fock = FockOperator::new(&sys.grid, 0.2);
                let nat_local_r = &nat_r[my.start * ng..my.end * ng];
                let (vx, _) =
                    dist_fock_apply_pure(c, &fock, &dist, nat_local_r, &e.values, strategy);
                // Compare against the serial slice.
                let want = &serial[my.start * ng..my.end * ng];
                pwnum::cvec::max_abs_diff(&vx, want)
            });
            for (d, _) in &out {
                assert!(*d < 1e-9, "{strategy:?}: Fock mismatch {d}");
            }
        }
    }

    #[test]
    fn symmetric_dist_fock_halves_diagonal_blocks_and_matches_serial() {
        // Self-applied case: each rank's diagonal block runs the i ≤ j
        // pair halving and each cross-block pair is solved once on the
        // half ring. Must match the serial pair-symmetric apply.
        let (sys, st) = fixture();
        let e = eigh(&st.sigma);
        let nat = st.phi.rotated(&e.vectors);
        let fock = FockOperator::new(&sys.grid, 0.2);
        let nat_r = nat.to_real_all(&sys.grid);
        let serial = fock.apply_pure(&nat_r, &e.values);
        let ng = sys.grid.len();

        for strategy in [
            ExchangeStrategy::Bcast,
            ExchangeStrategy::Ring,
            ExchangeStrategy::AsyncRing,
            ExchangeStrategy::RingOverlap,
        ] {
            for p in [1, 2, 3] {
                let out = Cluster::ideal(p).run(|c| {
                    let dist = BandDistribution::new(4, c.size());
                    let my = dist.range(c.rank());
                    let fock = FockOperator::new(&sys.grid, 0.2);
                    let nat_local_r = nat_r[my.start * ng..my.end * ng].to_vec();
                    // The operator on its own sources: the half ring.
                    let (vx, _) =
                        dist_fock_apply_pure(c, &fock, &dist, &nat_local_r, &e.values, strategy);
                    let want = &serial[my.start * ng..my.end * ng];
                    pwnum::cvec::max_abs_diff(&vx, want)
                });
                for (d, _) in &out {
                    assert!(*d < 1e-9, "{strategy:?} p={p}: symmetric Fock mismatch {d}");
                }
            }
        }
    }

    #[test]
    fn distributed_step_matches_serial_ptim() {
        let (sys, st) = fixture();
        let laser = LaserPulse::off();
        let hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };

        // Serial reference.
        let eng = crate::engine::TdEngine::new(&sys, LaserPulse::off(), hyb);
        let cfg_serial = crate::ptim::PtimConfig {
            dt: 0.3,
            max_scf: 25,
            tol_rho: 1e-9,
            anderson_depth: 10,
            anderson_beta: 0.6,
        };
        let (serial_next, serial_stats) = crate::ptim::ptim_step(&eng, &st, &cfg_serial);
        assert!(serial_stats.converged);
        let rho_serial =
            eng.eval(&serial_next.phi, &serial_next.sigma, serial_next.time).rho;

        for (p, strategy) in [
            (2, ExchangeStrategy::Ring),
            (4, ExchangeStrategy::AsyncRing),
            (3, ExchangeStrategy::RingOverlap),
        ] {
            let rho_ref = rho_serial.clone();
            let st2 = st.clone();
            let sys_ref = &sys;
            let laser_ref = &laser;
            let sigma_ref = serial_next.sigma.clone();
            let out = Cluster::new(p, 2, NetworkModel::ideal()).run(move |c| {
                let dist = BandDistribution::new(4, c.size());
                let local = scatter_state(c, &st2, &dist);
                let cfg = DistConfig { strategy, use_shm: true, hybrid: hyb, ..Default::default() };
                let (next, stats) =
                    dist_ptim_step(c, sys_ref, laser_ref, &cfg, &dist, &local, 0.3, 25, 1e-9);
                let full = gather_state(c, &next, &dist);
                let eng = crate::engine::TdEngine::new(sys_ref, LaserPulse::off(), hyb);
                let rho = eng.eval(&full.phi, &full.sigma, full.time).rho;
                let res = density_residual(&rho, &rho_ref, sys_ref.grid.dv(), 5.0);
                (res, stats.converged, full.sigma.max_abs_diff(&sigma_ref))
            });
            for (rank, ((res, conv, sig_diff), _)) in out.iter().enumerate() {
                assert!(*conv, "p={p} rank={rank} did not converge");
                assert!(*res < 1e-6, "p={p}: density mismatch {res}");
                assert!(*sig_diff < 1e-6, "p={p}: sigma mismatch {sig_diff}");
            }
        }
    }

    #[test]
    fn exchange_inverts_every_ranks_own_natural_rotation() {
        // Each rank mixes its own σ copy, so mid-step the copies differ and
        // so do the eigenvector columns each rank rotates its block by
        // (together Q̂). With σ_r = V_r σ V_rᴴ on rank r (one spectrum,
        // rotations 1e-6·r apart) the half-ring exchange must still be VxΦ
        // for the operator the circulated orbitals Φ̃ = ΦQ̂ build: the
        // serial images of Φ at σ̂ = Q̂ΛQ̂ᴴ, whose density matrix ΦσΦᴴ
        // is Φ̃ΛΦ̃ᴴ. Rotating back by Q̂⁻¹ gets there; any one rank's Qᴴ is
        // ≈ 1e-6 off.
        let (sys, st) = fixture();
        let hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
        let k = eigh(&CMat::from_fn(4, 4, |i, j| c64((i + j) as f64, i as f64 - j as f64)));
        let sigma_of = |rank: usize| {
            let eps = 1e-6 * rank as f64;
            let phase: Vec<Complex64> = k.values.iter().map(|l| c64((eps * l).cos(), (eps * l).sin())).collect();
            let v = CMat::from_fn(4, 4, |i, j| {
                (0..4).fold(Complex64::ZERO, |acc, m| acc + k.vectors[(i, m)] * phase[m] * k.vectors[(j, m)].conj())
            });
            v.matmul(&st.sigma).matmul(&v.herm())
        };
        let p = 3;
        let dist = BandDistribution::new(4, p);
        let eigs: Vec<_> = (0..p).map(|r| eigh(&sigma_of(r))).collect();
        // Column j of Q̂ is an eigenvector of its owner's σ copy.
        let owner = |j: usize| (0..p).find(|&r| dist.range(r).contains(&j)).unwrap();
        let q_hat = CMat::from_fn(4, 4, |i, j| eigs[owner(j)].vectors[(i, j)]);
        let lambda = CMat::from_real_diag(&eigs[0].values);
        let sigma_hat = q_hat.matmul(&lambda).matmul(&q_hat.herm());
        let serial = TdEngine::new(&sys, LaserPulse::off(), hyb);
        let (want, _) = serial.exchange_images(&st.phi, &sigma_hat);
        let scale = want.data.iter().map(|z| z.abs()).fold(0.0, f64::max);
        let ng = want.ng;
        let out = Cluster::ideal(p).run(|c| {
            let phi = scatter_state(c, &st, &dist).phi_local;
            let eng = TdEngine::new(&sys, LaserPulse::off(), hyb);
            let cfg = DistConfig { strategy: ExchangeStrategy::RingOverlap, hybrid: hyb, ..Default::default() };
            let fock = eng.fock_operator();
            let mut space = Banded { comm: c, dist: &dist, grid: &sys.grid, cfg: &cfg, fock };
            let ev = space.evaluate(&eng, &phi, &sigma_of(space.comm.rank()), 0.0);
            let (got, _) = space.exchange(&eng, ev);
            let my = dist.range(space.comm.rank());
            pwnum::cvec::max_abs_diff(&got.data, &want.data[my.start * ng..my.end * ng]) / scale
        });
        for (rank, (rel, _)) in out.iter().enumerate() {
            assert!(*rel < 1e-10, "rank {rank}: VxΦ off by {rel:e}");
        }
    }

    #[test]
    #[should_panic(expected = "6 bands on 8 ranks")]
    fn dist_ptim_step_needs_a_band_on_every_rank() {
        let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
        let mut phi = Wavefunction::random(&sys.grid, 6, 77);
        phi.orthonormalize_lowdin();
        let sigma = CMat::from_real_diag(&[1.0, 0.9, 0.7, 0.5, 0.2, 0.1]);
        let st = TdState { phi, sigma, time: 0.0 };
        Cluster::ideal(8).run(|c| {
            let dist = BandDistribution::new(6, c.size());
            let local = scatter_state(c, &st, &dist);
            let cfg = DistConfig::default();
            dist_ptim_step(c, &sys, &LaserPulse::off(), &cfg, &dist, &local, 0.2, 4, 1e-9)
        });
    }

    #[test]
    fn poisoned_block_ends_the_step_non_finite_on_every_rank() {
        // A NaN in one rank's bands reaches the replicated midpoint
        // overlap, so every rank fails the PT map together and returns a
        // NaN state: no panic, and no rank left waiting in a collective.
        for alpha in [0.0, 0.25] {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let (sys, st) = fixture();
                let hybrid = HybridParams { alpha, omega: 0.2, ..Default::default() };
                let cfg = DistConfig {
                    strategy: ExchangeStrategy::RingOverlap,
                    hybrid,
                    ..Default::default()
                };
                let out = Cluster::ideal(2).run(|c| {
                    let dist = BandDistribution::new(4, c.size());
                    let mut local = scatter_state(c, &st, &dist);
                    if c.rank() == 1 {
                        local.phi_local.data[3].re = f64::NAN;
                    }
                    let laser = LaserPulse::off();
                    let (next, stats) =
                        dist_ptim_step(c, &sys, &laser, &cfg, &dist, &local, 0.2, 4, 1e-9);
                    let all_nan = next
                        .phi_local
                        .data
                        .iter()
                        .chain(next.sigma.as_slice())
                        .all(|z| z.re.is_nan() && z.im.is_nan());
                    all_nan && stats.residual.is_nan() && !stats.converged
                });
                let _ = done_tx.send(out.into_iter().map(|(ok, _)| ok).collect::<Vec<_>>());
            });
            // The watchdog: a hang fails the test instead of wedging it.
            let ranks = done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("α={alpha}: a rank panicked or hung"));
            assert_eq!(ranks, vec![true, true], "α={alpha}: every rank must return a NaN state");
        }
    }

    #[test]
    fn strategies_populate_expected_timing_categories() {
        use mpisim::Category;
        let (sys, st) = fixture();
        let net = NetworkModel {
            topology: mpisim::Topology::Torus(vec![2, 2]),
            hop_latency: 1e-6,
            sw_overhead: 1e-6,
            bandwidth: 1e9,
            shm_bandwidth: 1e10,
            shm_latency: 1e-7,
        };
        let e = eigh(&st.sigma);
        let nat = st.phi.rotated(&e.vectors);
        let nat_r = nat.to_real_all(&sys.grid);
        let ng = sys.grid.len();

        // A block's one solve (2 µs) covers part of its ≈ 5.5 µs transfer,
        // so the nonblocking strategies both hide and wait.
        let run = |strategy: ExchangeStrategy| {
            let nat_r = nat_r.clone();
            let e_values = e.values.clone();
            let sys_ref = &sys;
            let out = Cluster::new(4, 1, net.clone()).run(move |c| {
                let dist = BandDistribution::new(4, c.size());
                let my = dist.range(c.rank());
                let fock = FockOperator::new(&sys_ref.grid, 0.2);
                let nat_local = &nat_r[my.start * ng..my.end * ng];
                let plan = ExchangePlan { strategy, solve_cost_s: 2e-6 };
                let _ = dist_fock_apply_pure(c, &fock, &dist, nat_local, &e_values, plan);
                let (s, wait) = (&c.stats, c.stats.time(Category::Wait));
                let categories = (s.time(Category::Bcast), s.time(Category::Sendrecv), wait);
                (categories, [c.now(), wait, s.overlap_hidden_s, s.overlap_total_s])
            });
            out.into_iter().map(|(t, _)| t).collect::<Vec<_>>()
        };

        let bcast = run(ExchangeStrategy::Bcast);
        assert!(bcast.iter().any(|((b, s, w), _)| *b > 0.0 && *s == 0.0 && *w == 0.0));
        let ring = run(ExchangeStrategy::Ring);
        assert!(ring.iter().all(|((b, s, _), _)| *b == 0.0 && *s > 0.0));
        let async_ring = run(ExchangeStrategy::AsyncRing);
        assert!(async_ring.iter().all(|((b, s, w), _)| *b == 0.0 && *s == 0.0 && *w > 0.0));
        assert!(async_ring.iter().all(|(_, [.., hidden, _])| *hidden > 0.0));
        // On the flat ring RingOverlap is AsyncRing's schedule: the same
        // categories and, per rank, the same clock, Wait and overlap split
        // to the bit.
        let ring_overlap = run(ExchangeStrategy::RingOverlap);
        for (rank, (a, o)) in async_ring.iter().zip(&ring_overlap).enumerate() {
            assert_eq!(o.0, a.0, "rank {rank}: timing categories");
            let bits = |t: [f64; 4]| t.map(f64::to_bits);
            assert_eq!(bits(o.1), bits(a.1), "rank {rank}: {:?}", o.1);
        }
    }

    #[test]
    fn shm_reduces_sigma_footprint() {
        let (sys, st) = fixture();
        let laser = LaserPulse::off();
        let hyb = HybridParams { alpha: 0.0, omega: 0.2, ..Default::default() };
        let run = |use_shm: bool| {
            let st2 = st.clone();
            let sys_ref = &sys;
            let laser_ref = &laser;
            let out = Cluster::new(4, 4, NetworkModel::ideal()).run(move |c| {
                let dist = BandDistribution::new(4, c.size());
                let local = scatter_state(c, &st2, &dist);
                let cfg =
                    DistConfig { strategy: ExchangeStrategy::Ring, use_shm, hybrid: hyb, ..Default::default() };
                let _ = dist_ptim_step(c, sys_ref, laser_ref, &cfg, &dist, &local, 0.2, 4, 1e-7);
                (
                    c.stats.shm_bytes,
                    c.stats.private_bytes,
                    c.stats.unshared_equivalent_bytes,
                )
            });
            out[0].0
        };
        let (shm_b, priv_b, unshared) = run(true);
        let (shm_b0, priv_b0, _) = run(false);
        assert!(shm_b > 0 && priv_b == 0);
        assert_eq!(shm_b0, 0);
        assert!(priv_b0 > 0);
        // 4 ranks/node: shared cost is 1/4 of the unshared equivalent.
        assert_eq!(shm_b * 4, unshared);
    }
}
