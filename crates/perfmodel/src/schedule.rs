//! Per-step cost schedules for each optimization stage of Fig. 9.
//!
//! The schedule walks the *same* algorithm structure the real code
//! executes (the serial `ptim` crate and its distributed counterpart,
//! with the rotation/overlap operations routed through the grid-point
//! layout exactly as PWDFT does, Fig. 1) and prices every kernel with the
//! platform roofline and every message with the analytic communication
//! formulas. Variants are cumulative, matching the paper's step-by-step
//! bars: `Baseline → +Diag → +ACE → +Ring → +Async`.
//!
//! Wavefunctions travel as **compact G-sphere coefficients** (the cutoff
//! sphere holds ~π/48 of the FFT cube), which is what makes the exchange
//! volumes match the paper's Table I magnitudes.

use crate::comm::{
    allreduce_time, alltoallv_time, bcast_time, hier_allgatherv_time, hier_allreduce_time,
    hier_alltoallv_time, hier_half_ring_overlap_time, hier_ring_time, ring_time,
};
use crate::platform::Platform;
use crate::workload::Workload;

/// Fraction of FFT-grid points inside the kinetic cutoff sphere
/// (sphere of radius Gmax inside the 4Gmax-sided product cube: π/48).
pub const WIRE_FRACTION: f64 = std::f64::consts::PI / 48.0;

/// Fraction of nonblocking transfer time that stays visible in MPI_Wait
/// even when compute could nominally hide it (async progress runs on the
/// main thread; Table I measures 49–67% visible on the two platforms).
pub const WAIT_VISIBLE_FRACTION: f64 = 0.55;

/// Optimization stage (cumulative, as in Fig. 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// PT-IM with the Alg. 2 triple-loop Fock operator, Bcast exchange.
    Baseline,
    /// + occupation-matrix diagonalization (Sec. IV-A1).
    Diag,
    /// + ACE double loop (Sec. IV-A2).
    Ace,
    /// + ring point-to-point exchange (Sec. IV-B1).
    AceRing,
    /// + asynchronous ring overlap (Sec. IV-B2).
    AceAsync,
    /// + ring-pipelined overlapped exchange with test-driven progress
    ///   (the `RingOverlap` strategy): the async-progress visibility
    ///   floor disappears, leaving only the excess of each transfer over
    ///   its covering Poisson compute.
    AceOverlap,
}

impl Variant {
    /// All stages in Fig. 9 order (the overlapped ring appended).
    pub const ALL: [Variant; 6] = [
        Variant::Baseline,
        Variant::Diag,
        Variant::Ace,
        Variant::AceRing,
        Variant::AceAsync,
        Variant::AceOverlap,
    ];

    /// Label used in harness output.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Baseline => "BL",
            Variant::Diag => "Diag",
            Variant::Ace => "ACE",
            Variant::AceRing => "Ring",
            Variant::AceAsync => "Async",
            Variant::AceOverlap => "Ovl",
        }
    }
}

/// Communication time split by MPI category (Table I columns).
#[derive(Clone, Copy, Debug, Default)]
pub struct CommBreakdown {
    /// `MPI_Bcast` time (s).
    pub bcast: f64,
    /// `MPI_Sendrecv` (ring) time.
    pub sendrecv: f64,
    /// `MPI_Wait` (async ring) time.
    pub wait: f64,
    /// `MPI_Allreduce` time.
    pub allreduce: f64,
    /// `MPI_Alltoallv` (band↔grid transpose) time.
    pub alltoallv: f64,
    /// `MPI_Allgatherv` time.
    pub allgatherv: f64,
}

impl CommBreakdown {
    /// Total communication time.
    pub fn total(&self) -> f64 {
        self.bcast + self.sendrecv + self.wait + self.allreduce + self.alltoallv + self.allgatherv
    }
}

/// Full per-step time breakdown (seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepBreakdown {
    /// Fock exchange compute (band materialization + Poisson solves).
    pub fock: f64,
    /// Density evaluation compute.
    pub density: f64,
    /// σ diagonalization + basis rotations (grid-layout GEMMs).
    pub rotation: f64,
    /// ACE inner-loop applications (GEMMs) + ACE construction.
    pub ace_inner: f64,
    /// Overlap-matrix compute (Φ*Φ, Φ*HΦ partial GEMMs).
    pub overlaps: f64,
    /// Anderson mixing traffic.
    pub anderson: f64,
    /// Local H application (kinetic + Vloc FFT work) and orthonormalization.
    pub other: f64,
    /// Communication by category.
    pub comm: CommBreakdown,
    /// Number of full Fock-exchange evaluations in the step.
    pub n_vx: usize,
}

impl StepBreakdown {
    /// Total wall time per step.
    pub fn total(&self) -> f64 {
        self.fock
            + self.density
            + self.rotation
            + self.ace_inner
            + self.overlaps
            + self.anderson
            + self.other
            + self.comm.total()
    }

    /// Communication fraction of the step.
    pub fn comm_ratio(&self) -> f64 {
        self.comm.total() / self.total()
    }
}

/// FFT cost on an Ng-point grid: `5·Ng·log2 Ng` flops; byte traffic
/// modeled as three read+write streams (pass-fused implementation).
fn fft_cost(ng: f64) -> (f64, f64) {
    (5.0 * ng * ng.log2(), 6.0 * 16.0 * ng)
}

/// Element-wise grid pass over `arrays` complex arrays.
fn pass_cost(ng: f64, arrays: f64) -> (f64, f64) {
    (6.0 * ng, arrays * 16.0 * ng)
}

/// Computes the per-step breakdown for a variant on `nodes` nodes.
pub fn step_time(pf: &Platform, w: &Workload, nodes: usize, variant: Variant) -> StepBreakdown {
    let p = nodes * pf.ranks_per_node;
    let n = w.n_orbitals as f64;
    let nb = (n / p as f64).max(1.0);
    let ng = w.ng;
    // Compact sphere representation on the wire and in G-space GEMMs.
    let npw = WIRE_FRACTION * ng;
    let wire_block = 16.0 * npw * nb;
    let mut b = StepBreakdown::default();

    // -- reusable kernel prices ------------------------------------------
    let (fft_f, fft_b) = fft_cost(ng);
    let t_fft = pf.kernel_time(fft_f, fft_b);
    let (p3_f, p3_b) = pass_cost(ng, 3.0);
    let t_pass3 = pf.kernel_time(p3_f, p3_b);

    // One diagonalized Fock application, per rank:
    //  - materialize all N received source bands to real space (N FFTs),
    //  - N×nb pair Poisson solves (2 FFTs + 3 grid passes each).
    let pairs_diag = n * nb;
    let t_vx_materialize = n * t_fft;
    let t_vx_pairs = pairs_diag * (2.0 * t_fft + 3.0 * t_pass3);
    let t_vx_diag = t_vx_materialize + t_vx_pairs;
    // Baseline (no diagonalization): same Poisson solves plus the
    // σ_ik-weighted triple-loop accumulation over all i (N²×nb fused
    // passes, calibrated by BASELINE_TRIPLE_FACTOR).
    let t_vx_baseline = t_vx_diag + n * n * nb * pf.triple_pass_eff * t_pass3;

    // Density: diagonalized = nb FFTs + nb accumulate passes;
    // baseline adds nb×N pair passes.
    let t_density_diag = nb * (t_fft + t_pass3);
    let t_density_baseline = t_density_diag + nb * n * t_pass3;

    // σ diagonalization: distributed (ScaLAPACK-style) solve.
    let t_eigh = pf.kernel_time(10.0 * n * n * n / p as f64, 16.0 * n * n);

    // Grid-layout subspace operations (Fig. 1 right): rotations and
    // overlaps are local GEMMs over the rank's npw/p coefficient rows,
    // bracketed by alltoallv transposes.
    let rows = npw / p as f64;
    let t_rotation_gemm = pf.kernel_time(8.0 * n * n * rows, 16.0 * (2.0 * n * rows + n * n));
    let t_overlap_gemm = pf.kernel_time(8.0 * n * n * rows, 16.0 * (2.0 * n * rows + n * n));
    let t_transpose = alltoallv_time(pf, p, wire_block);
    let t_overlap_ar = allreduce_time(pf, p, 16.0 * n * n);

    // Anderson mixing: history streams over the local bands (sphere rep).
    let t_anderson = pf.kernel_time(0.0, 2.0 * 20.0 * 16.0 * nb * npw);

    // Local H (kinetic + local potential): per band 2 FFTs + 2 passes.
    let t_local_h = nb * (2.0 * t_fft + 2.0 * pf.kernel_time(p3_f, 2.0 * 16.0 * ng));

    // ACE application (inner loop): two thin GEMMs against ξ in G-sphere
    // representation.
    let t_ace_apply = pf.kernel_time(2.0 * 8.0 * n * nb * npw, 16.0 * (2.0 * n * rows + 2.0 * nb * npw));
    // ACE build: distributed Cholesky + ξ rotation.
    let t_ace_build = pf.kernel_time(8.0 * n * n * n / p as f64, 16.0 * n * n) + t_rotation_gemm;

    // Wavefunction exchange for one Vx: every rank ingests all N bands as
    // compact coefficients.
    let t_exch_bcast = (0..p).map(|_| bcast_time(pf, p, wire_block)).sum::<f64>();
    let t_exch_ring = ring_time(pf, p, wire_block);

    // Per-SCF shared work (both loop styles): density + overlap pair +
    // rotations + transposes + reductions + Anderson + local H.
    let add_common_scf = |b: &mut StepBreakdown, iters: f64, diagonalized: bool| {
        b.density += iters * if diagonalized { t_density_diag } else { t_density_baseline };
        b.overlaps += iters * 2.0 * t_overlap_gemm;
        b.anderson += iters * t_anderson;
        b.other += iters * t_local_h;
        b.comm.alltoallv += iters * 4.0 * t_transpose;
        b.comm.allreduce += iters * (2.0 * t_overlap_ar + allreduce_time(pf, p, 8.0 * ng));
        if diagonalized {
            b.rotation += iters * (t_eigh + t_rotation_gemm);
        }
    };

    match variant {
        Variant::Baseline | Variant::Diag => {
            let n_scf = Workload::SCF_DENSE as f64;
            b.n_vx = Workload::SCF_DENSE;
            let diag = variant == Variant::Diag;
            b.fock = n_scf * if diag { t_vx_diag } else { t_vx_baseline };
            add_common_scf(&mut b, n_scf, diag);
            b.comm.bcast = n_scf * t_exch_bcast;
            b.comm.allgatherv = crate::comm::allgatherv_time(pf, p, 16.0 * n * nb);
        }
        Variant::Ace | Variant::AceRing | Variant::AceAsync | Variant::AceOverlap => {
            let outer = Workload::ACE_OUTER as f64;
            let inner_total = (Workload::ACE_OUTER * Workload::ACE_INNER) as f64;
            b.n_vx = Workload::ACE_OUTER;
            b.fock = outer * t_vx_diag;
            b.ace_inner = inner_total * t_ace_apply + outer * t_ace_build;
            add_common_scf(&mut b, inner_total, true);
            b.comm.allgatherv = crate::comm::allgatherv_time(pf, p, 16.0 * n * nb);
            match variant {
                Variant::Ace => {
                    b.comm.bcast = outer * t_exch_bcast;
                }
                Variant::AceRing => {
                    b.comm.sendrecv = outer * t_exch_ring;
                }
                Variant::AceAsync => {
                    // Per ring step the next block's transfer overlaps the
                    // current block's Poisson work; only the excess is
                    // visible as MPI_Wait.
                    let steps = (p.max(2) - 1) as f64;
                    let per_step_comm = t_exch_ring / steps;
                    let per_step_comp = t_vx_pairs / p as f64;
                    let wait = (per_step_comm - per_step_comp)
                        .max(WAIT_VISIBLE_FRACTION * per_step_comm)
                        * steps;
                    b.comm.wait = outer * wait;
                }
                Variant::AceOverlap => {
                    // Ring-pipelined exchange whose posted transfer
                    // progresses behind the solves on its own (as on the
                    // simulator's virtual clock): the async-progress
                    // visibility floor (WAIT_VISIBLE_FRACTION) is gone;
                    // the visible wait is exactly the closed-form
                    // excess of crate::comm::ring_overlap_time.
                    let steps = (p.max(2) - 1) as f64;
                    let per_step_comm = t_exch_ring / steps;
                    let per_step_comp = t_vx_pairs / p as f64;
                    b.comm.wait =
                        outer * (per_step_comm - per_step_comp).max(0.0) * steps;
                }
                _ => unreachable!(),
            }
        }
    }

    // Device underutilization at small per-rank batches (Sec. VIII-B):
    // all compute streams slow down by the batch-saturation factor.
    let u = pf.batch_efficiency(nb);
    b.fock /= u;
    b.density /= u;
    b.rotation /= u;
    b.ace_inner /= u;
    b.overlaps /= u;
    b.anderson /= u;
    b.other /= u;
    b
}

/// Shape of one *simulated* distributed PT-IM step — the configuration
/// the scaling harness drives through `ptim::distributed::dist_ptim_step`
/// on the mpisim virtual clock.
#[derive(Clone, Copy, Debug)]
pub struct DistStepShape {
    /// Total ranks.
    pub p: usize,
    /// Total bands N.
    pub n_bands: usize,
    /// FFT grid points.
    pub ng: usize,
    /// Modeled compute seconds charged per exchange pair solve.
    pub solve_cost_s: f64,
    /// SCF corrector iterations (`max_scf`); the predictor adds one more
    /// fixed-point evaluation.
    pub max_scf: usize,
}

/// Closed-form prediction of the virtual-clock time of one simulated
/// `dist_ptim_step` (RingOverlap exchange, SHM-backed σ) at `shape`.
///
/// This models exactly the charges the simulator's clock sees — wire
/// time under the two-level collective forms plus the modeled per-solve
/// exchange compute — **not** the physical kernel workload of
/// [`step_time`] (the simulated step's host-side math costs no virtual
/// time). Per fixed-point evaluation the step runs: two ring rotations
/// (natural orbitals, subspace correction), one ρ all-reduce, the
/// overlapped exchange, and two overlap builds (four band→grid
/// transposes + two N×N all-reduces); the final Löwdin pass adds one
/// more overlap build and rotation. The exchange is the self-applied
/// half ring, plus the all-gather of every rank's eigenvector columns
/// (`Q̂`) and a third rotation (the images back by `Q̂⁻¹`). All rings are
/// node-contiguous, so their dependency chains mix intra- and inter-node
/// edges ([`crate::comm::ring_edge_time`]). Panics unless every rank
/// holds a band (`n_bands ≥ p`), as the distributed step does.
///
/// Every band block is priced at the full grid here: this is
/// [`dist_step_sim_time_pw`] with one plane wave per grid point.
pub fn dist_step_sim_time(pf: &Platform, shape: &DistStepShape) -> f64 {
    dist_step_sim_time_pw(pf, shape, shape.ng)
}

/// [`dist_step_sim_time`] for bands stored on a cutoff sphere of `n_pw`
/// plane waves: the G-space messages — the Φ rotations and the
/// band→grid transposes of the overlap builds — carry `n_pw` points per
/// band, while the exchange ring, the rotation of its real-space images
/// back and the density all-reduce carry the `ng`-point grid.
pub fn dist_step_sim_time_pw(pf: &Platform, shape: &DistStepShape, n_pw: usize) -> f64 {
    let DistStepShape { p, n_bands, ng, solve_cost_s, max_scf } = *shape;
    assert!(n_bands >= p, "{n_bands} bands on {p} ranks: every rank must hold at least one band");
    let n_updates = (max_scf + 1) as f64;
    let n = n_bands as f64;
    let nb_max = n_bands.div_ceil(p) as f64;
    // Average circulating ring block, 16 bytes per complex point:
    // real-space grids for the exchange, sphere coefficients for the
    // G-space rotations.
    let block_bytes = 16.0 * n * ng as f64 / p as f64;
    let pw_block_bytes = 16.0 * n * n_pw as f64 / p as f64;

    // Overlapped half-ring exchange, paced by the busiest rank's pair
    // solves, then the Q̂ gather.
    let solves = (0..p).map(|r| half_ring_solves(n_bands, p, r)).fold(0.0, f64::max);
    let t_fock = hier_half_ring_overlap_time(pf, p, block_bytes, solves * solve_cost_s);
    let t_q_hat = hier_allgatherv_time(pf, p, 16.0 * n * nb_max);

    // G-space rotations: two per evaluation (natural orbitals, subspace
    // correction) + the final Löwdin rotation; and per evaluation the
    // real-space rotation of the exchange images back.
    let t_rotations = (2.0 * n_updates + 1.0) * hier_ring_time(pf, p, pw_block_bytes)
        + n_updates * hier_ring_time(pf, p, block_bytes);

    // Overlap builds: 2 per evaluation (S, Hm) + the final Löwdin S.
    // Each transposes both operand blocks (band→grid alltoallv of the
    // busiest rank's local bands) and reduces one N×N partial product.
    let overlaps = 2.0 * n_updates + 1.0;
    let t_transpose = hier_alltoallv_time(pf, p, 16.0 * nb_max * n_pw as f64);
    let t_mat_reduce = hier_allreduce_time(pf, p, 16.0 * n * n);

    // Density: one real-grid all-reduce per evaluation.
    let t_rho = hier_allreduce_time(pf, p, 8.0 * ng as f64);

    t_rotations
        + n_updates * (t_fock + t_q_hat)
        + overlaps * (2.0 * t_transpose + t_mat_reduce)
        + n_updates * t_rho
}

/// Pair solves rank `r` of `p` performs in one self-applied half-ring
/// exchange of `n` bands dealt out in balanced contiguous blocks: its
/// diagonal block's `i ≤ j` pairs plus every pair with the blocks of the
/// `⌊p/2⌋` ranks ahead, half of them with the last when `p` is even.
pub fn half_ring_solves(n: usize, p: usize, r: usize) -> f64 {
    let count = |r: usize| (n / p + usize::from(r < n % p)) as f64;
    let nb = count(r);
    let cross: f64 = (1..=p / 2)
        .map(|d| if 2 * d == p { 0.5 } else { 1.0 } * nb * count((r + d) % p))
        .sum();
    nb * (nb + 1.0) / 2.0 + cross
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_ring_solves_sum_to_the_pair_symmetric_count() {
        for (n, p) in [(64, 16), (7, 3), (7, 4), (1, 1)] {
            let total: f64 = (0..p).map(|r| half_ring_solves(n, p, r)).sum();
            assert_eq!(total, (n * (n + 1) / 2) as f64, "n={n} p={p}");
        }
    }

    #[test]
    fn sphere_storage_prices_only_the_g_space_messages_smaller() {
        let pf = Platform::fugaku_arm();
        for p in [4, 16, 64] {
            let shape = DistStepShape { p, n_bands: 64, ng: 4096, solve_cost_s: 2e-5, max_scf: 1 };
            let full = dist_step_sim_time(&pf, &shape);
            assert_eq!(full, dist_step_sim_time_pw(&pf, &shape, shape.ng));
            let sphere = dist_step_sim_time_pw(&pf, &shape, 587);
            assert!(sphere < full, "p={p}: {sphere} vs {full}");
            // The exchange ring and the density stay at the full grid.
            let none = dist_step_sim_time_pw(&pf, &shape, 0);
            assert!(none > 0.0 && none < sphere, "p={p}");
        }
    }

    fn breakdowns(pf: &Platform, atoms: usize, nodes: usize) -> Vec<(Variant, StepBreakdown)> {
        let w = Workload::silicon(atoms);
        Variant::ALL.iter().map(|&v| (v, step_time(pf, &w, nodes, v))).collect()
    }

    #[test]
    fn fig9_ordering_arm() {
        // Each cumulative optimization must reduce the step time
        // (384 atoms on 240 ARM nodes, the Fig. 9 configuration).
        let pf = Platform::fugaku_arm();
        let bs = breakdowns(&pf, 384, 240);
        for pair in bs.windows(2) {
            assert!(
                pair[0].1.total() > pair[1].1.total(),
                "{:?} ({}) should exceed {:?} ({})",
                pair[0].0,
                pair[0].1.total(),
                pair[1].0,
                pair[1].1.total()
            );
        }
    }

    #[test]
    fn fig9_ordering_gpu() {
        let pf = Platform::gpu_a100();
        let bs = breakdowns(&pf, 384, 24);
        for pair in bs.windows(2) {
            assert!(pair[0].1.total() > pair[1].1.total(), "{:?} vs {:?}", pair[0].0, pair[1].0);
        }
    }

    #[test]
    fn diag_speedup_order_of_magnitude() {
        // Paper: 12.86× (ARM), 7.57× (GPU) for the 384-atom system.
        for (pf, nodes) in [(Platform::fugaku_arm(), 240), (Platform::gpu_a100(), 24)] {
            let w = Workload::silicon(384);
            let bl = step_time(&pf, &w, nodes, Variant::Baseline).total();
            let dg = step_time(&pf, &w, nodes, Variant::Diag).total();
            let s = bl / dg;
            assert!(s > 4.0 && s < 40.0, "{}: Diag speedup {s}", pf.name);
        }
    }

    #[test]
    fn total_speedup_matches_paper_band() {
        // Paper: 55.15× (ARM) / 41.44× (GPU) end-to-end.
        for (pf, nodes, lo, hi) in [
            (Platform::fugaku_arm(), 240, 15.0, 200.0),
            (Platform::gpu_a100(), 24, 15.0, 200.0),
        ] {
            let w = Workload::silicon(384);
            let bl = step_time(&pf, &w, nodes, Variant::Baseline).total();
            let best = step_time(&pf, &w, nodes, Variant::AceAsync).total();
            let s = bl / best;
            assert!(s > lo && s < hi, "{}: total speedup {s}", pf.name);
        }
    }

    #[test]
    fn ace_cuts_fock_count_to_five() {
        let pf = Platform::gpu_a100();
        let w = Workload::silicon(384);
        let dense = step_time(&pf, &w, 24, Variant::Diag);
        let ace = step_time(&pf, &w, 24, Variant::Ace);
        assert_eq!(dense.n_vx, 25);
        assert_eq!(ace.n_vx, 5);
        assert!(ace.fock < dense.fock / 4.0);
    }

    #[test]
    fn ring_reduces_bcast_comm() {
        let pf = Platform::fugaku_arm();
        let w = Workload::silicon(1536);
        let ace = step_time(&pf, &w, 960, Variant::Ace);
        let ring = step_time(&pf, &w, 960, Variant::AceRing);
        assert!(ace.comm.bcast > 0.0);
        assert_eq!(ring.comm.bcast, 0.0);
        assert!(
            ring.comm.total() < ace.comm.total(),
            "{} vs {}",
            ring.comm.total(),
            ace.comm.total()
        );
    }

    #[test]
    fn async_wait_below_ring_sendrecv() {
        // Table I: Wait(async) < Sendrecv(ring) on both platforms.
        for (pf, nodes) in [(Platform::fugaku_arm(), 960), (Platform::gpu_a100(), 96)] {
            let w = Workload::silicon(1536);
            let ring = step_time(&pf, &w, nodes, Variant::AceRing);
            let asnc = step_time(&pf, &w, nodes, Variant::AceAsync);
            assert!(
                asnc.comm.wait < ring.comm.sendrecv,
                "{}: wait {} vs ring sendrecv {}",
                pf.name,
                asnc.comm.wait,
                ring.comm.sendrecv
            );
        }
    }

    #[test]
    fn overlap_wait_never_exceeds_async_wait() {
        // Removing the visibility floor can only help: on every Table-I
        // configuration the overlapped ring's Wait is ≤ the async ring's,
        // and compute/comm stay untouched.
        for (pf, nodes, atoms) in [
            (Platform::fugaku_arm(), 960, 1536),
            (Platform::gpu_a100(), 96, 1536),
            (Platform::fugaku_arm(), 240, 384),
            (Platform::gpu_a100(), 24, 384),
        ] {
            let w = Workload::silicon(atoms);
            let asnc = step_time(&pf, &w, nodes, Variant::AceAsync);
            let ovl = step_time(&pf, &w, nodes, Variant::AceOverlap);
            assert!(
                ovl.comm.wait <= asnc.comm.wait + 1e-15,
                "{}: overlap wait {} vs async wait {}",
                pf.name,
                ovl.comm.wait,
                asnc.comm.wait
            );
            assert!((ovl.fock - asnc.fock).abs() < 1e-12);
            assert!((ovl.comm.alltoallv - asnc.comm.alltoallv).abs() < 1e-12);
        }
    }

    #[test]
    fn comm_ratio_higher_on_gpu() {
        // Table I: GPU communication ratio exceeds ARM's at the same
        // system size (1536 atoms; 960 ARM vs 96 GPU nodes).
        let arm =
            step_time(&Platform::fugaku_arm(), &Workload::silicon(1536), 960, Variant::AceAsync);
        let gpu =
            step_time(&Platform::gpu_a100(), &Workload::silicon(1536), 96, Variant::AceAsync);
        assert!(
            gpu.comm_ratio() > arm.comm_ratio(),
            "GPU ratio {} vs ARM {}",
            gpu.comm_ratio(),
            arm.comm_ratio()
        );
    }

    #[test]
    fn nvlink_whatif_improves_comm_as_paper_predicts() {
        // Sec. VIII-D: with NVLink/GPUDirect the communication performance
        // improves. Every Table-I variant's comm time must drop, and the
        // comm ratio must fall below the PCIe-staged platform's.
        let pcie = Platform::gpu_a100();
        let nvlink = Platform::gpu_nvlink();
        let w = Workload::silicon(1536);
        for v in [Variant::Ace, Variant::AceRing, Variant::AceAsync] {
            let a = step_time(&pcie, &w, 96, v);
            let b = step_time(&nvlink, &w, 96, v);
            assert!(
                b.comm.total() < a.comm.total(),
                "{v:?}: NVLink comm {} should beat PCIe {}",
                b.comm.total(),
                a.comm.total()
            );
            assert!(b.comm_ratio() < a.comm_ratio());
            // Compute side is untouched.
            assert!((a.fock - b.fock).abs() < 1e-9);
        }
    }

    #[test]
    fn comm_ratios_in_table1_band() {
        // Table I: ARM 10.65%–18.92%, GPU 16.38%–25.72% across
        // ACE/Ring/Async. Accept a generous band around those.
        for (pf, nodes, lo, hi) in [
            (Platform::fugaku_arm(), 960, 0.02, 0.45),
            (Platform::gpu_a100(), 96, 0.05, 0.55),
        ] {
            let w = Workload::silicon(1536);
            for v in [Variant::Ace, Variant::AceRing, Variant::AceAsync] {
                let r = step_time(&pf, &w, nodes, v).comm_ratio();
                assert!(r > lo && r < hi, "{} {:?}: comm ratio {r}", pf.name, v);
            }
        }
    }
}
