//! Hierarchical 2-D parallelization: a band×grid process grid, the one
//! ring driver every band-block circulation runs on, and the
//! ring-pipelined, communication-overlapped distributed Fock exchange.
//!
//! The flat band-parallel layer ([`crate::distributed`]) assigns whole
//! ranks to band slices; at scale the per-rank band count shrinks until
//! the exchange ring is pure communication. The paper's hierarchical
//! scheme (Sec. III-A; Jia et al., arXiv:1905.01348) instead lays the
//! ranks out as a 2-D [`ProcessGrid`]: *band groups* along one axis, the
//! *plane-wave grid* split into slabs along the other
//! ([`GridDistribution`], with the slab-decomposed distributed FFT in
//! [`pwfft::dist`]). Exchange then circulates band blocks between
//! corresponding grid ranks of neighboring band groups — messages shrink
//! by the grid-rank factor — and every transfer is posted nonblocking
//! (`isend`/`irecv`) *before* the current block's Poisson solves run and
//! completed with `wait` after them. The hidden-vs-visible split of each
//! transfer is recorded by the runtime
//! ([`mpisim::Stats::overlap_efficiency`]).
//!
//! **One ring driver.** The crate-private `circulate` is the only loop
//! that moves band blocks between ranks: it runs a block kernel once per
//! band group's block and brings the next block by one of the paper's
//! three transports (Fig. 5) — a broadcast from the owner, a blocking
//! neighbor `sendrecv` after the kernel, or `irecv`/`isend` posted before
//! the kernel and a `wait` after it. `dist_rotate` and every
//! [`ExchangeStrategy`](crate::distributed::ExchangeStrategy) run on it;
//! on the flat `p × 1` grid `AsyncRing` and `RingOverlap` are the same
//! schedule.
//!
//! **Two block kernels.** At `grid_ranks == 1` a block is one batched
//! apply of [`FockOperator`]: the Hermitian pair-symmetric one on the
//! self-applied diagonal block, the target-major one elsewhere, so the
//! [`pwnum::precision::PrecisionPolicy`] applies unchanged. At
//! `grid_ranks > 1` each pair density lives in slabs and the
//! screened-Poisson round trip is a collective solve on the row's
//! [`DistFft3`] (fp64; the slab path is precision-policy-neutral).

use crate::distributed::BandDistribution;
use mpisim::{Comm, Tag};
use pwdft::FockOperator;
use pwfft::DistFft3;
use pwnum::complex::Complex64;
use pwnum::parallel::block_range;

/// Ranks laid out as `band_groups × grid_ranks`, grid ranks contiguous:
/// `rank = band_group · grid_ranks + grid_rank`, so one band group's
/// grid communicator is co-located on as few nodes as possible (its
/// alltoallv transposes stay near-neighbor/intra-node, the exchange ring
/// crosses groups).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcessGrid {
    /// Number of band groups (the exchange-ring dimension).
    pub band_groups: usize,
    /// Ranks per band group (the grid/slab dimension).
    pub grid_ranks: usize,
}

impl ProcessGrid {
    /// Lays `size` ranks out as `band_groups` groups; `size` must divide
    /// evenly.
    pub fn new(size: usize, band_groups: usize) -> Self {
        assert!(band_groups > 0 && size > 0, "process grid must be non-empty");
        assert!(
            size.is_multiple_of(band_groups),
            "{size} ranks do not divide into {band_groups} band groups"
        );
        ProcessGrid { band_groups, grid_ranks: size / band_groups }
    }

    /// Total ranks in the grid.
    #[inline]
    pub fn size(&self) -> usize {
        self.band_groups * self.grid_ranks
    }

    /// `(band_group, grid_rank)` coordinates of a world rank.
    #[inline]
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.grid_ranks, rank % self.grid_ranks)
    }

    /// World rank at 2-D coordinates.
    #[inline]
    pub fn rank_of(&self, band_group: usize, grid_rank: usize) -> usize {
        debug_assert!(band_group < self.band_groups && grid_rank < self.grid_ranks);
        band_group * self.grid_ranks + grid_rank
    }

    /// The grid communicator of one band group: its world ranks in slab
    /// order (what [`DistFft3::new`] takes as `members`).
    pub fn row_members(&self, band_group: usize) -> Vec<usize> {
        (0..self.grid_ranks).map(|g| self.rank_of(band_group, g)).collect()
    }

    /// Ring peer a rank sends its block to: same grid rank, previous
    /// band group (blocks flow so that step `k` processes group
    /// `mine + k`, matching the flat ring's orientation).
    pub fn ring_send_to(&self, rank: usize) -> usize {
        let (bg, gr) = self.coords(rank);
        self.rank_of((bg + self.band_groups - 1) % self.band_groups, gr)
    }

    /// Ring peer a rank receives the next block from: same grid rank,
    /// next band group.
    pub fn ring_recv_from(&self, rank: usize) -> usize {
        let (bg, gr) = self.coords(rank);
        self.rank_of((bg + 1) % self.band_groups, gr)
    }
}

/// How [`circulate`] brings a rank its next band block: the three
/// patterns of the paper's ring-based method (Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Transport {
    /// Step `k` broadcasts band group `k`'s block from its owner
    /// (Fig. 5a).
    Bcast,
    /// The kernel runs, then the blocking neighbor exchange
    /// (`MPI_Sendrecv`, Fig. 5b).
    Sendrecv,
    /// The next block's `irecv`/`isend` are posted before the kernel and
    /// completed with `wait` after it (`MPI_Isend/Irecv/Wait`, Fig. 5c).
    Nonblocking,
}

/// The one band-block circulation loop: runs `kernel(comm, src_group,
/// block)` once for every band group's block, `local` being this rank's.
/// The ring transports visit `my_group, my_group + 1, …`, sending to
/// [`ProcessGrid::ring_send_to`] and receiving from
/// [`ProcessGrid::ring_recv_from`] on tag `tag + step`; `Bcast` visits
/// groups `0, 1, …` and needs `grid_ranks == 1`. Every peer a transfer
/// depends on is checked with [`Comm::require_alive`] first, so a crashed
/// rank surfaces on the survivors as an attributed error naming it and
/// the step, never as a deadlock.
pub(crate) fn circulate(
    comm: &mut Comm,
    pgrid: &ProcessGrid,
    local: &[Complex64],
    transport: Transport,
    tag: Tag,
    mut kernel: impl FnMut(&mut Comm, usize, &[Complex64]),
) {
    let groups = pgrid.band_groups;
    let (my_group, _) = pgrid.coords(comm.rank());
    let send_to = pgrid.ring_send_to(comm.rank());
    let recv_from = pgrid.ring_recv_from(comm.rank());
    let require_peers = |comm: &Comm| {
        comm.require_alive(send_to, "the band-block ring");
        comm.require_alive(recv_from, "the band-block ring");
    };
    debug_assert!(transport != Transport::Bcast || pgrid.grid_ranks == 1, "whole blocks only");
    let mut block = local.to_vec();
    for step in 0..groups {
        let src_group = (my_group + step) % groups;
        let more = step + 1 < groups;
        let tag = tag + step as Tag;
        match transport {
            Transport::Bcast => {
                comm.require_alive(step, "the band-block broadcast");
                let root_block = comm.bcast(step, (step == my_group).then(|| local.to_vec()));
                kernel(comm, step, &root_block);
            }
            Transport::Sendrecv => {
                kernel(comm, src_group, &block);
                if more {
                    require_peers(comm);
                    block = comm.sendrecv(send_to, recv_from, tag, block);
                }
            }
            Transport::Nonblocking => {
                // Double-buffered handoff: the next block's transfer is
                // in flight while the kernel works on this one.
                let pending = more.then(|| {
                    require_peers(comm);
                    let req = comm.irecv(recv_from, tag);
                    let _sent = comm.isend(send_to, tag, block.clone());
                    req
                });
                kernel(comm, src_group, &block);
                if let Some(req) = pending {
                    block = comm.wait(req).expect("ring block payload");
                }
            }
        }
    }
}

/// Balanced contiguous ownership of grid items over the ranks of a grid
/// communicator — the [`BandDistribution`] partner for the grid
/// dimension. `n_items` is whatever the caller decomposes: raw grid
/// points for the band↔grid overlap transpose, FFT planes for slab
/// ownership (where it must — and does, via the shared
/// [`block_range`] — agree with [`DistFft3::slab0`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridDistribution {
    /// Total items decomposed.
    pub n_items: usize,
    /// Ranks in the grid communicator.
    pub n_ranks: usize,
}

impl GridDistribution {
    /// Creates the distribution.
    pub fn new(n_items: usize, n_ranks: usize) -> Self {
        assert!(n_ranks > 0);
        GridDistribution { n_items, n_ranks }
    }

    /// Items owned by `rank`.
    #[inline]
    pub fn count(&self, rank: usize) -> usize {
        self.range(rank).len()
    }

    /// Item range owned by `rank`.
    #[inline]
    pub fn range(&self, rank: usize) -> std::ops::Range<usize> {
        block_range(self.n_items, self.n_ranks, rank)
    }
}

/// What one ring-pipelined exchange actually did on this rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingOverlapReport {
    /// Screened-Poisson pair solves performed (each = one forward + one
    /// inverse 3-D FFT, serial or slab-distributed).
    pub solves: usize,
    /// Solves that ran in fp32 under a reduced exchange precision
    /// policy (grid_ranks == 1 path only; the slab path is fp64).
    pub solves_fp32: usize,
    /// 1-D line transforms the distributed FFT performed (0 on the
    /// `grid_ranks == 1` path, where solves run through the operator's
    /// batched serial FFTs).
    pub dist_fft_lines: u64,
}

/// Charges `solves` pair solves of modeled Poisson compute to the
/// virtual clock (nothing at zero cost).
fn charge(comm: &mut Comm, solve_cost_s: f64, solves: usize) {
    if solve_cost_s > 0.0 && solves > 0 {
        comm.compute(solve_cost_s * solves as f64);
    }
}

/// Tag base of the exchange ring's block transfers.
const EXCHANGE_TAG: Tag = 10_000;

/// Ring-pipelined, communication-overlapped distributed Fock exchange
/// `VxΨ` on the 2-D process grid.
///
/// `nat_local` holds this rank's slab of each of its band group's
/// natural orbitals in real space (band-major; the full grids when
/// `grid_ranks == 1`), `occ` the *global* occupations, and `psi_local`
/// the targets in the same layout. When `psi_local` aliases `nat_local`
/// (the self-applied ACE-rebuild case) the diagonal block runs the
/// Hermitian `i ≤ j` pair halving. Each ring step posts the next block's
/// `isend`/`irecv` *before* solving the current block's pairs and
/// completes the receive with [`Comm::wait`] after them — the hidden
/// share of every transfer lands in [`mpisim::Stats::overlap_hidden_s`].
/// `solve_cost_s` is the modeled compute seconds charged per pair solve
/// (0 ⇒ data plane only).
///
/// Pass `dfft: None` for `grid_ranks == 1` (pure band ring; pair solves
/// go through the policy-aware batched schedulers of `fock`), or the
/// row's [`DistFft3`] for a genuine grid decomposition.
#[allow(clippy::too_many_arguments)]
pub fn ring_overlap_fock_apply(
    comm: &mut Comm,
    fock: &FockOperator,
    pgrid: &ProcessGrid,
    bands: &BandDistribution,
    dfft: Option<&DistFft3>,
    nat_local: &[Complex64],
    occ: &[f64],
    psi_local: &[Complex64],
    solve_cost_s: f64,
) -> (Vec<Complex64>, RingOverlapReport) {
    ring_fock_apply(
        comm,
        fock,
        pgrid,
        bands,
        dfft,
        nat_local,
        occ,
        psi_local,
        Transport::Nonblocking,
        solve_cost_s,
    )
}

/// [`ring_overlap_fock_apply`] over any [`Transport`]: the distributed
/// Fock exchange of every
/// [`ExchangeStrategy`](crate::distributed::ExchangeStrategy).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ring_fock_apply(
    comm: &mut Comm,
    fock: &FockOperator,
    pgrid: &ProcessGrid,
    bands: &BandDistribution,
    dfft: Option<&DistFft3>,
    nat_local: &[Complex64],
    occ: &[f64],
    psi_local: &[Complex64],
    transport: Transport,
    solve_cost_s: f64,
) -> (Vec<Complex64>, RingOverlapReport) {
    let _s = pwobs::span("xch.ring");
    assert_eq!(pgrid.size(), comm.size(), "process grid does not match the communicator");
    assert_eq!(bands.n_ranks, pgrid.band_groups, "band distribution must span band groups");
    let (my_group, my_grid_rank) = pgrid.coords(comm.rank());
    let symmetric = nat_local.as_ptr() == psi_local.as_ptr()
        && nat_local.len() == psi_local.len();
    if pgrid.grid_ranks == 1 {
        assert!(dfft.is_none(), "grid_ranks == 1 takes no distributed FFT");
    } else {
        let d = dfft.expect("grid_ranks > 1 needs the row DistFft3");
        assert_eq!(d.members(), pgrid.row_members(my_group).as_slice(), "row mismatch");
        debug_assert_eq!(d.group_index(comm.rank()), my_grid_rank);
    }

    let mut out = vec![Complex64::ZERO; psi_local.len()];
    let mut report = RingOverlapReport::default();
    circulate(comm, pgrid, nat_local, transport, EXCHANGE_TAG, |comm, src_group, block| {
        let occ_src = &occ[bands.range(src_group)];
        let diag_symmetric = symmetric && src_group == my_group;
        let Some(d) = dfft else {
            // The `grid_ranks == 1` block kernel: one batched apply — the
            // Hermitian pair-symmetric one when both ends of every pair
            // live here (the self-applied diagonal block), target-major
            // otherwise — so occupation screening and the precision
            // policy behave exactly as in the serial operator; the
            // block's modeled compute is charged once, after it.
            let (vx, st) = if diag_symmetric {
                fock.apply_pure_stats(block, occ_src)
            } else {
                fock.apply_diag_stats(block, occ_src, psi_local)
            };
            for (o, v) in out.iter_mut().zip(&vx) {
                *o += *v;
            }
            report.solves += st.solves;
            report.solves_fp32 += st.solves_fp32;
            charge(comm, solve_cost_s, st.solves);
            return;
        };
        process_block_slab(
            comm,
            fock,
            d,
            block,
            occ_src,
            psi_local,
            bands.count(my_group),
            diag_symmetric,
            &mut out,
            solve_cost_s,
            &mut report,
        );
    });
    (out, report)
}

/// `grid_ranks > 1` block kernel: each pair density is formed slab-wise,
/// the screened-Poisson round trip runs on the row's distributed FFT
/// (so all grid ranks of the row execute the same solve sequence), and
/// the weighted scatter is slab-local. Mirrors the serial scheduler's
/// pair set: `i ≤ j` halving with per-side occupation screening on the
/// diagonal block, one-sided pairs elsewhere.
///
/// The loop structure depends only on replicated metadata (`occ_src`,
/// band counts) — never on slab contents — so every grid rank of the
/// row, including ranks whose slab happens to be empty, issues the same
/// collective solve sequence.
#[allow(clippy::too_many_arguments)]
fn process_block_slab(
    comm: &mut Comm,
    fock: &FockOperator,
    dfft: &DistFft3,
    block: &[Complex64],
    occ_src: &[f64],
    psi_local: &[Complex64],
    n_tgt: usize,
    diag_symmetric: bool,
    out: &mut [Complex64],
    solve_cost_s: f64,
    report: &mut RingOverlapReport,
) {
    let slab = dfft.local_len(dfft.group_index(comm.rank()));
    let nb = occ_src.len();
    assert_eq!(psi_local.len(), n_tgt * slab, "target slab layout mismatch");
    assert_eq!(block.len(), nb * slab, "source slab layout mismatch");
    let cutoff = fock.options().occ_cutoff;
    let kernel = fock.kernel_table();
    let be = &**fock.backend();
    let fft_lines0 = dfft.transform_count();
    let mut pair = vec![Complex64::ZERO; slab];

    let solve = |comm: &mut Comm,
                 pair: &mut [Complex64],
                 report: &mut RingOverlapReport| {
        dfft.convolve_slab(comm, pair, kernel);
        report.solves += 1;
        charge(comm, solve_cost_s, 1);
    };

    if diag_symmetric {
        debug_assert_eq!(n_tgt, nb);
        for bi in 0..nb {
            let di = occ_src[bi];
            let di_on = di.abs() >= cutoff;
            for bj in bi..nb {
                let dj = occ_src[bj];
                let dj_on = bi != bj && dj.abs() >= cutoff;
                if !di_on && !dj_on {
                    continue;
                }
                be.hadamard_conj(
                    &block[bi * slab..(bi + 1) * slab],
                    &block[bj * slab..(bj + 1) * slab],
                    &mut pair,
                );
                solve(comm, &mut pair, report);
                if di_on {
                    be.hadamard_acc(
                        Complex64::from_re(-di),
                        &pair,
                        &block[bi * slab..(bi + 1) * slab],
                        &mut out[bj * slab..(bj + 1) * slab],
                    );
                }
                if dj_on {
                    be.hadamard_acc_conj(
                        Complex64::from_re(-dj),
                        &pair,
                        &block[bj * slab..(bj + 1) * slab],
                        &mut out[bi * slab..(bi + 1) * slab],
                    );
                }
            }
        }
    } else {
        for bi in 0..nb {
            let d = occ_src[bi];
            if d.abs() < cutoff {
                continue;
            }
            for j in 0..n_tgt {
                be.hadamard_conj(
                    &block[bi * slab..(bi + 1) * slab],
                    &psi_local[j * slab..(j + 1) * slab],
                    &mut pair,
                );
                solve(comm, &mut pair, report);
                be.hadamard_acc(
                    Complex64::from_re(-d),
                    &pair,
                    &block[bi * slab..(bi + 1) * slab],
                    &mut out[j * slab..(j + 1) * slab],
                );
            }
        }
    }
    report.dist_fft_lines += dfft.transform_count() - fft_lines0;
}

/// Slices one rank's 2-D-distributed portion out of a replicated
/// real-space band block: its band group's bands, its grid rank's slab
/// planes of each (test/bootstrap helper; production code receives data
/// already distributed).
pub fn scatter_slab(
    full_r: &[Complex64],
    ng: usize,
    pgrid: &ProcessGrid,
    bands: &BandDistribution,
    dfft: Option<&DistFft3>,
    rank: usize,
) -> Vec<Complex64> {
    let (bg, gr) = pgrid.coords(rank);
    let range = bands.range(bg);
    let pts = match dfft {
        Some(d) => d.slab0_points(gr),
        None => 0..ng,
    };
    let mut out = Vec::with_capacity(range.len() * pts.len());
    for b in range {
        out.extend_from_slice(&full_r[b * ng + pts.start..b * ng + pts.end]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_grid_coordinates_roundtrip() {
        let g = ProcessGrid::new(12, 4);
        assert_eq!(g.grid_ranks, 3);
        assert_eq!(g.size(), 12);
        for rank in 0..12 {
            let (bg, gr) = g.coords(rank);
            assert_eq!(g.rank_of(bg, gr), rank);
        }
        assert_eq!(g.row_members(2), vec![6, 7, 8]);
    }

    #[test]
    fn ring_peers_stay_in_the_same_column() {
        let g = ProcessGrid::new(8, 4); // 4 groups × 2 grid ranks
        // Rank 3 = (group 1, grid 1): sends to (group 0, grid 1) = 1,
        // receives from (group 2, grid 1) = 5.
        assert_eq!(g.ring_send_to(3), 1);
        assert_eq!(g.ring_recv_from(3), 5);
        // Ring closes: following recv_from around visits every group once.
        let mut r = 0;
        for _ in 0..4 {
            r = g.ring_recv_from(r);
        }
        assert_eq!(r, 0);
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn process_grid_rejects_ragged_layout() {
        let _ = ProcessGrid::new(10, 4);
    }

    #[test]
    fn grid_distribution_tiles_items() {
        let d = GridDistribution::new(10, 3);
        assert_eq!(d.range(0), 0..4);
        assert_eq!(d.range(1), 4..7);
        assert_eq!(d.range(2), 7..10);
        assert_eq!(d.count(0), 4);
        let total: usize = (0..3).map(|r| d.count(r)).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn grid_distribution_agrees_with_fft_slabs() {
        // Slab ownership must be the same whether asked through the
        // distribution or the distributed FFT (single formula).
        let d = GridDistribution::new(7, 3);
        let f = DistFft3::new(7, 4, 4, vec![0, 1, 2]);
        for r in 0..3 {
            assert_eq!(d.range(r), f.slab0(r));
        }
    }
}
