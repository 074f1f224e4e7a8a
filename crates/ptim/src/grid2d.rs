//! The band-block ring: the one driver every band-block circulation runs
//! on, and the distributed Fock exchange on it.
//!
//! Ranks own contiguous band blocks ([`BandDistribution`]); exchange and
//! rotation bring every other rank's block to each rank in turn. The
//! paper's hierarchical band × grid layout (Sec. III-A) is not built:
//! priced with `perfmodel`'s closed forms it loses to this flat ring at
//! every rank count the scaling figures run (DESIGN.md §9), and Jia et
//! al. (arXiv:1905.01348) scale PT-hybrid rt-TDDFT over bands alone.
//!
//! **One ring driver.** The crate-private `circulate` is the only loop
//! that moves band blocks between ranks: it runs a block kernel once per
//! rank's block and brings the next block by one of the paper's three
//! transports (Fig. 5) — a broadcast from the owner, a blocking neighbor
//! `sendrecv` after the kernel, or `irecv`/`isend` posted before the
//! kernel and a `wait` after it. The hidden-vs-visible split of every
//! nonblocking transfer is recorded by the runtime
//! ([`mpisim::Stats::overlap_efficiency`]). `dist_rotate` and every
//! [`ExchangeStrategy`](crate::distributed::ExchangeStrategy) run on it;
//! `AsyncRing` and `RingOverlap` are the same schedule.
//!
//! **One block kernel.** An exchange block is one batched apply of
//! [`FockOperator`]: the Hermitian pair-symmetric one on the self-applied
//! diagonal block, the target-major one elsewhere, so occupation
//! screening and the [`pwnum::precision::PrecisionPolicy`] apply
//! unchanged.

use crate::distributed::BandDistribution;
use mpisim::{Comm, Tag};
use pwdft::{FockApplyStats, FockOperator};
use pwnum::complex::Complex64;

/// How [`circulate`] brings a rank its next band block: the three
/// patterns of the paper's ring-based method (Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Transport {
    /// Step `k` broadcasts rank `k`'s block from its owner (Fig. 5a).
    Bcast,
    /// The kernel runs, then the blocking neighbor exchange
    /// (`MPI_Sendrecv`, Fig. 5b).
    Sendrecv,
    /// The next block's `irecv`/`isend` are posted before the kernel and
    /// completed with `wait` after it (`MPI_Isend/Irecv/Wait`, Fig. 5c).
    Nonblocking,
}

/// The one band-block circulation loop: runs `kernel(comm, src, block)`
/// once for every rank's block, `local` being this rank's. The ring
/// transports visit `me, me + 1, …` (mod `p`), sending to rank `me − 1`
/// and receiving from rank `me + 1` on tag `tag + step`, so step `k`
/// holds the block of rank `me + k`; `Bcast` visits `0, 1, …`, rooting
/// step `k` at rank `k`. Every peer a transfer depends on is checked with
/// [`Comm::require_alive`] first, so a crashed rank surfaces on the
/// survivors as an attributed error naming it and the step, never as a
/// deadlock.
pub(crate) fn circulate(
    comm: &mut Comm,
    local: &[Complex64],
    transport: Transport,
    tag: Tag,
    mut kernel: impl FnMut(&mut Comm, usize, &[Complex64]),
) {
    let (p, me) = (comm.size(), comm.rank());
    let send_to = (me + p - 1) % p;
    let recv_from = (me + 1) % p;
    let require_peers = |comm: &Comm| {
        comm.require_alive(send_to, "the band-block ring");
        comm.require_alive(recv_from, "the band-block ring");
    };
    let mut block = local.to_vec();
    for step in 0..p {
        let src = (me + step) % p;
        let more = step + 1 < p;
        let tag = tag + step as Tag;
        match transport {
            Transport::Bcast => {
                comm.require_alive(step, "the band-block broadcast");
                let root_block = comm.bcast(step, (step == me).then(|| local.to_vec()));
                kernel(comm, step, &root_block);
            }
            Transport::Sendrecv => {
                kernel(comm, src, &block);
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
                kernel(comm, src, &block);
                if let Some(req) = pending {
                    block = comm.wait(req).expect("ring block payload");
                }
            }
        }
    }
}

/// Tag base of the exchange ring's block transfers.
const EXCHANGE_TAG: Tag = 10_000;

/// The distributed Fock exchange `VxΨ` on the band-block ring, with its
/// [`FockApplyStats`] summed over the blocks this rank processed.
///
/// `nat_local` holds this rank's natural orbitals in real space
/// (band-major), `occ` the *global* occupations, and `psi_local` the
/// targets in the same layout. When `psi_local` aliases `nat_local` (the
/// self-applied ACE-rebuild case) the diagonal block runs the Hermitian
/// `i ≤ j` pair halving. `solve_cost_s` is the modeled compute seconds
/// charged to the virtual clock per pair solve, once per block after its
/// apply (0 ⇒ data plane only).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ring_fock_apply(
    comm: &mut Comm,
    fock: &FockOperator,
    bands: &BandDistribution,
    nat_local: &[Complex64],
    occ: &[f64],
    psi_local: &[Complex64],
    transport: Transport,
    solve_cost_s: f64,
) -> (Vec<Complex64>, FockApplyStats) {
    let _s = pwobs::span("xch.ring");
    assert_eq!(bands.n_ranks, comm.size(), "band distribution must span the communicator");
    let me = comm.rank();
    let symmetric = nat_local.as_ptr() == psi_local.as_ptr()
        && nat_local.len() == psi_local.len();

    let mut out = vec![Complex64::ZERO; psi_local.len()];
    let mut stats = FockApplyStats::default();
    circulate(comm, nat_local, transport, EXCHANGE_TAG, |comm, src, block| {
        let occ_src = &occ[bands.range(src)];
        let (vx, st) = if symmetric && src == me {
            fock.apply_pure_stats(block, occ_src)
        } else {
            fock.apply_diag_stats(block, occ_src, psi_local)
        };
        for (o, v) in out.iter_mut().zip(&vx) {
            *o += *v;
        }
        stats.solves += st.solves;
        stats.contributions += st.contributions;
        stats.skipped_pairs += st.skipped_pairs;
        stats.skipped_weight += st.skipped_weight;
        stats.symmetric |= st.symmetric;
        stats.solves_fp32 += st.solves_fp32;
        if solve_cost_s > 0.0 && st.solves > 0 {
            comm.compute(solve_cost_s * st.solves as f64);
        }
    });
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Cluster;
    use pwnum::complex::c64;

    /// Rank `r`'s block: `r + 1` values (ragged, as band blocks are),
    /// distinct in every bit across ranks.
    fn block_of(r: usize) -> Vec<Complex64> {
        (0..=r).map(|i| c64(r as f64 + 0.1 * i as f64, -1.0 / (1 + r + i) as f64)).collect()
    }

    #[test]
    fn circulate_visits_every_block_once_in_transport_order() {
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for transport in [Transport::Bcast, Transport::Sendrecv, Transport::Nonblocking] {
            for p in [1usize, 2, 3, 5] {
                let out = Cluster::ideal(p).run(|c| {
                    let mut seen = Vec::new();
                    circulate(c, &block_of(c.rank()), transport, 0, |_, src, block| {
                        seen.push((src, bits(block)));
                    });
                    seen
                });
                for (me, (seen, _)) in out.iter().enumerate() {
                    let order: Vec<usize> = seen.iter().map(|(src, _)| *src).collect();
                    let want: Vec<usize> = match transport {
                        Transport::Bcast => (0..p).collect(),
                        _ => (0..p).map(|k| (me + k) % p).collect(),
                    };
                    assert_eq!(order, want, "{transport:?} p={p} rank {me}: visit order");
                    for (src, got) in seen {
                        assert_eq!(*got, bits(&block_of(*src)), "{transport:?} p={p} rank {me}");
                    }
                }
            }
        }
    }
}
