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
//! **One exchange on it.** The distributed exchange applies the Fock
//! operator to its own sources — the distributed step's H apply on its
//! natural orbitals, with at least one band on every rank — on the half
//! ring (`half_ring`): each unordered pair of blocks is met once,
//! ⌈(p−1)/2⌉ hops from one of its owners, and every pair of bands is
//! solved once by [`FockOperator::apply_pairs_stats`] and scattered into
//! both owners' images (`n(n+1)/2` solves summed over ranks). Occupation
//! screening and the [`pwnum::precision::PrecisionPolicy`] apply
//! unchanged.

use crate::distributed::BandDistribution;
use mpisim::{Comm, Tag};
use pwdft::{FockApplyStats, FockOperator};
use pwnum::complex::Complex64;
use std::sync::Arc;

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
/// on the blocks this rank visits, `local` being this rank's (shared: a
/// posted block and the one the kernel reads are one allocation). The ring
/// transports visit `me, me + 1, …, me + hops` (mod `p`), sending to rank
/// `me − 1` and receiving from rank `me + 1` on tag `tag + step`, so step
/// `k` holds the block of rank `me + k`; `Bcast` visits every block
/// `0, 1, …`, rooting step `k` at rank `k` (every rank joins every
/// broadcast). Every peer a transfer depends on is checked with
/// [`Comm::require_alive`] first, so a crashed rank surfaces on the
/// survivors as an attributed error naming it and the step, never as a
/// deadlock.
pub(crate) fn circulate(
    comm: &mut Comm,
    local: Arc<[Complex64]>,
    transport: Transport,
    tag: Tag,
    hops: usize,
    mut kernel: impl FnMut(&mut Comm, usize, &[Complex64]),
) {
    let (p, me) = (comm.size(), comm.rank());
    let send_to = (me + p - 1) % p;
    let recv_from = (me + 1) % p;
    let require_peers = |comm: &Comm| {
        comm.require_alive(send_to, "the band-block ring");
        comm.require_alive(recv_from, "the band-block ring");
    };
    let steps = if transport == Transport::Bcast { p } else { hops + 1 };
    let mut block = local;
    for step in 0..steps {
        let src = (me + step) % p;
        let more = step < hops;
        let tag = tag + step as Tag;
        match transport {
            Transport::Bcast => {
                comm.require_alive(step, "the band-block broadcast");
                let root_block = comm.bcast(step, (step == me).then(|| block.clone()));
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
                    let _sent = comm.isend(send_to, tag, Arc::clone(&block));
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

/// Which pairs of a block a half-ring step solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Share {
    /// Half of the pairs within this rank's own block: the first half
    /// (`Own(0)`) hides the first block transfer, the second (`Own(1)`)
    /// the image return.
    Own(usize),
    /// Every pair of a visiting block with the own one.
    All,
    /// The pairs whose global band indices sum to this parity: for even
    /// `p` the blocks `p/2` apart meet from both ends, and each end takes
    /// one parity.
    Parity(usize),
}

/// The half ring's share of rank `src`'s block on rank `me` of `p`: the
/// first half of its own block, then the blocks `1 … ⌊p/2⌋` ranks ahead,
/// the last of them split by [`Share::Parity`] (the lower rank takes the
/// even pairs) when `p` is even; `None` for blocks whose pairs the other
/// end solves.
pub(crate) fn half_ring_share(p: usize, me: usize, src: usize) -> Option<Share> {
    let (d, hops) = ((src + p - me) % p, p / 2);
    match d {
        0 => Some(Share::Own(0)),
        _ if d < hops || (d == hops && p % 2 == 1) => Some(Share::All),
        _ if d == hops => Some(Share::Parity(usize::from(me > src))),
        _ => None,
    }
}

/// The self-applied half ring: every unordered pair of band blocks is met
/// once. Runs `kernel(comm, src, block, share)` on the blocks of the
/// `⌊p/2⌋ = ⌈(p−1)/2⌉` ranks ahead ([`half_ring_share`]), where it
/// returns its partial image of the visiting block, and twice on this
/// rank's own block ([`Share::Own`], with no block — the kernel holds its
/// own — and the return value dropped): at its step and after the ring.
/// The images go back to the block's owner, which gets them summed:
/// `None` at `p = 1`.
///
/// On the ring transports the own block's first half comes first, so its
/// solves hide the first transfer, and its second half comes last, after
/// the receive of the image return is posted, so they hide the return. A
/// block's partial image follows the block one hop behind it: rank `me`
/// adds the image that rank `me + 1` made of the same block *after* its
/// own kernel (the receive is posted before it on the nonblocking
/// transport, so the transfer hides behind the solves), passes the sum on
/// to rank `me − 1`, and the last hop sends it straight to the owner —
/// one image in flight per rank. Under `Bcast` every image goes straight
/// to the owner at its broadcast step, and the owner receives its
/// `⌊p/2⌋` images (buffered until then) after its second half, so it
/// never waits on a broadcast step's solves.
/// Either way the owner's images are summed in the order of the hop that
/// made them (`((C₁ + C₂) + C₃) + …`).
pub(crate) fn half_ring(
    comm: &mut Comm,
    local: Arc<[Complex64]>,
    transport: Transport,
    tag: Tag,
    mut kernel: impl FnMut(&mut Comm, usize, &[Complex64], Share) -> Vec<Complex64>,
) -> Option<Vec<Complex64>> {
    let (p, me) = (comm.size(), comm.rank());
    let hops = p / 2;
    let (prev, next) = ((me + p - 1) % p, (me + 1) % p);
    let image_tag = tag + p as Tag;
    // Sendrecv: the image that arrived with the current block.
    let mut carried: Option<Vec<Complex64>> = None;
    let mut returned: Option<Vec<Complex64>> = None;
    circulate(comm, local, transport, tag, hops, |comm, src, block| {
        let d = (src + p - me) % p;
        let Some(share) = half_ring_share(p, me, src) else { return };
        if share == Share::Own(0) {
            kernel(comm, src, &[], share);
            return;
        }
        let dst = if d < hops && transport != Transport::Bcast { prev } else { src };
        comm.require_alive(dst, "the half-ring image return");
        match transport {
            Transport::Bcast => {
                let image = kernel(comm, src, block, share);
                comm.send(dst, image_tag + d as Tag, image);
            }
            Transport::Sendrecv => {
                let image = kernel(comm, src, block, share);
                let image = then_add(carried.take(), image);
                if d < hops {
                    carried = Some(comm.sendrecv(dst, next, image_tag + d as Tag, image));
                } else {
                    let from = (me + p - hops) % p;
                    comm.require_alive(from, "the half-ring image return");
                    returned = Some(comm.sendrecv(dst, from, image_tag + d as Tag, image));
                }
            }
            Transport::Nonblocking => {
                let pending = (d > 1).then(|| comm.irecv(next, image_tag + d as Tag - 1));
                let image = kernel(comm, src, block, share);
                let earlier = pending.map(|req| comm.wait(req).expect("ring image payload"));
                let image = then_add(earlier, image);
                let _sent = comm.isend(dst, image_tag + d as Tag, image);
            }
        }
    });
    let pending = (transport == Transport::Nonblocking && hops > 0).then(|| {
        let from = (me + p - hops) % p;
        comm.require_alive(from, "the half-ring image return");
        comm.irecv(from, image_tag + hops as Tag)
    });
    kernel(comm, me, &[], Share::Own(1));
    if let Some(req) = pending {
        returned = comm.wait(req);
    }
    if transport == Transport::Bcast {
        // Sent at this rank's broadcast step, received last: nearest first.
        for d in 1..=hops {
            let from = (me + p - d) % p;
            comm.require_alive(from, "the half-ring image return");
            let image = comm.recv(from, image_tag + d as Tag);
            returned = Some(then_add(returned.take(), image));
        }
    }
    returned
}

/// `acc + image` elementwise (`image` alone without `acc`): the one
/// order a partial image is summed in.
fn then_add(acc: Option<Vec<Complex64>>, image: Vec<Complex64>) -> Vec<Complex64> {
    let Some(mut acc) = acc else { return image };
    for (a, c) in acc.iter_mut().zip(&image) {
        *a += *c;
    }
    acc
}

/// Tag base of the exchange ring's block transfers (and, `p` above it,
/// of the half ring's image transfers).
const EXCHANGE_TAG: Tag = 10_000;

/// Charges `st`'s pair solves to the virtual clock at `solve_cost_s`
/// each (0 ⇒ data plane only), once per block after its apply.
fn charge(comm: &mut Comm, solve_cost_s: f64, st: &FockApplyStats) {
    if solve_cost_s > 0.0 && st.solves > 0 {
        comm.compute(solve_cost_s * st.solves as f64);
    }
}

/// The self-applied distributed Fock exchange `VxΦ̃` of this rank's own
/// natural orbitals `nat_local` on the [`half_ring`], with this rank's
/// [`FockApplyStats`]: the own block's Hermitian `i ≤ j` pairs (half
/// before the ring, half after it), one cross-block apply per visiting
/// block on one reused `[own | visiting]` buffer, scattering into this
/// rank's images and the visiting block's partial image, and last the
/// returned partial images of this rank's block — the serial
/// `apply_pure`'s `n(n+1)/2` solves summed over ranks, every pair through
/// [`FockOperator::apply_pairs_stats`].
///
/// `nat_local` holds this rank's natural orbitals in real space
/// (band-major) and becomes the own part of the `[own | visiting]`
/// buffer, so the rank holds its block once; `occ` holds the *global*
/// occupations. `solve_cost_s` is the modeled compute seconds charged to
/// the virtual clock per pair solve.
pub(crate) fn half_ring_fock_apply(
    comm: &mut Comm,
    fock: &FockOperator,
    bands: &BandDistribution,
    nat_local: Vec<Complex64>,
    occ: &[f64],
    transport: Transport,
    solve_cost_s: f64,
) -> (Vec<Complex64>, FockApplyStats) {
    let _s = pwobs::span("xch.ring");
    assert_eq!(bands.n_ranks, comm.size(), "band distribution must span the communicator");
    let (ng, mine) = (fock.ng(), bands.range(comm.rank()));
    let nb = mine.len();
    let mut stats = FockApplyStats::default();
    // The own block's i ≤ j pairs in two halves.
    let own: Vec<(usize, usize)> = (0..nb).flat_map(|i| (i..nb).map(move |j| (i, j))).collect();
    let own = own.split_at(own.len().div_ceil(2));
    // `[own | visiting]` sources, occupations and accumulators, reused
    // across hops: the own part of `acc` gathers this rank's images, the
    // visiting part is the hop's partial image.
    // Sized once for the largest visiting block: no regrowth mid-ring.
    let cap = (nb + bands.n_bands.div_ceil(bands.n_ranks)) * ng;
    let local = Arc::from(&nat_local[..]);
    let mut acc = Vec::with_capacity(cap);
    acc.resize(nat_local.len(), Complex64::ZERO);
    let mut x = nat_local;
    x.reserve_exact(cap - x.len());
    let mut d = occ[mine.clone()].to_vec();
    let image = half_ring(comm, local, transport, EXCHANGE_TAG, |comm, src, block, share| {
        let theirs = bands.range(src);
        let st = if let Share::Own(half) = share {
            let pairs = if half == 0 { own.0 } else { own.1 };
            let (x, acc) = (&x[..nb * ng], &mut acc[..nb * ng]);
            fock.apply_pairs_stats(x, &d[..nb], pairs.iter().copied(), acc)
        } else {
            x.truncate(nb * ng);
            x.extend_from_slice(block);
            d.truncate(nb);
            d.extend_from_slice(&occ[theirs.clone()]);
            acc.resize(x.len(), Complex64::ZERO);
            // Buffer index → global band index; pairs oriented as the
            // serial apply orients them, lower band first.
            let band = |k: usize| if k < nb { mine.start + k } else { theirs.start + k - nb };
            let keep = |i: usize, j: usize| match share {
                Share::Parity(parity) => (band(i) + band(j)) % 2 == parity,
                _ => true,
            };
            let pairs = (0..nb).flat_map(|j| (nb..d.len()).map(move |i| (i, j)));
            let oriented = pairs.map(|(i, j)| if band(i) < band(j) { (i, j) } else { (j, i) });
            fock.apply_pairs_stats(&x, &d, oriented.filter(|&(i, j)| keep(i, j)), &mut acc)
        };
        stats += st;
        charge(comm, solve_cost_s, &st);
        match share {
            Share::Own(_) => Vec::new(),
            _ => acc.split_off(nb * ng),
        }
    });
    for (o, v) in acc.iter_mut().zip(image.iter().flatten()) {
        *o += *v;
    }
    (acc, stats)
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
                    circulate(c, Arc::from(block_of(c.rank())), transport, 0, p - 1, |_, src, block| {
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

    #[test]
    fn half_ring_meets_every_block_pair_once_and_returns_every_image() {
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for transport in [Transport::Bcast, Transport::Sendrecv, Transport::Nonblocking] {
            for p in [1usize, 2, 3, 4, 5, 6, 16] {
                let out = Cluster::ideal(p).run(|c| {
                    let me = c.rank();
                    let mut met = Vec::new();
                    let local = Arc::from(block_of(me));
                    let image = half_ring(c, local, transport, 0, |_, src, block, share| {
                        met.push((src, share));
                        if matches!(share, Share::Own(_)) {
                            assert!(block.is_empty(), "{transport:?} p={p}: own shares carry no block");
                            return Vec::new();
                        }
                        assert_eq!(bits(block), bits(&block_of(src)), "{transport:?} p={p}");
                        // This rank's mark, exact in any summation order.
                        vec![c64((1u64 << me) as f64, 0.0); block.len()]
                    });
                    (met, image)
                });
                let case = format!("{transport:?} p={p}");
                // Every unordered block pair: met once whole, or from both
                // ends on complementary parities; never a block by itself.
                for a in 0..p {
                    for b in a + 1..p {
                        let shares: Vec<Share> = [(a, b), (b, a)]
                            .iter()
                            .flat_map(|&(r, s)| {
                                out[r].0 .0.iter().filter(move |(src, _)| *src == s).map(|(_, sh)| *sh)
                            })
                            .collect();
                        match shares.as_slice() {
                            [Share::All] => {}
                            [Share::Parity(x), Share::Parity(y)] if x != y => {}
                            other => panic!("{case}: blocks {a}, {b} met as {other:?}"),
                        }
                    }
                }
                // Every partial image reaches its owner once: the owner's
                // returned sum carries exactly the marks of the ranks that
                // met its block.
                for (owner, ((met, image), _)) in out.iter().enumerate() {
                    let own: Vec<_> = met.iter().filter(|(src, _)| *src == owner).collect();
                    let halves = [&(owner, Share::Own(0)), &(owner, Share::Own(1))];
                    assert_eq!(own, halves, "{case}: rank {owner}'s own block");
                    let marks: f64 = (0..p)
                        .filter(|&r| r != owner && out[r].0 .0.iter().any(|(src, _)| *src == owner))
                        .map(|r| (1u64 << r) as f64)
                        .sum();
                    match image {
                        None => assert_eq!(p, 1, "{case}: rank {owner} got no image"),
                        Some(image) => {
                            assert_eq!(image.len(), block_of(owner).len(), "{case}");
                            assert!(image.iter().all(|z| *z == c64(marks, 0.0)), "{case}: {image:?}");
                        }
                    }
                }
            }
        }
    }
}
