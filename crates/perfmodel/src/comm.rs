//! Analytic communication-time formulas.
//!
//! Large-message collectives use the pipelined algorithms production MPI
//! libraries select (scatter+allgather broadcast, reduce-scatter+allgather
//! all-reduce), whose bandwidth term is `~2·bytes/bw` independent of the
//! rank count; only the latency term grows with `log2 p`. The small
//! message shapes match the binomial algorithms `mpisim` executes, so the
//! integration suite can cross-validate the two at small `p`.

use crate::platform::Platform;

/// Ceil of log2 (number of tree rounds).
pub fn log2_ceil(p: usize) -> f64 {
    if p <= 1 {
        0.0
    } else {
        (p as f64).log2().ceil()
    }
}

/// One broadcast of `bytes` from a single root to `p` ranks.
/// Pipelined scatter+allgather: `log2 p` latency rounds plus two
/// bandwidth passes; the platform's `bcast_penalty` models the global
/// congestion broadcasts create on the shared network (the effect the
/// paper's ring method removes).
pub fn bcast_time(pf: &Platform, p: usize, bytes: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    log2_ceil(p) * pf.net_latency + 2.0 * bytes / pf.net_bw * pf.bcast_penalty
}

/// Full ring rotation: `p-1` neighbor exchanges of `block_bytes` each
/// (single-hop on the torus — no congestion penalty).
pub fn ring_time(pf: &Platform, p: usize, block_bytes: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    (p - 1) as f64 * (pf.net_latency + block_bytes / pf.net_bw)
}

/// All-reduce of `bytes` (reduce-scatter + allgather).
pub fn allreduce_time(pf: &Platform, p: usize, bytes: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    2.0 * log2_ceil(p) * pf.net_latency + 2.0 * bytes / pf.net_bw
}

/// Pairwise all-to-all where each rank sends `bytes_total` split over the
/// other ranks.
pub fn alltoallv_time(pf: &Platform, p: usize, bytes_total: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    (p - 1) as f64 * pf.net_latency + bytes_total / pf.net_bw
}

/// Ring allgather of per-rank blocks of `block_bytes`.
pub fn allgatherv_time(pf: &Platform, p: usize, block_bytes: f64) -> f64 {
    ring_time(pf, p, block_bytes)
}

// ---------------------------------------------------------------------------
// Two-level (intra-node SHM + inter-node) closed forms, mirroring the
// hierarchical collectives `mpisim::hier` executes. The simulator prices
// intra-node staging at `shm_bw`/`shm_latency` and inter-node hops at
// `net_bw`/`net_latency`, so these forms cross-validate directly against
// the virtual clock (`tests/model_vs_simulator.rs`).
// ---------------------------------------------------------------------------

/// One shared-memory window access of `bytes` (write or read).
fn shm_access(pf: &Platform, bytes: f64) -> f64 {
    pf.shm_latency + bytes / pf.shm_bw
}

/// Two-level all-reduce of `bytes`: members stage into the node window,
/// the leader combines the `rpn` slots, node leaders run a binomial
/// reduce+broadcast over the network, and the result fans back out
/// through the window. Mirrors `mpisim::Comm::hier_allreduce`; below the
/// hierarchy threshold it degenerates to the simulator's flat binomial
/// reduce+broadcast.
pub fn hier_allreduce_time(pf: &Platform, p: usize, bytes: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let rpn = pf.ranks_per_node.max(1);
    if rpn <= 1 || p <= rpn {
        // Flat binomial reduce + broadcast: 2·log2(p) sequential hops on
        // the critical path, each carrying the full vector.
        return 2.0 * log2_ceil(p) * (pf.net_latency + bytes / pf.net_bw);
    }
    let nodes = p.div_ceil(rpn);
    // Intra phase: member slot write; leader combine of the other rpn-1
    // slots; leader result write; member result read.
    let intra = shm_access(pf, bytes)
        + shm_access(pf, (rpn - 1) as f64 * bytes)
        + shm_access(pf, bytes)
        + shm_access(pf, bytes);
    // Inter phase: binomial reduce + broadcast over the node leaders.
    let inter = 2.0 * log2_ceil(nodes) * (pf.net_latency + bytes / pf.net_bw);
    intra + inter
}

/// Two-level all-gather of per-rank blocks of `block_bytes`: members
/// stage through the node window, node leaders ring the per-node blocks
/// over the network (`nodes − 1` steps of a length header and the data),
/// and the assembled result fans back out through the window, with six
/// node barriers. Mirrors `mpisim::Comm::hier_allgatherv`; below the
/// hierarchy threshold it is the flat ring [`allgatherv_time`].
pub fn hier_allgatherv_time(pf: &Platform, p: usize, block_bytes: f64) -> f64 {
    let rpn = pf.ranks_per_node.max(1);
    if rpn <= 1 || p <= rpn {
        return allgatherv_time(pf, p, block_bytes);
    }
    let nodes = p.div_ceil(rpn);
    let node_bytes = rpn as f64 * block_bytes;
    let all_bytes = p as f64 * block_bytes;
    let intra = shm_access(pf, block_bytes)
        + shm_access(pf, node_bytes)
        + 2.0 * shm_access(pf, all_bytes)
        + 12.0 * pf.shm_latency;
    let inter = (nodes - 1) as f64 * (2.0 * pf.net_latency + node_bytes / pf.net_bw);
    intra + inter
}

/// Two-level all-to-all where each rank scatters `bytes_total` over the
/// other ranks: same-node chunks move directly through shared memory;
/// remote chunks bundle up to the node leader, cross the network as one
/// header+data pair per node pair, and scatter back down. Mirrors
/// `mpisim::Comm::hier_alltoallv`.
pub fn hier_alltoallv_time(pf: &Platform, p: usize, bytes_total: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let rpn = pf.ranks_per_node.max(1);
    let nodes = p.div_ceil(rpn);
    if rpn <= 1 || nodes <= 1 {
        return alltoallv_time(pf, p, bytes_total);
    }
    // Split the scatter volume by destination locality.
    let b_same = bytes_total * rpn as f64 / p as f64;
    let b_rem = bytes_total - b_same;
    // Direct same-node deliveries (one message per local peer).
    let direct = (rpn - 1) as f64 * pf.shm_latency + b_same / pf.shm_bw;
    // Up-bundle to the leader and down-scatter from it: header + data.
    let up = 2.0 * shm_access(pf, b_rem);
    let down = 2.0 * shm_access(pf, b_rem);
    // Cross phase: the leader ingests its whole node's inbound remote
    // traffic (rpn ranks' worth) as nodes-1 header+data pairs.
    let cross =
        2.0 * (nodes - 1) as f64 * pf.net_latency + rpn as f64 * b_rem / pf.net_bw;
    direct + up + cross + down
}

/// Average per-step edge cost of a node-contiguous ring of `p` ranks:
/// `(rpn-1)/rpn` of the hops stay inside a node (shared-memory rates),
/// the rest cross the network. The simulated ring's critical path is the
/// dependency chain around the ring, which traverses each edge once per
/// rotation step, so the chain cost is `steps · ring_edge_time`.
pub fn ring_edge_time(pf: &Platform, p: usize, block_bytes: f64) -> f64 {
    let rpn = pf.ranks_per_node.max(1).min(p.max(1));
    let intra = pf.shm_latency + block_bytes / pf.shm_bw;
    if rpn >= p {
        return intra;
    }
    let inter = pf.net_latency + block_bytes / pf.net_bw;
    let f_intra = (rpn - 1) as f64 / rpn as f64;
    f_intra * intra + (1.0 - f_intra) * inter
}

/// Node-contiguous ring rotation of `p-1` steps with average circulating
/// blocks of `block_bytes` (topology-aware refinement of [`ring_time`]).
pub fn hier_ring_time(pf: &Platform, p: usize, block_bytes: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    (p - 1) as f64 * ring_edge_time(pf, p, block_bytes)
}

/// Node-contiguous overlapped *half* ring: the self-applied exchange,
/// where each unordered pair of the `p` band blocks is met once. The
/// owner's diagonal phase and `⌊p/2⌋` visiting-block phases share
/// `compute` seconds of solves. Each hop's transfer of a `block_bytes`
/// block is posted before its phase and hides behind it, at the mixed
/// intra/inter-node edge cost of [`ring_edge_time`]; only the excess of
/// the edge over the phase stays visible. Each partial image follows its
/// block one hop behind, hidden the same way. The last image returns to
/// its owner, `⌊p/2⌋` ranks away, behind the second half of the owner's
/// diagonal phase; again only the excess stays visible.
pub fn hier_half_ring_overlap_time(
    pf: &Platform,
    p: usize,
    block_bytes: f64,
    compute: f64,
) -> f64 {
    if p <= 1 {
        return compute;
    }
    let hops = p / 2;
    let phase = compute / (hops + 1) as f64;
    let edge = ring_edge_time(pf, p, block_bytes);
    let hidden = (hops + 1) as f64 * phase + hops as f64 * (edge - phase).max(0.0);
    hidden + (image_return_time(pf, p, block_bytes) - 0.5 * phase).max(0.0)
}

/// The half ring's image return: `⌊p/2⌋` ranks back to the owner, inside
/// one node only when the whole ring is.
fn image_return_time(pf: &Platform, p: usize, image_bytes: f64) -> f64 {
    if pf.ranks_per_node.max(1) >= p {
        pf.shm_latency + image_bytes / pf.shm_bw
    } else {
        pf.net_latency + image_bytes / pf.net_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> Platform {
        Platform::fugaku_arm()
    }

    #[test]
    fn ring_beats_bcast_for_full_exchange() {
        // Moving every rank's block to everyone: ring needs p-1 block
        // steps total; per-root broadcasts pay the congestion penalty and
        // the double bandwidth pass.
        let p = 64;
        let block = 1e8;
        let ring = ring_time(&pf(), p, block);
        let bcast_all: f64 = (0..p).map(|_| bcast_time(&pf(), p, block)).sum();
        assert!(
            bcast_all > 2.0 * ring,
            "bcast {bcast_all} should exceed ring {ring} substantially"
        );
    }

    #[test]
    fn single_rank_is_free() {
        assert_eq!(bcast_time(&pf(), 1, 1e9), 0.0);
        assert_eq!(ring_time(&pf(), 1, 1e9), 0.0);
        assert_eq!(allreduce_time(&pf(), 1, 1e9), 0.0);
        assert_eq!(alltoallv_time(&pf(), 1, 1e9), 0.0);
    }

    #[test]
    fn bcast_bandwidth_term_independent_of_p() {
        // Pipelined broadcast: going from 64 to 1024 ranks adds only
        // latency rounds, not bandwidth passes.
        let big = 1e9;
        let t64 = bcast_time(&pf(), 64, big);
        let t1024 = bcast_time(&pf(), 1024, big);
        assert!((t1024 - t64) < 0.01 * t64, "{t64} vs {t1024}");
    }

    #[test]
    fn node_aware_allreduce_cheaper() {
        // Against the flat binomial reduce + broadcast that mpisim's
        // `allreduce` runs (the one-rank-per-node branch of the same
        // form). The pipelined two-pass `allreduce_time` prices neither
        // simulator algorithm and undercuts both at this size.
        let p = 256; // 64 nodes at 4 ranks/node
        let mut flat_pf = pf();
        flat_pf.ranks_per_node = 1;
        let flat = hier_allreduce_time(&flat_pf, p, 1e7);
        let aware = hier_allreduce_time(&pf(), p, 1e7);
        assert!(aware < flat);
    }

    #[test]
    fn times_scale_with_bytes() {
        let t1 = ring_time(&pf(), 16, 1e6);
        let t2 = ring_time(&pf(), 16, 1e8);
        assert!(t2 > 10.0 * t1);
    }

    #[test]
    fn hier_allreduce_beats_flat_binomial_at_scale() {
        // The hierarchical form replaces log2(p) inter rounds with
        // log2(nodes) plus cheap shm staging; with fast shm it must win.
        let pf = pf(); // 4 ranks/node, shm 30× the net bandwidth
        for p in [64usize, 256, 1024] {
            let flat = 2.0 * log2_ceil(p) * (pf.net_latency + 1e6 / pf.net_bw);
            let hier = hier_allreduce_time(&pf, p, 1e6);
            assert!(hier < flat, "p={p}: hier {hier} vs flat {flat}");
        }
    }

    #[test]
    fn hier_forms_degenerate_cleanly() {
        let pf = pf();
        assert_eq!(hier_allreduce_time(&pf, 1, 1e9), 0.0);
        assert_eq!(hier_alltoallv_time(&pf, 1, 1e9), 0.0);
        assert_eq!(hier_ring_time(&pf, 1, 1e9), 0.0);
        // Single node: all-reduce takes the flat-binomial branch, the
        // ring prices every edge at shm rates.
        let single = hier_allreduce_time(&pf, pf.ranks_per_node, 8e3);
        assert!(single > 0.0);
        let intra_ring = hier_ring_time(&pf, pf.ranks_per_node, 1e6);
        let expect = (pf.ranks_per_node - 1) as f64 * (pf.shm_latency + 1e6 / pf.shm_bw);
        assert!((intra_ring - expect).abs() < 1e-12 * expect.max(1.0));
        // One rank per node: alltoallv reduces to the flat pairwise form.
        let mut flat_pf = pf.clone();
        flat_pf.ranks_per_node = 1;
        assert_eq!(
            hier_alltoallv_time(&flat_pf, 16, 1e6),
            alltoallv_time(&flat_pf, 16, 1e6)
        );
    }

    #[test]
    fn hier_ring_cheaper_than_all_inter_ring() {
        // 3 of every 4 ring hops are intra-node, so the topology-aware
        // ring must undercut the all-inter closed form.
        let pf = pf();
        for p in [16usize, 128, 512] {
            let flat = ring_time(&pf, p, 1e6);
            let hier = hier_ring_time(&pf, p, 1e6);
            assert!(hier < flat, "p={p}: {hier} vs {flat}");
        }
    }

    #[test]
    fn hier_half_ring_overlap_hides_compute_covered_edges() {
        let pf = pf();
        let p = 64;
        let bytes = 1e6;
        let (edge, hops) = (ring_edge_time(&pf, p, bytes), (p / 2) as f64);
        // Compute-dominated (ten edges per phase): only the compute
        // remains; the image return hides behind half a phase.
        let compute = 10.0 * edge * (hops + 1.0);
        let t = hier_half_ring_overlap_time(&pf, p, bytes, compute);
        assert!((t - compute).abs() < 1e-12 * compute, "{t} vs {compute}");
        // Communication-dominated: ⌊p/2⌋ blocking edges and the return.
        let t = hier_half_ring_overlap_time(&pf, p, bytes, 0.0);
        let blocking = hops * edge + image_return_time(&pf, p, bytes);
        assert!((t - blocking).abs() < 1e-12, "{t} vs {blocking}");
    }
}
