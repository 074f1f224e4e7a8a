//! Property tests for the hierarchical collectives: randomized node
//! shapes (1–8 nodes × 1–64 ranks per node, with a non-uniform last
//! node), checking
//!   1. bitwise agreement with the flat collectives (on integer-valued
//!      data, where summation is exact in any association order),
//!   2. conservation of the per-phase byte counters in `Stats`
//!      (`intra_bytes + inter_bytes == bytes_sent` on every rank).

use mpisim::{Cluster, NetworkModel};
use proptest::prelude::*;

/// Random cluster shape: up to 8 nodes of up to 64 ranks; `trim` ranks
/// are removed from the last node so it is non-uniform.
fn shapes() -> impl Strategy<Value = (usize, usize)> {
    shapes_capped(64)
}

/// Same domain with a smaller per-node cap, for the O(p²)-message
/// all-to-all agreement test (512-rank flat all-to-all is 260k messages
/// per case — correctness adds nothing over 128 ranks there).
fn shapes_capped(max_rpn: usize) -> impl Strategy<Value = (usize, usize)> {
    (1usize..9, 1usize..(max_rpn + 1), 0usize..8).prop_map(|(nodes, rpn, trim)| {
        let p = (nodes * rpn).saturating_sub(trim.min(rpn - 1)).max(1);
        (p, rpn)
    })
}

fn check_phase_conservation(reports: &[(impl Sized, mpisim::RankReport)]) {
    for (rank, (_, rep)) in reports.iter().enumerate() {
        assert_eq!(
            rep.stats.intra_bytes + rep.stats.inter_bytes,
            rep.stats.bytes_sent,
            "rank {rank}: phase byte counters must partition bytes_sent"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn allreduce_agrees_bitwise_with_flat(shape in shapes(), seed in 0u64..1000) {
        let (p, rpn) = shape;
        // Integer-valued f64 entries: exact addition in any order, so the
        // hierarchical combine tree must match the flat one bitwise.
        let mk = move |rank: usize, i: usize| ((rank * 31 + i * 7 + seed as usize) % 97) as f64;
        let n = 5usize;
        let flat = Cluster::new(p, rpn, NetworkModel::ideal())
            .run(move |c| c.allreduce((0..n).map(|i| mk(c.rank(), i)).collect::<Vec<f64>>()));
        let hier = Cluster::new(p, rpn, NetworkModel::ideal())
            .run(move |c| c.hier_allreduce((0..n).map(|i| mk(c.rank(), i)).collect::<Vec<f64>>()));
        for rank in 0..p {
            prop_assert!(flat[rank].0 == hier[rank].0, "rank {} of p={} rpn={}", rank, p, rpn);
        }
        check_phase_conservation(&hier);
    }

    #[test]
    fn allgatherv_agrees_with_flat(shape in shapes(), seed in 0u64..1000) {
        let (p, rpn) = shape;
        let flat = Cluster::new(p, rpn, NetworkModel::ideal()).run(move |c| {
            let mine: Vec<u64> = (0..(c.rank() % 4) + 1).map(|i| seed + (c.rank() * 10 + i) as u64).collect();
            c.allgatherv(mine)
        });
        let hier = Cluster::new(p, rpn, NetworkModel::ideal()).run(move |c| {
            let mine: Vec<u64> = (0..(c.rank() % 4) + 1).map(|i| seed + (c.rank() * 10 + i) as u64).collect();
            c.hier_allgatherv(mine)
        });
        for rank in 0..p {
            prop_assert!(flat[rank].0 == hier[rank].0, "rank {} of p={} rpn={}", rank, p, rpn);
        }
        check_phase_conservation(&hier);
    }

    #[test]
    fn alltoallv_agrees_with_flat(shape in shapes_capped(16), seed in 0u64..1000) {
        let (p, rpn) = shape;
        let chunks_of = move |rank: usize, p: usize| -> Vec<Vec<u64>> {
            (0..p)
                .map(|d| (0..(rank + d) % 3 + 1).map(|i| seed + (rank * 1000 + d * 10 + i) as u64).collect())
                .collect()
        };
        let flat = Cluster::new(p, rpn, NetworkModel::ideal()).run(move |c| {
            let ch = chunks_of(c.rank(), c.size());
            c.alltoallv(ch)
        });
        let hier = Cluster::new(p, rpn, NetworkModel::ideal()).run(move |c| {
            let ch = chunks_of(c.rank(), c.size());
            c.alltoallv_auto(ch)
        });
        for rank in 0..p {
            prop_assert!(flat[rank].0 == hier[rank].0, "rank {} of p={} rpn={}", rank, p, rpn);
        }
        check_phase_conservation(&hier);
    }
}
