//! Property-based tests: collectives must agree with serial references
//! for arbitrary rank counts, node groupings and payloads, and virtual
//! clocks must behave like Lamport clocks.

use mpisim::{Category, Cluster, NetworkModel, Topology};
use proptest::prelude::*;

fn arb_net() -> impl Strategy<Value = NetworkModel> {
    (1e-7f64..1e-5, 1e8f64..1e11).prop_map(|(lat, bw)| NetworkModel {
        topology: Topology::FullyConnected,
        hop_latency: lat,
        sw_overhead: lat * 0.5,
        bandwidth: bw,
        shm_bandwidth: bw * 10.0,
        shm_latency: lat * 0.1,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_equals_serial_sum(
        p in 1usize..9,
        data in proptest::collection::vec(-100.0f64..100.0, 1..20),
        net in arb_net(),
    ) {
        let out = Cluster::new(p, 2, net).run(|c| {
            let mine: Vec<f64> = data.iter().map(|x| x * (c.rank() + 1) as f64).collect();
            c.allreduce(mine)
        });
        // Serial reference: sum over ranks of data * (rank+1).
        let factor: f64 = (1..=p).map(|r| r as f64).sum();
        for (v, _) in &out {
            for (got, want) in v.iter().zip(data.iter().map(|x| x * factor)) {
                prop_assert!((got - want).abs() < 1e-9 * (1.0 + want.abs()));
            }
        }
    }

    #[test]
    fn node_aware_allreduce_matches_flat(
        p in 1usize..13,
        rpn in 1usize..5,
        data in proptest::collection::vec(-10.0f64..10.0, 1..8),
    ) {
        let flat = Cluster::new(p, rpn, NetworkModel::ideal()).run(|c| {
            let mine: Vec<f64> = data.iter().map(|x| x + c.rank() as f64).collect();
            c.allreduce(mine)
        });
        let aware = Cluster::new(p, rpn, NetworkModel::ideal()).run(|c| {
            let mine: Vec<f64> = data.iter().map(|x| x + c.rank() as f64).collect();
            c.hier_allreduce(mine)
        });
        for ((a, _), (b, _)) in flat.iter().zip(&aware) {
            for (x, y) in a.iter().zip(b) {
                prop_assert!((x - y).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn bcast_any_root(p in 1usize..10, root_sel in 0usize..10, len in 1usize..50) {
        let root = root_sel % p;
        let out = Cluster::ideal(p).run(|c| {
            let v = if c.rank() == root {
                Some((0..len as u64).collect::<Vec<u64>>())
            } else {
                None
            };
            c.bcast(root, v)
        });
        for (v, _) in &out {
            prop_assert_eq!(v.len(), len);
            for (i, x) in v.iter().enumerate() {
                prop_assert_eq!(*x, i as u64);
            }
        }
    }

    #[test]
    fn alltoallv_is_transpose(p in 1usize..8) {
        let out = Cluster::ideal(p).run(|c| {
            // Chunk for dst d has length (rank + d + 1) and value rank*100+d.
            let chunks: Vec<Vec<u64>> = (0..p)
                .map(|d| vec![(c.rank() * 100 + d) as u64; c.rank() + d + 1])
                .collect();
            c.alltoallv(chunks)
        });
        for (me, (recv, _)) in out.iter().enumerate() {
            for (src, chunk) in recv.iter().enumerate() {
                prop_assert_eq!(chunk.len(), src + me + 1);
                for x in chunk {
                    prop_assert_eq!(*x, (src * 100 + me) as u64);
                }
            }
        }
    }

    #[test]
    fn allgatherv_ordered(p in 1usize..9, base in 0u64..100) {
        let out = Cluster::ideal(p).run(|c| {
            c.allgatherv(vec![base + c.rank() as u64; c.rank() + 1])
        });
        for (recv, _) in &out {
            for (src, chunk) in recv.iter().enumerate() {
                prop_assert_eq!(chunk.len(), src + 1);
                prop_assert!(chunk.iter().all(|&x| x == base + src as u64));
            }
        }
    }

    #[test]
    fn clocks_never_decrease_and_barrier_syncs(
        p in 2usize..7,
        work in proptest::collection::vec(0.0f64..2.0, 8),
    ) {
        let out = Cluster::ideal(p).run(|c| {
            let w = work[c.rank() % work.len()];
            c.compute(w);
            let before = c.now();
            c.barrier();
            let after = c.now();
            (before, after)
        });
        let max_before = out.iter().map(|((b, _), _)| *b).fold(0.0f64, f64::max);
        for ((before, after), _) in &out {
            prop_assert!(after >= before);
            prop_assert!((after - max_before).abs() < 1e-12, "barrier must sync to max");
        }
    }

    #[test]
    fn ring_exchange_timing_counts_in_sendrecv(p in 2usize..7, net in arb_net()) {
        let out = Cluster::new(p, 1, net).run(|c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let mut token = vec![c.rank() as u64; 1000];
            for step in 0..c.size() - 1 {
                token = c.sendrecv(right, left, step as u64, token);
            }
            (token[0], c.stats.time(Category::Sendrecv))
        });
        for (rank, ((token, t_sr), _)) in out.iter().enumerate() {
            // After p-1 rotations the token originated at rank+1.
            prop_assert_eq!(*token, ((rank + 1) % p) as u64);
            prop_assert!(*t_sr > 0.0);
        }
    }
}
