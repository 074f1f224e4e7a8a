//! Collective operations built on the point-to-point layer.
//!
//! Algorithms follow standard MPI implementations so the virtual-clock
//! costs have the right asymptotics: binomial-tree broadcast/reduce
//! (log p rounds), pairwise-exchange `alltoallv`, and ring `allgatherv`.
//! Every internal message is attributed to the collective's own timing
//! category, matching how the paper reports Table I.

use crate::comm::{tag_internal, Comm, Payload, TAG_ALLGATHERV, TAG_ALLTOALLV, TAG_BCAST, TAG_GATHER, TAG_REDUCE};
use crate::stats::Category;

/// Element-wise reducible payloads for `allreduce`.
pub trait Reducible: Payload + Clone {
    /// Combines `other` into `self` (element-wise sum).
    fn combine(&mut self, other: &Self);
}

impl Reducible for Vec<f64> {
    fn combine(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "allreduce length mismatch");
        for (a, b) in self.iter_mut().zip(other) {
            *a += *b;
        }
    }
}

impl Reducible for Vec<pwnum::complex::Complex64> {
    fn combine(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "allreduce length mismatch");
        for (a, b) in self.iter_mut().zip(other) {
            *a += *b;
        }
    }
}

impl Reducible for Vec<u64> {
    fn combine(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "allreduce length mismatch");
        for (a, b) in self.iter_mut().zip(other) {
            *a += *b;
        }
    }
}

impl Comm {
    /// Broadcast from `root` using a binomial tree. Non-root ranks pass
    /// `None` and receive the value; the root passes `Some(value)`.
    pub fn bcast<T: Payload + Clone>(&mut self, root: usize, value: Option<T>) -> T {
        let _s = pwobs::span("comm.bcast");
        self.bcast_cat(root, value, Category::Bcast)
    }

    pub(crate) fn bcast_cat<T: Payload + Clone>(
        &mut self,
        root: usize,
        value: Option<T>,
        cat: Category,
    ) -> T {
        let p = self.size();
        let rel = (self.rank() + p - root) % p;
        let mut have: Option<T> = if rel == 0 {
            Some(value.expect("bcast root must supply a value"))
        } else {
            None
        };
        // Round k: ranks with rel < 2^k forward to rel + 2^k.
        let mut mask = 1usize;
        let mut round = 0u64;
        while mask < p {
            let tag = tag_internal(TAG_BCAST, round, root as u64);
            if rel < mask {
                let dst_rel = rel + mask;
                if dst_rel < p {
                    let dst = (dst_rel + root) % p;
                    let v = have.as_ref().expect("holder must have the value").clone();
                    let bytes = v.byte_len();
                    self.post(dst, tag, Box::new(v), bytes);
                }
            } else if rel < 2 * mask {
                let src = (rel - mask + root) % p;
                let env = self.take_env(src, tag, cat);
                have = Some(
                    *env.payload
                        .downcast::<T>()
                        .unwrap_or_else(|_| panic!("bcast type mismatch")),
                );
            }
            mask <<= 1;
            round += 1;
        }
        have.expect("bcast did not deliver a value")
    }

    /// All-reduce (element-wise sum) via binomial reduce-to-zero plus
    /// binomial broadcast. All time lands in `Allreduce`.
    pub fn allreduce<T: Reducible>(&mut self, value: T) -> T {
        let _s = pwobs::span("comm.allreduce");
        let p = self.size();
        if p == 1 {
            return value;
        }
        let rank = self.rank();
        let mut acc = value;
        // Reduce: round k, ranks with (rank % 2^{k+1}) == 2^k send to rank - 2^k.
        let mut mask = 1usize;
        let mut round = 0u64;
        while mask < p {
            let tag = tag_internal(TAG_REDUCE, round, 0);
            if rank & mask != 0 {
                let dst = rank - mask;
                let bytes = acc.byte_len();
                self.post(dst, tag, Box::new(acc.clone()), bytes);
                break; // This rank is done contributing.
            } else {
                let src = rank + mask;
                if src < p {
                    let env = self.take_env(src, tag, Category::Allreduce);
                    let other = *env
                        .payload
                        .downcast::<T>()
                        .unwrap_or_else(|_| panic!("allreduce type mismatch"));
                    acc.combine(&other);
                }
            }
            mask <<= 1;
            round += 1;
        }
        self.bcast_cat(0, if rank == 0 { Some(acc) } else { None }, Category::Allreduce)
    }

    /// Node-aware all-reduce mirroring the shared-memory optimization of
    /// Fig. 6(b): intra-node reduction to the node leader, inter-node
    /// all-reduce among leaders only, then intra-node broadcast.
    pub fn allreduce_node_aware<T: Reducible>(&mut self, value: T) -> T {
        let rpn = self.ranks_per_node();
        if rpn == 1 || self.size() <= rpn {
            return self.allreduce(value);
        }
        let leader = self.node_leader();
        let tag_up = tag_internal(TAG_REDUCE, 100, self.node() as u64);
        let tag_down = tag_internal(TAG_REDUCE, 101, self.node() as u64);
        if self.rank() == leader {
            let mut acc = value;
            let members: Vec<usize> = self.node_ranks().skip(1).collect();
            for r in members {
                let env = self.take_env(r, tag_up, Category::Allreduce);
                let other = *env
                    .payload
                    .downcast::<T>()
                    .unwrap_or_else(|_| panic!("allreduce type mismatch"));
                acc.combine(&other);
            }
            // Inter-node phase among leaders: emulate a binomial pattern
            // over node indices with direct messages.
            let n_nodes = self.size().div_ceil(rpn);
            let my_node = self.node();
            let mut mask = 1usize;
            let mut round = 200u64;
            while mask < n_nodes {
                let tag = tag_internal(TAG_REDUCE, round, 0);
                if my_node & mask != 0 {
                    let dst = (my_node - mask) * rpn;
                    let bytes = acc.byte_len();
                    self.post(dst, tag, Box::new(acc.clone()), bytes);
                    break;
                } else if my_node + mask < n_nodes {
                    let src = (my_node + mask) * rpn;
                    let env = self.take_env(src, tag, Category::Allreduce);
                    let other = *env
                        .payload
                        .downcast::<T>()
                        .unwrap_or_else(|_| panic!("allreduce type mismatch"));
                    acc.combine(&other);
                }
                mask <<= 1;
                round += 1;
            }
            // Binomial broadcast from node 0's leader down the leader tree.
            let mut mask = 1usize;
            let mut round = 300u64;
            while mask < n_nodes {
                let tag = tag_internal(TAG_REDUCE, round, 0);
                if my_node < mask {
                    let dst_node = my_node + mask;
                    if dst_node < n_nodes {
                        let bytes = acc.byte_len();
                        self.post(dst_node * rpn, tag, Box::new(acc.clone()), bytes);
                    }
                } else if my_node < 2 * mask {
                    let src = (my_node - mask) * rpn;
                    let env = self.take_env(src, tag, Category::Allreduce);
                    acc = *env
                        .payload
                        .downcast::<T>()
                        .unwrap_or_else(|_| panic!("allreduce type mismatch"));
                }
                mask <<= 1;
                round += 1;
            }
            // Intra-node broadcast.
            let members: Vec<usize> = self.node_ranks().skip(1).collect();
            for r in members {
                let bytes = acc.byte_len();
                self.post(r, tag_down, Box::new(acc.clone()), bytes);
            }
            acc
        } else {
            let bytes = value.byte_len();
            self.post(leader, tag_up, Box::new(value), bytes);
            let env = self.take_env(leader, tag_down, Category::Allreduce);
            *env.payload
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("allreduce type mismatch"))
        }
    }

    /// Personalized all-to-all: `chunks[d]` is sent to rank `d`; returns
    /// the vector of chunks received (indexed by source). Pairwise
    /// exchange, `p-1` rounds — the world-sized special case of
    /// [`Comm::alltoallv_group`].
    pub fn alltoallv<T: Send + Clone + 'static>(&mut self, chunks: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let _s = pwobs::span("comm.alltoallv");
        let members: Vec<usize> = (0..self.size()).collect();
        self.alltoallv_group(&members, chunks)
    }

    /// Personalized all-to-all restricted to a rank group (a
    /// sub-communicator transpose; the world-sized case is the band↔grid
    /// transpose of the distributed overlap): `members` lists the group's
    /// world ranks in one order — identical on every member — and
    /// `chunks[i]` is sent to `members[i]`. Returns the
    /// chunks received, indexed by group position. Pairwise exchange,
    /// `members.len() - 1` rounds; disjoint groups can run concurrently
    /// (tags are salted by the group's first member, and the rank pairs
    /// never cross group boundaries).
    pub fn alltoallv_group<T: Send + Clone + 'static>(
        &mut self,
        members: &[usize],
        mut chunks: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let g = members.len();
        assert_eq!(chunks.len(), g, "alltoallv_group needs one chunk per member");
        let me = members
            .iter()
            .position(|&r| r == self.rank())
            .expect("alltoallv_group caller must be a group member");
        let mut out: Vec<Vec<T>> = (0..g).map(|_| Vec::new()).collect();
        out[me] = std::mem::take(&mut chunks[me]);
        let salt = members[0] as u64;
        for k in 1..g {
            let dst = (me + k) % g;
            let src = (me + g - k) % g;
            let tag = tag_internal(TAG_ALLTOALLV, k as u64, salt);
            let payload = std::mem::take(&mut chunks[dst]);
            let bytes = payload.byte_len();
            self.post(members[dst], tag, Box::new(payload), bytes);
            let env = self.take_env(members[src], tag, Category::Alltoallv);
            out[src] = *env
                .payload
                .downcast::<Vec<T>>()
                .unwrap_or_else(|_| panic!("alltoallv_group type mismatch"));
        }
        out
    }

    /// All-gather with per-rank sizes: every rank contributes `mine` and
    /// receives all contributions ordered by rank. Ring algorithm,
    /// `p-1` forwarding steps.
    pub fn allgatherv<T: Send + Clone + 'static>(&mut self, mine: Vec<T>) -> Vec<Vec<T>> {
        let _s = pwobs::span("comm.allgatherv");
        let p = self.size();
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        out[self.rank()] = mine;
        let right = (self.rank() + 1) % p;
        let left = (self.rank() + p - 1) % p;
        for step in 0..p.saturating_sub(1) {
            // Forward the block received in the previous step (initially ours).
            let fwd_idx = (self.rank() + p - step) % p;
            let tag = tag_internal(TAG_ALLGATHERV, step as u64, 0);
            let payload = out[fwd_idx].clone();
            let bytes = payload.byte_len();
            self.post(right, tag, Box::new(payload), bytes);
            let env = self.take_env(left, tag, Category::Allgatherv);
            let recv_idx = (self.rank() + p - step - 1) % p;
            out[recv_idx] = *env
                .payload
                .downcast::<Vec<T>>()
                .unwrap_or_else(|_| panic!("allgatherv type mismatch"));
        }
        out
    }

    /// Gather to `root`: returns `Some(all chunks)` on the root.
    pub fn gather<T: Send + Clone + 'static>(&mut self, root: usize, mine: Vec<T>) -> Option<Vec<Vec<T>>> {
        let p = self.size();
        let tag = tag_internal(TAG_GATHER, 0, root as u64);
        if self.rank() == root {
            let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
            out[root] = mine;
            for r in (0..p).filter(|&r| r != root) {
                let env = self.take_env(r, tag, Category::Allgatherv);
                out[r] = *env
                    .payload
                    .downcast::<Vec<T>>()
                    .unwrap_or_else(|_| panic!("gather type mismatch"));
            }
            Some(out)
        } else {
            let bytes = mine.byte_len();
            self.post(root, tag, Box::new(mine), bytes);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::{Cluster, Comm};
    use crate::stats::Category;
    use crate::topology::NetworkModel;

    #[test]
    fn bcast_delivers_to_all() {
        for p in [1, 2, 3, 4, 7, 8] {
            for root in [0, p - 1, p / 2] {
                let out = Cluster::ideal(p).run(|c| {
                    let v = if c.rank() == root { Some(vec![3.0f64, 1.0, 4.0]) } else { None };
                    c.bcast(root, v)
                });
                for (v, _) in &out {
                    assert_eq!(*v, vec![3.0, 1.0, 4.0], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn allreduce_sums() {
        for p in [1, 2, 3, 5, 8, 13] {
            let out = Cluster::ideal(p).run(|c| c.allreduce(vec![c.rank() as f64, 1.0]));
            let expect = (p * (p - 1) / 2) as f64;
            for (v, _) in &out {
                assert!((v[0] - expect).abs() < 1e-12, "p={p}");
                assert!((v[1] - p as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn allreduce_node_aware_matches_flat() {
        for (p, rpn) in [(8, 4), (8, 2), (12, 4), (6, 3), (7, 4)] {
            let out = Cluster::new(p, rpn, NetworkModel::ideal())
                .run(|c| c.allreduce_node_aware(vec![c.rank() as f64 + 0.5]));
            let expect = (p * (p - 1)) as f64 / 2.0 + 0.5 * p as f64;
            for (v, _) in &out {
                assert!((v[0] - expect).abs() < 1e-12, "p={p} rpn={rpn} got {}", v[0]);
            }
        }
    }

    #[test]
    fn alltoallv_transposes() {
        let p = 4;
        let out = Cluster::ideal(p).run(|c| {
            let chunks: Vec<Vec<u64>> =
                (0..p).map(|d| vec![(c.rank() * 10 + d) as u64]).collect();
            c.alltoallv(chunks)
        });
        for (rank, (recv, _)) in out.iter().enumerate() {
            for (src, chunk) in recv.iter().enumerate() {
                assert_eq!(chunk, &vec![(src * 10 + rank) as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_group_transposes_within_disjoint_rows() {
        // 2 disjoint groups of 3 ranks exchange concurrently; each must
        // see exactly its own group's chunks, in group order.
        let p = 6;
        let out = Cluster::ideal(p).run(|c| {
            let members: Vec<usize> =
                if c.rank() < 3 { vec![0, 1, 2] } else { vec![3, 4, 5] };
            let chunks: Vec<Vec<u64>> = members
                .iter()
                .map(|&d| vec![(c.rank() * 100 + d) as u64])
                .collect();
            c.alltoallv_group(&members, chunks)
        });
        for (rank, (recv, _)) in out.iter().enumerate() {
            let members: [usize; 3] = if rank < 3 { [0, 1, 2] } else { [3, 4, 5] };
            assert_eq!(recv.len(), 3);
            for (pos, chunk) in recv.iter().enumerate() {
                assert_eq!(chunk, &vec![(members[pos] * 100 + rank) as u64], "rank {rank}");
            }
        }
    }

    #[test]
    fn alltoallv_group_of_all_matches_alltoallv() {
        let p = 4;
        let out = Cluster::ideal(p).run(|c| {
            let make = |c: &Comm| -> Vec<Vec<u64>> {
                (0..p).map(|d| vec![(c.rank() * 10 + d) as u64, 42]).collect()
            };
            let members: Vec<usize> = (0..p).collect();
            let grouped = c.alltoallv_group(&members, make(c));
            let flat = c.alltoallv(make(c));
            grouped == flat
        });
        for (same, _) in &out {
            assert!(same);
        }
    }

    #[test]
    fn allgatherv_collects_in_rank_order() {
        let p = 5;
        let out = Cluster::ideal(p).run(|c| {
            // Variable sizes: rank r contributes r+1 elements.
            let mine: Vec<u64> = (0..=c.rank() as u64).collect();
            c.allgatherv(mine)
        });
        for (recv, _) in &out {
            for (src, chunk) in recv.iter().enumerate() {
                let expect: Vec<u64> = (0..=src as u64).collect();
                assert_eq!(chunk, &expect);
            }
        }
    }

    #[test]
    fn gather_reaches_root() {
        let p = 6;
        let out = Cluster::ideal(p).run(|c| c.gather(2, vec![c.rank() as u64]));
        for (rank, (res, _)) in out.iter().enumerate() {
            if rank == 2 {
                let all = res.as_ref().expect("root gets data");
                for (src, chunk) in all.iter().enumerate() {
                    assert_eq!(chunk, &vec![src as u64]);
                }
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn bcast_costs_scale_with_log_p() {
        let net = NetworkModel {
            topology: crate::topology::Topology::FullyConnected,
            hop_latency: 0.0,
            sw_overhead: 0.0,
            bandwidth: 1e9,
            shm_bandwidth: 1e9,
            shm_latency: 0.0,
        };
        // Broadcasting 1 MB: the last leaf receives after ~log2(p) serial hops.
        let time_at = |p: usize| {
            let out = Cluster::new(p, 1, net.clone()).run(|c| {
                let v = if c.rank() == 0 { Some(vec![0u8; 1_000_000]) } else { None };
                let _ = c.bcast(0, v);
                c.now()
            });
            out.iter().map(|(t, _)| *t).fold(0.0f64, f64::max)
        };
        let t4 = time_at(4);
        let t16 = time_at(16);
        // log2(16)/log2(4) = 2 rounds ratio.
        assert!(t16 > 1.8 * t4 && t16 < 2.2 * t4, "t4={t4} t16={t16}");
    }

    #[test]
    fn timing_lands_in_right_category() {
        let net = NetworkModel {
            topology: crate::topology::Topology::FullyConnected,
            hop_latency: 1e-6,
            sw_overhead: 0.0,
            bandwidth: 1e9,
            shm_bandwidth: 1e9,
            shm_latency: 0.0,
        };
        let out = Cluster::new(4, 1, net).run(|c| {
            let _ = c.allreduce(vec![1.0f64; 1000]);
            let chunks: Vec<Vec<f64>> = (0..4).map(|_| vec![0.0; 100]).collect();
            let _ = c.alltoallv(chunks);
            (c.stats.time(Category::Allreduce), c.stats.time(Category::Alltoallv))
        });
        for (rank, ((ar, av), _)) in out.iter().enumerate() {
            // Every rank but the reduce root blocks at least once in each op.
            if rank != 0 {
                assert!(*ar > 0.0, "rank {rank} allreduce time");
            }
            assert!(*av > 0.0, "rank {rank} alltoallv time");
        }
    }
}
