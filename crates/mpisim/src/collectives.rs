//! Collective operations built on the point-to-point layer.
//!
//! Algorithms follow standard MPI implementations so the virtual-clock
//! costs have the right asymptotics: binomial-tree broadcast/reduce
//! (log p rounds), pairwise-exchange `alltoallv`, and ring `allgatherv`.
//! Every internal message is attributed to the collective's own timing
//! category, matching how the paper reports Table I.

use crate::comm::{tag_internal, Comm, Payload, TAG_ALLGATHERV, TAG_ALLTOALLV, TAG_BCAST, TAG_REDUCE};
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

    /// Personalized all-to-all: `chunks[d]` is sent to rank `d`; returns
    /// the vector of chunks received (indexed by source). Pairwise
    /// exchange, `p-1` rounds.
    pub fn alltoallv<T: Send + Clone + 'static>(&mut self, chunks: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let _s = pwobs::span("comm.alltoallv");
        self.pairwise_alltoallv(chunks)
    }

    /// [`Comm::alltoallv`] without its span: the flat arm of
    /// [`Comm::alltoallv_auto`].
    pub(crate) fn pairwise_alltoallv<T: Send + Clone + 'static>(
        &mut self,
        mut chunks: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let (p, me) = (self.size(), self.rank());
        assert_eq!(chunks.len(), p, "alltoallv needs one chunk per rank");
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        out[me] = std::mem::take(&mut chunks[me]);
        for k in 1..p {
            let dst = (me + k) % p;
            let src = (me + p - k) % p;
            let tag = tag_internal(TAG_ALLTOALLV, k as u64, 0);
            let payload = std::mem::take(&mut chunks[dst]);
            let bytes = payload.byte_len();
            self.post(dst, tag, Box::new(payload), bytes);
            let env = self.take_env(src, tag, Category::Alltoallv);
            out[src] = *env
                .payload
                .downcast::<Vec<T>>()
                .unwrap_or_else(|_| panic!("alltoallv type mismatch"));
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
}

#[cfg(test)]
mod tests {
    use crate::comm::Cluster;
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
