//! Hierarchical (topology-aware, two-level) collectives.
//!
//! The paper's platforms pack 4 ranks per node, so every collective can
//! split into an **intra-node phase** over shared memory (cheap: node
//! ranks stage their contributions through an [`crate::ShmWindow`]) and
//! an **inter-node phase** where only the node *leaders* touch the
//! interconnect — the structure production MPI libraries and the Summit
//! PT-TDDFT / SPARC hybrid-functional ports (PAPERS.md) use to scale
//! exchange past the node boundary. Compared to the flat collectives in
//! [`crate::collectives`], the hierarchical forms cut the inter-node
//! message count from `O(p)`/`O(p²)` to `O(nodes)`/`O(nodes²)` and move
//! the intra-node volume at shared-memory bandwidth.
//!
//! Every staging copy is priced through [`Comm`]'s `charge_shm` (one shm
//! latency plus the bandwidth term) and attributed to the collective's
//! own Table I category, with the traffic recorded in the per-phase
//! counters of [`crate::Stats`] (`intra_*`, `inter_*`,
//! `shm_staged_bytes`) — so the two-level closed forms in `perfmodel`
//! can be validated phase by phase.
//!
//! Window reuse safety: every shm-staged collective follows the pattern
//! *write → node barrier → read → node barrier*. The trailing barrier
//! guarantees all reads of call `k` complete before any rank's call
//! `k+1` writes the same window, so repeated collectives can share one
//! window per (kind, element type, length). Window ids live in the
//! `1 << 63` space; user window ids should stay below that.

use crate::comm::{tag_internal, Comm, Payload, TAG_HIER_A2A, TAG_HIER_ALLREDUCE, TAG_HIER_GATHER};
use crate::stats::Category;
use std::any::TypeId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::AddAssign;

/// Element bound for the shm-staged hierarchical collectives: the data
/// must be bit-copyable into a shared window.
pub trait HierElem: Copy + Default + Send + Sync + 'static {}
impl<T: Copy + Default + Send + Sync + 'static> HierElem for T {}

// Window-id kinds (bits 56..63 of the id; bit 63 marks internal ids).
const KIND_ALLREDUCE: u64 = 1;
const KIND_AG_SIZES: u64 = 2;
const KIND_AG_DATA: u64 = 3;
const KIND_AG_OUT_LENS: u64 = 4;
const KIND_AG_OUT_DATA: u64 = 5;

// Tag-round bases for the leader-staged all-to-all phases (each phase
// adds a rank or node index < 0x1000).
const A2A_DIRECT: u64 = 0;
const A2A_UP_HDR: u64 = 0x1000;
const A2A_UP_DATA: u64 = 0x2000;
const A2A_X_HDR: u64 = 0x3000;
const A2A_X_DATA: u64 = 0x4000;
const A2A_DOWN_HDR: u64 = 0x5000;
const A2A_DOWN_DATA: u64 = 0x6000;

/// Internal shm-window id: bit 63 | kind | an 8-bit element-type tag |
/// the window length, so reopening with a different type or length can
/// never alias an existing window.
fn hier_window_id<T: 'static>(kind: u64, len: usize) -> u64 {
    let mut h = DefaultHasher::new();
    TypeId::of::<T>().hash(&mut h);
    let ty = h.finish() & 0xFF;
    (1 << 63) | (kind << 56) | (ty << 48) | (len as u64 & 0xFFFF_FFFF_FFFF)
}

impl Comm {
    /// Binomial reduce-to-index-0 over `n_idx` participants addressed
    /// through `rank_of` (identity for a flat world reduce, node-leader
    /// lookup for the inter-node phase); index 0 ends up holding the
    /// result. Combination order is fixed by the tree, so results are
    /// deterministic.
    fn binomial_reduce_by<T: HierElem + AddAssign>(
        &mut self,
        my_idx: usize,
        n_idx: usize,
        rank_of: &dyn Fn(usize) -> usize,
        acc: &mut Vec<T>,
        round_base: u64,
        cat: Category,
    ) {
        let mut mask = 1usize;
        let mut round = round_base;
        while mask < n_idx {
            let tag = tag_internal(TAG_HIER_ALLREDUCE, round, 0);
            if my_idx & mask != 0 {
                let dst = rank_of(my_idx - mask);
                let bytes = acc.byte_len();
                self.post(dst, tag, Box::new(acc.clone()), bytes);
                return;
            } else if my_idx + mask < n_idx {
                let src = rank_of(my_idx + mask);
                let env = self.take_env(src, tag, cat);
                let other = *env
                    .payload
                    .downcast::<Vec<T>>()
                    .unwrap_or_else(|_| panic!("hier reduce type mismatch"));
                for (a, b) in acc.iter_mut().zip(&other) {
                    *a += *b;
                }
            }
            mask <<= 1;
            round += 1;
        }
    }

    /// Binomial broadcast from index 0 over the same index space.
    fn binomial_bcast_by<T: HierElem>(
        &mut self,
        my_idx: usize,
        n_idx: usize,
        rank_of: &dyn Fn(usize) -> usize,
        acc: &mut Vec<T>,
        round_base: u64,
        cat: Category,
    ) {
        let mut mask = 1usize;
        let mut round = round_base;
        while mask < n_idx {
            let tag = tag_internal(TAG_HIER_ALLREDUCE, round, 0);
            if my_idx < mask {
                let dst_idx = my_idx + mask;
                if dst_idx < n_idx {
                    let bytes = acc.byte_len();
                    self.post(rank_of(dst_idx), tag, Box::new(acc.clone()), bytes);
                }
            } else if my_idx < 2 * mask {
                let env = self.take_env(rank_of(my_idx - mask), tag, cat);
                *acc = *env
                    .payload
                    .downcast::<Vec<T>>()
                    .unwrap_or_else(|_| panic!("hier bcast type mismatch"));
            }
            mask <<= 1;
            round += 1;
        }
    }

    /// Intra-node reduction of `v` into the node leader, staged through
    /// a shared window (members write slices, leader combines in slot
    /// order — deterministic). On return, the leader's `v` holds the
    /// node sum; member copies are unchanged. Must be followed by
    /// [`Comm::node_bcast_shm`], whose trailing barrier releases the
    /// window.
    fn node_reduce_shm<T: HierElem + AddAssign>(&mut self, v: &mut [T], cat: Category) {
        let node_first = self.node_leader();
        let node_size = self.node_ranks().len();
        if node_size <= 1 {
            return;
        }
        let n = v.len();
        let bytes = std::mem::size_of_val(v);
        let win = self
            .shm_window_internal::<T>(hier_window_id::<T>(KIND_ALLREDUCE, n * node_size), n * node_size);
        let my_slot = self.rank() - node_first;
        if my_slot != 0 {
            win.write(my_slot * n, v);
            self.charge_shm(cat, bytes);
        }
        self.node_barrier_cat(cat);
        if my_slot == 0 {
            win.with(|buf| {
                for s in 1..node_size {
                    for (a, b) in v.iter_mut().zip(&buf[s * n..(s + 1) * n]) {
                        *a += *b;
                    }
                }
            });
            self.charge_shm(cat, bytes * (node_size - 1));
        }
    }

    /// Leader writes `v` into the shared window; members read it back.
    /// Completes the write→barrier→read→barrier reuse pattern.
    fn node_bcast_shm<T: HierElem>(&mut self, v: &mut [T], cat: Category) {
        let node_size = self.node_ranks().len();
        if node_size <= 1 {
            return;
        }
        let n = v.len();
        let bytes = std::mem::size_of_val(v);
        let win = self
            .shm_window_internal::<T>(hier_window_id::<T>(KIND_ALLREDUCE, n * node_size), n * node_size);
        if self.rank() == self.node_leader() {
            win.write(0, v);
            self.charge_shm(cat, bytes);
        }
        self.node_barrier_cat(cat);
        if self.rank() != self.node_leader() {
            win.read(0, v);
            self.charge_shm(cat, bytes);
        }
        self.node_barrier_cat(cat);
    }

    /// Hierarchical all-reduce (element-wise sum): intra-node reduction
    /// through a shared window, binomial all-reduce among node leaders
    /// over the interconnect, intra-node fan-out through the window.
    /// Falls back to the flat binomial algorithm when the run has no
    /// two-level structure (1 rank/node, or a single node).
    pub fn hier_allreduce<T: HierElem + AddAssign>(&mut self, v: Vec<T>) -> Vec<T> {
        self.hier_allreduce_cat(v, Category::Allreduce)
    }

    pub(crate) fn hier_allreduce_cat<T: HierElem + AddAssign>(
        &mut self,
        v: Vec<T>,
        cat: Category,
    ) -> Vec<T> {
        let p = self.size();
        let mut acc = v;
        if p == 1 {
            return acc;
        }
        if !self.hierarchical() {
            // Same tree as the flat `allreduce`, so results agree bitwise.
            self.binomial_reduce_by(self.rank(), p, &|i| i, &mut acc, 0, cat);
            self.binomial_bcast_by(self.rank(), p, &|i| i, &mut acc, 100, cat);
            return acc;
        }
        self.node_reduce_shm(&mut acc, cat);
        if self.rank() == self.node_leader() {
            let rpn = self.ranks_per_node();
            let n_nodes = p.div_ceil(rpn);
            let node = self.node();
            self.binomial_reduce_by(node, n_nodes, &|i| i * rpn, &mut acc, 0, cat);
            self.binomial_bcast_by(node, n_nodes, &|i| i * rpn, &mut acc, 100, cat);
        }
        self.node_bcast_shm(&mut acc, cat);
        acc
    }

    /// Hierarchical all-gather with per-rank sizes: node members stage
    /// their contributions through shared windows, node leaders run a
    /// ring over the interconnect exchanging per-node blocks, and the
    /// assembled result fans back out through shared windows. Returns
    /// all contributions ordered by world rank.
    pub fn hier_allgatherv<T: HierElem>(&mut self, mine: Vec<T>) -> Vec<Vec<T>> {
        let p = self.size();
        if p == 1 {
            return vec![mine];
        }
        if !self.hierarchical() {
            return self.allgatherv(mine);
        }
        let cat = Category::Allgatherv;
        let rpn = self.ranks_per_node();
        let n_nodes = p.div_ceil(rpn);
        let node = self.node();
        let node_first = self.node_leader();
        let node_size = self.node_ranks().len();
        let my_slot = self.rank() - node_first;
        let elem = std::mem::size_of::<T>();
        let leader = self.rank() == node_first;

        // Intra phase 1: stage (size, data) into node windows.
        let mut node_lens = vec![mine.len() as u64; 1];
        let mut node_data = mine;
        if node_size > 1 {
            let sizes_win = self.shm_window_internal::<u64>(
                hier_window_id::<u64>(KIND_AG_SIZES, node_size),
                node_size,
            );
            sizes_win.write(my_slot, &[node_data.len() as u64]);
            self.charge_shm(cat, 8);
            self.node_barrier_cat(cat);
            node_lens = sizes_win.with(|buf| buf.to_vec());
            self.charge_shm(cat, 8 * node_size);
            // Everyone knows the offsets now; stage the payloads.
            let total: usize = node_lens.iter().map(|&l| l as usize).sum();
            let offset: usize =
                node_lens[..my_slot].iter().map(|&l| l as usize).sum();
            let data_win = self.shm_window_internal::<T>(
                hier_window_id::<T>(KIND_AG_DATA, total),
                total,
            );
            data_win.write(offset, &node_data);
            self.charge_shm(cat, node_data.len() * elem);
            self.node_barrier_cat(cat);
            if leader {
                node_data = data_win.with(|buf| buf.to_vec());
                self.charge_shm(cat, total * elem);
            }
            // Release both windows for reuse before anyone returns.
            self.node_barrier_cat(cat);
        }

        // Inter phase: ring over node leaders, forwarding per-node
        // (lens, data) blocks — n_nodes - 1 steps.
        let mut blocks: Vec<(Vec<u64>, Vec<T>)> = (0..n_nodes).map(|_| (Vec::new(), Vec::new())).collect();
        if leader {
            blocks[node] = (node_lens, node_data);
            let right = ((node + 1) % n_nodes) * rpn;
            let left = ((node + n_nodes - 1) % n_nodes) * rpn;
            for step in 0..n_nodes - 1 {
                let fwd = (node + n_nodes - step) % n_nodes;
                let tag_l = tag_internal(TAG_HIER_GATHER, 2 * step as u64, 0);
                let tag_d = tag_internal(TAG_HIER_GATHER, 2 * step as u64 + 1, 0);
                let (lens, data) = blocks[fwd].clone();
                let lb = lens.byte_len();
                self.post(right, tag_l, Box::new(lens), lb);
                let db = data.byte_len();
                self.post(right, tag_d, Box::new(data), db);
                let env = self.take_env(left, tag_l, cat);
                let lens = *env
                    .payload
                    .downcast::<Vec<u64>>()
                    .unwrap_or_else(|_| panic!("hier allgather lens type mismatch"));
                let env = self.take_env(left, tag_d, cat);
                let data = *env
                    .payload
                    .downcast::<Vec<T>>()
                    .unwrap_or_else(|_| panic!("hier allgather type mismatch"));
                blocks[(node + n_nodes - step - 1) % n_nodes] = (lens, data);
            }
        }

        // Assemble per-world-rank lengths plus the concatenated payload.
        let mut out_lens = vec![0u64; p];
        let mut flat: Vec<T> = Vec::new();
        if leader {
            for (nd, (lens, data)) in blocks.iter().enumerate() {
                for (slot, &l) in lens.iter().enumerate() {
                    out_lens[nd * rpn + slot] = l;
                }
                flat.extend_from_slice(data);
            }
        }

        // Intra phase 2: fan the assembled result out through windows.
        if node_size > 1 {
            let lens_win = self.shm_window_internal::<u64>(
                hier_window_id::<u64>(KIND_AG_OUT_LENS, p),
                p,
            );
            if leader {
                lens_win.write(0, &out_lens);
                self.charge_shm(cat, 8 * p);
            }
            self.node_barrier_cat(cat);
            if !leader {
                lens_win.read(0, &mut out_lens);
                self.charge_shm(cat, 8 * p);
            }
            let grand: usize = out_lens.iter().map(|&l| l as usize).sum();
            let data_win = self.shm_window_internal::<T>(
                hier_window_id::<T>(KIND_AG_OUT_DATA, grand),
                grand,
            );
            if leader {
                data_win.write(0, &flat);
                self.charge_shm(cat, grand * elem);
            }
            self.node_barrier_cat(cat);
            if !leader {
                flat = vec![T::default(); grand];
                data_win.read(0, &mut flat);
                self.charge_shm(cat, grand * elem);
            }
            self.node_barrier_cat(cat);
        }

        // Split the flat payload by per-rank lengths.
        let mut out: Vec<Vec<T>> = Vec::with_capacity(p);
        let mut at = 0usize;
        for &l in &out_lens {
            let l = l as usize;
            out.push(flat[at..at + l].to_vec());
            at += l;
        }
        out
    }

    /// Personalized all-to-all with leader aggregation: same-node chunks
    /// go direct; remote chunks funnel member → node leader (intra),
    /// leader → leader as one bundled message pair per node pair
    /// (inter), then leader → destination member (intra). Cuts the
    /// inter-node message count from `O(p²)` to `O(nodes²)`. Unlike the
    /// shm-staged collectives this one is pure point-to-point (intra-node
    /// hops ride the shared-memory pricing of [`crate::NetworkModel`]).
    pub fn hier_alltoallv<T: Send + Clone + 'static>(
        &mut self,
        mut chunks: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let (p, me, rpn) = (self.size(), self.rank(), self.ranks_per_node());
        assert_eq!(chunks.len(), p, "hier_alltoallv needs one chunk per rank");
        assert!(p < 0x1000, "hier_alltoallv supports at most 4095 ranks");
        let cat = Category::Alltoallv;
        let tag = |base: u64, i: usize| tag_internal(TAG_HIER_A2A, base + i as u64, 0);
        let (n_nodes, my_node) = (p.div_ceil(rpn), self.node());
        let locals = self.node_ranks();
        let leader = self.node_leader();
        let i_am_leader = me == leader;

        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        out[me] = std::mem::take(&mut chunks[me]);

        // Phase A sends: same-node chunks go direct (intra-node wire).
        for dst in locals.clone() {
            if dst == me {
                continue;
            }
            let payload = std::mem::take(&mut chunks[dst]);
            let bytes = payload.byte_len();
            self.post(dst, tag(A2A_DIRECT, me), Box::new(payload), bytes);
        }

        // Phase B1 sends: members bundle every remote chunk up to their
        // node leader (header: [dst, len] pairs; data: concatenation).
        let mut own_hdr = Vec::new();
        let mut own_data = Vec::new();
        for dst in (0..p).filter(|d| !locals.contains(d)) {
            let chunk = std::mem::take(&mut chunks[dst]);
            own_hdr.push(dst as u64);
            own_hdr.push(chunk.len() as u64);
            own_data.extend(chunk);
        }
        if !i_am_leader {
            let hb = own_hdr.byte_len();
            self.post(leader, tag(A2A_UP_HDR, me), Box::new(own_hdr), hb);
            let db = own_data.byte_len();
            self.post(leader, tag(A2A_UP_DATA, me), Box::new(own_data), db);
        } else {
            // Leader: collect local bundles, regroup per destination
            // node, exchange one bundled pair per node pair, scatter.
            // Entries: (src, dst, chunk), member order then header order
            // — deterministic.
            let mut entries: Vec<(usize, usize, Vec<T>)> = Vec::new();
            let push_bundle = |entries: &mut Vec<(usize, usize, Vec<T>)>,
                               src: usize,
                               hdr: Vec<u64>,
                               data: Vec<T>| {
                let mut rest = &data[..];
                for pair in hdr.chunks(2) {
                    let (dst, len) = (pair[0] as usize, pair[1] as usize);
                    let (chunk, tail) = rest.split_at(len);
                    entries.push((src, dst, chunk.to_vec()));
                    rest = tail;
                }
                debug_assert!(rest.is_empty(), "bundle data not fully consumed");
            };
            push_bundle(&mut entries, me, own_hdr, own_data);
            for m in locals.clone() {
                if m == me {
                    continue;
                }
                let env = self.take_env(m, tag(A2A_UP_HDR, m), cat);
                let hdr = *env
                    .payload
                    .downcast::<Vec<u64>>()
                    .unwrap_or_else(|_| panic!("hier alltoall header type mismatch"));
                let env = self.take_env(m, tag(A2A_UP_DATA, m), cat);
                let data = *env
                    .payload
                    .downcast::<Vec<T>>()
                    .unwrap_or_else(|_| panic!("hier alltoall type mismatch"));
                push_bundle(&mut entries, m, hdr, data);
            }

            // Phase B2: one (header, data) pair per destination node.
            for node in (0..n_nodes).filter(|&nd| nd != my_node) {
                let mut hdr = Vec::new();
                let mut data = Vec::new();
                for (src, dst, chunk) in &entries {
                    if dst / rpn == node {
                        hdr.push(*src as u64);
                        hdr.push(*dst as u64);
                        hdr.push(chunk.len() as u64);
                        data.extend(chunk.iter().cloned());
                    }
                }
                let hb = hdr.byte_len();
                self.post(node * rpn, tag(A2A_X_HDR, my_node), Box::new(hdr), hb);
                let db = data.byte_len();
                self.post(node * rpn, tag(A2A_X_DATA, my_node), Box::new(data), db);
            }

            // Receive every other leader's bundle; bucket per local dst.
            let mut buckets: Vec<Vec<(usize, Vec<T>)>> =
                (0..locals.len()).map(|_| Vec::new()).collect();
            for node in (0..n_nodes).filter(|&nd| nd != my_node) {
                let env = self.take_env(node * rpn, tag(A2A_X_HDR, node), cat);
                let hdr = *env
                    .payload
                    .downcast::<Vec<u64>>()
                    .unwrap_or_else(|_| panic!("hier alltoall header type mismatch"));
                let env = self.take_env(node * rpn, tag(A2A_X_DATA, node), cat);
                let data = *env
                    .payload
                    .downcast::<Vec<T>>()
                    .unwrap_or_else(|_| panic!("hier alltoall type mismatch"));
                let mut rest = &data[..];
                for triple in hdr.chunks(3) {
                    let (src, dst, len) =
                        (triple[0] as usize, triple[1] as usize, triple[2] as usize);
                    let (head, tail) = rest.split_at(len);
                    let chunk = head.to_vec();
                    rest = tail;
                    if dst == me {
                        out[src] = chunk;
                    } else {
                        buckets[dst - leader].push((src, chunk));
                    }
                }
            }

            // Phase B3: scatter the buckets to the local members.
            for (m, bucket) in locals.clone().zip(&buckets) {
                if m == me {
                    continue;
                }
                let mut hdr = Vec::new();
                let mut data = Vec::new();
                for (src, chunk) in bucket {
                    hdr.push(*src as u64);
                    hdr.push(chunk.len() as u64);
                    data.extend(chunk.iter().cloned());
                }
                let hb = hdr.byte_len();
                self.post(m, tag(A2A_DOWN_HDR, m), Box::new(hdr), hb);
                let db = data.byte_len();
                self.post(m, tag(A2A_DOWN_DATA, m), Box::new(data), db);
            }
        }

        if !i_am_leader {
            // Receive this member's share of the remote traffic.
            let env = self.take_env(leader, tag(A2A_DOWN_HDR, me), cat);
            let hdr = *env
                .payload
                .downcast::<Vec<u64>>()
                .unwrap_or_else(|_| panic!("hier alltoall header type mismatch"));
            let env = self.take_env(leader, tag(A2A_DOWN_DATA, me), cat);
            let data = *env
                .payload
                .downcast::<Vec<T>>()
                .unwrap_or_else(|_| panic!("hier alltoall type mismatch"));
            let mut rest = &data[..];
            for pair in hdr.chunks(2) {
                let (src, len) = (pair[0] as usize, pair[1] as usize);
                let (chunk, tail) = rest.split_at(len);
                out[src] = chunk.to_vec();
                rest = tail;
            }
        }

        // Phase A receives (posted at the very start by every peer).
        for src in locals {
            if src == me {
                continue;
            }
            let env = self.take_env(src, tag(A2A_DIRECT, src), cat);
            out[src] = *env
                .payload
                .downcast::<Vec<T>>()
                .unwrap_or_else(|_| panic!("hier alltoall type mismatch"));
        }
        out
    }

    /// Personalized all-to-all on the run's topology: [`Comm::hier_alltoallv`]
    /// when the ranks span several nodes and share at least one
    /// (otherwise leader aggregation has nothing to aggregate), the flat
    /// pairwise exchange of [`Comm::alltoallv`] otherwise.
    pub fn alltoallv_auto<T: Send + Clone + 'static>(
        &mut self,
        chunks: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        if self.hierarchical() {
            self.hier_alltoallv(chunks)
        } else {
            self.pairwise_alltoallv(chunks)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::Cluster;
    use crate::stats::Category;
    use crate::topology::NetworkModel;

    // Shapes covering: flat fallback (rpn = 1), single node, uniform
    // nodes, and a ragged last node.
    const SHAPES: [(usize, usize); 6] = [(8, 1), (4, 4), (8, 4), (12, 4), (7, 3), (9, 4)];

    #[test]
    fn hier_allreduce_matches_flat_sum() {
        for (p, rpn) in SHAPES {
            let out = Cluster::new(p, rpn, NetworkModel::ideal())
                .run(|c| c.hier_allreduce(vec![c.rank() as f64, 2.0]));
            let expect = (p * (p - 1) / 2) as f64;
            for (v, _) in &out {
                assert_eq!(v[0], expect, "p={p} rpn={rpn}");
                assert_eq!(v[1], 2.0 * p as f64);
            }
        }
    }

    #[test]
    fn hier_allgatherv_collects_in_rank_order() {
        for (p, rpn) in SHAPES {
            let out = Cluster::new(p, rpn, NetworkModel::ideal()).run(|c| {
                // Variable sizes: rank r contributes r+1 elements.
                let mine: Vec<u64> = (0..=c.rank() as u64).collect();
                c.hier_allgatherv(mine)
            });
            for (recv, _) in &out {
                assert_eq!(recv.len(), p);
                for (src, chunk) in recv.iter().enumerate() {
                    let expect: Vec<u64> = (0..=src as u64).collect();
                    assert_eq!(chunk, &expect, "p={p} rpn={rpn} src={src}");
                }
            }
        }
    }

    #[test]
    fn hier_alltoallv_transposes() {
        for (p, rpn) in SHAPES {
            let out = Cluster::new(p, rpn, NetworkModel::ideal()).run(|c| {
                let chunks: Vec<Vec<u64>> = (0..p)
                    .map(|d| (0..=d).map(|k| (c.rank() * 1000 + d * 10 + k) as u64).collect())
                    .collect();
                // The topology dispatch must deliver the same transpose.
                [c.hier_alltoallv(chunks.clone()), c.alltoallv_auto(chunks)]
            });
            for (rank, (recvs, _)) in out.iter().enumerate() {
                for (src, chunks) in recvs[0].iter().zip(&recvs[1]).enumerate() {
                    let expect: Vec<u64> =
                        (0..=rank).map(|k| (src * 1000 + rank * 10 + k) as u64).collect();
                    assert_eq!(chunks.0, &expect, "p={p} rpn={rpn} rank={rank} src={src}");
                    assert_eq!(chunks.1, &expect, "auto: p={p} rpn={rpn} rank={rank} src={src}");
                }
            }
        }
    }

    #[test]
    fn hier_alltoallv_returns_chunks_without_spare_capacity() {
        // Chunks cut from a received bundle are copied out at their own
        // length: none holds the rest of the bundle.
        for (p, rpn) in SHAPES {
            let out = Cluster::new(p, rpn, NetworkModel::ideal()).run(|c| {
                let chunks: Vec<Vec<u64>> = (0..p).map(|d| vec![d as u64; d + 3]).collect();
                let recv = c.hier_alltoallv(chunks);
                recv.iter().map(|ch| (ch.len(), ch.capacity())).collect::<Vec<_>>()
            });
            for (rank, (sizes, _)) in out.iter().enumerate() {
                for (src, &(len, cap)) in sizes.iter().enumerate() {
                    assert_eq!(len, rank + 3, "p={p} rpn={rpn} rank={rank} src={src}");
                    assert_eq!(cap, len, "p={p} rpn={rpn} rank={rank} src={src}");
                }
            }
        }
    }

    #[test]
    fn hier_alltoallv_reduces_inter_node_messages() {
        let p = 16;
        let rpn = 4;
        let run = |hier: bool| {
            Cluster::new(p, rpn, NetworkModel::ideal()).run(move |c| {
                let chunks: Vec<Vec<u64>> = (0..p).map(|d| vec![d as u64; 8]).collect();
                let _ = if hier {
                    c.hier_alltoallv(chunks)
                } else {
                    c.alltoallv(chunks)
                };
                c.stats.inter_msgs
            })
        };
        let hier_msgs: u64 = run(true).iter().map(|(m, _)| *m).sum();
        let flat_msgs: u64 = run(false).iter().map(|(m, _)| *m).sum();
        // Flat: every rank exchanges with the 12 off-node ranks. Hier:
        // only the 4 leaders exchange (header+data pairs).
        assert!(
            hier_msgs < flat_msgs / 2,
            "hier {hier_msgs} must undercut flat {flat_msgs}"
        );
    }

    #[test]
    fn hier_allreduce_inter_bytes_follow_leader_tree() {
        // 16 ranks on 4 nodes, 1 kB vectors: only leaders cross the
        // network, in a binomial tree (reduce + bcast).
        let p = 16;
        let rpn = 4;
        let n = 128usize; // 1024 bytes of f64
        let out = Cluster::new(p, rpn, NetworkModel::ideal()).run(move |c| {
            let _ = c.hier_allreduce(vec![1.0f64; n]);
            (c.stats.inter_bytes, c.stats.shm_staged_bytes, c.stats.intra_bytes)
        });
        let bytes = (n * 8) as u64;
        let inter_total: u64 = out.iter().map(|((b, _, _), _)| *b).sum();
        // Binomial reduce over 4 nodes: 3 messages; binomial bcast: 3.
        assert_eq!(inter_total, 6 * bytes);
        for (rank, ((_, staged, intra), _)) in out.iter().enumerate() {
            if rank % rpn == 0 {
                // Leader: reads 3 member slices, writes the result.
                assert_eq!(*staged, 4 * bytes, "leader rank {rank}");
            } else {
                // Member: writes its slice, reads the result.
                assert_eq!(*staged, 2 * bytes, "member rank {rank}");
            }
            // Node barriers are the only p2p intra traffic (0-byte).
            assert_eq!(*intra, 0, "rank {rank}");
        }
    }

    #[test]
    fn hier_collectives_are_reusable_back_to_back() {
        // Repeated calls share the same shm windows; the trailing
        // barrier must serialize reuse. Also mixes lengths to force
        // separate windows.
        let out = Cluster::new(8, 4, NetworkModel::ideal()).run(|c| {
            let mut acc = 0.0;
            for it in 0..5 {
                let v = c.hier_allreduce(vec![(c.rank() + it) as f64; 3 + it % 2]);
                acc += v[0];
                let g = c.hier_allgatherv(vec![c.rank() as u64; 1 + it % 3]);
                acc += g[7][0] as f64;
            }
            acc
        });
        let p = 8.0;
        let mut expect = 0.0;
        for it in 0..5 {
            expect += p * (p - 1.0) / 2.0 + it as f64 * p; // allreduce term
            expect += 7.0; // rank 7's gathered value
        }
        for (v, _) in &out {
            assert_eq!(*v, expect);
        }
    }

    #[test]
    fn hier_allreduce_cuts_inter_traffic_without_critical_path_regression() {
        // In the congestion-free link model, both the flat binomial
        // (whose tree is node-contiguous, so high masks are the only
        // inter hops) and the explicit two-level algorithm put about
        // log2(nodes) sequential inter-node transfers on the critical
        // path — the hierarchical win is *total* inter-node traffic, the
        // congestion proxy at paper scale. Use a non-power-of-two node
        // size so the flat tree also misaligns with node boundaries.
        let net = NetworkModel {
            topology: crate::topology::Topology::FullyConnected,
            hop_latency: 1e-6,
            sw_overhead: 1e-6,
            bandwidth: 1e9,
            shm_bandwidth: 1e11,
            shm_latency: 1e-8,
        };
        let p = 24;
        let rpn = 3;
        let n = 100_000usize;
        let flat = Cluster::new(p, rpn, net.clone()).run(move |c| {
            let _ = c.allreduce(vec![1.0f64; n]);
            (c.now(), c.stats.inter_bytes)
        });
        let hier = Cluster::new(p, rpn, net.clone()).run(move |c| {
            let _ = c.hier_allreduce(vec![1.0f64; n]);
            (c.now(), c.stats.inter_bytes)
        });
        let t_flat = flat.iter().map(|((t, _), _)| *t).fold(0.0f64, f64::max);
        let t_hier = hier.iter().map(|((t, _), _)| *t).fold(0.0f64, f64::max);
        let b_flat: u64 = flat.iter().map(|((_, b), _)| *b).sum();
        let b_hier: u64 = hier.iter().map(|((_, b), _)| *b).sum();
        assert!(
            b_hier * 2 < b_flat,
            "hier inter traffic {b_hier} should be well under flat {b_flat}"
        );
        assert!(
            t_hier < t_flat * 1.05,
            "hier critical path {t_hier:.6} must not regress vs flat {t_flat:.6}"
        );
    }

    #[test]
    fn hier_times_land_in_collective_categories() {
        let net = NetworkModel {
            topology: crate::topology::Topology::FullyConnected,
            hop_latency: 1e-6,
            sw_overhead: 0.0,
            bandwidth: 1e9,
            shm_bandwidth: 1e10,
            shm_latency: 1e-7,
        };
        let out = Cluster::new(8, 4, net).run(|c| {
            let _ = c.hier_allreduce(vec![1.0f64; 1000]);
            let _ = c.hier_allgatherv(vec![1.0f64; 100]);
            let _ = c.hier_alltoallv((0..8).map(|_| vec![0.0f64; 50]).collect());
            (
                c.stats.time(Category::Allreduce),
                c.stats.time(Category::Allgatherv),
                c.stats.time(Category::Alltoallv),
                c.stats.time(Category::Barrier),
            )
        });
        for (rank, ((ar, ag, av, bar), _)) in out.iter().enumerate() {
            assert!(*ar > 0.0, "rank {rank} allreduce time");
            assert!(*ag > 0.0, "rank {rank} allgatherv time");
            assert!(*av > 0.0, "rank {rank} alltoallv time");
            // The collectives' node barriers are attributed to the
            // collective, not to Barrier.
            assert_eq!(*bar, 0.0, "rank {rank} stray barrier time");
        }
    }
}
