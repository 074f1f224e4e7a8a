//! Network topology and timing model.
//!
//! The paper evaluates on two interconnects: Fugaku's 6D torus (Tofu-D)
//! and a fat-tree GPU cluster. The ring-based optimization (Sec. IV-B1)
//! wins precisely because neighbor exchanges are single-hop on a torus
//! while broadcasts traverse the whole machine, so the hop model here is
//! what lets the simulator reproduce Fig. 9's Ring/Async gains and
//! Table I's communication-time shifts.

/// Interconnect topology; determines hop counts between compute nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum Topology {
    /// Every node pair is one hop apart (idealised crossbar).
    FullyConnected,
    /// A k-dimensional torus with the given extents (product = node count).
    /// Fugaku is modelled as a 6D torus.
    Torus(Vec<usize>),
    /// A two-level fat tree: `radix` nodes per leaf switch; intra-switch
    /// traffic is 2 hops (up/down), inter-switch 4 hops.
    FatTree { radix: usize },
}

impl Topology {
    /// Hop count between two *nodes* (not ranks).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        if a == b {
            return 0;
        }
        match self {
            Topology::FullyConnected => 1,
            Topology::Torus(dims) => {
                let mut ca = Self::coords(a, dims);
                let cb = Self::coords(b, dims);
                let mut h = 0;
                for (i, d) in dims.iter().enumerate() {
                    let x = ca[i].abs_diff(cb[i]);
                    h += x.min(d - x);
                }
                ca.clear();
                h.max(1)
            }
            Topology::FatTree { radix } => {
                if a / radix == b / radix {
                    2
                } else {
                    4
                }
            }
        }
    }

    fn coords(mut idx: usize, dims: &[usize]) -> Vec<usize> {
        let mut c = Vec::with_capacity(dims.len());
        for d in dims {
            c.push(idx % d);
            idx /= d;
        }
        c
    }

    /// Number of nodes the topology can address.
    pub fn node_capacity(&self) -> Option<usize> {
        match self {
            Topology::FullyConnected => None,
            Topology::Torus(dims) => Some(dims.iter().product()),
            Topology::FatTree { .. } => None,
        }
    }

    /// Builds a roughly balanced torus for `n` nodes with the given
    /// dimensionality (used to model Fugaku allocations of arbitrary size).
    pub fn balanced_torus(n: usize, ndim: usize) -> Topology {
        assert!(n > 0 && ndim > 0);
        let mut dims = vec![1usize; ndim];
        let mut remaining = n;
        // Greedy: repeatedly multiply the smallest dimension by the
        // smallest prime factor of the remaining count.
        while remaining > 1 {
            let p = smallest_prime_factor(remaining);
            let i = (0..ndim).min_by_key(|&i| dims[i]).unwrap();
            dims[i] *= p;
            remaining /= p;
        }
        dims.sort_unstable();
        Topology::Torus(dims)
    }
}

fn smallest_prime_factor(n: usize) -> usize {
    if n.is_multiple_of(2) {
        return 2;
    }
    let mut p = 3;
    while p * p <= n {
        if n.is_multiple_of(p) {
            return p;
        }
        p += 2;
    }
    n
}

/// Latency/bandwidth model of a cluster interconnect.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// Topology of the inter-node network.
    pub topology: Topology,
    /// Per-hop wire + switch latency (seconds).
    pub hop_latency: f64,
    /// Software/injection overhead per message (seconds); paid by both
    /// sender and receiver once per message regardless of distance.
    pub sw_overhead: f64,
    /// Link bandwidth for inter-node messages (bytes/second).
    pub bandwidth: f64,
    /// Effective bandwidth for intra-node (shared-memory) transfers.
    pub shm_bandwidth: f64,
    /// Latency for intra-node transfers.
    pub shm_latency: f64,
}

impl NetworkModel {
    /// An ideal zero-cost network — used by correctness tests so virtual
    /// time never influences results.
    pub fn ideal() -> Self {
        NetworkModel {
            topology: Topology::FullyConnected,
            hop_latency: 0.0,
            sw_overhead: 0.0,
            bandwidth: f64::INFINITY,
            shm_bandwidth: f64::INFINITY,
            shm_latency: 0.0,
        }
    }

    /// Fugaku-like Tofu-D torus (per-link ~6.8 GB/s, ~1 µs end-to-end).
    pub fn fugaku(nodes: usize) -> Self {
        NetworkModel {
            topology: Topology::balanced_torus(nodes, 6),
            hop_latency: 0.24e-6,
            sw_overhead: 0.6e-6,
            bandwidth: 6.8e9,
            shm_bandwidth: 2.0e11,
            shm_latency: 0.15e-6,
        }
    }

    /// Wall-clock cost of moving `bytes` from node `a` to node `b`.
    pub fn transfer_time(&self, node_a: usize, node_b: usize, bytes: usize) -> f64 {
        if node_a == node_b {
            self.shm_latency + bytes as f64 / self.shm_bandwidth
        } else {
            let hops = self.topology.hops(node_a, node_b) as f64;
            self.sw_overhead + hops * self.hop_latency + bytes as f64 / self.bandwidth
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_connected_hops() {
        let t = Topology::FullyConnected;
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 99), 1);
    }

    #[test]
    fn torus_wraps_around() {
        let t = Topology::Torus(vec![4, 4]);
        assert_eq!(t.hops(0, 3), 1, "ring wrap in first dimension");
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 2), 2);
        // Node 5 = (1,1): manhattan distance 2 from origin.
        assert_eq!(t.hops(0, 5), 2);
        assert_eq!(t.node_capacity(), Some(16));
    }

    #[test]
    fn torus_neighbors_single_hop() {
        // Ring embedding: consecutive node ids differ by one coordinate step.
        let t = Topology::Torus(vec![8]);
        for i in 0..8 {
            assert_eq!(t.hops(i, (i + 1) % 8), 1, "neighbor {i}");
        }
        assert_eq!(t.hops(0, 4), 4, "antipode");
    }

    #[test]
    fn fat_tree_two_levels() {
        let t = Topology::FatTree { radix: 4 };
        assert_eq!(t.hops(0, 1), 2);
        assert_eq!(t.hops(0, 3), 2);
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.hops(5, 13), 4);
    }

    #[test]
    fn balanced_torus_covers_n() {
        for n in [1, 2, 12, 48, 960] {
            if let Topology::Torus(dims) = Topology::balanced_torus(n, 6) {
                assert_eq!(dims.iter().product::<usize>(), n);
                assert_eq!(dims.len(), 6);
            } else {
                panic!("not a torus");
            }
        }
    }

    #[test]
    fn transfer_time_monotone_in_bytes() {
        let m = NetworkModel::fugaku(64);
        let t1 = m.transfer_time(0, 5, 1_000);
        let t2 = m.transfer_time(0, 5, 1_000_000);
        assert!(t2 > t1);
        // Intra-node is cheaper than inter-node for the same size.
        assert!(m.transfer_time(3, 3, 1_000_000) < m.transfer_time(0, 5, 1_000_000));
    }

    #[test]
    fn ideal_network_is_free() {
        let m = NetworkModel::ideal();
        assert_eq!(m.transfer_time(0, 9, 123456789), 0.0);
    }
}
