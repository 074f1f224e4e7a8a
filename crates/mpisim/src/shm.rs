//! MPI-3 style shared-memory windows (paper Sec. IV-B3).
//!
//! The paper stores the non-scalable square matrices (σ, Φ\*Φ, Φ\*HΦ) in
//! MPI SHM windows so the `p` ranks of a node share one copy, cutting that
//! footprint to `1/p`. Here a window is one heap allocation shared by the
//! ranks of a simulated node; the accounting fields of
//! [`crate::stats::Stats`] record both the shared cost and what the rank
//! *would* have paid privately, which is what the Fig. 11 memory model
//! checks against. As in the paper, the mechanism trades a little access
//! locality (NUMA) for memory: we model that penalty in `perfmodel`, not
//! here — data-plane access is plain memory.

use crate::comm::Comm;
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Process-wide registry mapping `(node, window id)` to live windows.
#[derive(Default)]
pub struct ShmRegistry {
    entries: Mutex<HashMap<(usize, u64), Box<dyn Any + Send + Sync>>>,
}

impl ShmRegistry {
    fn get_or_create<T: Copy + Default + Send + Sync + 'static>(
        &self,
        node: usize,
        id: u64,
        len: usize,
    ) -> Arc<RwLock<Vec<T>>> {
        let mut map = self.entries.lock();
        let entry = map
            .entry((node, id))
            .or_insert_with(|| Box::new(Arc::new(RwLock::new(vec![T::default(); len]))));
        let arc = entry
            .downcast_ref::<Arc<RwLock<Vec<T>>>>()
            .expect("shm window reopened with a different element type");
        assert_eq!(arc.read().len(), len, "shm window reopened with a different length");
        Arc::clone(arc)
    }
}

/// A node-shared buffer of `T`.
#[derive(Clone)]
pub struct ShmWindow<T> {
    buf: Arc<RwLock<Vec<T>>>,
}

impl<T: Copy + Default + Send + Sync + 'static> ShmWindow<T> {
    /// Number of elements in the window.
    pub fn len(&self) -> usize {
        self.buf.read().len()
    }

    /// True when the window holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes `data` at `offset`. Ranks writing disjoint regions is the
    /// intended pattern (each rank fills its slice of Φ\*Φ).
    pub fn write(&self, offset: usize, data: &[T]) {
        let mut buf = self.buf.write();
        buf[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Copies `out.len()` elements starting at `offset` into `out`.
    pub fn read(&self, offset: usize, out: &mut [T]) {
        let buf = self.buf.read();
        out.copy_from_slice(&buf[offset..offset + out.len()]);
    }

    /// Runs `f` with a read view of the whole window.
    pub fn with<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        f(&self.buf.read())
    }

}

impl Comm {
    /// Opens (or attaches to) the node-shared window `id` of `len`
    /// elements. All ranks of a node must call this with the same `id`,
    /// type and length; contents start zeroed/default.
    ///
    /// Memory accounting: each rank is charged `size/ranks_per_node`
    /// shared bytes plus the full size in `unshared_equivalent_bytes`.
    pub fn shm_window<T: Copy + Default + Send + Sync + 'static>(
        &mut self,
        id: u64,
        len: usize,
    ) -> ShmWindow<T> {
        let node = self.node();
        let arc = self.shm.get_or_create::<T>(node, id, len);
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let node_size = self.node_ranks().len() as u64;
        self.stats.shm_bytes += bytes / node_size.max(1);
        self.stats.unshared_equivalent_bytes += bytes;
        ShmWindow { buf: arc }
    }

    /// Internal window attach for the hierarchical collectives: same
    /// registry, but no footprint accounting — collective staging
    /// buffers are transient scratch, not the resident σ/Φ\*Φ state the
    /// Sec. IV-B3 memory model tracks. Data movement through the window
    /// is priced separately via `charge_shm`.
    pub(crate) fn shm_window_internal<T: Copy + Default + Send + Sync + 'static>(
        &mut self,
        id: u64,
        len: usize,
    ) -> ShmWindow<T> {
        let node = self.node();
        ShmWindow { buf: self.shm.get_or_create::<T>(node, id, len) }
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::Cluster;
    use crate::topology::NetworkModel;

    #[test]
    fn ranks_on_same_node_share_data() {
        let out = Cluster::new(4, 2, NetworkModel::ideal()).run(|c| {
            let win = c.shm_window::<f64>(1, 8);
            // Each rank writes its quarter... here: each rank of the node
            // writes half the window.
            let local = c.rank() % 2;
            win.write(local * 4, &[c.rank() as f64; 4]);
            c.node_barrier();
            let mut all = vec![0.0; 8];
            win.read(0, &mut all);
            all
        });
        // Node 0 (ranks 0,1): [0,0,0,0,1,1,1,1]; node 1 (ranks 2,3): [2,2,2,2,3,3,3,3].
        assert_eq!(out[0].0, vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(out[1].0, out[0].0);
        assert_eq!(out[2].0, vec![2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]);
        assert_eq!(out[3].0, out[2].0);
    }

    #[test]
    fn different_nodes_do_not_share() {
        let out = Cluster::new(2, 1, NetworkModel::ideal()).run(|c| {
            let win = c.shm_window::<u64>(9, 4);
            win.write(0, &[c.rank() as u64 + 10; 4]);
            c.barrier();
            let mut v = vec![0u64; 4];
            win.read(0, &mut v);
            v
        });
        assert_eq!(out[0].0, vec![10; 4]);
        assert_eq!(out[1].0, vec![11; 4]);
    }

    #[test]
    fn memory_accounting_divides_by_node_size() {
        let out = Cluster::new(4, 4, NetworkModel::ideal()).run(|c| {
            let _w = c.shm_window::<f64>(2, 1000); // 8000 bytes
            (c.stats.shm_bytes, c.stats.unshared_equivalent_bytes)
        });
        for ((shm, unshared), _) in &out {
            assert_eq!(*shm, 2000);
            assert_eq!(*unshared, 8000);
        }
    }

    #[test]
    #[should_panic(expected = "different length")]
    fn mismatched_reopen_panics() {
        // No rank may block after the expected panic: the surviving rank
        // must run to completion or the scope join deadlocks.
        Cluster::new(2, 2, NetworkModel::ideal()).run(|c| {
            if c.rank() == 0 {
                let _ = c.shm_window::<f64>(3, 10);
                // Tell rank 1 the window exists, then finish.
                c.send(1, 1, ());
            } else {
                let () = c.recv(0, 1);
                let _ = c.shm_window::<f64>(3, 20); // panics
            }
        });
    }
}
