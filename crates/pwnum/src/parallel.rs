//! Minimal data-parallel helpers built on scoped threads.
//!
//! This plays the role OpenMP plays in the paper's node-level code: a
//! `parallel for` over independent chunks (bands, grid planes, matrix row
//! blocks). Scoped threads keep every borrow safe without `unsafe`, and
//! the calling thread always works as one of the region's workers, so a
//! region on `w` workers spawns `w - 1` threads.
//!
//! **One sizing rule.** Every region asks [`workers_for`] how many
//! workers its *work* — items × element-operations per item — is worth:
//! one (run inline, nothing spawned, nothing allocated) below
//! [`MIN_PARALLEL_ELEMS`], else up to `PWDFT_NUM_THREADS`. A threshold
//! on the item count alone cannot tell a 32-row GEMM whose every row is
//! 10⁵ multiply-adds from a 32-element copy; a threshold on the buffer
//! length alone cannot tell an FFT from a scale.
//!
//! Which worker runs which chunk never changes what a chunk computes:
//! every helper here hands each output chunk to exactly one worker, so
//! results are identical at any worker count.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use for data-parallel regions.
///
/// Defaults to the machine's available parallelism, clamped to `max`.
/// Respects the `PWDFT_NUM_THREADS` environment variable when set
/// (mirroring `OMP_NUM_THREADS` in the paper's runs).
pub fn num_threads(max: usize) -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let mut n = CACHED.load(Ordering::Relaxed);
    if n == 0 {
        n = std::env::var("PWDFT_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
            });
        CACHED.store(n, Ordering::Relaxed);
    }
    n.min(max).max(1)
}

/// Balanced contiguous block partition: the sub-range of `0..n_items`
/// owned by `part` of `n_parts`. The first `n_items % n_parts` parts get
/// one extra item, so sizes differ by at most one and the ranges tile
/// `0..n_items` exactly.
///
/// This is the single source of truth for every 1-D ownership map in the
/// workspace — band ranges over ranks and grid-point ranges for the
/// band↔grid transpose — so the layers can never disagree about who owns
/// what.
pub fn block_range(n_items: usize, n_parts: usize, part: usize) -> std::ops::Range<usize> {
    assert!(n_parts > 0, "block_range needs at least one part");
    assert!(part < n_parts, "part {part} out of {n_parts}");
    let base = n_items / n_parts;
    let extra = n_items % n_parts;
    let start = part * base + part.min(extra);
    let len = base + usize::from(part < extra);
    start..start + len
}

/// Below this many element-operations a region runs inline: ≈ 100 µs of
/// serial work at the ≈ 0.75 ns a streamed complex multiply costs, five
/// times the ≈ 18 µs one scoped-thread spawn costs (both measured on the
/// 2-vCPU benchmark box), so a region that does go parallel recovers
/// its spawn several times over.
pub const MIN_PARALLEL_ELEMS: usize = 1 << 17;

#[cfg(test)]
thread_local! {
    /// Test override of [`workers_for`] on this thread (0 = none).
    static FORCED_WORKERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `f` with every region opened from this thread sized to exactly
/// `workers` (clamped to its item count), whatever its work and whatever
/// `PWDFT_NUM_THREADS` says — how the bit-identity tests reach worker
/// counts the box does not have, on inputs small enough to check.
#[cfg(test)]
pub(crate) fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    let prev = FORCED_WORKERS.replace(workers);
    let out = f();
    FORCED_WORKERS.set(prev);
    out
}

/// Worker count for `items` independent work items of `work_per_item`
/// element-operations each: one (run inline) while the whole region is
/// below [`MIN_PARALLEL_ELEMS`], else up to one worker per item.
///
/// This is the only sizing rule in the workspace. An element-operation
/// is one streamed complex multiply-add; callers pass rows × row cost
/// for GEMM-shaped regions, chunks × chunk length for elementwise ones,
/// grids × (points × per-point transform cost) for FFT batches.
pub fn workers_for(items: usize, work_per_item: usize) -> usize {
    #[cfg(test)]
    if FORCED_WORKERS.get() > 0 {
        return FORCED_WORKERS.get().min(items).max(1);
    }
    if items.saturating_mul(work_per_item) < MIN_PARALLEL_ELEMS {
        1
    } else {
        num_threads(items)
    }
}

/// Runs `body(start, end)` over balanced disjoint index ranges covering
/// `0..len` ([`block_range`]), on [`workers_for`]`(len, work_per_item)`
/// workers.
///
/// `body` must be `Sync` because it is shared by all workers; disjointness
/// of the ranges is what makes per-range mutation safe at the call site
/// (callers split their output buffers with `chunks_mut`).
pub fn par_ranges<F>(len: usize, work_per_item: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if len == 0 {
        return;
    }
    let workers = workers_for(len, work_per_item);
    if workers == 1 {
        return body(0, len);
    }
    let run = |w: usize| {
        let r = block_range(len, workers, w);
        body(r.start, r.end);
    };
    std::thread::scope(|s| {
        for w in 1..workers {
            let run = &run;
            s.spawn(move || run(w));
        }
        run(0);
    });
}

/// Applies `f` to every mutable chunk of `data` (each of `chunk_len`
/// elements, the last possibly shorter) in parallel, passing the chunk
/// index — the "parallel loop over bands" idiom for *elementwise* bodies
/// (one element-operation per element). Bodies that do more per element
/// size themselves with [`workers_for`] and call [`par_chunks_mut_on`].
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let workers = workers_for(data.len().div_ceil(chunk_len), chunk_len);
    par_chunks_mut_on(workers, data, chunk_len, f);
}

/// [`par_chunks_mut`] on an explicit number of workers (clamped to the
/// chunk count), for callers that size the region themselves with
/// [`workers_for`]. Workers claim chunks dynamically; which worker runs
/// which chunk never affects what `f` computes, so results do not depend
/// on `workers`.
pub fn par_chunks_mut_on<T, F>(workers: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = workers.min(n_chunks);
    if workers <= 1 {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            f(i, c);
        }
        return;
    }
    // One-shot hand-off cells so each worker can claim chunks dynamically
    // (load balancing for uneven per-chunk costs and a disturbed core).
    let slots: Vec<Mutex<Option<&mut [T]>>> =
        data.chunks_mut(chunk_len).map(|c| Mutex::new(Some(c))).collect();
    // Relaxed: the counter only hands out indices; each chunk travels
    // through its slot's mutex.
    let counter = AtomicUsize::new(0);
    let run = || loop {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let chunk = slot.lock().take().expect("chunk claimed twice");
        f(i, chunk);
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(run);
        }
        run();
    });
}

/// Parallel map over indices `0..len`, collecting results in order.
pub fn par_map<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); len];
    {
        let out_slice = &mut out[..];
        let f = &f;
        par_chunks_mut(out_slice, 1, move |i, c| {
            c[0] = f(i);
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn ranges_cover_everything_once() {
        for workers in [1, 2, 3, 7] {
            let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
            with_workers(workers, || {
                par_ranges(1000, 1, |a, b| {
                    for hit in &hits[a..b] {
                        hit.fetch_add(1, Ordering::Relaxed);
                    }
                })
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "workers={workers}");
        }
    }

    #[test]
    fn ranges_empty_is_noop() {
        par_ranges(0, usize::MAX, |_, _| panic!("must not be called"));
    }

    #[test]
    fn chunks_mut_processes_all_chunks() {
        let mut data = vec![0u64; 37];
        par_chunks_mut(&mut data, 5, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v = idx as u64 + 1;
            }
        });
        // 37 = 7 chunks of 5 + 1 chunk of 2.
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 5) as u64 + 1);
        }
    }

    #[test]
    fn chunks_mut_on_explicit_workers_visits_each_chunk_once() {
        // 7 rows of 3 over more workers than a 21-element slice would
        // ever get from the size threshold, and over more than rows.
        for workers in [1, 2, 3, 16] {
            let mut data = vec![0u64; 21];
            par_chunks_mut_on(workers, &mut data, 3, |idx, chunk| {
                for v in chunk.iter_mut() {
                    *v += idx as u64 + 1;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, (i / 3) as u64 + 1, "workers={workers}");
            }
        }
    }

    #[test]
    fn workers_for_weighs_items_by_their_work() {
        // Few items are still a parallel region when each is heavy...
        assert_eq!(workers_for(20, 1 << 20), num_threads(20));
        // ...and many trivial ones are not.
        assert_eq!(workers_for(1000, 1), 1);
        assert_eq!(workers_for(0, usize::MAX), 1);
        // The same region on either side of the threshold.
        assert_eq!(workers_for(32, MIN_PARALLEL_ELEMS / 32 - 1), 1);
        assert_eq!(workers_for(32, MIN_PARALLEL_ELEMS / 32), num_threads(32));
        // The test override wins over both, clamped to the item count.
        assert_eq!(with_workers(5, || workers_for(1000, 1)), 5);
        assert_eq!(with_workers(5, || workers_for(3, usize::MAX)), 3);
    }

    #[test]
    fn par_map_ordered() {
        let v = par_map(100, |i| i * i);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn num_threads_at_least_one() {
        assert!(num_threads(usize::MAX) >= 1);
        assert_eq!(num_threads(1), 1);
    }

    #[test]
    fn block_range_tiles_exactly() {
        for (n, p) in [(10, 3), (4, 4), (0, 2), (7, 1), (3, 5), (1728, 16)] {
            let mut next = 0;
            for r in 0..p {
                let range = block_range(n, p, r);
                assert_eq!(range.start, next, "n={n} p={p} r={r}");
                next = range.end;
                // Balanced: sizes differ by at most one.
                assert!(range.len() == n / p || range.len() == n / p + 1);
            }
            assert_eq!(next, n, "n={n} p={p} must be fully covered");
        }
    }

    #[test]
    fn block_range_matches_loop_of_counts() {
        // The incremental definition (start = sum of earlier counts) and
        // the closed form must agree.
        let (n, p) = (23, 6);
        let mut start = 0;
        for r in 0..p {
            let range = block_range(n, p, r);
            assert_eq!(range.start, start);
            start += range.len();
        }
    }
}
