//! Minimal data-parallel helpers built on scoped threads.
//!
//! This plays the role OpenMP plays in the paper's node-level code: a
//! `parallel for` over independent chunks (bands, grid planes, matrix row
//! blocks). We deliberately avoid a global thread-pool dependency:
//! scoped threads keep all borrows safe without `unsafe`, and small
//! workloads (below the `MIN_PARALLEL*` thresholds) run inline so spawn
//! overhead never dominates tiny grids.

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
/// workspace — band ranges over ranks, grid-point ranges for the
/// band↔grid transpose, and FFT slab planes in `pwfft`'s distributed
/// transform — so the layers can never disagree about who owns what.
pub fn block_range(n_items: usize, n_parts: usize, part: usize) -> std::ops::Range<usize> {
    assert!(n_parts > 0, "block_range needs at least one part");
    assert!(part < n_parts, "part {part} out of {n_parts}");
    let base = n_items / n_parts;
    let extra = n_items % n_parts;
    let start = part * base + part.min(extra);
    let len = base + usize::from(part < extra);
    start..start + len
}

/// Runs `body(start, end)` over disjoint index ranges covering `0..len`,
/// in parallel across up to `num_threads` workers.
///
/// `body` must be `Sync` because it is shared by all workers; disjointness
/// of the ranges is what makes per-range mutation safe at the call site
/// (callers split their output buffers with `chunks_mut`).
pub fn par_ranges<F>(len: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if len == 0 {
        return;
    }
    // Below this size, scoped-thread spawn overhead exceeds the work;
    // run inline (tiny systems and unit tests hit this constantly).
    const MIN_PARALLEL: usize = 4096;
    let workers = if len < MIN_PARALLEL { 1 } else { num_threads(len) };
    if workers == 1 {
        body(0, len);
        return;
    }
    let chunk = len.div_ceil(workers);
    std::thread::scope(|s| {
        for w in 0..workers {
            let start = w * chunk;
            let end = ((w + 1) * chunk).min(len);
            if start >= end {
                break;
            }
            let body = &body;
            s.spawn(move || body(start, end));
        }
    });
}

/// Below this many element-operations, spawning threads costs more than
/// it saves.
const MIN_PARALLEL_ELEMS: usize = 1 << 15;

/// Worker count for `items` independent work items of `work_per_item`
/// element-operations each: one (run inline) while the whole region is
/// below the spawn-overhead threshold, else up to one worker per item.
///
/// This is the work-weighted entry for regions whose item count says
/// nothing about their size — a partition of a 20-row accumulator whose
/// every row streams a megabyte-sized vector would look tiny to a
/// threshold on items alone.
pub fn workers_for(items: usize, work_per_item: usize) -> usize {
    if items.saturating_mul(work_per_item) < MIN_PARALLEL_ELEMS {
        1
    } else {
        num_threads(items)
    }
}

/// Applies `f` to every mutable chunk of `data` (each of `chunk_len`
/// elements, the last possibly shorter) in parallel, passing the chunk
/// index. This is the "parallel loop over bands" idiom: a wavefunction
/// array laid out band-major is processed band-by-band.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let workers = if data.len() < MIN_PARALLEL_ELEMS {
        1
    } else {
        num_threads(data.len().div_ceil(chunk_len))
    };
    par_chunks_mut_on(workers, data, chunk_len, f);
}

/// [`par_chunks_mut`] on an explicit number of workers (clamped to the
/// chunk count), for callers that size the region themselves with
/// [`workers_for`]. Which worker runs which chunk never affects what
/// `f` computes, so results do not depend on `workers`.
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
    let counter = AtomicUsize::new(0);
    // Collect raw chunk boundaries up front so each worker can claim chunks
    // dynamically (load balancing for uneven per-band costs).
    let chunks: Vec<&mut [T]> = data.chunks_mut(chunk_len).collect();
    let slots: Vec<parking_slot::Slot<T>> = chunks
        .into_iter()
        .map(|c| parking_slot::Slot(std::sync::Mutex::new(Some(c))))
        .collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let counter = &counter;
            let slots = &slots;
            let f = &f;
            s.spawn(move || loop {
                let i = counter.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let chunk = slots[i].0.lock().unwrap().take().expect("chunk claimed twice");
                f(i, chunk);
            });
        }
    });
}

mod parking_slot {
    //! One-shot hand-off cell used by the dynamic scheduler above.
    pub struct Slot<'a, T>(pub std::sync::Mutex<Option<&'a mut [T]>>);
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
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        par_ranges(1000, |a, b| {
            for i in a..b {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn ranges_empty_is_noop() {
        par_ranges(0, |_, _| panic!("must not be called"));
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
