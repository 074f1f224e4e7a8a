//! The wave scheduler of the exchange pair pipeline
//! ([`crate::backend::fused_pair_solve`] and its fp32 twin are
//! both this one function; they differ in the four closures they pass).
//!
//! A task list runs in fixed-size *waves*, each in two phases:
//!
//! 1. **solve** — workers claim the wave's tasks one at a time; each
//!    forms the pair density and runs the Poisson round trip into that
//!    task's own grid. Which worker solves which task changes nothing:
//!    a solve reads only its two source bands.
//! 2. **scatter** — every worker owns one contiguous *slice* of the grid
//!    ([`block_range`]) and applies all of the wave's scatters, in task
//!    order, to its slice of each target band.
//!
//! The scatter kernels are elementwise, so an output element sees
//! exactly the contributions, in exactly the order, of the serial loop
//! `for t in tasks { solve(t); scatter(t) }` — results are `to_bits`
//! equal at every worker count, for any task list (the pair-symmetric
//! enumerator scatters one grid into two bands, the asymmetric one into
//! one; neither matters here). One worker is a one-task wave on the
//! calling thread: the serial loop itself, nothing spawned.
//!
//! A barrier separates the phases (scatters read every grid of the
//! wave) and the waves (the next solves overwrite those grids). It is
//! poison-aware: a worker that panics releases its siblings, and the
//! original payload is re-raised on the calling thread.

use crate::backend::PairTask;
use crate::complex::Complex64;
use crate::parallel::block_range;
use parking_lot::RwLock;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tasks per wave on more than one worker. A constant, not an option:
/// it trades barrier cost against scratch and cache footprint, and the
/// trade is flat around this value — see DESIGN.md §11 for the
/// measurement (two barriers ≈ 2 % of a 32-task wave at 12³ on two
/// workers; 32 grids of 12³–16³ stay inside one core's L2).
pub(crate) const WAVE: usize = 32;

/// How long a worker spins at a barrier before it parks. Siblings
/// finish a phase within a task of each other (≈ 40 µs at 12³), and a
/// parked wait costs a 25–40 µs futex wake on top of that (measured on
/// the benchmark box), so spinning through roughly one task catches most
/// releases at 1–5 µs; the bound is what a descheduled sibling can cost
/// in CPU time per barrier.
const SPIN: Duration = Duration::from_micros(50);

/// One worker's slice of one output band, with the matching slice of
/// the compensation buffer when the scatter is two-sum compensated.
pub(crate) struct BandSlice<'a> {
    pub out: &'a mut [Complex64],
    pub comp: Option<&'a mut [Complex64]>,
}

/// Splits band-major `out` (and `comp`) into per-worker views: entry
/// `[w][b]` is worker `w`'s [`block_range`] slice of band `b`.
fn split_bands<'a>(
    out: &'a mut [Complex64],
    comp: Option<&'a mut [Complex64]>,
    ng: usize,
    workers: usize,
) -> Vec<Vec<BandSlice<'a>>> {
    let n_bands = out.len() / ng.max(1);
    let mut views: Vec<Vec<BandSlice<'a>>> =
        (0..workers).map(|_| Vec::with_capacity(n_bands)).collect();
    let mut comp_bands = comp.map(|c| c.chunks_mut(ng));
    for mut band in out.chunks_mut(ng) {
        let mut comp_band = comp_bands.as_mut().map(|it| it.next().expect("comp is out-sized"));
        for (w, view) in views.iter_mut().enumerate() {
            let len = block_range(ng, workers, w).len();
            let (head, tail) = band.split_at_mut(len);
            band = tail;
            let comp_head = comp_band.take().map(|c| {
                let (head, tail) = c.split_at_mut(len);
                comp_band = Some(tail);
                head
            });
            view.push(BandSlice { out: head, comp: comp_head });
        }
    }
    views
}

/// A reusable barrier for a fixed party of workers that a panicking
/// worker can *poison*: every present and future [`WaveBarrier::wait`]
/// then returns `false` instead of blocking.
struct WaveBarrier {
    parties: usize,
    /// Workers arrived in the current generation. Never held across
    /// caller code, so a poisoned mutex still guards a valid count.
    arrived: Mutex<usize>,
    /// Bumped (under `arrived`'s lock) each time the barrier releases.
    generation: AtomicUsize,
    poisoned: AtomicBool,
    release: Condvar,
}

impl WaveBarrier {
    fn new(parties: usize) -> Self {
        WaveBarrier {
            parties,
            arrived: Mutex::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            release: Condvar::new(),
        }
    }

    fn released(&self, generation: usize) -> bool {
        self.generation.load(Ordering::SeqCst) != generation
            || self.poisoned.load(Ordering::SeqCst)
    }

    /// Blocks until all parties have arrived (`true`) or one has
    /// panicked (`false`): a bounded spin, then a parked wait.
    fn wait(&self) -> bool {
        if self.parties > 1 {
            let mut arrived = self.arrived.lock().unwrap_or_else(PoisonError::into_inner);
            let generation = self.generation.load(Ordering::SeqCst);
            *arrived += 1;
            if *arrived == self.parties {
                *arrived = 0;
                self.generation.store(generation.wrapping_add(1), Ordering::SeqCst);
                drop(arrived);
                self.release.notify_all();
            } else {
                drop(arrived);
                let spin_start = Instant::now();
                while !self.released(generation) && spin_start.elapsed() < SPIN {
                    std::hint::spin_loop();
                }
                // The releaser bumps the generation under the lock and
                // the poisoner takes it before notifying, so a waiter
                // that checks under the lock cannot miss either.
                let mut arrived = self.arrived.lock().unwrap_or_else(PoisonError::into_inner);
                while !self.released(generation) {
                    arrived =
                        self.release.wait(arrived).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        !self.poisoned.load(Ordering::SeqCst)
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        drop(self.arrived.lock().unwrap_or_else(PoisonError::into_inner));
        self.release.notify_all();
    }
}

/// Poisons the barrier when the worker holding it unwinds.
struct PoisonOnPanic<'a>(&'a WaveBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Runs `tasks` through the wave scheduler on `workers` workers (the
/// calling thread is one of them).
///
/// * `take(len)` / `put(buf)` — the scratch pool; called on
///   the calling thread only. The run holds `min(wave, tasks)` pair
///   grids of `ng` elements.
/// * `solve(task, pair)` — fills `pair` with the solved pair grid of
///   `task`.
/// * `scatter(task, pair_slice, range, bands)` — applies the task's
///   scatters restricted to grid points `range`: `pair_slice` is that
///   range of the solved grid, `bands[b]` that range of output band `b`.
///   Must be elementwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<T: Send + Sync>(
    workers: usize,
    ng: usize,
    tasks: &[PairTask],
    out: &mut [Complex64],
    comp: Option<&mut [Complex64]>,
    take: impl Fn(usize) -> Vec<T>,
    put: impl Fn(Vec<T>),
    solve: impl Fn(&PairTask, &mut [T]) + Sync,
    scatter: impl Fn(&PairTask, &[T], Range<usize>, &mut [BandSlice<'_>]) + Sync,
) {
    if tasks.is_empty() {
        return;
    }
    let workers = workers.clamp(1, tasks.len());
    let wave = if workers == 1 { 1 } else { WAVE };
    let grids: Vec<RwLock<Vec<T>>> =
        (0..wave.min(tasks.len())).map(|_| RwLock::new(take(ng))).collect();
    let mut views = split_bands(out, comp, ng, workers);

    let barrier = WaveBarrier::new(workers);
    // Relaxed: the counter only hands out task indices; the grids travel
    // through their locks and the phases through the barrier.
    let next = AtomicUsize::new(0);
    let worker = |w: usize, bands: &mut [BandSlice<'_>]| {
        let _poison = PoisonOnPanic(&barrier);
        let slice = block_range(ng, workers, w);
        for (n, wave_tasks) in tasks.chunks(wave).enumerate() {
            let (base, end) = (n * wave, n * wave + wave_tasks.len());
            while let Ok(k) = next.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| {
                (k < end).then_some(k + 1)
            }) {
                solve(&tasks[k], &mut grids[k - base].write());
            }
            if !barrier.wait() {
                return;
            }
            for (t, grid) in wave_tasks.iter().zip(&grids) {
                scatter(t, &grid.read()[slice.clone()], slice.clone(), bands);
            }
            if !barrier.wait() {
                return;
            }
        }
    };

    let mut jobs = views.iter_mut().enumerate();
    let (_, bands0) = jobs.next().expect("at least one worker");
    if workers == 1 {
        worker(0, bands0);
    } else {
        std::thread::scope(|s| {
            let worker = &worker;
            let spawned: Vec<_> =
                jobs.map(|(w, bands)| s.spawn(move || worker(w, bands))).collect();
            worker(0, bands0);
            for handle in spawned {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }
    drop(views);
    grids.into_iter().map(RwLock::into_inner).for_each(put);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_bands_tiles_every_band_per_worker() {
        let (ng, nb) = (7, 3);
        for workers in [1, 2, 3, 5] {
            let mut out: Vec<Complex64> =
                (0..ng * nb).map(|k| Complex64::from_re(k as f64)).collect();
            let mut comp = out.clone();
            let views = split_bands(&mut out, Some(&mut comp), ng, workers);
            assert_eq!(views.len(), workers);
            for b in 0..nb {
                let mut at = b * ng;
                for (w, view) in views.iter().enumerate() {
                    let r = block_range(ng, workers, w);
                    assert_eq!(view[b].out.len(), r.len());
                    assert_eq!(view[b].comp.as_ref().map(|c| c.len()), Some(r.len()));
                    for (x, c) in view[b].out.iter().zip(view[b].comp.as_deref().unwrap()) {
                        assert_eq!((x.re, c.re), (at as f64, at as f64));
                        at += 1;
                    }
                }
                assert_eq!(at, (b + 1) * ng);
            }
        }
    }

    #[test]
    fn barrier_releases_generations_and_poison_frees_waiters() {
        let barrier = WaveBarrier::new(3);
        let passed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert!(barrier.wait());
                        passed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(passed.load(Ordering::SeqCst), 150);
        // Two of three arrive and park; poisoning must free them.
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2).map(|_| s.spawn(|| barrier.wait())).collect();
            while *barrier.arrived.lock().unwrap() < 2 {
                std::thread::yield_now();
            }
            barrier.poison();
            for w in waiters {
                assert!(!w.join().unwrap());
            }
        });
        assert!(!barrier.wait(), "a poisoned barrier never blocks again");
    }
}
