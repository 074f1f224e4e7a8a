//! The hot kernels, one implementation each: GEMM, the band-block
//! overlap and rotations, batched grid transforms, the fused exchange
//! pair pipelines and the buffer pools they draw scratch from.
//!
//! The paper builds one tuned baseline per platform rather than a
//! swappable layer, and so does this crate. The kernels mirror its GPU
//! strategy (Sec. III-B): one register-tiled micro-kernel over packed
//! panels behind GEMM, overlap and rotation in both precisions
//! (`tiled`), slab-decomposed batched grid transforms, and a
//! process-wide thread-safe buffer pool ([`take_buffer`]) that makes
//! the Fock/ACE inner loops allocation-free in steady state. Each
//! compute kernel opens the `pwobs` span (`gemm.*`,
//! `fft.transform_batch`, `xch.*`) that attributes its time — one
//! relaxed atomic load per call while the recorder is disabled.
//! Streaming elementwise kernels with one obvious loop (band linear
//! combinations, Hadamard products, the kernel×field multiply) are free
//! functions in [`bands`], [`cvec`] and [`precision`].
//!
//! Every kernel equals its plain scalar loop bit for bit: the fp64
//! GEMM and band kernels equal [`crate::gemm::gemm`] and
//! [`bands::overlap`] / [`bands::rotate`] / [`bands::rotate_acc`], the
//! fp32 ones their test-only oracles, and the batched transforms the
//! one-grid-at-a-time loop (the unit tests compare `to_bits` on every
//! tile edge; `tests/backend_properties.rs` property-tests random
//! shapes).
//!
//! [`default_backend`] and its handle exist only for the repo
//! benchmark's harness, which names them (module `compat`).

use crate::bands;
use crate::cmat::CMat;
use crate::complex::Complex64;
use crate::cvec;
use crate::gemm::{packed, packed_cols, Op};
use crate::parallel::{par_chunks_mut_on, workers_for};
use crate::precision::{self, CMat32, Complex32};
use crate::tiled;
use crate::waves;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

mod compat;
pub use compat::{default_backend, DefaultBackend};

/// One grid-sized pass of a batched transform (e.g. a forward or inverse
/// 3-D FFT over one grid). `pwfft` implements this for its plans; keeping
/// the trait here (below the FFT crate in the DAG) lets
/// [`transform_batch`] own the *batching strategy* — slab decomposition
/// and thread count — without depending on any particular transform.
pub trait GridTransform: Sync {
    /// Number of elements in one grid.
    fn grid_len(&self) -> usize;
    /// Transforms one grid in place.
    fn run(&self, grid: &mut [Complex64]);
}

/// Single-precision twin of [`GridTransform`]: one pass of a batched
/// fp32 transform (the fp32 screened-Poisson FFT of the mixed-precision
/// exchange path). Implemented by `pwfft`'s fp32 plans.
pub trait GridTransform32: Sync {
    /// Number of elements in one grid.
    fn grid_len(&self) -> usize;
    /// Transforms one grid in place.
    fn run(&self, grid: &mut [Complex32]);
}

/// Element-operations (see [`workers_for`]) one grid transform costs per
/// grid point — how FFT batches are sized as parallel regions: a 3-D
/// transform of 12³–16³ points measures ≈ 12–14 ns per point against
/// ≈ 0.75 ns per streamed complex multiply.
pub const TRANSFORM_WORK_PER_POINT: usize = 16;

/// Element-operations one pair task costs per grid point: the Poisson
/// round trip (two transforms) plus the density and scatter sweeps.
const PAIR_WORK_PER_POINT: usize = 2 * TRANSFORM_WORK_PER_POINT + 4;

/// One exchange pair solve of the fused pipeline: solve the pair
/// density `conj(phi_i) ⊙ psi_j` through the screened-Poisson transform
/// and scatter the result into up to two output bands.
///
/// The weights are the (real) occupation factors of the Fock scatter;
/// a weight of exactly `0.0` skips that scatter — how the scheduler
/// encodes occupation screening and the diagonal `i == j` case without
/// a second task shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairTask {
    /// Band index into `phi` (and the reverse-scatter target in `out`).
    pub i: usize,
    /// Band index into `psi` (and the forward-scatter target in `out`).
    pub j: usize,
    /// Forward-scatter weight: `out_j += w_fwd · W_ij ⊙ phi_i`
    /// (`0.0` = skip).
    pub w_fwd: f64,
    /// Reverse-scatter weight: `out_i += w_rev · conj(W_ij) ⊙ psi_j`
    /// (`0.0` = skip — always for the asymmetric scheduler and the
    /// diagonal of the symmetric one).
    pub w_rev: f64,
}

/// High-water-mark accounting of one buffer pool (per element type).
/// A checkout is charged the bytes it asked for, not the capacity of the
/// recycled buffer that served it, so the peak of a call does not depend
/// on what earlier calls left in the pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolTypeStats {
    /// Bytes asked for by the checkouts not yet returned.
    pub outstanding_bytes: usize,
    /// Peak bytes simultaneously checked out since construction (or the
    /// last [`reset_pool_peak`]).
    pub peak_bytes: usize,
}

/// Pool accounting for both element types the pools hold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// The `Complex64` pool.
    pub fp64: PoolTypeStats,
    /// The `Complex32` pool.
    pub fp32: PoolTypeStats,
}

/// Bounded thread-safe free list of scratch buffers, generic over the
/// element type so the fp64 and fp32 pipelines each pool their own
/// arenas.
///
/// `take` is best-fit: it hands out the *smallest* pooled buffer that
/// satisfies the request, so a batch-sized arena is not wasted on a
/// line-sized ask; `put` drops buffers beyond the count and byte caps
/// rather than growing without bound. A buffer is charged its length, so
/// it goes back at the length it was handed out with.
#[derive(Debug)]
pub(crate) struct BufferPool<T> {
    slots: Mutex<Vec<Vec<T>>>,
    /// Bytes asked for by the buffers taken but not yet `put` back.
    outstanding_bytes: AtomicUsize,
    /// Peak of `outstanding_bytes` since construction / last reset —
    /// the high-water mark the pair-pipeline scratch tests assert on.
    peak_bytes: AtomicUsize,
}

impl<T> BufferPool<T> {
    pub(crate) const fn new() -> Self {
        BufferPool {
            slots: Mutex::new(Vec::new()),
            outstanding_bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
        }
    }
}

/// Maximum number of buffers the pool retains.
const POOL_CAP: usize = 64;

/// Maximum total bytes the pool retains (1 GiB): one production-sized
/// Fock pair arena is meant to stay resident, but the pool must not
/// accumulate several of them for the process lifetime.
const POOL_CAP_BYTES: usize = 1 << 30;

impl<T: Copy + Default> BufferPool<T> {
    pub(crate) fn take(&self, len: usize) -> Vec<T> {
        let mut buf = self.take_garbage(len);
        buf.fill(T::default());
        buf
    }

    /// Like [`Self::take`] but the contents are unspecified (recycled
    /// values or zeros) — for scratch whose every element is written
    /// before being read, avoiding the O(len) zero fill per checkout.
    pub(crate) fn take_garbage(&self, len: usize) -> Vec<T> {
        let mut buf = self.lookup(len).unwrap_or_else(|| Vec::with_capacity(len));
        self.note_checkout(len);
        if buf.len() < len {
            // resize only writes the tail beyond the current length.
            buf.resize(len, T::default());
        } else {
            buf.truncate(len);
        }
        buf
    }

    /// Charges a checkout of `len` elements against the outstanding and
    /// peak counters.
    fn note_checkout(&self, len: usize) {
        let bytes = len * std::mem::size_of::<T>();
        let now = self.outstanding_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(now, Ordering::Relaxed);
    }

    /// Current accounting snapshot (outstanding is approximate only in
    /// the sense that `put` of a buffer the pool never handed out — a
    /// caller-grown one — saturates at zero instead of underflowing).
    fn stats(&self) -> PoolTypeStats {
        PoolTypeStats {
            outstanding_bytes: self.outstanding_bytes.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
        }
    }

    /// Resets the high-water mark to the current outstanding level.
    fn reset_peak(&self) {
        self.peak_bytes.store(self.outstanding_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Best-fit pool lookup, bounded to ≤ 2×`len` capacity so a tiny
    /// request can never check out (and hold) a batch-sized arena.
    fn lookup(&self, len: usize) -> Option<Vec<T>> {
        let mut slots = self.slots.lock();
        let best = slots
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len && b.capacity() <= 2 * len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        best.map(|i| slots.swap_remove(i))
    }

    pub(crate) fn put(&self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        // The buffer is no longer outstanding whether or not the caps
        // let us retain it. Saturating: a caller may return a buffer
        // that grew (or was allocated) outside the pool.
        let bytes = buf.len() * std::mem::size_of::<T>();
        let _ = self
            .outstanding_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(bytes)));
        let mut slots = self.slots.lock();
        let pooled_bytes: usize =
            slots.iter().map(|b| b.capacity() * std::mem::size_of::<T>()).sum();
        let incoming = buf.capacity() * std::mem::size_of::<T>();
        if slots.len() < POOL_CAP && pooled_bytes + incoming <= POOL_CAP_BYTES {
            slots.push(buf);
        }
    }
}

/// The process's buffer pools: pair and scratch grids per precision,
/// and the packed panels of the subspace kernel ([`tiled`]).
struct Pools {
    c64: BufferPool<Complex64>,
    c32: BufferPool<Complex32>,
    pack: BufferPool<f64>,
    pack32: BufferPool<f32>,
}

static POOLS: Pools = Pools {
    c64: BufferPool::new(),
    c32: BufferPool::new(),
    pack: BufferPool::new(),
    pack32: BufferPool::new(),
};

/// `alpha * op(A) * op(B) + beta * C0` — bit for bit
/// [`crate::gemm::gemm`].
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    alpha: Complex64,
    a: &CMat,
    op_a: Op,
    b: &CMat,
    op_b: Op,
    beta: Complex64,
    c0: Option<&CMat>,
) -> CMat {
    let _s = pwobs::span("gemm.gemm");
    let ap = packed(a, op_a);
    let bp = packed_cols(b, op_b);
    let (m, k) = (ap.rows(), ap.cols());
    let n = bp.rows();
    assert_eq!(k, bp.cols(), "gemm inner dimension mismatch");
    if let Some(c0) = c0 {
        assert_eq!((c0.rows(), c0.cols()), (m, n), "gemm C dimension mismatch");
    }
    let mut c = CMat::zeros(m, n);
    tiled::product::<f64, false>(
        &POOLS.pack,
        (m, n, k),
        |i| ap.row(i),
        |l, j| bp[(j, l)],
        |i, j, s| {
            let mut v = s * alpha;
            if let Some(c0) = c0 {
                v += beta * c0[(i, j)];
            }
            v
        },
        c.as_mut_slice(),
    );
    c
}

/// Band-block overlap `S[i][j] = scale * <a_i|b_j>` — bit for bit
/// [`bands::overlap`].
pub fn overlap(a: &[Complex64], b: &[Complex64], band_len: usize, scale: f64) -> CMat {
    let _s = pwobs::span("gemm.overlap");
    let na = bands::n_bands(a, band_len);
    let nb = bands::n_bands(b, band_len);
    let mut s = CMat::zeros(na, nb);
    tiled::product::<f64, true>(
        &POOLS.pack,
        (na, nb, band_len),
        |i| bands::band(a, band_len, i),
        |l, j| b[j * band_len + l],
        |_, _, v| v.scale(scale),
        s.as_mut_slice(),
    );
    s
}

/// Subspace rotation `out_j = Σ_i a_i q[i][j]` — bit for bit
/// [`bands::rotate`].
pub fn rotate(a: &[Complex64], q: &CMat, band_len: usize, out: &mut [Complex64]) {
    let _s = pwobs::span("gemm.rotate");
    let na = bands::n_bands(a, band_len);
    assert_eq!(q.rows(), na, "rotate: Q row count must match band count");
    assert_eq!(out.len(), band_len * q.cols(), "rotate: bad output size");
    tiled::rotate(&POOLS.pack, a, band_len, |i, j| q[(i, j)], false, out);
}

/// Accumulating rotation `out_j += alpha Σ_i a_i q[i][j]` — bit for bit
/// [`bands::rotate_acc`].
pub fn rotate_acc(
    alpha: Complex64,
    a: &[Complex64],
    q: &CMat,
    band_len: usize,
    out: &mut [Complex64],
) {
    let _s = pwobs::span("gemm.rotate_acc");
    let na = bands::n_bands(a, band_len);
    assert_eq!(q.rows(), na, "rotate_acc: Q row count must match band count");
    assert_eq!(out.len(), band_len * q.cols(), "rotate_acc: bad output size");
    tiled::rotate(&POOLS.pack, a, band_len, |i, j| alpha * q[(i, j)], true, out);
}

/// Runs `pass` over `count` consecutive grids in `data` — the batched
/// 3-D FFT entry point. Slab decomposition: each worker claims one
/// contiguous run of grids, the "multi-batch" strategy of the paper's
/// cuFFT path; one worker is one slab, the whole batch.
pub fn transform_batch(pass: &dyn GridTransform, data: &mut [Complex64], count: usize) {
    let _s = pwobs::span("fft.transform_batch");
    let n = pass.grid_len();
    assert_eq!(data.len(), count * n, "transform_batch length mismatch");
    if count == 0 {
        return;
    }
    let workers = workers_for(count, n * TRANSFORM_WORK_PER_POINT);
    par_chunks_mut_on(workers, data, (count.div_ceil(workers) * n).max(1), |_, slab| {
        slab.chunks_mut(n).for_each(|grid| pass.run(grid));
    });
}

/// The fused exchange pair-solve pipeline: for each [`PairTask`], form
/// the pair density `conj(phi_i) ⊙ psi_j`, run it through `solve` (the
/// whole screened-Poisson round trip as one [`GridTransform`]), and
/// scatter the solved grid into `out` band `j` (weight `w_fwd`, kernel
/// `W_ij`) and band `i` (weight `w_rev`, kernel `conj(W_ij)`) — over
/// pooled scratch grids only, so no per-pair buffer survives between
/// stages.
///
/// `phi`, `psi`, and `out` are band-major with `ng` elements per band
/// (`psi` may alias `phi` by being the same slice). The result is that
/// of running the tasks strictly in order, each stage on the same
/// elementwise kernels as a staged [`cvec::hadamard_conj`] → transform
/// → [`cvec::hadamard_acc`] sequence — bitwise, at every thread count:
/// the region is sized by [`workers_for`] and scheduled in
/// order-preserving waves (solves parallel over tasks, scatters
/// parallel over grid slices, DESIGN.md §11); on one worker it *is* the
/// serial loop over one pooled grid.
///
/// The whole pipeline is one `xch.fused_pair_solve` span (the
/// elementwise kernels carry none), so its self time is the paper's
/// exchange component.
pub fn fused_pair_solve(
    solve: &dyn GridTransform,
    phi: &[Complex64],
    psi: &[Complex64],
    ng: usize,
    tasks: &[PairTask],
    out: &mut [Complex64],
) {
    let _s = pwobs::span("xch.fused_pair_solve");
    pwobs::counter_add("xch.pair_tasks", tasks.len() as u64);
    assert_eq!(solve.grid_len(), ng, "fused_pair_solve: solve grid length mismatch");
    assert!(phi.len().is_multiple_of(ng.max(1)), "fused_pair_solve: bad phi length");
    assert!(psi.len().is_multiple_of(ng.max(1)), "fused_pair_solve: bad psi length");
    assert!(out.len().is_multiple_of(ng.max(1)), "fused_pair_solve: bad out length");
    waves::run(
        workers_for(tasks.len(), ng * PAIR_WORK_PER_POINT),
        ng,
        tasks,
        out,
        None,
        take_scratch,
        recycle_buffer,
        |t, pair| {
            cvec::hadamard_conj(&phi[t.i * ng..][..ng], &psi[t.j * ng..][..ng], pair);
            solve.run(pair);
        },
        |t, pair, r, bands| {
            if t.w_fwd != 0.0 {
                let phi_i = &phi[t.i * ng..][r.clone()];
                cvec::hadamard_acc(Complex64::from_re(t.w_fwd), pair, phi_i, bands[t.j].out);
            }
            if t.w_rev != 0.0 {
                let psi_j = &psi[t.j * ng..][r];
                cvec::hadamard_acc_conj(Complex64::from_re(t.w_rev), pair, psi_j, bands[t.i].out);
            }
        },
    );
}

/// A zeroed pooled buffer of `len` elements; hot loops are
/// allocation-free in steady state.
pub fn take_buffer(len: usize) -> Vec<Complex64> {
    POOLS.c64.take(len)
}

/// A pooled buffer of `len` elements with *unspecified contents*
/// (recycled values or zeros) — for scratch whose every element is
/// written before being read, avoiding the zero fill of
/// [`take_buffer`].
pub fn take_scratch(len: usize) -> Vec<Complex64> {
    POOLS.c64.take_garbage(len)
}

/// Returns a buffer obtained from [`take_buffer`] (or its siblings) to
/// the pool for reuse.
pub fn recycle_buffer(buf: Vec<Complex64>) {
    POOLS.c64.put(buf);
}

/// High-water-mark accounting of the process's buffer pools. The peak
/// is the process's: a test that asserts one runs alone in its binary.
pub fn pool_stats() -> PoolStats {
    PoolStats { fp64: POOLS.c64.stats(), fp32: POOLS.c32.stats() }
}

/// Resets the peak-bytes high-water marks to the current outstanding
/// level.
pub fn reset_pool_peak() {
    POOLS.c64.reset_peak();
    POOLS.c32.reset_peak();
}

// ---------------------------------------------------------------------
// fp32 / mixed-precision kernels (see [`crate::precision`]). Each
// equals its test-only scalar oracle exactly: reduced precision may not
// compound with summation-order differences.
// ---------------------------------------------------------------------

/// fp32 GEMM `alpha * op(A) * op(B)` (no accumulate input: fp32
/// products always land in fresh fp32 or promoted fp64 targets).
pub fn gemm32(alpha: Complex32, a: &CMat32, op_a: Op, b: &CMat32, op_b: Op) -> CMat32 {
    let _s = pwobs::span("gemm.gemm32");
    let ap = packed32(a, op_a);
    let bp = packed32_cols(b, op_b);
    let (m, k) = (ap.rows(), ap.cols());
    let n = bp.rows();
    assert_eq!(k, bp.cols(), "gemm32 inner dimension mismatch");
    let mut c = CMat32::zeros(m, n);
    tiled::product::<f32, false>(
        &POOLS.pack32,
        (m, n, k),
        |i| ap.row(i),
        |l, j| bp[(j, l)],
        |_, _, s| s * alpha,
        c.as_mut_slice(),
    );
    c
}

/// fp32 band-block overlap `S[i][j] = scale * <a_i|b_j>`.
pub fn overlap32(a: &[Complex32], b: &[Complex32], band_len: usize, scale: f32) -> CMat32 {
    let _s = pwobs::span("gemm.overlap32");
    let na = n_bands32(a, band_len);
    let nb = n_bands32(b, band_len);
    let mut s = CMat32::zeros(na, nb);
    tiled::product::<f32, true>(
        &POOLS.pack32,
        (na, nb, band_len),
        |i| &a[i * band_len..(i + 1) * band_len],
        |l, j| b[j * band_len + l],
        |_, _, v| v.scale(scale),
        s.as_mut_slice(),
    );
    s
}

/// fp32 accumulating rotation `out_j += alpha Σ_i a_i q[i][j]`.
pub fn rotate_acc32(
    alpha: Complex32,
    a: &[Complex32],
    q: &CMat32,
    band_len: usize,
    out: &mut [Complex32],
) {
    let _s = pwobs::span("gemm.rotate_acc32");
    let na = n_bands32(a, band_len);
    assert_eq!(q.rows(), na, "rotate_acc32: Q row count must match band count");
    assert_eq!(out.len(), band_len * q.cols(), "rotate_acc32: bad output size");
    tiled::rotate(&POOLS.pack32, a, band_len, |i, j| alpha * q[(i, j)], true, out);
}

/// Mixed-precision twin of [`fused_pair_solve`] — the same wave
/// scheduler with fp32 stages: the pair density is formed and solved in
/// fp32 (operands already demoted by the caller), and both scatters
/// promote to the fp64 accumulator — optionally two-sum compensated
/// through `comp` (band-major, parallel to `out`). No intermediate
/// `CVec32` buffer hits the pool between demote, FFT, kernel multiply,
/// inverse FFT, and promote-scatter. One `xch.fused_pair_solve32` span,
/// like the fp64 pipeline.
#[allow(clippy::too_many_arguments)]
pub fn fused_pair_solve32(
    solve: &dyn GridTransform32,
    phi: &[Complex32],
    psi: &[Complex32],
    ng: usize,
    tasks: &[PairTask],
    out: &mut [Complex64],
    comp: Option<&mut [Complex64]>,
) {
    let _s = pwobs::span("xch.fused_pair_solve32");
    pwobs::counter_add("xch.pair_tasks_fp32", tasks.len() as u64);
    assert_eq!(solve.grid_len(), ng, "fused_pair_solve32: solve grid length mismatch");
    assert!(phi.len().is_multiple_of(ng.max(1)), "fused_pair_solve32: bad phi length");
    assert!(psi.len().is_multiple_of(ng.max(1)), "fused_pair_solve32: bad psi length");
    assert!(out.len().is_multiple_of(ng.max(1)), "fused_pair_solve32: bad out length");
    if let Some(c) = comp.as_deref() {
        assert_eq!(c.len(), out.len(), "fused_pair_solve32: comp/out length mismatch");
    }
    waves::run(
        workers_for(tasks.len(), ng * PAIR_WORK_PER_POINT),
        ng,
        tasks,
        out,
        comp,
        take_scratch32,
        recycle_buffer32,
        |t, pair| {
            precision::hadamard_conj32(&phi[t.i * ng..][..ng], &psi[t.j * ng..][..ng], pair);
            solve.run(pair);
        },
        |t, pair, r, bands| {
            if t.w_fwd != 0.0 {
                let (phi_i, tgt) = (&phi[t.i * ng..][r.clone()], &mut bands[t.j]);
                let comp = tgt.comp.as_deref_mut();
                precision::hadamard_acc_promote(t.w_fwd, pair, phi_i, tgt.out, comp);
            }
            if t.w_rev != 0.0 {
                let (psi_j, tgt) = (&psi[t.j * ng..][r], &mut bands[t.i]);
                let comp = tgt.comp.as_deref_mut();
                precision::hadamard_acc_promote_conj(t.w_rev, pair, psi_j, tgt.out, comp);
            }
        },
    );
}

/// A pooled fp32 buffer of `len` elements with *unspecified contents*
/// — the fp32 twin of [`take_scratch`].
pub fn take_scratch32(len: usize) -> Vec<Complex32> {
    POOLS.c32.take_garbage(len)
}

/// Returns an fp32 buffer to the pool for reuse.
pub fn recycle_buffer32(buf: Vec<Complex32>) {
    POOLS.c32.put(buf);
}

/// Materializes `op(A)` row-major in fp32, Cow-borrowing the no-op case
/// (packing is exact: transposes and conjugation introduce no rounding).
fn packed32(a: &CMat32, op: Op) -> std::borrow::Cow<'_, CMat32> {
    use std::borrow::Cow;
    match op {
        Op::None => Cow::Borrowed(a),
        Op::Trans => Cow::Owned(CMat32::from_fn(a.cols(), a.rows(), |i, j| a[(j, i)])),
        Op::ConjTrans => Cow::Owned(CMat32::from_fn(a.cols(), a.rows(), |i, j| a[(j, i)].conj())),
    }
}

/// Materializes `op(B)` with row `r` holding *column* `r` of `op(B)` —
/// the contiguous-panel layout the fp32 micro-kernel streams. `Trans`
/// is already in that layout and is Cow-borrowed.
fn packed32_cols(b: &CMat32, op: Op) -> std::borrow::Cow<'_, CMat32> {
    use std::borrow::Cow;
    match op {
        Op::None => Cow::Owned(CMat32::from_fn(b.cols(), b.rows(), |j, l| b[(l, j)])),
        Op::Trans => Cow::Borrowed(b),
        Op::ConjTrans => Cow::Owned(CMat32::from_fn(b.rows(), b.cols(), |j, l| b[(j, l)].conj())),
    }
}

/// Number of fp32 bands in a band-major block.
#[inline]
fn n_bands32(a: &[Complex32], band_len: usize) -> usize {
    assert!(band_len > 0, "band length must be positive");
    assert!(a.len().is_multiple_of(band_len), "block not a multiple of band length");
    a.len() / band_len
}

/// The plain scalar fp32 loops the tiled kernels must equal exactly, and
/// the one-grid-at-a-time batch (the fp64 oracles are the public
/// [`crate::gemm::gemm`] and [`bands`] kernels).
#[cfg(test)]
mod oracle {
    use super::*;

    pub(super) fn gemm32(alpha: Complex32, a: &CMat32, op_a: Op, b: &CMat32, op_b: Op) -> CMat32 {
        let ap = packed32(a, op_a);
        let bp = packed32_cols(b, op_b);
        let (m, k) = (ap.rows(), ap.cols());
        let n = bp.rows();
        assert_eq!(k, bp.cols(), "gemm32 inner dimension mismatch");
        let mut c = CMat32::zeros(m, n);
        for i in 0..m {
            let arow = ap.row(i);
            for j in 0..n {
                let brow = bp.row(j);
                let mut s = Complex32::ZERO;
                for (l, &av) in arow.iter().enumerate() {
                    s = av.mul_add(brow[l], s);
                }
                c[(i, j)] = s * alpha;
            }
        }
        c
    }

    pub(super) fn overlap32(
        a: &[Complex32],
        b: &[Complex32],
        band_len: usize,
        scale: f32,
    ) -> CMat32 {
        let na = n_bands32(a, band_len);
        let nb = n_bands32(b, band_len);
        let mut s = CMat32::zeros(na, nb);
        for i in 0..na {
            let ai = &a[i * band_len..(i + 1) * band_len];
            for j in 0..nb {
                let bj = &b[j * band_len..(j + 1) * band_len];
                let mut acc = Complex32::ZERO;
                for (x, y) in ai.iter().zip(bj) {
                    acc = x.conj().mul_add(*y, acc);
                }
                s[(i, j)] = acc.scale(scale);
            }
        }
        s
    }

    pub(super) fn rotate_acc32(
        alpha: Complex32,
        a: &[Complex32],
        q: &CMat32,
        band_len: usize,
        out: &mut [Complex32],
    ) {
        let na = n_bands32(a, band_len);
        assert_eq!(q.rows(), na, "rotate_acc32: Q row count must match band count");
        assert_eq!(out.len(), band_len * q.cols(), "rotate_acc32: bad output size");
        for (j, oj) in out.chunks_mut(band_len).enumerate() {
            for i in 0..na {
                let w = alpha * q[(i, j)];
                if w == Complex32::ZERO {
                    continue;
                }
                let ai = &a[i * band_len..(i + 1) * band_len];
                for (o, &av) in oj.iter_mut().zip(ai) {
                    *o = av.mul_add(w, *o);
                }
            }
        }
    }

    /// One independent transform at a time, thread-parallel over grids.
    pub(super) fn transform_batch(pass: &dyn GridTransform, data: &mut [Complex64], count: usize) {
        let n = pass.grid_len();
        assert_eq!(data.len(), count * n, "transform_batch length mismatch");
        let workers = workers_for(count, n * TRANSFORM_WORK_PER_POINT);
        par_chunks_mut_on(workers, data, n.max(1), |_, grid| pass.run(grid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::parallel::with_workers;
    use proptest::prelude::*;

    /// Held by every test that checks buffers out of the process's fp64
    /// pool, so the one that asserts its peak sees only its own work.
    static C64_POOL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn c64_pool_lock() -> std::sync::MutexGuard<'static, ()> {
        C64_POOL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn test_mat(r: usize, c: usize, phase: f64) -> CMat {
        CMat::from_fn(r, c, |i, j| {
            c64(
                ((i * 7 + j * 3) as f64 * 0.37 + phase).sin(),
                ((i as f64) - 0.5 * j as f64 + phase).cos(),
            )
        })
    }

    fn test_block(nb: usize, len: usize, seed: f64) -> Vec<Complex64> {
        (0..nb * len)
            .map(|k| c64((k as f64 * 0.13 + seed).sin(), (k as f64 * 0.07 - seed).cos()))
            .collect()
    }

    /// A cheap non-FFT transform for exercising the batching machinery:
    /// reverse the grid, then scale by 2.
    struct ReversePass {
        n: usize,
    }

    impl GridTransform for ReversePass {
        fn grid_len(&self) -> usize {
            self.n
        }
        fn run(&self, grid: &mut [Complex64]) {
            grid.reverse();
            grid.iter_mut().for_each(|g| *g = g.scale(2.0));
        }
    }

    /// Every element's IEEE bits, so equality tells −0.0 from +0.0 and
    /// compares NaNs.
    fn bits(z: &[Complex64]) -> Vec<[u64; 2]> {
        z.iter().map(|v| [v.re.to_bits(), v.im.to_bits()]).collect()
    }

    fn bits32(z: &[Complex32]) -> Vec<[u32; 2]> {
        z.iter().map(|v| [v.re.to_bits(), v.im.to_bits()]).collect()
    }

    /// A matrix that is `rows × cols` after `op`.
    fn op_mat(op: Op, rows: usize, cols: usize, phase: f64) -> CMat {
        match op {
            Op::None => test_mat(rows, cols, phase),
            Op::Trans | Op::ConjTrans => test_mat(cols, rows, phase),
        }
    }

    #[test]
    fn backends_agree_on_gemm_all_ops() {
        // The tiled GEMM against its scalar oracle, bit for bit on every
        // edge of the register tile: rows ≡ 0..MR−1 (mod MR) against
        // columns ≡ 0..NR−1 (mod NR), inner dimensions inside one panel
        // and across a panel boundary, every Op pair, α and β ≠ 1, fp64
        // and fp32.
        use tiled::{KC, MR, NR};
        let ops = [Op::None, Op::Trans, Op::ConjTrans];
        let (alpha, beta) = (c64(0.7, -0.2), c64(-0.1, 0.4));
        let alpha32 = Complex32::from_c64(alpha);
        for (m, n, k) in (MR..2 * MR)
            .flat_map(|m| (NR..2 * NR).map(move |n| (m, n)))
            .flat_map(|(m, n)| [1, 5, KC + 1].map(|k| (m, n, k)))
        {
            let c0 = test_mat(m, n, 2.0);
            for (op_a, op_b) in ops.into_iter().flat_map(|oa| ops.map(|ob| (oa, ob))) {
                let (aa, bb) = (op_mat(op_a, m, k, 0.3), op_mat(op_b, k, n, 1.1));
                let what = format!("{op_a:?}/{op_b:?} {m}×{n}×{k}");
                for c0 in [Some(&c0), None] {
                    let want = crate::gemm::gemm(alpha, &aa, op_a, &bb, op_b, beta, c0);
                    let got = gemm(alpha, &aa, op_a, &bb, op_b, beta, c0);
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "gemm {what}");
                }
                let (a32, b32) = (CMat32::from_c64(&aa), CMat32::from_c64(&bb));
                let want = oracle::gemm32(alpha32, &a32, op_a, &b32, op_b);
                let got = gemm32(alpha32, &a32, op_a, &b32, op_b);
                assert_eq!(bits32(got.as_slice()), bits32(want.as_slice()), "gemm32 {what}");
            }
        }
    }

    #[test]
    fn backends_agree_on_band_ops() {
        // The tiled band kernels against their scalar oracles, bit for
        // bit on every tile edge: na ≡ 0..MR−1 (mod MR) against
        // nb ≡ 0..NR−1 (mod NR) bands, band lengths around one and two
        // panels (the rotation's tile rows, ≡ 0..MR−1 too), scale and α
        // ≠ 1, a zero weight beside nonzero ones and −0.0 in the
        // accumulated output, fp64 and fp32.
        use tiled::{KC, MR, NR};
        let alpha = c64(0.3, -1.1);
        let alpha32 = Complex32::from_c64(alpha);
        for len in [1, KC - 1, KC, KC + 1, KC + 2, 2 * KC + 3] {
            for (na, nb) in (MR..2 * MR).flat_map(|na| (NR..2 * NR).map(move |nb| (na, nb))) {
                let what = format!("{na}×{nb} bands of {len}");
                let (a, b) = (test_block(na, len, 0.2), test_block(nb, len, 1.4));
                let (want, got) = (bands::overlap(&a, &b, len, 1.7), overlap(&a, &b, len, 1.7));
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "overlap {what}");
                let (a32, b32) = (precision::demote(&a), precision::demote(&b));
                let want = oracle::overlap32(&a32, &b32, len, 1.7);
                let got = overlap32(&a32, &b32, len, 1.7);
                assert_eq!(bits32(got.as_slice()), bits32(want.as_slice()), "overlap32 {what}");

                let mut q = test_mat(na, nb, 0.9);
                q[(1, 2)] = Complex64::ZERO;
                let mut out = test_block(nb, len, 2.5);
                out[len + len / 2] = c64(-0.0, -0.0);
                let (mut or_, mut ob) = (out.clone(), out.clone());
                bands::rotate(&a, &q, len, &mut or_);
                rotate(&a, &q, len, &mut ob);
                assert_eq!(bits(&ob), bits(&or_), "rotate {what}");
                let (mut or_, mut ob) = (out.clone(), out.clone());
                bands::rotate_acc(alpha, &a, &q, len, &mut or_);
                rotate_acc(alpha, &a, &q, len, &mut ob);
                assert_eq!(bits(&ob), bits(&or_), "rotate_acc {what}");
                let q32 = CMat32::from_c64(&q);
                let (mut or_, mut ob) = (precision::demote(&out), precision::demote(&out));
                oracle::rotate_acc32(alpha32, &a32, &q32, len, &mut or_);
                rotate_acc32(alpha32, &a32, &q32, len, &mut ob);
                assert_eq!(bits32(&ob), bits32(&or_), "rotate_acc32 {what}");
            }
        }
    }

    fn cmat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = CMat> {
        proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), rows * cols).prop_map(move |v| {
            CMat::from_vec(rows, cols, v.into_iter().map(|(re, im)| c64(re, im)).collect())
        })
    }

    fn block_strategy(n: usize) -> impl Strategy<Value = Vec<Complex64>> {
        proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n)
            .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn gemm32_agrees_exactly_all_ops(
            a in cmat_strategy(6, 4),
            b in cmat_strategy(4, 7),
            at in cmat_strategy(4, 6),
            bt in cmat_strategy(7, 4),
            alpha in (-2.0f64..2.0, -2.0f64..2.0),
        ) {
            let a = CMat32::from_c64(&a);
            let b = CMat32::from_c64(&b);
            let at = CMat32::from_c64(&at);
            let bt = CMat32::from_c64(&bt);
            let alpha = precision::c32(alpha.0 as f32, alpha.1 as f32);
            for (op_a, aa) in [(Op::None, &a), (Op::Trans, &at), (Op::ConjTrans, &at)] {
                for (op_b, bb) in [(Op::None, &b), (Op::Trans, &bt), (Op::ConjTrans, &bt)] {
                    let want = oracle::gemm32(alpha, aa, op_a, bb, op_b);
                    let got = gemm32(alpha, aa, op_a, bb, op_b);
                    prop_assert!(
                        want.max_abs_diff(&got) == 0.0,
                        "gemm32 {:?}/{:?}", op_a, op_b
                    );
                }
            }
        }

        #[test]
        fn band_ops32_agree_exactly(
            a in block_strategy(7 * 33),
            b in block_strategy(5 * 33),
            q in cmat_strategy(7, 6),
            seed in block_strategy(6 * 33),
            scale in 0.1f64..3.0,
            alpha in (-2.0f64..2.0, -2.0f64..2.0),
        ) {
            let a32 = precision::demote(&a);
            let b32 = precision::demote(&b);
            let q32 = CMat32::from_c64(&q);
            let want = oracle::overlap32(&a32, &b32, 33, scale as f32);
            let got = overlap32(&a32, &b32, 33, scale as f32);
            prop_assert!(want.max_abs_diff(&got) == 0.0, "overlap32");

            let alpha = precision::c32(alpha.0 as f32, alpha.1 as f32);
            let mut want = precision::demote(&seed);
            let mut got = want.clone();
            oracle::rotate_acc32(alpha, &a32, &q32, 33, &mut want);
            rotate_acc32(alpha, &a32, &q32, 33, &mut got);
            prop_assert!(precision::max_abs_diff32(&want, &got) == 0.0, "rotate_acc32");
        }
    }

    #[test]
    fn rotation_skips_each_zero_weight_per_column() {
        // A NaN source band whose weight is zero in one column of a tile
        // whose other columns weigh it: the oracle skips that step, so
        // that column stays finite and its neighbours go NaN — in the
        // tiled kernels too, bit for bit, in both precisions.
        let (na, len) = (3, 9);
        let mut a = test_block(na, len, 0.2);
        a[len..2 * len].fill(c64(f64::NAN, 0.0));
        let mut q = test_mat(na, 4, 0.9);
        q[(1, 2)] = Complex64::ZERO;
        let alpha = c64(0.3, -1.1);
        let (a32, q32, alpha32) =
            (precision::demote(&a), CMat32::from_c64(&q), Complex32::from_c64(alpha));
        let out = test_block(4, len, 2.5);
        let (mut rot, mut rot_want) = (out.clone(), out.clone());
        rotate(&a, &q, len, &mut rot);
        bands::rotate(&a, &q, len, &mut rot_want);
        assert_eq!(bits(&rot), bits(&rot_want), "rotate");
        let (mut acc, mut acc_want) = (out.clone(), out.clone());
        rotate_acc(alpha, &a, &q, len, &mut acc);
        bands::rotate_acc(alpha, &a, &q, len, &mut acc_want);
        assert_eq!(bits(&acc), bits(&acc_want), "rotate_acc");
        let (mut acc32, mut acc32_want) = (precision::demote(&out), precision::demote(&out));
        rotate_acc32(alpha32, &a32, &q32, len, &mut acc32);
        oracle::rotate_acc32(alpha32, &a32, &q32, len, &mut acc32_want);
        assert_eq!(bits32(&acc32), bits32(&acc32_want), "rotate_acc32");
        assert!(bands::band(&rot, len, 2).iter().all(|z| z.is_finite()), "zero weight skipped");
        assert!(bands::band(&rot, len, 1).iter().all(|z| z.is_nan()), "nonzero weight applied");
    }

    #[test]
    fn scale_by_real_cycles_kernel_over_batch() {
        // The kernel multiply of the batched Poisson solve: one kernel
        // cycled over every grid of the batch.
        let k = [2.0, 3.0, 4.0];
        let base = test_block(1, 12, 0.5);
        let mut field = base.clone();
        cvec::scale_by_real(&k, &mut field);
        for (i, (v, orig)) in field.iter().zip(&base).enumerate() {
            assert_eq!(*v, orig.scale(k[i % 3]));
        }
    }

    #[test]
    fn transform_batch_matches_sequential() {
        let pass = ReversePass { n: 10 };
        let count = 9;
        let data0 = test_block(count, 10, 0.8);
        let mut seq = data0.clone();
        seq.chunks_mut(10).for_each(|grid| pass.run(grid));
        let mut batched = data0.clone();
        transform_batch(&pass, &mut batched, count);
        assert_eq!(bits(&batched), bits(&seq), "slab batch");
        let mut per_grid = data0.clone();
        oracle::transform_batch(&pass, &mut per_grid, count);
        assert_eq!(bits(&per_grid), bits(&seq), "per-grid batch");
    }

    #[test]
    fn buffer_pool_recycles_and_zeroes() {
        let pool = BufferPool::<Complex64>::new();
        let mut buf = pool.take(100);
        buf[0] = c64(5.0, 5.0);
        let cap = buf.capacity();
        pool.put(buf);
        let again = pool.take(64);
        // Reused the pooled allocation and re-zeroed it.
        assert_eq!(again.capacity(), cap);
        assert!(again.iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn default_backend_is_blocked() {
        // The harness handle is the register-blocked kernels themselves:
        // one process-wide handle whose methods forward bit for bit.
        assert!(std::ptr::eq(*default_backend(), *default_backend()), "one process-wide handle");
        let (a, q) = (test_block(3, 17, 0.4), test_mat(3, 2, 0.6));
        let be = default_backend();
        assert_eq!(
            bits(be.overlap(&a, &a, 17, 0.5).as_slice()),
            bits(overlap(&a, &a, 17, 0.5).as_slice())
        );
        let (mut got, mut want) = (vec![Complex64::ZERO; 34], vec![Complex64::ZERO; 34]);
        be.rotate(&a, &q, 17, &mut got);
        rotate(&a, &q, 17, &mut want);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn pool_tracks_outstanding_and_peak_bytes() {
        let pool = BufferPool::<Complex64>::new();
        assert_eq!(pool.stats(), PoolTypeStats::default());
        let sz = std::mem::size_of::<Complex64>();
        let b1 = pool.take(100);
        let b2 = pool.take_garbage(50);
        let peak = 150 * sz;
        let stats = pool.stats();
        assert_eq!(stats.outstanding_bytes, peak);
        assert_eq!(stats.peak_bytes, peak);
        pool.put(b1);
        pool.put(b2);
        let stats = pool.stats();
        // Everything returned; the high-water mark survives...
        assert_eq!(stats.outstanding_bytes, 0);
        assert_eq!(stats.peak_bytes, peak);
        // ...until explicitly reset.
        pool.reset_peak();
        assert_eq!(pool.stats().peak_bytes, 0);
        // A recycled buffer larger than the ask is charged the ask.
        let b3 = pool.take(60);
        assert_eq!(b3.capacity(), 100, "best fit reuses the 100-element buffer");
        assert_eq!(pool.stats().outstanding_bytes, 60 * sz);
        pool.put(b3);
        assert_eq!(pool.stats().outstanding_bytes, 0);
    }

    /// The staged per-pair schedule of `tasks` — pair density, solve,
    /// forward scatter, reverse scatter, in task order.
    fn staged(
        pass: &ReversePass,
        phi: &[Complex64],
        psi: &[Complex64],
        ng: usize,
        tasks: &[PairTask],
        out: &mut [Complex64],
    ) {
        let mut pair = vec![Complex64::ZERO; ng];
        for t in tasks {
            let (phi_i, psi_j) = (bands::band(phi, ng, t.i), bands::band(psi, ng, t.j));
            cvec::hadamard_conj(phi_i, psi_j, &mut pair);
            pass.run(&mut pair);
            if t.w_fwd != 0.0 {
                let out_j = bands::band_mut(out, ng, t.j);
                cvec::hadamard_acc(Complex64::from_re(t.w_fwd), &pair, phi_i, out_j);
            }
            if t.w_rev != 0.0 {
                let out_i = bands::band_mut(out, ng, t.i);
                cvec::hadamard_acc_conj(Complex64::from_re(t.w_rev), &pair, psi_j, out_i);
            }
        }
    }

    #[test]
    fn fused_pair_solve_matches_staged_sequence_bitwise() {
        // The fused pipeline must reproduce the staged schedule exactly.
        let _pool = c64_pool_lock();
        let ng = 10;
        let nb = 4;
        let phi = test_block(nb, ng, 0.8);
        let pass = ReversePass { n: ng };
        let tasks = [
            PairTask { i: 0, j: 0, w_fwd: -1.0, w_rev: 0.0 },
            PairTask { i: 0, j: 1, w_fwd: -1.0, w_rev: -0.5 },
            PairTask { i: 1, j: 2, w_fwd: 0.0, w_rev: -0.25 },
            PairTask { i: 2, j: 3, w_fwd: -0.75, w_rev: -0.125 },
        ];
        let mut fused = vec![Complex64::ZERO; nb * ng];
        fused_pair_solve(&pass, &phi, &phi, ng, &tasks, &mut fused);
        let mut want = vec![Complex64::ZERO; nb * ng];
        staged(&pass, &phi, &phi, ng, &tasks, &mut want);
        assert_eq!(cvec::max_abs_diff(&fused, &want), 0.0, "fused != staged");
    }

    /// The task lists `pwdft::fock`'s two enumerators produce for
    /// weights `d` (a zero weight is a screened band): lexicographic
    /// `i ≤ j` with both scatter weights, and target-major with the
    /// unscreened sources ascending.
    fn enumerate_tasks(d: &[f64], symmetric: bool) -> Vec<PairTask> {
        let n = d.len();
        let mut tasks = Vec::new();
        if symmetric {
            for i in 0..n {
                for j in i..n {
                    let w_rev = if i != j { -d[j] } else { 0.0 };
                    if d[i] != 0.0 || w_rev != 0.0 {
                        tasks.push(PairTask { i, j, w_fwd: -d[i], w_rev });
                    }
                }
            }
        } else {
            for j in 0..n {
                for i in (0..n).filter(|&i| d[i] != 0.0) {
                    tasks.push(PairTask { i, j, w_fwd: -d[i], w_rev: 0.0 });
                }
            }
        }
        tasks
    }

    #[test]
    fn pair_pipeline_is_bitwise_identical_at_every_worker_count() {
        // workers × enumerator × precision, against the one-worker run
        // and against the per-pair staged oracle. 37 grid points split
        // unevenly over 2, 3 and 5 slices; 54 and 90 tasks are 1.7 and
        // 2.8 waves; band 4 is screened.
        let _pool = c64_pool_lock();
        let (ng, nb) = (37, 10);
        let mut d: Vec<f64> = (0..nb).map(|i| 1.0 / (1.0 + i as f64)).collect();
        d[4] = 0.0;
        let phi = test_block(nb, ng, 0.8);
        let psi = test_block(nb, ng, 2.1);
        let (phi32, psi32) = (precision::demote(&phi), precision::demote(&psi));
        let (pass, pass32) = (ReversePass { n: ng }, ReversePass32 { n: ng });
        for symmetric in [true, false] {
            let tasks = enumerate_tasks(&d, symmetric);
            assert_ne!(tasks.len() % waves::WAVE, 0);
            let (tgt, tgt32) = if symmetric { (&phi, &phi32) } else { (&psi, &psi32) };

            // fp64: staged oracle, then every worker count.
            let mut want = vec![Complex64::ZERO; nb * ng];
            staged(&pass, &phi, tgt, ng, &tasks, &mut want);
            // fp32 plain and compensated: the one-worker run is the
            // reference (its staged oracle is `pwdft::fock`'s
            // `fused_fp32_is_value_identical_to_staged_fp32`).
            let run32 = |workers: usize, compensated: bool| {
                let mut out = vec![Complex64::ZERO; nb * ng];
                let mut comp = compensated.then(|| vec![Complex64::ZERO; nb * ng]);
                with_workers(workers, || {
                    fused_pair_solve32(
                        &pass32,
                        &phi32,
                        tgt32,
                        ng,
                        &tasks,
                        &mut out,
                        comp.as_deref_mut(),
                    )
                });
                (out, comp)
            };
            let want32 = [run32(1, false), run32(1, true)];
            assert_ne!(want32[0].0, want32[1].0, "compensation must do something");

            for workers in [1, 2, 3, 5] {
                let what = format!("symmetric={symmetric} workers={workers}");
                let mut got = vec![Complex64::ZERO; nb * ng];
                with_workers(workers, || fused_pair_solve(&pass, &phi, tgt, ng, &tasks, &mut got));
                assert_eq!(cvec::max_abs_diff(&got, &want), 0.0, "fp64 {what}");
                for (compensated, want) in [false, true].into_iter().zip(&want32) {
                    let got = run32(workers, compensated);
                    assert!(got == *want, "fp32 compensated={compensated} {what}");
                }
            }
        }
    }

    /// Runs the pair pipeline on `nb` bands of `ng`-point grids at each
    /// worker count and returns the fp64 pool peak each run added to the
    /// pool's level before it (a panicking test may have left grids
    /// checked out).
    fn pair_pipeline_pool_peaks(ng: usize, nb: usize) -> Vec<usize> {
        let phi = test_block(nb, ng, 0.3);
        let pass = ReversePass { n: ng };
        let tasks = enumerate_tasks(&vec![1.0; nb], true);
        assert!(tasks.len() > 2 * waves::WAVE);
        [1, 2, 3, 5]
            .into_iter()
            .map(|workers| {
                reset_pool_peak();
                let before = pool_stats().fp64.outstanding_bytes;
                let mut out = vec![Complex64::ZERO; nb * ng];
                with_workers(workers, || fused_pair_solve(&pass, &phi, &phi, ng, &tasks, &mut out));
                let stats = pool_stats().fp64;
                assert_eq!(stats.outstanding_bytes, before, "everything went back to the pool");
                stats.peak_bytes - before
            })
            .collect()
    }

    #[test]
    fn pair_pipeline_pool_peak_is_one_wave_of_grids() {
        let _pool = c64_pool_lock();
        let ng = 24;
        let grid_bytes = ng * std::mem::size_of::<Complex64>();
        // One worker is the serial loop over one pair grid.
        let want = [1, waves::WAVE, waves::WAVE, waves::WAVE].map(|grids| grids * grid_bytes);
        assert_eq!(pair_pipeline_pool_peaks(ng, 12), want, "workers 1, 2, 3, 5");
    }

    #[test]
    fn pool_peak_does_not_depend_on_what_the_pool_holds() {
        // A 24-point ask may be served by any pooled buffer of 24 to 48
        // points. Holding POOL_CAP such asks empties the pool of them, so
        // the first run allocates its grids and the second, after the
        // first run's grids are held too, gets 37-point ones.
        let _pool = c64_pool_lock();
        let hold = || (0..POOL_CAP).map(|_| take_buffer(24)).collect::<Vec<_>>();
        let mut held = hold();
        let fresh = pair_pipeline_pool_peaks(24, 12);
        held.extend(hold());
        let big: Vec<_> = (0..2 * waves::WAVE).map(|_| take_buffer(37)).collect();
        big.into_iter().for_each(recycle_buffer);
        assert_eq!(pair_pipeline_pool_peaks(24, 12), fresh);
        held.into_iter().for_each(recycle_buffer);
    }

    /// Panics on its `at`-th run (counted across workers).
    struct PanickingPass {
        n: usize,
        at: usize,
        runs: AtomicUsize,
    }

    impl GridTransform for PanickingPass {
        fn grid_len(&self) -> usize {
            self.n
        }
        fn run(&self, _grid: &mut [Complex64]) {
            let k = self.runs.fetch_add(1, Ordering::SeqCst);
            assert!(k != self.at, "pair solve {k} blew up");
        }
    }

    #[test]
    fn worker_panic_ends_the_pipeline_with_the_original_message() {
        // A panic in one worker's solve must release the siblings parked
        // at the wave barrier and resurface on the caller — in the first
        // wave, in a later one, and on the calling thread's own share.
        let _pool = c64_pool_lock();
        for workers in [1, 2, 3] {
            for at in [0, 5, 70] {
                let (done_tx, done_rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let (ng, nb) = (16, 12);
                    let phi = test_block(nb, ng, 0.3);
                    let tasks = enumerate_tasks(&vec![1.0; nb], true);
                    let pass = PanickingPass { n: ng, at, runs: AtomicUsize::new(0) };
                    let mut out = vec![Complex64::ZERO; nb * ng];
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        with_workers(workers, || {
                            fused_pair_solve(&pass, &phi, &phi, ng, &tasks, &mut out)
                        })
                    }));
                    let _ = done_tx.send(result.map_err(|payload| {
                        payload.downcast_ref::<String>().cloned().unwrap_or_default()
                    }));
                });
                // The watchdog: a hang fails the test instead of wedging it.
                let result = done_rx
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("pipeline hung: workers={workers} at={at}"));
                assert_eq!(
                    result,
                    Err(format!("pair solve {at} blew up")),
                    "workers={workers} at={at}"
                );
            }
        }
    }

    #[test]
    fn threaded_regions_are_bitwise_identical_at_every_worker_count() {
        // Every output tile, grid part and slab is written by exactly
        // one worker, so forcing the regions onto 2 and 3 workers (shapes
        // far below the work threshold; three column blocks, three grid
        // panels) must reproduce the inline result bit for bit, fp64 and
        // fp32.
        let (m, k, n, len) = (7, 5, 10, 2 * tiled::KC + 3);
        let (a, b, c0) = (test_mat(m, k, 0.3), test_mat(k, n, 1.1), test_mat(m, n, 2.0));
        let (alpha, beta) = (c64(0.7, -0.2), c64(-0.1, 0.4));
        let (xa, xb) = (test_block(m, len, 0.2), test_block(n, len, 1.4));
        let q = test_mat(m, n, 0.9);
        let (a32, b32, q32) = (CMat32::from_c64(&a), CMat32::from_c64(&b), CMat32::from_c64(&q));
        let (xa32, xb32) = (precision::demote(&xa), precision::demote(&xb));
        let kernel: Vec<f64> = (0..len).map(|i| 0.5 + i as f64).collect();
        let pass = ReversePass { n: len };
        let run = |workers: usize| {
            with_workers(workers, || {
                let mut rot = vec![Complex64::ZERO; n * len];
                rotate(&xa, &q, len, &mut rot);
                rotate_acc(alpha, &xa, &q, len, &mut rot);
                let mut lin = vec![Complex64::ZERO; n * len];
                bands::lincomb(alpha, &xb, beta, &rot, &mut lin);
                cvec::scale_by_real(&kernel, &mut lin);
                transform_batch(&pass, &mut lin, n);
                let mut rot32 = precision::demote(&rot);
                rotate_acc32(Complex32::from_c64(alpha), &xa32, &q32, len, &mut rot32);
                (
                    gemm(alpha, &a, Op::None, &b, Op::None, beta, Some(&c0)),
                    overlap(&xa, &xb, len, 1.7),
                    gemm32(Complex32::from_c64(alpha), &a32, Op::None, &b32, Op::None),
                    overlap32(&xa32, &xb32, len, 1.7),
                    (rot, lin, rot32),
                )
            })
        };
        let want = run(1);
        for workers in [2, 3] {
            let got = run(workers);
            let what = format!("workers={workers}");
            assert_eq!(bits(got.0.as_slice()), bits(want.0.as_slice()), "gemm {what}");
            assert_eq!(bits(got.1.as_slice()), bits(want.1.as_slice()), "overlap {what}");
            assert_eq!(bits32(got.2.as_slice()), bits32(want.2.as_slice()), "gemm32 {what}");
            assert_eq!(bits32(got.3.as_slice()), bits32(want.3.as_slice()), "overlap32 {what}");
            let ((rot, lin, rot32), (rot_w, lin_w, rot32_w)) = (&got.4, &want.4);
            assert_eq!(bits(rot), bits(rot_w), "rotate, rotate_acc {what}");
            assert_eq!(bits(lin), bits(lin_w), "lincomb, scale, transform {what}");
            assert_eq!(bits32(rot32), bits32(rot32_w), "rotate_acc32 {what}");
        }
        // The scalar oracles are threaded too, and product code calls
        // them directly (`gemm::gemm`, `bands::*`).
        let plain = |workers: usize| {
            with_workers(workers, || {
                let mut rot = vec![Complex64::ZERO; n * len];
                bands::rotate(&xa, &q, len, &mut rot);
                bands::rotate_acc(alpha, &xa, &q, len, &mut rot);
                oracle::transform_batch(&pass, &mut rot, n);
                let c = crate::gemm::gemm(alpha, &a, Op::None, &b, Op::None, beta, Some(&c0));
                (c, bands::overlap(&xa, &xb, len, 1.7), rot)
            })
        };
        let want = plain(1);
        for workers in [2, 3] {
            let got = plain(workers);
            let what = format!("oracles, workers={workers}");
            assert_eq!(bits(got.0.as_slice()), bits(want.0.as_slice()), "gemm {what}");
            assert_eq!(bits(got.1.as_slice()), bits(want.1.as_slice()), "overlap {what}");
            assert_eq!(bits(&got.2), bits(&want.2), "rotate, rotate_acc, transform {what}");
        }
    }

    #[test]
    fn pack_scratch_is_bounded_per_worker() {
        // The subspace kernel's scratch grows with the worker count,
        // never with the band length: the overlap holds its partial
        // chains plus one panel per worker, the rotation its packed
        // weights plus one source tile per worker. Measured on a pool of
        // the test's own, through the calls `overlap` and `rotate_acc`
        // make.
        use tiled::{KC, MR, NR};
        let (nb, len, f) = (3 * NR, 4 * KC, std::mem::size_of::<f64>());
        let a = test_block(nb, len, 0.2);
        let q = test_mat(nb, nb, 0.9);
        for workers in [1, 2, 3] {
            let pack = BufferPool::<f64>::new();
            let mut s = CMat::zeros(nb, nb);
            with_workers(workers, || {
                tiled::product::<f64, true>(
                    &pack,
                    (nb, nb, len),
                    |i| bands::band(&a, len, i),
                    |l, j| a[j * len + l],
                    |_, _, v| v,
                    s.as_mut_slice(),
                )
            });
            assert_eq!(bits(s.as_slice()), bits(overlap(&a, &a, len, 1.0).as_slice()));
            let (partial, panel) = (3 * nb.div_ceil(MR) * MR * 2 * NR * f, KC * 2 * NR * f);
            let stats = pack.stats();
            assert_eq!(stats.outstanding_bytes, 0, "overlap, workers={workers}");
            assert!(stats.peak_bytes <= partial + workers * panel, "overlap, workers={workers}");

            let pack = BufferPool::<f64>::new();
            let mut out = a.clone();
            let alpha = c64(0.5, 0.0);
            with_workers(workers, || {
                tiled::rotate(&pack, &a, len, |i, j| alpha * q[(i, j)], true, &mut out)
            });
            let (weights, tile) = (3 * nb * 2 * NR * f, nb * 2 * MR * f);
            let stats = pack.stats();
            assert_eq!(stats.outstanding_bytes, 0, "rotate_acc, workers={workers}");
            assert!(stats.peak_bytes <= weights + workers * tile, "rotate_acc, workers={workers}");
        }
    }

    /// fp32 twin of [`ReversePass`] for exercising the fused fp32 path.
    struct ReversePass32 {
        n: usize,
    }

    impl GridTransform32 for ReversePass32 {
        fn grid_len(&self) -> usize {
            self.n
        }
        fn run(&self, grid: &mut [Complex32]) {
            grid.reverse();
            grid.iter_mut().for_each(|g| *g = g.scale(2.0));
        }
    }

    #[test]
    fn fused_pair_solve32_backends_agree_exactly_and_compensate() {
        // The fp32 pipeline against its staged schedule — fp32 density,
        // solve, promoting scatters in task order — exactly; the
        // compensated variant stays close to the plain one.
        let ng = 10;
        let nb = 3;
        let phi64 = test_block(nb, ng, 0.4);
        let phi = precision::demote(&phi64);
        let phi = phi.as_slice();
        let pass = ReversePass32 { n: ng };
        let tasks = [
            PairTask { i: 0, j: 1, w_fwd: -1.0, w_rev: -0.5 },
            PairTask { i: 1, j: 2, w_fwd: -0.75, w_rev: 0.0 },
        ];
        let mut out = vec![Complex64::ZERO; nb * ng];
        fused_pair_solve32(&pass, phi, phi, ng, &tasks, &mut out, None);
        let mut want = vec![Complex64::ZERO; nb * ng];
        let mut pair = vec![Complex32::ZERO; ng];
        for t in &tasks {
            let (phi_i, phi_j) = (&phi[t.i * ng..][..ng], &phi[t.j * ng..][..ng]);
            precision::hadamard_conj32(phi_i, phi_j, &mut pair);
            pass.run(&mut pair);
            if t.w_fwd != 0.0 {
                let out_j = bands::band_mut(&mut want, ng, t.j);
                precision::hadamard_acc_promote(t.w_fwd, &pair, phi_i, out_j, None);
            }
            if t.w_rev != 0.0 {
                let out_i = bands::band_mut(&mut want, ng, t.i);
                precision::hadamard_acc_promote_conj(t.w_rev, &pair, phi_j, out_i, None);
            }
        }
        assert_eq!(cvec::max_abs_diff(&out, &want), 0.0);
        assert!(out.iter().any(|z| *z != Complex64::ZERO));
        let mut out_c = vec![Complex64::ZERO; nb * ng];
        let mut comp = vec![Complex64::ZERO; nb * ng];
        fused_pair_solve32(&pass, phi, phi, ng, &tasks, &mut out_c, Some(&mut comp));
        assert!(cvec::max_abs_diff(&out_c, &out) < 1e-6);
    }
}
