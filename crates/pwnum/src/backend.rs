//! Pluggable compute backends for the performance-critical primitives.
//!
//! The paper's core engineering story is one rt-TDDFT code driving two
//! radically different platforms (ARM many-core and GPU) with the same
//! algorithm schedules. This module is the Rust analog of that seam: a
//! [`Backend`] trait owning the hot primitives whose schedule is
//! platform-specific — GEMM, the band-block overlap and rotations, batched
//! grid transforms, the fused exchange pair pipelines and the buffer pools
//! — so a platform-specific implementation is *one type*, not a rewrite
//! of the physics layers. Streaming elementwise kernels with one obvious
//! loop (band linear combinations, Hadamard products, the kernel×field
//! multiply) are free functions in [`bands`], [`cvec`] and [`precision`].
//!
//! Two implementations ship here:
//!
//! * [`Blocked`] — the product backend, mirroring the paper's GPU
//!   strategy (Sec. III-B): one register-tiled micro-kernel over packed
//!   panels behind GEMM, overlap and rotation in both precisions
//!   (`tiled`), slab-decomposed batched grid transforms, and a
//!   thread-safe [buffer pool] (`Backend::take_buffer`) that makes the
//!   Fock/ACE inner loops allocation-free in steady state. Its compute
//!   primitives open the `pwobs` spans (`gemm.*`, `fft.transform_batch`)
//!   that attribute time per kernel — one relaxed atomic load per call
//!   while the recorder is disabled.
//! * [`Reference`] — the oracle: the plain scalar/threaded kernels,
//!   called through the trait, that `tests/backend_properties.rs` and
//!   the physics suites compare [`Blocked`] against. No product path
//!   runs it; it is public because integration tests cannot see
//!   `#[cfg(test)]` items.
//!
//! Both backends must agree to ≤ 1e-10 on every primitive; the property
//! suite `tests/backend_properties.rs` enforces this, and the FFT suite
//! in `pwfft` cross-checks batched transforms on the paper's
//! non-power-of-two 2/3/5-smooth grids. The GEMM, band and fp32 kernels
//! and the grid transforms agree bit for bit (the tests compare
//! `to_bits`).
//!
//! Higher layers hold a [`BackendHandle`] (`Arc<dyn Backend>`); call
//! sites without an explicit handle use [`default_backend`].

use crate::bands;
use crate::cmat::CMat;
use crate::complex::Complex64;
use crate::cvec;
use crate::gemm::{self, packed, packed_cols, Op};
use crate::parallel::{par_chunks_mut_on, workers_for};
use crate::precision::{self, CMat32, Complex32};
use crate::tiled;
use crate::waves;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One grid-sized pass of a batched transform (e.g. a forward or inverse
/// 3-D FFT over one grid). `pwfft` implements this for its plans; keeping
/// the trait here (below the FFT crate in the DAG) lets [`Backend`] own
/// the *batching strategy* — slab decomposition and thread count —
/// without depending on any particular transform.
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolTypeStats {
    /// Bytes currently checked out of the pool.
    pub outstanding_bytes: usize,
    /// Peak bytes simultaneously checked out since construction (or the
    /// last [`Backend::reset_pool_peak`]).
    pub peak_bytes: usize,
}

/// Pool accounting for both element types a backend pools.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// The `Complex64` pool.
    pub fp64: PoolTypeStats,
    /// The `Complex32` pool.
    pub fp32: PoolTypeStats,
}

/// The device abstraction: every performance-critical primitive of the
/// PT-IM hot paths, dispatchable per platform.
///
/// Implementations must be numerically equivalent to ≤ 1e-10 (they may
/// differ in summation order, never in math).
pub trait Backend: std::fmt::Debug + Send + Sync {
    /// Short human-readable backend name (used in benches and logs).
    fn name(&self) -> &'static str;

    /// `alpha * op(A) * op(B) + beta * C0` (see [`gemm::gemm`]).
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &self,
        alpha: Complex64,
        a: &CMat,
        op_a: Op,
        b: &CMat,
        op_b: Op,
        beta: Complex64,
        c0: Option<&CMat>,
    ) -> CMat;

    /// Band-block overlap `S[i][j] = scale * <a_i|b_j>`
    /// (see [`bands::overlap`]).
    fn overlap(&self, a: &[Complex64], b: &[Complex64], band_len: usize, scale: f64) -> CMat;

    /// Subspace rotation `out_j = Σ_i a_i q[i][j]` (see [`bands::rotate`]).
    fn rotate(&self, a: &[Complex64], q: &CMat, band_len: usize, out: &mut [Complex64]);

    /// Accumulating rotation `out_j += alpha Σ_i a_i q[i][j]`
    /// (see [`bands::rotate_acc`]).
    fn rotate_acc(
        &self,
        alpha: Complex64,
        a: &[Complex64],
        q: &CMat,
        band_len: usize,
        out: &mut [Complex64],
    );

    /// Runs `pass` over `count` consecutive grids in `data` — the batched
    /// 3-D FFT entry point. The backend owns the batching strategy (how
    /// grids map to workers).
    fn transform_batch(&self, pass: &dyn GridTransform, data: &mut [Complex64], count: usize);

    /// The fused exchange pair-solve pipeline: for each [`PairTask`],
    /// form the pair density `conj(phi_i) ⊙ psi_j`, run it through
    /// `solve` (the whole screened-Poisson round trip as one
    /// [`GridTransform`]), and scatter the solved grid into `out` band
    /// `j` (weight `w_fwd`, kernel `W_ij`) and band `i` (weight `w_rev`,
    /// kernel `conj(W_ij)`) — over backend-owned scratch grids only, so
    /// no per-pair buffer survives between stages.
    ///
    /// `phi`, `psi`, and `out` are band-major with `ng` elements per
    /// band (`psi` may alias `phi` by being the same slice). The result
    /// is that of running the tasks strictly in order, each stage on the
    /// same elementwise kernels as a staged [`cvec::hadamard_conj`] →
    /// transform → [`cvec::hadamard_acc`] sequence — bitwise, on every
    /// backend and at every thread count: the region is sized by
    /// [`workers_for`] and scheduled in order-preserving waves (solves
    /// parallel over tasks, scatters parallel over grid slices, DESIGN.md
    /// §11); on one worker it *is* the serial loop over one pooled grid.
    ///
    /// The whole pipeline is one `xch.fused_pair_solve` span (the
    /// elementwise kernels carry none), so its self time is the paper's
    /// exchange component.
    fn fused_pair_solve(
        &self,
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
            |len| self.take_scratch(len),
            |buf| self.recycle_buffer(buf),
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

    /// Hands out a zeroed buffer of `len` elements. [`Blocked`] serves
    /// these from a pool so hot loops are allocation-free in steady
    /// state; [`Reference`] allocates fresh.
    fn take_buffer(&self, len: usize) -> Vec<Complex64>;

    /// Hands out a buffer initialized to a copy of `src` — like
    /// [`Backend::take_buffer`] + `copy_from_slice`, but without the
    /// redundant zero fill when every element is overwritten anyway.
    fn take_buffer_copy(&self, src: &[Complex64]) -> Vec<Complex64>;

    /// Hands out a buffer of `len` elements with *unspecified contents*
    /// (recycled values or zeros) — for scratch whose every element is
    /// written before being read, avoiding the zero fill of
    /// [`Backend::take_buffer`].
    fn take_scratch(&self, len: usize) -> Vec<Complex64>;

    /// Returns a buffer obtained from [`Backend::take_buffer`] to the
    /// backend for reuse.
    fn recycle_buffer(&self, buf: Vec<Complex64>);

    /// High-water-mark accounting of the backend's buffer pools (zeros
    /// for backends that don't pool). Tests use this to *assert* the
    /// pair pipeline's scratch bound rather than claim it.
    fn pool_stats(&self) -> PoolStats {
        PoolStats::default()
    }

    /// Resets the peak-bytes high-water marks to the current outstanding
    /// level (no-op for backends that don't pool).
    fn reset_pool_peak(&self) {}

    // -----------------------------------------------------------------
    // fp32 / mixed-precision primitives (see [`crate::precision`]).
    //
    // Contract: `Reference` and `Blocked` must agree *exactly* (same
    // per-element arithmetic order, value-equal results) on every fp32
    // primitive — reduced precision may not compound with backend
    // summation-order differences.
    // -----------------------------------------------------------------

    /// fp32 GEMM `alpha * op(A) * op(B)` (no accumulate input: fp32
    /// products always land in fresh fp32 or promoted fp64 targets).
    fn gemm32(&self, alpha: Complex32, a: &CMat32, op_a: Op, b: &CMat32, op_b: Op) -> CMat32;

    /// fp32 band-block overlap `S[i][j] = scale * <a_i|b_j>`.
    fn overlap32(&self, a: &[Complex32], b: &[Complex32], band_len: usize, scale: f32) -> CMat32;

    /// fp32 accumulating rotation `out_j += alpha Σ_i a_i q[i][j]`.
    fn rotate_acc32(
        &self,
        alpha: Complex32,
        a: &[Complex32],
        q: &CMat32,
        band_len: usize,
        out: &mut [Complex32],
    );

    /// Mixed-precision twin of [`Backend::fused_pair_solve`] — the same
    /// wave scheduler with fp32 stages: the pair density is formed and
    /// solved in fp32 (operands already demoted by the caller), and both
    /// scatters promote to the fp64 accumulator — optionally two-sum
    /// compensated through `comp` (band-major, parallel to `out`). No
    /// intermediate `CVec32` buffer hits the pool between demote, FFT,
    /// kernel multiply, inverse FFT, and promote-scatter. One
    /// `xch.fused_pair_solve32` span, like the fp64 pipeline.
    #[allow(clippy::too_many_arguments)]
    fn fused_pair_solve32(
        &self,
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
            |len| self.take_scratch32(len),
            |buf| self.recycle_buffer32(buf),
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

    /// Hands out an fp32 buffer of `len` elements with *unspecified
    /// contents* — the fp32 twin of [`Backend::take_scratch`].
    fn take_scratch32(&self, len: usize) -> Vec<Complex32>;

    /// Returns an fp32 buffer to the backend for reuse.
    fn recycle_buffer32(&self, buf: Vec<Complex32>);
}

/// Shared, clonable handle to a backend.
pub type BackendHandle = Arc<dyn Backend>;

/// The process-wide product backend, [`Blocked`]. Layers that are not
/// handed an explicit [`BackendHandle`] route through this.
pub fn default_backend() -> &'static BackendHandle {
    static DEFAULT: OnceLock<BackendHandle> = OnceLock::new();
    DEFAULT.get_or_init(|| Arc::new(Blocked::new()))
}

// ---------------------------------------------------------------------
// Reference backend
// ---------------------------------------------------------------------

/// The oracle backend: the plain scalar/threaded kernels, called
/// through the trait — what the test suites compare [`Blocked`] against.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reference;

impl Backend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn gemm(
        &self,
        alpha: Complex64,
        a: &CMat,
        op_a: Op,
        b: &CMat,
        op_b: Op,
        beta: Complex64,
        c0: Option<&CMat>,
    ) -> CMat {
        gemm::gemm(alpha, a, op_a, b, op_b, beta, c0)
    }

    fn overlap(&self, a: &[Complex64], b: &[Complex64], band_len: usize, scale: f64) -> CMat {
        bands::overlap(a, b, band_len, scale)
    }

    fn rotate(&self, a: &[Complex64], q: &CMat, band_len: usize, out: &mut [Complex64]) {
        bands::rotate(a, q, band_len, out);
    }

    fn rotate_acc(
        &self,
        alpha: Complex64,
        a: &[Complex64],
        q: &CMat,
        band_len: usize,
        out: &mut [Complex64],
    ) {
        bands::rotate_acc(alpha, a, q, band_len, out);
    }

    fn transform_batch(&self, pass: &dyn GridTransform, data: &mut [Complex64], count: usize) {
        let n = pass.grid_len();
        assert_eq!(data.len(), count * n, "transform_batch length mismatch");
        // One independent transform at a time, thread-parallel over grids.
        let workers = workers_for(count, n * TRANSFORM_WORK_PER_POINT);
        par_chunks_mut_on(workers, data, n.max(1), |_, grid| pass.run(grid));
    }

    fn take_buffer(&self, len: usize) -> Vec<Complex64> {
        vec![Complex64::ZERO; len]
    }

    fn take_buffer_copy(&self, src: &[Complex64]) -> Vec<Complex64> {
        src.to_vec()
    }

    fn take_scratch(&self, len: usize) -> Vec<Complex64> {
        vec![Complex64::ZERO; len]
    }

    fn recycle_buffer(&self, _buf: Vec<Complex64>) {}

    fn gemm32(&self, alpha: Complex32, a: &CMat32, op_a: Op, b: &CMat32, op_b: Op) -> CMat32 {
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

    fn overlap32(&self, a: &[Complex32], b: &[Complex32], band_len: usize, scale: f32) -> CMat32 {
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

    fn rotate_acc32(
        &self,
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

    fn take_scratch32(&self, len: usize) -> Vec<Complex32> {
        vec![Complex32::ZERO; len]
    }

    fn recycle_buffer32(&self, _buf: Vec<Complex32>) {}
}

// ---------------------------------------------------------------------
// Blocked backend
// ---------------------------------------------------------------------

/// Bounded thread-safe free list of scratch buffers, generic over the
/// element type so the fp64 and fp32 pipelines each pool their own
/// arenas.
///
/// `take` is best-fit: it hands out the *smallest* pooled buffer that
/// satisfies the request, so a batch-sized arena is not wasted on a
/// line-sized ask; `put` drops buffers beyond the count and byte caps
/// rather than growing without bound.
#[derive(Debug)]
pub(crate) struct BufferPool<T> {
    slots: Mutex<Vec<Vec<T>>>,
    /// Bytes currently checked out (taken but not yet `put` back).
    outstanding_bytes: AtomicUsize,
    /// Peak of `outstanding_bytes` since construction / last reset —
    /// the high-water mark the pair-pipeline scratch tests assert on.
    peak_bytes: AtomicUsize,
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
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
        let mut buf = self.take_empty(len);
        buf.resize(len, T::default());
        buf
    }

    /// Like [`Self::take`] but the contents are unspecified (recycled
    /// values or zeros) — for scratch whose every element is written
    /// before being read, avoiding the O(len) zero fill per checkout.
    pub(crate) fn take_garbage(&self, len: usize) -> Vec<T> {
        let mut buf = self.lookup(len).unwrap_or_else(|| Vec::with_capacity(len));
        self.note_checkout(&buf);
        if buf.len() < len {
            // resize only writes the tail beyond the current length.
            buf.resize(len, T::default());
        } else {
            buf.truncate(len);
        }
        buf
    }

    /// Best-fit lookup returning a *cleared* buffer with at least `len`
    /// capacity (no fill — for callers that overwrite every element).
    fn take_empty(&self, len: usize) -> Vec<T> {
        let mut buf = self.lookup(len).unwrap_or_else(|| Vec::with_capacity(len));
        self.note_checkout(&buf);
        buf.clear();
        buf
    }

    /// Charges a freshly checked-out buffer against the outstanding and
    /// peak counters.
    fn note_checkout(&self, buf: &Vec<T>) {
        let bytes = buf.capacity() * std::mem::size_of::<T>();
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
        let bytes = buf.capacity() * std::mem::size_of::<T>();
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

/// The product backend: cache-blocked and accelerator-style (the
/// paper's GPU strategy transplanted to CPU threads) — a register-tiled
/// micro-kernel for GEMM and the band kernels (`tiled`),
/// slab-decomposed batched transforms, and pooled buffers for
/// allocation-free hot loops.
#[derive(Debug, Default)]
pub struct Blocked {
    pool: BufferPool<Complex64>,
    pool32: BufferPool<Complex32>,
    /// Packed panels of the subspace kernel ([`tiled`]), per precision.
    pack: BufferPool<f64>,
    pack32: BufferPool<f32>,
}

impl Blocked {
    /// Creates the backend with an empty buffer pool.
    pub fn new() -> Self {
        Blocked::default()
    }
}

// ---------------------------------------------------------------------
// fp32 shared helpers
// ---------------------------------------------------------------------

/// Materializes `op(A)` row-major in fp32, Cow-borrowing the no-op case
/// (packing is exact: transposes and conjugation introduce no rounding,
/// so both backends can share it while staying value-identical).
fn packed32(a: &CMat32, op: Op) -> std::borrow::Cow<'_, CMat32> {
    use std::borrow::Cow;
    match op {
        Op::None => Cow::Borrowed(a),
        Op::Trans => Cow::Owned(CMat32::from_fn(a.cols(), a.rows(), |i, j| a[(j, i)])),
        Op::ConjTrans => {
            Cow::Owned(CMat32::from_fn(a.cols(), a.rows(), |i, j| a[(j, i)].conj()))
        }
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
        Op::ConjTrans => {
            Cow::Owned(CMat32::from_fn(b.rows(), b.cols(), |j, l| b[(j, l)].conj()))
        }
    }
}

/// Number of fp32 bands in a band-major block.
#[inline]
fn n_bands32(a: &[Complex32], band_len: usize) -> usize {
    assert!(band_len > 0, "band length must be positive");
    assert!(a.len().is_multiple_of(band_len), "block not a multiple of band length");
    a.len() / band_len
}

impl Backend for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn gemm(
        &self,
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
            &self.pack,
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

    fn overlap(&self, a: &[Complex64], b: &[Complex64], band_len: usize, scale: f64) -> CMat {
        let _s = pwobs::span("gemm.overlap");
        let na = bands::n_bands(a, band_len);
        let nb = bands::n_bands(b, band_len);
        let mut s = CMat::zeros(na, nb);
        tiled::product::<f64, true>(
            &self.pack,
            (na, nb, band_len),
            |i| bands::band(a, band_len, i),
            |l, j| b[j * band_len + l],
            |_, _, v| v.scale(scale),
            s.as_mut_slice(),
        );
        s
    }

    fn rotate(&self, a: &[Complex64], q: &CMat, band_len: usize, out: &mut [Complex64]) {
        let _s = pwobs::span("gemm.rotate");
        let na = bands::n_bands(a, band_len);
        assert_eq!(q.rows(), na, "rotate: Q row count must match band count");
        assert_eq!(out.len(), band_len * q.cols(), "rotate: bad output size");
        cvec::zero_fill(out);
        tiled::rotate(&self.pack, a, band_len, |i, j| q[(i, j)], out);
    }

    fn rotate_acc(
        &self,
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
        tiled::rotate(&self.pack, a, band_len, |i, j| alpha * q[(i, j)], out);
    }

    fn transform_batch(&self, pass: &dyn GridTransform, data: &mut [Complex64], count: usize) {
        let _s = pwobs::span("fft.transform_batch");
        let n = pass.grid_len();
        assert_eq!(data.len(), count * n, "transform_batch length mismatch");
        if count == 0 {
            return;
        }
        // Slab decomposition: each worker claims one contiguous run of
        // grids — the "multi-batch" strategy of the paper's cuFFT path.
        // One worker is one slab: the whole batch.
        let workers = workers_for(count, n * TRANSFORM_WORK_PER_POINT);
        par_chunks_mut_on(workers, data, (count.div_ceil(workers) * n).max(1), |_, slab| {
            slab.chunks_mut(n).for_each(|grid| pass.run(grid));
        });
    }

    fn take_buffer(&self, len: usize) -> Vec<Complex64> {
        self.pool.take(len)
    }

    fn take_buffer_copy(&self, src: &[Complex64]) -> Vec<Complex64> {
        let mut buf = self.pool.take_empty(src.len());
        buf.extend_from_slice(src);
        buf
    }

    fn take_scratch(&self, len: usize) -> Vec<Complex64> {
        self.pool.take_garbage(len)
    }

    fn recycle_buffer(&self, buf: Vec<Complex64>) {
        self.pool.put(buf);
    }

    fn pool_stats(&self) -> PoolStats {
        PoolStats { fp64: self.pool.stats(), fp32: self.pool32.stats() }
    }

    fn reset_pool_peak(&self) {
        self.pool.reset_peak();
        self.pool32.reset_peak();
    }

    fn gemm32(&self, alpha: Complex32, a: &CMat32, op_a: Op, b: &CMat32, op_b: Op) -> CMat32 {
        let _s = pwobs::span("gemm.gemm32");
        let ap = packed32(a, op_a);
        let bp = packed32_cols(b, op_b);
        let (m, k) = (ap.rows(), ap.cols());
        let n = bp.rows();
        assert_eq!(k, bp.cols(), "gemm32 inner dimension mismatch");
        let mut c = CMat32::zeros(m, n);
        tiled::product::<f32, false>(
            &self.pack32,
            (m, n, k),
            |i| ap.row(i),
            |l, j| bp[(j, l)],
            |_, _, s| s * alpha,
            c.as_mut_slice(),
        );
        c
    }

    fn overlap32(&self, a: &[Complex32], b: &[Complex32], band_len: usize, scale: f32) -> CMat32 {
        let _s = pwobs::span("gemm.overlap32");
        let na = n_bands32(a, band_len);
        let nb = n_bands32(b, band_len);
        let mut s = CMat32::zeros(na, nb);
        tiled::product::<f32, true>(
            &self.pack32,
            (na, nb, band_len),
            |i| &a[i * band_len..(i + 1) * band_len],
            |l, j| b[j * band_len + l],
            |_, _, v| v.scale(scale),
            s.as_mut_slice(),
        );
        s
    }

    fn rotate_acc32(
        &self,
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
        tiled::rotate(&self.pack32, a, band_len, |i, j| alpha * q[(i, j)], out);
    }

    fn take_scratch32(&self, len: usize) -> Vec<Complex32> {
        self.pool32.take_garbage(len)
    }

    fn recycle_buffer32(&self, buf: Vec<Complex32>) {
        self.pool32.put(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::parallel::with_workers;

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
        // Bit for bit on every edge of the register tile: rows ≡ 0..MR−1
        // (mod MR) against columns ≡ 0..NR−1 (mod NR), inner dimensions
        // inside one panel and across a panel boundary, every Op pair,
        // α and β ≠ 1, fp64 and fp32.
        use tiled::{KC, MR, NR};
        let (r, bl) = (Reference, Blocked::new());
        let ops = [Op::None, Op::Trans, Op::ConjTrans];
        let (alpha, beta) = (c64(0.7, -0.2), c64(-0.1, 0.4));
        let alpha32 = Complex32::from_c64(alpha);
        for (m, n, k) in (MR..2 * MR).flat_map(|m| (NR..2 * NR).map(move |n| (m, n))).flat_map(
            |(m, n)| [1, 5, KC + 1].map(|k| (m, n, k)),
        ) {
            let c0 = test_mat(m, n, 2.0);
            for (op_a, op_b) in ops.into_iter().flat_map(|oa| ops.map(|ob| (oa, ob))) {
                let (aa, bb) = (op_mat(op_a, m, k, 0.3), op_mat(op_b, k, n, 1.1));
                let what = format!("{op_a:?}/{op_b:?} {m}×{n}×{k}");
                for c0 in [Some(&c0), None] {
                    let want = r.gemm(alpha, &aa, op_a, &bb, op_b, beta, c0);
                    let got = bl.gemm(alpha, &aa, op_a, &bb, op_b, beta, c0);
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "gemm {what}");
                }
                let (a32, b32) = (CMat32::from_c64(&aa), CMat32::from_c64(&bb));
                let want = r.gemm32(alpha32, &a32, op_a, &b32, op_b);
                let got = bl.gemm32(alpha32, &a32, op_a, &b32, op_b);
                assert_eq!(bits32(got.as_slice()), bits32(want.as_slice()), "gemm32 {what}");
            }
        }
    }

    #[test]
    fn backends_agree_on_band_ops() {
        // Bit for bit on every tile edge: na ≡ 0..MR−1 (mod MR) against
        // nb ≡ 0..NR−1 (mod NR) bands, band lengths around one and two
        // panels (the rotation's tile rows, ≡ 0..MR−1 too), scale and α
        // ≠ 1, a zero weight beside nonzero ones and −0.0 in the
        // accumulated output, fp64 and fp32.
        use tiled::{KC, MR, NR};
        let (r, bl) = (Reference, Blocked::new());
        let alpha = c64(0.3, -1.1);
        let alpha32 = Complex32::from_c64(alpha);
        for len in [1, KC - 1, KC, KC + 1, KC + 2, 2 * KC + 3] {
            for (na, nb) in (MR..2 * MR).flat_map(|na| (NR..2 * NR).map(move |nb| (na, nb))) {
                let what = format!("{na}×{nb} bands of {len}");
                let (a, b) = (test_block(na, len, 0.2), test_block(nb, len, 1.4));
                let (want, got) = (r.overlap(&a, &b, len, 1.7), bl.overlap(&a, &b, len, 1.7));
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "overlap {what}");
                let (a32, b32) = (precision::demote(&a), precision::demote(&b));
                let want = r.overlap32(&a32, &b32, len, 1.7);
                let got = bl.overlap32(&a32, &b32, len, 1.7);
                assert_eq!(bits32(got.as_slice()), bits32(want.as_slice()), "overlap32 {what}");

                let mut q = test_mat(na, nb, 0.9);
                q[(1, 2)] = Complex64::ZERO;
                let mut out = test_block(nb, len, 2.5);
                out[len + len / 2] = c64(-0.0, -0.0);
                let (mut or_, mut ob) = (out.clone(), out.clone());
                r.rotate(&a, &q, len, &mut or_);
                bl.rotate(&a, &q, len, &mut ob);
                assert_eq!(bits(&ob), bits(&or_), "rotate {what}");
                let (mut or_, mut ob) = (out.clone(), out.clone());
                r.rotate_acc(alpha, &a, &q, len, &mut or_);
                bl.rotate_acc(alpha, &a, &q, len, &mut ob);
                assert_eq!(bits(&ob), bits(&or_), "rotate_acc {what}");
                let q32 = CMat32::from_c64(&q);
                let (mut or_, mut ob) = (precision::demote(&out), precision::demote(&out));
                r.rotate_acc32(alpha32, &a32, &q32, len, &mut or_);
                bl.rotate_acc32(alpha32, &a32, &q32, len, &mut ob);
                assert_eq!(bits32(&ob), bits32(&or_), "rotate_acc32 {what}");
            }
        }
    }

    #[test]
    fn rotation_skips_each_zero_weight_per_column() {
        // A NaN source band whose weight is zero in one column of a tile
        // whose other columns weigh it: the reference skips that step, so
        // that column stays finite and its neighbours go NaN — on both
        // backends, bit for bit, in both precisions.
        let (na, len) = (3, 9);
        let mut a = test_block(na, len, 0.2);
        a[len..2 * len].fill(c64(f64::NAN, 0.0));
        let mut q = test_mat(na, 4, 0.9);
        q[(1, 2)] = Complex64::ZERO;
        let alpha = c64(0.3, -1.1);
        let out = test_block(4, len, 2.5);
        let runs = [&Reference as &dyn Backend, &Blocked::new() as &dyn Backend].map(|be| {
            let mut rot = out.clone();
            be.rotate(&a, &q, len, &mut rot);
            let mut acc = out.clone();
            be.rotate_acc(alpha, &a, &q, len, &mut acc);
            let mut acc32 = precision::demote(&out);
            let (a32, q32) = (precision::demote(&a), CMat32::from_c64(&q));
            be.rotate_acc32(Complex32::from_c64(alpha), &a32, &q32, len, &mut acc32);
            (bits(&rot), bits(&acc), bits32(&acc32), rot)
        });
        assert_eq!(runs[1].0, runs[0].0, "rotate");
        assert_eq!(runs[1].1, runs[0].1, "rotate_acc");
        assert_eq!(runs[1].2, runs[0].2, "rotate_acc32");
        let rot = &runs[1].3;
        assert!(bands::band(rot, len, 2).iter().all(|z| z.is_finite()), "zero weight skipped");
        assert!(bands::band(rot, len, 1).iter().all(|z| z.is_nan()), "nonzero weight applied");
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
        for be in [&Reference as &dyn Backend, &Blocked::new() as &dyn Backend] {
            let mut batched = data0.clone();
            be.transform_batch(&pass, &mut batched, count);
            assert_eq!(bits(&batched), bits(&seq), "{}", be.name());
        }
    }

    #[test]
    fn buffer_pool_recycles_and_zeroes() {
        let bl = Blocked::new();
        let mut buf = bl.take_buffer(100);
        buf[0] = c64(5.0, 5.0);
        let cap = buf.capacity();
        bl.recycle_buffer(buf);
        let again = bl.take_buffer(64);
        // Reused the pooled allocation and re-zeroed it.
        assert_eq!(again.capacity(), cap);
        assert!(again.iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn default_backend_is_blocked() {
        assert_eq!(default_backend().name(), "blocked");
        assert!(std::ptr::eq(default_backend(), default_backend()), "one process-wide handle");
    }

    #[test]
    fn pool_tracks_outstanding_and_peak_bytes() {
        let bl = Blocked::new();
        assert_eq!(bl.pool_stats(), PoolStats::default());
        let sz = std::mem::size_of::<Complex64>();
        let b1 = bl.take_buffer(100);
        let b2 = bl.take_scratch(50);
        let peak_cap = (b1.capacity() + b2.capacity()) * sz;
        let stats = bl.pool_stats();
        assert_eq!(stats.fp64.outstanding_bytes, peak_cap);
        assert_eq!(stats.fp64.peak_bytes, peak_cap);
        assert_eq!(stats.fp32, PoolTypeStats::default());
        bl.recycle_buffer(b1);
        bl.recycle_buffer(b2);
        let stats = bl.pool_stats();
        // Everything returned; the high-water mark survives...
        assert_eq!(stats.fp64.outstanding_bytes, 0);
        assert_eq!(stats.fp64.peak_bytes, peak_cap);
        // ...until explicitly reset.
        bl.reset_pool_peak();
        assert_eq!(bl.pool_stats().fp64.peak_bytes, 0);
        // Reference pools nothing and reports zeros.
        let r = Reference;
        let b = r.take_buffer(10);
        assert_eq!(r.pool_stats(), PoolStats::default());
        r.recycle_buffer(b);
        r.reset_pool_peak();
    }

    #[test]
    fn fused_pair_solve_matches_staged_sequence_bitwise() {
        // The fused pipeline must reproduce the staged schedule —
        // pair-density, solve, forward scatter, reverse scatter, in
        // task order — exactly, on both backends.
        let ng = 10;
        let nb = 4;
        let phi = test_block(nb, ng, 0.8);
        let pass = ReversePass { n: ng };
        let tasks = [
            PairTask { i: 0, j: 0, w_fwd: -1.0, w_rev: 0.0 },
            PairTask { i: 0, j: 1, w_fwd: -1.0, w_rev: -0.5, },
            PairTask { i: 1, j: 2, w_fwd: 0.0, w_rev: -0.25 },
            PairTask { i: 2, j: 3, w_fwd: -0.75, w_rev: -0.125 },
        ];
        for be in [&Reference as &dyn Backend, &Blocked::new() as &dyn Backend] {
            let mut fused = vec![Complex64::ZERO; nb * ng];
            be.fused_pair_solve(&pass, &phi, &phi, ng, &tasks, &mut fused);

            let mut staged = vec![Complex64::ZERO; nb * ng];
            let mut pair = vec![Complex64::ZERO; ng];
            for t in &tasks {
                let phi_i = &phi[t.i * ng..(t.i + 1) * ng];
                let phi_j = &phi[t.j * ng..(t.j + 1) * ng];
                cvec::hadamard_conj(phi_i, phi_j, &mut pair);
                pass.run(&mut pair);
                if t.w_fwd != 0.0 {
                    cvec::hadamard_acc(
                        Complex64::from_re(t.w_fwd),
                        &pair,
                        phi_i,
                        &mut staged[t.j * ng..(t.j + 1) * ng],
                    );
                }
                if t.w_rev != 0.0 {
                    cvec::hadamard_acc_conj(
                        Complex64::from_re(t.w_rev),
                        &pair,
                        phi_j,
                        &mut staged[t.i * ng..(t.i + 1) * ng],
                    );
                }
            }
            assert_eq!(
                cvec::max_abs_diff(&fused, &staged),
                0.0,
                "fused != staged on {}",
                be.name()
            );
        }
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
        // workers × enumerator × precision × backend, against the
        // one-worker run and against the per-pair staged oracle. 37 grid
        // points split unevenly over 2, 3 and 5 slices; 54 and 90 tasks
        // are 1.7 and 2.8 waves; band 4 is screened.
        let (ng, nb) = (37, 10);
        let mut d: Vec<f64> = (0..nb).map(|i| 1.0 / (1.0 + i as f64)).collect();
        d[4] = 0.0;
        let phi = test_block(nb, ng, 0.8);
        let psi = test_block(nb, ng, 2.1);
        let (phi32, psi32) = (precision::demote(&phi), precision::demote(&psi));
        let (pass, pass32) = (ReversePass { n: ng }, ReversePass32 { n: ng });
        for be in [&Reference as &dyn Backend, &Blocked::new() as &dyn Backend] {
            for symmetric in [true, false] {
                let tasks = enumerate_tasks(&d, symmetric);
                assert_ne!(tasks.len() % waves::WAVE, 0);
                let (tgt, tgt32) = if symmetric { (&phi, &phi32) } else { (&psi, &psi32) };

                // fp64: staged oracle, then every worker count.
                let mut want = vec![Complex64::ZERO; nb * ng];
                let mut pair = vec![Complex64::ZERO; ng];
                for t in &tasks {
                    let (phi_i, psi_j) = (bands::band(&phi, ng, t.i), bands::band(tgt, ng, t.j));
                    cvec::hadamard_conj(phi_i, psi_j, &mut pair);
                    pass.run(&mut pair);
                    if t.w_fwd != 0.0 {
                        let out_j = bands::band_mut(&mut want, ng, t.j);
                        cvec::hadamard_acc(Complex64::from_re(t.w_fwd), &pair, phi_i, out_j);
                    }
                    if t.w_rev != 0.0 {
                        let out_i = bands::band_mut(&mut want, ng, t.i);
                        cvec::hadamard_acc_conj(Complex64::from_re(t.w_rev), &pair, psi_j, out_i);
                    }
                }
                // fp32 plain and compensated: the one-worker run is the
                // reference (its staged oracle is `pwdft::fock`'s
                // `fused_fp32_is_value_identical_to_staged_fp32`).
                let run32 = |workers: usize, compensated: bool| {
                    let mut out = vec![Complex64::ZERO; nb * ng];
                    let mut comp = compensated.then(|| vec![Complex64::ZERO; nb * ng]);
                    with_workers(workers, || {
                        be.fused_pair_solve32(
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
                    let what = format!("{} symmetric={symmetric} workers={workers}", be.name());
                    let mut got = vec![Complex64::ZERO; nb * ng];
                    with_workers(workers, || {
                        be.fused_pair_solve(&pass, &phi, tgt, ng, &tasks, &mut got)
                    });
                    assert_eq!(cvec::max_abs_diff(&got, &want), 0.0, "fp64 {what}");
                    for (compensated, want) in [false, true].into_iter().zip(&want32) {
                        let got = run32(workers, compensated);
                        assert!(got == *want, "fp32 compensated={compensated} {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn pair_pipeline_pool_peak_is_one_wave_of_grids() {
        let (ng, nb) = (24, 12);
        let phi = test_block(nb, ng, 0.3);
        let pass = ReversePass { n: ng };
        let tasks = enumerate_tasks(&vec![1.0; nb], true);
        assert!(tasks.len() > 2 * waves::WAVE);
        let grid_bytes = ng * std::mem::size_of::<Complex64>();
        for workers in [1, 2, 3, 5] {
            let bl = Blocked::new();
            let mut out = vec![Complex64::ZERO; nb * ng];
            with_workers(workers, || bl.fused_pair_solve(&pass, &phi, &phi, ng, &tasks, &mut out));
            let stats = bl.pool_stats().fp64;
            assert_eq!(stats.outstanding_bytes, 0, "everything went back to the pool");
            // One worker is the serial loop over one pair grid.
            let grids = if workers == 1 { 1 } else { waves::WAVE };
            assert_eq!(stats.peak_bytes, grids * grid_bytes, "workers={workers}");
        }
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
                            Blocked::new().fused_pair_solve(&pass, &phi, &phi, ng, &tasks, &mut out)
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
        // panels) must reproduce the inline result bit for bit — on both
        // backends, fp64 and fp32.
        let (m, k, n, len) = (7, 5, 10, 2 * tiled::KC + 3);
        let (a, b, c0) = (test_mat(m, k, 0.3), test_mat(k, n, 1.1), test_mat(m, n, 2.0));
        let (alpha, beta) = (c64(0.7, -0.2), c64(-0.1, 0.4));
        let (xa, xb) = (test_block(m, len, 0.2), test_block(n, len, 1.4));
        let q = test_mat(m, n, 0.9);
        let (a32, b32, q32) = (CMat32::from_c64(&a), CMat32::from_c64(&b), CMat32::from_c64(&q));
        let (xa32, xb32) = (precision::demote(&xa), precision::demote(&xb));
        let kernel: Vec<f64> = (0..len).map(|i| 0.5 + i as f64).collect();
        let pass = ReversePass { n: len };
        for be in [&Reference as &dyn Backend, &Blocked::new() as &dyn Backend] {
            let run = |workers: usize| {
                with_workers(workers, || {
                    let mut rot = vec![Complex64::ZERO; n * len];
                    be.rotate(&xa, &q, len, &mut rot);
                    be.rotate_acc(alpha, &xa, &q, len, &mut rot);
                    let mut lin = vec![Complex64::ZERO; n * len];
                    bands::lincomb(alpha, &xb, beta, &rot, &mut lin);
                    cvec::scale_by_real(&kernel, &mut lin);
                    be.transform_batch(&pass, &mut lin, n);
                    let mut rot32 = precision::demote(&rot);
                    be.rotate_acc32(Complex32::from_c64(alpha), &xa32, &q32, len, &mut rot32);
                    (
                        be.gemm(alpha, &a, Op::None, &b, Op::None, beta, Some(&c0)),
                        be.overlap(&xa, &xb, len, 1.7),
                        be.gemm32(Complex32::from_c64(alpha), &a32, Op::None, &b32, Op::None),
                        be.overlap32(&xa32, &xb32, len, 1.7),
                        (rot, lin, rot32),
                    )
                })
            };
            let want = run(1);
            for workers in [2, 3] {
                let got = run(workers);
                let name = be.name();
                let what = format!("{name} workers={workers}");
                assert_eq!(bits(got.0.as_slice()), bits(want.0.as_slice()), "gemm {what}");
                assert_eq!(bits(got.1.as_slice()), bits(want.1.as_slice()), "overlap {what}");
                assert_eq!(bits32(got.2.as_slice()), bits32(want.2.as_slice()), "gemm32 {what}");
                assert_eq!(bits32(got.3.as_slice()), bits32(want.3.as_slice()), "overlap32 {what}");
                let ((rot, lin, rot32), (rot_w, lin_w, rot32_w)) = (&got.4, &want.4);
                assert_eq!(bits(rot), bits(rot_w), "rotate, rotate_acc {what}");
                assert_eq!(bits(lin), bits(lin_w), "lincomb, scale, transform {what}");
                assert_eq!(bits32(rot32), bits32(rot32_w), "rotate_acc32 {what}");
            }
        }
    }

    #[test]
    fn pack_scratch_is_bounded_per_worker() {
        // The subspace kernel's scratch grows with the worker count,
        // never with the band length: the overlap holds its partial
        // chains plus one panel per worker, the rotation its packed
        // weights plus one source tile per worker.
        use tiled::{KC, MR, NR};
        let (nb, len, f) = (3 * NR, 4 * KC, std::mem::size_of::<f64>());
        let a = test_block(nb, len, 0.2);
        let q = test_mat(nb, nb, 0.9);
        for workers in [1, 2, 3] {
            let bl = Blocked::new();
            with_workers(workers, || bl.overlap(&a, &a, len, 1.0));
            let (partial, panel) = (3 * nb.div_ceil(MR) * MR * 2 * NR * f, KC * 2 * NR * f);
            let stats = bl.pack.stats();
            assert_eq!(stats.outstanding_bytes, 0, "overlap, workers={workers}");
            assert!(stats.peak_bytes <= partial + workers * panel, "overlap, workers={workers}");

            let bl = Blocked::new();
            let mut out = a.clone();
            with_workers(workers, || bl.rotate_acc(c64(0.5, 0.0), &a, &q, len, &mut out));
            let (weights, tile) = (3 * nb * 2 * NR * f, nb * 2 * MR * f);
            let stats = bl.pack.stats();
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
        let mut out_r = vec![Complex64::ZERO; nb * ng];
        let mut out_b = vec![Complex64::ZERO; nb * ng];
        Reference.fused_pair_solve32(&pass, phi, phi, ng, &tasks, &mut out_r, None);
        Blocked::new().fused_pair_solve32(&pass, phi, phi, ng, &tasks, &mut out_b, None);
        // fp32 primitives must agree exactly across backends.
        assert_eq!(cvec::max_abs_diff(&out_r, &out_b), 0.0);
        assert!(out_r.iter().any(|z| *z != Complex64::ZERO));
        // The compensated variant runs and stays close to the plain one.
        let mut out_c = vec![Complex64::ZERO; nb * ng];
        let mut comp = vec![Complex64::ZERO; nb * ng];
        Blocked::new()
            .fused_pair_solve32(&pass, phi, phi, ng, &tasks, &mut out_c, Some(&mut comp));
        assert!(cvec::max_abs_diff(&out_c, &out_b) < 1e-6);
    }
}
