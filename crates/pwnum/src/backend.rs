//! Pluggable compute backends for the performance-critical primitives.
//!
//! The paper's core engineering story is one rt-TDDFT code driving two
//! radically different platforms (ARM many-core and GPU) with the same
//! algorithm schedules. This module is the Rust analog of that seam: a
//! [`Backend`] trait owning every hot primitive — GEMM, the band-block
//! kernels (overlap / rotate / lincomb), elementwise kernel×field
//! products, and batched grid transforms with reusable scratch — so a
//! platform-specific implementation is *one type*, not a rewrite of the
//! physics layers.
//!
//! Two implementations ship here:
//!
//! * [`Reference`] — the original scalar/threaded kernels, unchanged,
//!   called through the trait. This is the "ARM-style" per-call path.
//! * [`Blocked`] — the accelerator-style path mirroring the paper's GPU
//!   strategy (Sec. III-B): a cache-blocked GEMM micro-kernel that reads
//!   each packed `A` panel row once per four output columns, band kernels
//!   with the same 4-wide register blocking, batched grid transforms that
//!   reuse one scratch arena per worker across the whole batch instead of
//!   allocating per transform, and a thread-safe [buffer pool]
//!   (`Backend::take_buffer`) that makes the Fock/ACE inner loops
//!   allocation-free in steady state.
//!
//! Both backends must agree to ≤ 1e-10 on every primitive; the property
//! suite `tests/backend_properties.rs` enforces this, and the FFT suite
//! in `pwfft` cross-checks batched transforms on the paper's
//! non-power-of-two 2/3/5-smooth grids.
//!
//! Higher layers hold a [`BackendHandle`] (`Arc<dyn Backend>`); call
//! sites without an explicit handle use [`default_backend`], selectable
//! at runtime via the `PWDFT_BACKEND` environment variable
//! (`reference` | `blocked`).

use crate::bands;
use crate::cmat::CMat;
use crate::complex::Complex64;
use crate::cvec;
use crate::gemm::{self, packed, packed_cols, Op};
use crate::parallel::{par_chunks_mut, par_chunks_mut_on, par_ranges, workers_for};
use crate::precision::{self, CMat32, Complex32};
use crate::waves;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One grid-sized pass of a batched transform (e.g. a forward or inverse
/// 3-D FFT over one grid). `pwfft` implements this for its plans; keeping
/// the trait here (below the FFT crate in the DAG) lets [`Backend`] own
/// the *batching strategy* — slab decomposition, scratch reuse, thread
/// count — without depending on any particular transform.
pub trait GridTransform: Sync {
    /// Number of elements in one grid.
    fn grid_len(&self) -> usize;
    /// Scratch elements required by one [`GridTransform::run`] call.
    fn scratch_len(&self) -> usize;
    /// Transforms one grid in place. `scratch` has at least
    /// [`GridTransform::scratch_len`] elements and may hold garbage.
    fn run(&self, grid: &mut [Complex64], scratch: &mut [Complex64]);
}

/// Single-precision twin of [`GridTransform`]: one pass of a batched
/// fp32 transform (the fp32 screened-Poisson FFT of the mixed-precision
/// exchange path). Implemented by `pwfft`'s fp32 plans.
pub trait GridTransform32: Sync {
    /// Number of elements in one grid.
    fn grid_len(&self) -> usize;
    /// Scratch elements required by one [`GridTransform32::run`] call.
    fn scratch_len(&self) -> usize;
    /// Transforms one grid in place. `scratch` has at least
    /// [`GridTransform32::scratch_len`] elements and may hold garbage.
    fn run(&self, grid: &mut [Complex32], scratch: &mut [Complex32]);
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

    /// Band-wise linear combination `out = ca*a + cb*b`
    /// (see [`bands::lincomb`]).
    fn lincomb(
        &self,
        ca: Complex64,
        a: &[Complex64],
        cb: Complex64,
        b: &[Complex64],
        out: &mut [Complex64],
    );

    /// Elementwise real-kernel apply `field *= k`, cycling the kernel
    /// over consecutive `k.len()`-sized chunks of `field` (the
    /// `K(G)·f_G` multiply of the screened Poisson solve, applied to a
    /// whole FFT batch in one call). `field.len()` must be a multiple of
    /// `k.len()`.
    fn scale_by_real(&self, k: &[f64], field: &mut [Complex64]);

    /// Elementwise conjugated product `out = conj(a) ⊙ b` — the
    /// pair-density kernel of the Fock operator.
    fn hadamard_conj(&self, a: &[Complex64], b: &[Complex64], out: &mut [Complex64]);

    /// Weighted elementwise accumulate `acc += w · a ⊙ b`.
    fn hadamard_acc(&self, w: Complex64, a: &[Complex64], b: &[Complex64], acc: &mut [Complex64]);

    /// Weighted conjugated accumulate `acc += w · conj(a) ⊙ b` — the
    /// swapped-side scatter of the pair-symmetric Fock scheduler: a real
    /// screened kernel gives `W_ji = conj(W_ij)`, so one solved pair grid
    /// updates both target bands, the second through this primitive.
    fn hadamard_acc_conj(
        &self,
        w: Complex64,
        a: &[Complex64],
        b: &[Complex64],
        acc: &mut [Complex64],
    );

    /// Runs `pass` over `count` consecutive grids in `data` — the batched
    /// 3-D FFT entry point. The backend owns the batching strategy (how
    /// grids map to workers and how scratch is provisioned).
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
    /// same elementwise kernels as a staged `hadamard_conj` → transform
    /// → `hadamard_acc` sequence — bitwise, on every backend and at
    /// every thread count: the region is sized by [`workers_for`] and
    /// scheduled in order-preserving waves (solves parallel over tasks,
    /// scatters parallel over grid slices, DESIGN.md §11); on one worker
    /// it *is* the serial loop over two pooled grids.
    fn fused_pair_solve(
        &self,
        solve: &dyn GridTransform,
        phi: &[Complex64],
        psi: &[Complex64],
        ng: usize,
        tasks: &[PairTask],
        out: &mut [Complex64],
    ) {
        assert_eq!(solve.grid_len(), ng, "fused_pair_solve: solve grid length mismatch");
        assert!(phi.len().is_multiple_of(ng.max(1)), "fused_pair_solve: bad phi length");
        assert!(psi.len().is_multiple_of(ng.max(1)), "fused_pair_solve: bad psi length");
        assert!(out.len().is_multiple_of(ng.max(1)), "fused_pair_solve: bad out length");
        waves::run(
            workers_for(tasks.len(), ng * PAIR_WORK_PER_POINT),
            ng,
            solve.scratch_len(),
            tasks,
            out,
            None,
            |len| self.take_scratch(len),
            |buf| self.recycle_buffer(buf),
            |t, pair, scratch| {
                self.hadamard_conj(&phi[t.i * ng..][..ng], &psi[t.j * ng..][..ng], pair);
                solve.run(pair, scratch);
            },
            |t, pair, r, bands| {
                if t.w_fwd != 0.0 {
                    let phi_i = &phi[t.i * ng..][r.clone()];
                    self.hadamard_acc(Complex64::from_re(t.w_fwd), pair, phi_i, bands[t.j].out);
                }
                if t.w_rev != 0.0 {
                    let psi_j = &psi[t.j * ng..][r];
                    self.hadamard_acc_conj(Complex64::from_re(t.w_rev), pair, psi_j, bands[t.i].out);
                }
            },
        );
    }

    /// Whether this backend wants *fused* (cache-tiled) strided grid
    /// passes when a transform offers both styles. Accelerator-style
    /// backends return `true`: the tiled variant moves several strided
    /// lines per memory sweep, the analog of the coalesced multi-line
    /// passes of the paper's GPU FFT path. Per-line and tiled variants
    /// are required to be bitwise identical.
    fn fused_grid_passes(&self) -> bool {
        false
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

    /// fp32 elementwise conjugated product `out = conj(a) ⊙ b` — the
    /// pair-density kernel of the fp32 Fock path.
    fn hadamard_conj32(&self, a: &[Complex32], b: &[Complex32], out: &mut [Complex32]);

    /// Weighted promote-accumulate `acc += w · a ⊙ b`: fp32 operands,
    /// fp64 products and accumulation, optionally two-sum compensated
    /// via `comp` (see [`precision::hadamard_acc_promote`]).
    fn hadamard_acc_promote(
        &self,
        w: f64,
        a: &[Complex32],
        b: &[Complex32],
        acc: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    );

    /// Conjugated variant of [`Backend::hadamard_acc_promote`]:
    /// `acc += w · conj(a) ⊙ b` — the swapped-side scatter of the
    /// pair-symmetric scheduler in fp32.
    fn hadamard_acc_promote_conj(
        &self,
        w: f64,
        a: &[Complex32],
        b: &[Complex32],
        acc: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    );

    /// Mixed-precision twin of [`Backend::fused_pair_solve`] — the same
    /// wave scheduler with fp32 stages: the pair density is formed and
    /// solved in fp32 (operands already demoted by the caller), and both
    /// scatters promote to the fp64 accumulator — optionally two-sum
    /// compensated through `comp` (band-major, parallel to `out`). No
    /// intermediate `CVec32` buffer hits the pool between demote, FFT,
    /// kernel multiply, inverse FFT, and promote-scatter.
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
            solve.scratch_len(),
            tasks,
            out,
            comp,
            |len| self.take_scratch32(len),
            |buf| self.recycle_buffer32(buf),
            |t, pair, scratch| {
                self.hadamard_conj32(&phi[t.i * ng..][..ng], &psi[t.j * ng..][..ng], pair);
                solve.run(pair, scratch);
            },
            |t, pair, r, bands| {
                if t.w_fwd != 0.0 {
                    let (phi_i, tgt) = (&phi[t.i * ng..][r.clone()], &mut bands[t.j]);
                    self.hadamard_acc_promote(t.w_fwd, pair, phi_i, tgt.out, tgt.comp.as_deref_mut());
                }
                if t.w_rev != 0.0 {
                    let (psi_j, tgt) = (&psi[t.j * ng..][r], &mut bands[t.i]);
                    self.hadamard_acc_promote_conj(
                        t.w_rev,
                        pair,
                        psi_j,
                        tgt.out,
                        tgt.comp.as_deref_mut(),
                    );
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

/// The process-wide default backend, selected once from the
/// `PWDFT_BACKEND` environment variable (`reference` or `blocked`;
/// default `blocked`). Layers that are not handed an explicit
/// [`BackendHandle`] route through this.
///
/// The handle is wrapped in the [`crate::traced::Traced`] observability
/// decorator, so every primitive carries a `pwobs` span — a single
/// relaxed atomic load per call while the recorder is disabled.
pub fn default_backend() -> &'static BackendHandle {
    static DEFAULT: OnceLock<BackendHandle> = OnceLock::new();
    DEFAULT.get_or_init(|| match std::env::var("PWDFT_BACKEND") {
        Ok(name) => by_name(&name).unwrap_or_else(|| {
            panic!("PWDFT_BACKEND={name:?} is not a known backend (reference|blocked)")
        }),
        Err(_) => crate::traced::Traced::wrap(Arc::new(Blocked::new())),
    })
}

/// Looks a backend up by name (`"reference"` or `"blocked"`), wrapped
/// in the observability decorator (see [`default_backend`]).
pub fn by_name(name: &str) -> Option<BackendHandle> {
    let inner: BackendHandle = match name {
        "reference" => Arc::new(Reference),
        "blocked" => Arc::new(Blocked::new()),
        _ => return None,
    };
    Some(crate::traced::Traced::wrap(inner))
}

// ---------------------------------------------------------------------
// Reference backend
// ---------------------------------------------------------------------

/// The original scalar/threaded kernels, called through the trait.
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

    fn lincomb(
        &self,
        ca: Complex64,
        a: &[Complex64],
        cb: Complex64,
        b: &[Complex64],
        out: &mut [Complex64],
    ) {
        bands::lincomb(ca, a, cb, b, out);
    }

    fn scale_by_real(&self, k: &[f64], field: &mut [Complex64]) {
        assert!(!k.is_empty(), "scale_by_real: empty kernel");
        assert!(field.len().is_multiple_of(k.len()), "scale_by_real: field not a multiple of kernel");
        for chunk in field.chunks_mut(k.len()) {
            for (f, &kv) in chunk.iter_mut().zip(k) {
                *f = f.scale(kv);
            }
        }
    }

    fn hadamard_conj(&self, a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
        cvec::hadamard_conj(a, b, out);
    }

    fn hadamard_acc(&self, w: Complex64, a: &[Complex64], b: &[Complex64], acc: &mut [Complex64]) {
        cvec::hadamard_acc(w, a, b, acc);
    }

    fn hadamard_acc_conj(
        &self,
        w: Complex64,
        a: &[Complex64],
        b: &[Complex64],
        acc: &mut [Complex64],
    ) {
        cvec::hadamard_acc_conj(w, a, b, acc);
    }

    fn transform_batch(&self, pass: &dyn GridTransform, data: &mut [Complex64], count: usize) {
        let n = pass.grid_len();
        assert_eq!(data.len(), count * n, "transform_batch length mismatch");
        let scratch_len = pass.scratch_len();
        // Per-call scratch allocation: the pre-backend semantics of one
        // independent transform at a time, thread-parallel over grids.
        let workers = workers_for(count, n * TRANSFORM_WORK_PER_POINT);
        par_chunks_mut_on(workers, data, n.max(1), |_, grid| {
            let mut scratch = vec![Complex64::ZERO; scratch_len];
            pass.run(grid, &mut scratch);
        });
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

    fn hadamard_conj32(&self, a: &[Complex32], b: &[Complex32], out: &mut [Complex32]) {
        precision::hadamard_conj32(a, b, out);
    }

    fn hadamard_acc_promote(
        &self,
        w: f64,
        a: &[Complex32],
        b: &[Complex32],
        acc: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    ) {
        precision::hadamard_acc_promote(w, a, b, acc, comp);
    }

    fn hadamard_acc_promote_conj(
        &self,
        w: f64,
        a: &[Complex32],
        b: &[Complex32],
        acc: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    ) {
        precision::hadamard_acc_promote_conj(w, a, b, acc, comp);
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
struct BufferPool<T> {
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
    fn take(&self, len: usize) -> Vec<T> {
        let mut buf = self.take_empty(len);
        buf.resize(len, T::default());
        buf
    }

    /// Like [`Self::take`] but the contents are unspecified (recycled
    /// values or zeros) — for scratch whose every element is written
    /// before being read, avoiding the O(len) zero fill per checkout.
    fn take_garbage(&self, len: usize) -> Vec<T> {
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

    fn put(&self, buf: Vec<T>) {
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

    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.lock().len()
    }
}

/// Cache-blocked, accelerator-style backend (the paper's GPU strategy
/// transplanted to CPU threads): 4-wide register blocking in GEMM and
/// the band kernels, slab-decomposed batched transforms with one scratch
/// arena per worker, and pooled buffers for allocation-free hot loops.
#[derive(Debug, Default)]
pub struct Blocked {
    pool: BufferPool<Complex64>,
    pool32: BufferPool<Complex32>,
}

/// Column-block width of the register micro-kernel: each packed `A` row
/// segment is read once per `NB` output columns. Blocking only regroups
/// output columns — each element's per-`l` accumulation order is fixed —
/// so the blocked and unblocked sums are value-identical.
const NB: usize = 4;

impl Blocked {
    /// Creates the backend with an empty buffer pool.
    pub fn new() -> Self {
        Blocked::default()
    }

    /// Number of buffers currently pooled (test/diagnostic hook).
    #[cfg(test)]
    fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// Accumulates `acc[j] += Σ_l a[l] * rows[j][l]` for up to [`NB`]
/// packed rows sharing one pass over `a` — the register micro-kernel.
/// The full block and the 2-wide remainder get register-resident arms;
/// every arm runs each element's per-`l` sum in the same order, so all
/// widths produce identical values.
#[inline]
fn dot_block(a: &[Complex64], rows: &[&[Complex64]], acc: &mut [Complex64]) {
    match rows.len() {
        2 => {
            let (r0, r1) = (rows[0], rows[1]);
            let (mut s0, mut s1) = (Complex64::ZERO, Complex64::ZERO);
            for (l, &av) in a.iter().enumerate() {
                s0 = av.mul_add(r0[l], s0);
                s1 = av.mul_add(r1[l], s1);
            }
            acc[0] += s0;
            acc[1] += s1;
        }
        4 => {
            let (r0, r1, r2, r3) = (rows[0], rows[1], rows[2], rows[3]);
            let (mut s0, mut s1, mut s2, mut s3) =
                (Complex64::ZERO, Complex64::ZERO, Complex64::ZERO, Complex64::ZERO);
            for (l, &av) in a.iter().enumerate() {
                s0 = av.mul_add(r0[l], s0);
                s1 = av.mul_add(r1[l], s1);
                s2 = av.mul_add(r2[l], s2);
                s3 = av.mul_add(r3[l], s3);
            }
            acc[0] += s0;
            acc[1] += s1;
            acc[2] += s2;
            acc[3] += s3;
        }
        m => {
            for (j, rj) in rows.iter().enumerate().take(m) {
                let mut s = Complex64::ZERO;
                for (l, &av) in a.iter().enumerate() {
                    s = av.mul_add(rj[l], s);
                }
                acc[j] += s;
            }
        }
    }
}

/// Conjugating variant of [`dot_block`]: `acc[j] += Σ_l conj(a[l]) * rows[j][l]`.
#[inline]
fn dotc_block(a: &[Complex64], rows: &[&[Complex64]], acc: &mut [Complex64]) {
    match rows.len() {
        2 => {
            let (r0, r1) = (rows[0], rows[1]);
            let (mut s0, mut s1) = (Complex64::ZERO, Complex64::ZERO);
            for (l, av) in a.iter().enumerate() {
                let ac = av.conj();
                s0 = ac.mul_add(r0[l], s0);
                s1 = ac.mul_add(r1[l], s1);
            }
            acc[0] += s0;
            acc[1] += s1;
        }
        4 => {
            let (r0, r1, r2, r3) = (rows[0], rows[1], rows[2], rows[3]);
            let (mut s0, mut s1, mut s2, mut s3) =
                (Complex64::ZERO, Complex64::ZERO, Complex64::ZERO, Complex64::ZERO);
            for (l, av) in a.iter().enumerate() {
                let ac = av.conj();
                s0 = ac.mul_add(r0[l], s0);
                s1 = ac.mul_add(r1[l], s1);
                s2 = ac.mul_add(r2[l], s2);
                s3 = ac.mul_add(r3[l], s3);
            }
            acc[0] += s0;
            acc[1] += s1;
            acc[2] += s2;
            acc[3] += s3;
        }
        m => {
            for (j, rj) in rows.iter().enumerate().take(m) {
                let mut s = Complex64::ZERO;
                for (l, av) in a.iter().enumerate() {
                    s = av.conj().mul_add(rj[l], s);
                }
                acc[j] += s;
            }
        }
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

/// fp32 twin of [`dot_block`]: `acc[j] += Σ_l a[l] * rows[j][l]`, each
/// output element accumulated sequentially over `l` — the same
/// per-element order as a naive loop, so blocking never changes values.
#[inline]
fn dot_block32(a: &[Complex32], rows: &[&[Complex32]], acc: &mut [Complex32]) {
    match rows.len() {
        2 => {
            let (r0, r1) = (rows[0], rows[1]);
            let (mut s0, mut s1) = (Complex32::ZERO, Complex32::ZERO);
            for (l, &av) in a.iter().enumerate() {
                s0 = av.mul_add(r0[l], s0);
                s1 = av.mul_add(r1[l], s1);
            }
            acc[0] += s0;
            acc[1] += s1;
        }
        4 => {
            let (r0, r1, r2, r3) = (rows[0], rows[1], rows[2], rows[3]);
            let (mut s0, mut s1, mut s2, mut s3) =
                (Complex32::ZERO, Complex32::ZERO, Complex32::ZERO, Complex32::ZERO);
            for (l, &av) in a.iter().enumerate() {
                s0 = av.mul_add(r0[l], s0);
                s1 = av.mul_add(r1[l], s1);
                s2 = av.mul_add(r2[l], s2);
                s3 = av.mul_add(r3[l], s3);
            }
            acc[0] += s0;
            acc[1] += s1;
            acc[2] += s2;
            acc[3] += s3;
        }
        m => {
            for (j, rj) in rows.iter().enumerate().take(m) {
                let mut s = Complex32::ZERO;
                for (l, &av) in a.iter().enumerate() {
                    s = av.mul_add(rj[l], s);
                }
                acc[j] += s;
            }
        }
    }
}

/// Conjugating fp32 variant: `acc[j] += Σ_l conj(a[l]) * rows[j][l]`.
#[inline]
fn dotc_block32(a: &[Complex32], rows: &[&[Complex32]], acc: &mut [Complex32]) {
    match rows.len() {
        2 => {
            let (r0, r1) = (rows[0], rows[1]);
            let (mut s0, mut s1) = (Complex32::ZERO, Complex32::ZERO);
            for (l, av) in a.iter().enumerate() {
                let ac = av.conj();
                s0 = ac.mul_add(r0[l], s0);
                s1 = ac.mul_add(r1[l], s1);
            }
            acc[0] += s0;
            acc[1] += s1;
        }
        4 => {
            let (r0, r1, r2, r3) = (rows[0], rows[1], rows[2], rows[3]);
            let (mut s0, mut s1, mut s2, mut s3) =
                (Complex32::ZERO, Complex32::ZERO, Complex32::ZERO, Complex32::ZERO);
            for (l, av) in a.iter().enumerate() {
                let ac = av.conj();
                s0 = ac.mul_add(r0[l], s0);
                s1 = ac.mul_add(r1[l], s1);
                s2 = ac.mul_add(r2[l], s2);
                s3 = ac.mul_add(r3[l], s3);
            }
            acc[0] += s0;
            acc[1] += s1;
            acc[2] += s2;
            acc[3] += s3;
        }
        m => {
            for (j, rj) in rows.iter().enumerate().take(m) {
                let mut s = Complex32::ZERO;
                for (l, av) in a.iter().enumerate() {
                    s = av.conj().mul_add(rj[l], s);
                }
                acc[j] += s;
            }
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
        let ap = packed(a, op_a);
        let bp = packed_cols(b, op_b);
        let (m, k) = (ap.rows(), ap.cols());
        let n = bp.rows();
        assert_eq!(k, bp.cols(), "gemm inner dimension mismatch");
        if let Some(c0) = c0 {
            assert_eq!((c0.rows(), c0.cols()), (m, n), "gemm C dimension mismatch");
        }
        let mut c = CMat::zeros(m, n);
        {
            let rows: Vec<Mutex<&mut [Complex64]>> =
                c.as_mut_slice().chunks_mut(n.max(1)).map(Mutex::new).collect();
            let ap = &*ap;
            let bp = &*bp;
            par_ranges(m, n * k, |lo, hi| {
                let mut blk: [&[Complex64]; NB] = [&[]; NB];
                for (i, crow_m) in rows.iter().enumerate().take(hi).skip(lo) {
                    let arow = ap.row(i);
                    let mut crow = crow_m.lock();
                    let mut jb = 0;
                    while jb < n {
                        let jn = (jb + NB).min(n);
                        for (s, j) in (jb..jn).enumerate() {
                            blk[s] = bp.row(j);
                        }
                        dot_block(arow, &blk[..jn - jb], &mut crow[jb..jn]);
                        jb = jn;
                    }
                    for (j, cv) in crow.iter_mut().enumerate() {
                        let mut v = *cv * alpha;
                        if let Some(c0) = c0 {
                            v += beta * c0[(i, j)];
                        }
                        *cv = v;
                    }
                }
            });
        }
        c
    }

    fn overlap(&self, a: &[Complex64], b: &[Complex64], band_len: usize, scale: f64) -> CMat {
        let na = bands::n_bands(a, band_len);
        let nb = bands::n_bands(b, band_len);
        let mut s = CMat::zeros(na, nb);
        {
            let rows: Vec<Mutex<&mut [Complex64]>> =
                s.as_mut_slice().chunks_mut(nb.max(1)).map(Mutex::new).collect();
            par_ranges(na, nb * band_len, |lo, hi| {
                let mut blk: [&[Complex64]; NB] = [&[]; NB];
                for (i, row_m) in rows.iter().enumerate().take(hi).skip(lo) {
                    let ai = bands::band(a, band_len, i);
                    let mut row = row_m.lock();
                    let mut jb = 0;
                    while jb < nb {
                        let jn = (jb + NB).min(nb);
                        for (s, j) in (jb..jn).enumerate() {
                            blk[s] = bands::band(b, band_len, j);
                        }
                        dotc_block(ai, &blk[..jn - jb], &mut row[jb..jn]);
                        jb = jn;
                    }
                    for v in row.iter_mut() {
                        *v = v.scale(scale);
                    }
                }
            });
        }
        s
    }

    fn rotate(&self, a: &[Complex64], q: &CMat, band_len: usize, out: &mut [Complex64]) {
        let na = bands::n_bands(a, band_len);
        assert_eq!(q.rows(), na, "rotate: Q row count must match band count");
        assert_eq!(out.len(), band_len * q.cols(), "rotate: bad output size");
        cvec::zero_fill(out);
        self.rotate_acc(Complex64::ONE, a, q, band_len, out);
    }

    fn rotate_acc(
        &self,
        alpha: Complex64,
        a: &[Complex64],
        q: &CMat,
        band_len: usize,
        out: &mut [Complex64],
    ) {
        let na = bands::n_bands(a, band_len);
        assert_eq!(q.rows(), na, "rotate_acc: Q row count must match band count");
        assert_eq!(out.len(), band_len * q.cols(), "rotate_acc: bad output size");
        // Process output bands in blocks of NB: one pass over each source
        // band updates NB outputs, dividing source-read traffic by NB.
        let workers = workers_for(q.cols().div_ceil(NB), NB * na * band_len);
        par_chunks_mut_on(workers, out, band_len * NB, |blk_idx, oblk| {
            let j0 = blk_idx * NB;
            let width = oblk.len() / band_len;
            for i in 0..na {
                let ai = bands::band(a, band_len, i);
                let mut w = [Complex64::ZERO; NB];
                let mut any = false;
                for s in 0..width {
                    w[s] = alpha * q[(i, j0 + s)];
                    any |= w[s] != Complex64::ZERO;
                }
                if !any {
                    continue;
                }
                match width {
                    4 => {
                        let (o0, rest) = oblk.split_at_mut(band_len);
                        let (o1, rest) = rest.split_at_mut(band_len);
                        let (o2, o3) = rest.split_at_mut(band_len);
                        let (w0, w1, w2, w3) = (w[0], w[1], w[2], w[3]);
                        for (l, &av) in ai.iter().enumerate() {
                            o0[l] = av.mul_add(w0, o0[l]);
                            o1[l] = av.mul_add(w1, o1[l]);
                            o2[l] = av.mul_add(w2, o2[l]);
                            o3[l] = av.mul_add(w3, o3[l]);
                        }
                    }
                    _ => {
                        for (s, oj) in oblk.chunks_mut(band_len).enumerate() {
                            if w[s] != Complex64::ZERO {
                                cvec::axpy(w[s], ai, oj);
                            }
                        }
                    }
                }
            }
        });
    }

    fn lincomb(
        &self,
        ca: Complex64,
        a: &[Complex64],
        cb: Complex64,
        b: &[Complex64],
        out: &mut [Complex64],
    ) {
        // Memory-bound: the reference loop is already optimal.
        bands::lincomb(ca, a, cb, b, out);
    }

    fn scale_by_real(&self, k: &[f64], field: &mut [Complex64]) {
        assert!(!k.is_empty(), "scale_by_real: empty kernel");
        assert!(field.len().is_multiple_of(k.len()), "scale_by_real: field not a multiple of kernel");
        // One fused parallel pass over the whole batch.
        par_chunks_mut(field, k.len(), |_, chunk| {
            for (f, &kv) in chunk.iter_mut().zip(k) {
                *f = f.scale(kv);
            }
        });
    }

    fn hadamard_conj(&self, a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
        cvec::hadamard_conj(a, b, out);
    }

    fn hadamard_acc(&self, w: Complex64, a: &[Complex64], b: &[Complex64], acc: &mut [Complex64]) {
        cvec::hadamard_acc(w, a, b, acc);
    }

    fn hadamard_acc_conj(
        &self,
        w: Complex64,
        a: &[Complex64],
        b: &[Complex64],
        acc: &mut [Complex64],
    ) {
        assert_eq!(a.len(), b.len(), "hadamard_acc_conj length mismatch");
        assert_eq!(a.len(), acc.len(), "hadamard_acc_conj output length mismatch");
        // 4-wide unrolled body (same per-element math as the reference
        // kernel, so both backends are bitwise identical): four
        // independent accumulator chains per sweep, mirroring the
        // register blocking of `dot_block`.
        let n = a.len();
        let head = n - n % NB;
        let mut l = 0;
        while l < head {
            let (a0, a1, a2, a3) = (a[l], a[l + 1], a[l + 2], a[l + 3]);
            let (b0, b1, b2, b3) = (b[l], b[l + 1], b[l + 2], b[l + 3]);
            acc[l] = (a0.conj() * b0).mul_add(w, acc[l]);
            acc[l + 1] = (a1.conj() * b1).mul_add(w, acc[l + 1]);
            acc[l + 2] = (a2.conj() * b2).mul_add(w, acc[l + 2]);
            acc[l + 3] = (a3.conj() * b3).mul_add(w, acc[l + 3]);
            l += NB;
        }
        for i in head..n {
            acc[i] = (a[i].conj() * b[i]).mul_add(w, acc[i]);
        }
    }

    fn transform_batch(&self, pass: &dyn GridTransform, data: &mut [Complex64], count: usize) {
        let n = pass.grid_len();
        assert_eq!(data.len(), count * n, "transform_batch length mismatch");
        if count == 0 {
            return;
        }
        let scratch_len = pass.scratch_len();
        // Slab decomposition: each worker claims one contiguous run of
        // grids and reuses a single pooled arena across all of them —
        // the "multi-batch" strategy of the paper's cuFFT path
        // (garbage-tolerant: GridTransform::run never reads scratch
        // before writing it). One worker is one slab: the whole batch.
        let workers = workers_for(count, n * TRANSFORM_WORK_PER_POINT);
        par_chunks_mut_on(workers, data, (count.div_ceil(workers) * n).max(1), |_, slab| {
            let mut scratch = self.pool.take_garbage(scratch_len);
            for grid in slab.chunks_mut(n) {
                pass.run(grid, &mut scratch);
            }
            self.pool.put(scratch);
        });
    }

    fn fused_grid_passes(&self) -> bool {
        true
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
        let ap = packed32(a, op_a);
        let bp = packed32_cols(b, op_b);
        let (m, k) = (ap.rows(), ap.cols());
        let n = bp.rows();
        assert_eq!(k, bp.cols(), "gemm32 inner dimension mismatch");
        let mut c = CMat32::zeros(m, n);
        // Register blocking over output columns; each element's sum runs
        // in the same l order as the reference loop, so both backends
        // produce identical values.
        let mut blk: [&[Complex32]; NB] = [&[]; NB];
        let mut crow = vec![Complex32::ZERO; n];
        for i in 0..m {
            let arow = ap.row(i);
            crow.fill(Complex32::ZERO);
            let mut jb = 0;
            while jb < n {
                let jn = (jb + NB).min(n);
                for (s, j) in (jb..jn).enumerate() {
                    blk[s] = bp.row(j);
                }
                dot_block32(arow, &blk[..jn - jb], &mut crow[jb..jn]);
                jb = jn;
            }
            for (j, cv) in crow.iter().enumerate() {
                c[(i, j)] = *cv * alpha;
            }
        }
        c
    }

    fn overlap32(&self, a: &[Complex32], b: &[Complex32], band_len: usize, scale: f32) -> CMat32 {
        let na = n_bands32(a, band_len);
        let nb = n_bands32(b, band_len);
        let mut s = CMat32::zeros(na, nb);
        // Row-parallel like the fp64 twin: rows are independent and each
        // element's per-l summation order is unchanged, so the result
        // stays exactly equal to the reference loop.
        {
            let rows: Vec<Mutex<&mut [Complex32]>> =
                s.as_mut_slice().chunks_mut(nb.max(1)).map(Mutex::new).collect();
            par_ranges(na, nb * band_len, |lo, hi| {
                let mut blk: [&[Complex32]; NB] = [&[]; NB];
                for (i, row_m) in rows.iter().enumerate().take(hi).skip(lo) {
                    let ai = &a[i * band_len..(i + 1) * band_len];
                    let mut row = row_m.lock();
                    let mut jb = 0;
                    while jb < nb {
                        let jn = (jb + NB).min(nb);
                        for (t, j) in (jb..jn).enumerate() {
                            blk[t] = &b[j * band_len..(j + 1) * band_len];
                        }
                        dotc_block32(ai, &blk[..jn - jb], &mut row[jb..jn]);
                        jb = jn;
                    }
                    for v in row.iter_mut() {
                        *v = v.scale(scale);
                    }
                }
            });
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
        // NB output bands per pass over each source band (same
        // per-element accumulation order over i as the reference loop).
        let workers = workers_for(q.cols().div_ceil(NB), NB * na * band_len);
        par_chunks_mut_on(workers, out, band_len * NB, |blk_idx, oblk| {
            let j0 = blk_idx * NB;
            let width = oblk.len() / band_len;
            for i in 0..na {
                let ai = &a[i * band_len..(i + 1) * band_len];
                let mut w = [Complex32::ZERO; NB];
                let mut any = false;
                for s in 0..width {
                    w[s] = alpha * q[(i, j0 + s)];
                    any |= w[s] != Complex32::ZERO;
                }
                if !any {
                    continue;
                }
                match width {
                    4 => {
                        let (o0, rest) = oblk.split_at_mut(band_len);
                        let (o1, rest) = rest.split_at_mut(band_len);
                        let (o2, o3) = rest.split_at_mut(band_len);
                        let (w0, w1, w2, w3) = (w[0], w[1], w[2], w[3]);
                        for (l, &av) in ai.iter().enumerate() {
                            o0[l] = av.mul_add(w0, o0[l]);
                            o1[l] = av.mul_add(w1, o1[l]);
                            o2[l] = av.mul_add(w2, o2[l]);
                            o3[l] = av.mul_add(w3, o3[l]);
                        }
                    }
                    _ => {
                        for (s, oj) in oblk.chunks_mut(band_len).enumerate() {
                            if w[s] != Complex32::ZERO {
                                for (o, &av) in oj.iter_mut().zip(ai) {
                                    *o = av.mul_add(w[s], *o);
                                }
                            }
                        }
                    }
                }
            }
        });
    }

    fn hadamard_conj32(&self, a: &[Complex32], b: &[Complex32], out: &mut [Complex32]) {
        precision::hadamard_conj32(a, b, out);
    }

    fn hadamard_acc_promote(
        &self,
        w: f64,
        a: &[Complex32],
        b: &[Complex32],
        acc: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    ) {
        precision::hadamard_acc_promote(w, a, b, acc, comp);
    }

    fn hadamard_acc_promote_conj(
        &self,
        w: f64,
        a: &[Complex32],
        b: &[Complex32],
        acc: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    ) {
        precision::hadamard_acc_promote_conj(w, a, b, acc, comp);
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
    /// reverse the grid through scratch, then scale by 2.
    struct ReversePass {
        n: usize,
    }

    impl GridTransform for ReversePass {
        fn grid_len(&self) -> usize {
            self.n
        }
        fn scratch_len(&self) -> usize {
            self.n
        }
        fn run(&self, grid: &mut [Complex64], scratch: &mut [Complex64]) {
            scratch[..self.n].copy_from_slice(grid);
            for (g, s) in grid.iter_mut().zip(scratch[..self.n].iter().rev()) {
                *g = s.scale(2.0);
            }
        }
    }

    #[test]
    fn backends_agree_on_gemm_all_ops() {
        let r = Reference;
        let bl = Blocked::new();
        let a = test_mat(7, 5, 0.3);
        let at = test_mat(5, 7, 0.3);
        // Column counts ≡ 1, 2, 3 (mod NB): every remainder arm of the
        // register micro-kernel after the full blocks.
        for n in [9, 10, 11] {
            let c0 = test_mat(7, n, 2.0);
            for (op_a, aa) in [(Op::None, &a), (Op::Trans, &at)] {
                for op_b in [Op::None, Op::Trans, Op::ConjTrans] {
                    let bb = match op_b {
                        Op::None => test_mat(5, n, 1.1),
                        _ => test_mat(n, 5, 1.1),
                    };
                    let alpha = c64(0.7, -0.2);
                    let beta = c64(-0.1, 0.4);
                    let want = r.gemm(alpha, aa, op_a, &bb, op_b, beta, Some(&c0));
                    let got = bl.gemm(alpha, aa, op_a, &bb, op_b, beta, Some(&c0));
                    assert!(
                        want.max_abs_diff(&got) < 1e-12,
                        "gemm mismatch for {op_a:?}/{op_b:?}, {n} columns"
                    );
                    let (a32, b32) = (CMat32::from_c64(aa), CMat32::from_c64(&bb));
                    let alpha32 = Complex32::from_c64(alpha);
                    let want = r.gemm32(alpha32, &a32, op_a, &b32, op_b);
                    let got = bl.gemm32(alpha32, &a32, op_a, &b32, op_b);
                    assert_eq!(
                        want.max_abs_diff(&got),
                        0.0,
                        "gemm32 {op_a:?}/{op_b:?}, {n} columns"
                    );
                }
            }
        }
    }

    #[test]
    fn backends_agree_on_band_ops() {
        let r = Reference;
        let bl = Blocked::new();
        let (nb, len) = (6, 37);
        let a = test_block(nb, len, 0.2);
        // Column counts ≡ 1, 2, 3 (mod NB), as in the GEMM test.
        for cols in [5, 6, 7] {
            let b = test_block(cols, len, 1.4);
            let sr = r.overlap(&a, &b, len, 1.7);
            let sb = bl.overlap(&a, &b, len, 1.7);
            assert!(sr.max_abs_diff(&sb) < 1e-12, "overlap, {cols} columns");
            let (a32, b32) = (precision::demote(&a), precision::demote(&b));
            let sr = r.overlap32(&a32, &b32, len, 1.7);
            let sb = bl.overlap32(&a32, &b32, len, 1.7);
            assert_eq!(sr.max_abs_diff(&sb), 0.0, "overlap32, {cols} columns");
        }

        let q = test_mat(nb, 5, 0.9);
        let mut or_ = vec![Complex64::ZERO; len * 5];
        let mut ob = or_.clone();
        r.rotate(&a, &q, len, &mut or_);
        bl.rotate(&a, &q, len, &mut ob);
        assert!(cvec::max_abs_diff(&or_, &ob) < 1e-12);

        let alpha = c64(0.3, -1.1);
        r.rotate_acc(alpha, &a, &q, len, &mut or_);
        bl.rotate_acc(alpha, &a, &q, len, &mut ob);
        assert!(cvec::max_abs_diff(&or_, &ob) < 1e-12);
    }

    #[test]
    fn scale_by_real_cycles_kernel_over_batch() {
        let r = Reference;
        let bl = Blocked::new();
        let k = [2.0, 3.0, 4.0];
        let base = test_block(1, 12, 0.5);
        let mut fr = base.clone();
        let mut fb = base.clone();
        r.scale_by_real(&k, &mut fr);
        bl.scale_by_real(&k, &mut fb);
        assert!(cvec::max_abs_diff(&fr, &fb) < 1e-15);
        for (i, (v, orig)) in fr.iter().zip(&base).enumerate() {
            assert!((*v - orig.scale(k[i % 3])).abs() < 1e-15);
        }
    }

    #[test]
    fn transform_batch_matches_sequential_and_reuses_pool() {
        let bl = Blocked::new();
        let pass = ReversePass { n: 10 };
        let count = 9;
        let data0 = test_block(count, 10, 0.8);
        let mut batched = data0.clone();
        bl.transform_batch(&pass, &mut batched, count);
        let mut seq = data0;
        let mut scratch = vec![Complex64::ZERO; 10];
        for grid in seq.chunks_mut(10) {
            pass.run(grid, &mut scratch);
        }
        assert!(cvec::max_abs_diff(&batched, &seq) < 1e-15);
        // The arena(s) went back to the pool.
        assert!(bl.pooled() >= 1);
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
    fn by_name_and_default() {
        assert_eq!(by_name("reference").unwrap().name(), "reference");
        assert_eq!(by_name("blocked").unwrap().name(), "blocked");
        assert!(by_name("cuda").is_none());
        let d = default_backend();
        assert!(d.name() == "reference" || d.name() == "blocked");
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
            let mut scratch = vec![Complex64::ZERO; pass.scratch_len()];
            for t in &tasks {
                let phi_i = &phi[t.i * ng..(t.i + 1) * ng];
                let phi_j = &phi[t.j * ng..(t.j + 1) * ng];
                be.hadamard_conj(phi_i, phi_j, &mut pair);
                pass.run(&mut pair, &mut scratch);
                if t.w_fwd != 0.0 {
                    be.hadamard_acc(
                        Complex64::from_re(t.w_fwd),
                        &pair,
                        phi_i,
                        &mut staged[t.j * ng..(t.j + 1) * ng],
                    );
                }
                if t.w_rev != 0.0 {
                    be.hadamard_acc_conj(
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
                let mut scratch = vec![Complex64::ZERO; ng];
                for t in &tasks {
                    let (phi_i, psi_j) = (bands::band(&phi, ng, t.i), bands::band(tgt, ng, t.j));
                    be.hadamard_conj(phi_i, psi_j, &mut pair);
                    pass.run(&mut pair, &mut scratch);
                    if t.w_fwd != 0.0 {
                        let out_j = bands::band_mut(&mut want, ng, t.j);
                        be.hadamard_acc(Complex64::from_re(t.w_fwd), &pair, phi_i, out_j);
                    }
                    if t.w_rev != 0.0 {
                        let out_i = bands::band_mut(&mut want, ng, t.i);
                        be.hadamard_acc_conj(Complex64::from_re(t.w_rev), &pair, psi_j, out_i);
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
    fn pair_pipeline_pool_peak_is_one_wave_plus_one_arena_per_worker() {
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
            // One worker is the serial loop: one pair grid, one arena.
            let grids = if workers == 1 { 2 } else { waves::WAVE + workers };
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
        fn scratch_len(&self) -> usize {
            0
        }
        fn run(&self, _grid: &mut [Complex64], _scratch: &mut [Complex64]) {
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
        // Every row, band block and slab is written by exactly one
        // worker, so forcing the regions onto 2 and 3 workers (shapes
        // far below the work threshold) must reproduce the inline
        // result bit for bit — on both backends, fp64 and fp32.
        let (m, k, n, len) = (7, 5, 10, 37);
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
                    be.lincomb(alpha, &xb, beta, &rot, &mut lin);
                    be.scale_by_real(&kernel, &mut lin);
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
                assert_eq!(got.0.max_abs_diff(&want.0), 0.0, "gemm {name} workers={workers}");
                assert_eq!(got.1.max_abs_diff(&want.1), 0.0, "overlap {name} workers={workers}");
                assert_eq!(got.2.max_abs_diff(&want.2), 0.0, "gemm32 {name} workers={workers}");
                assert_eq!(got.3.max_abs_diff(&want.3), 0.0, "overlap32 {name} workers={workers}");
                assert!(got.4 == want.4, "band kernels {name} workers={workers}");
            }
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
        fn scratch_len(&self) -> usize {
            self.n
        }
        fn run(&self, grid: &mut [Complex32], scratch: &mut [Complex32]) {
            scratch[..self.n].copy_from_slice(grid);
            for (g, s) in grid.iter_mut().zip(scratch[..self.n].iter().rev()) {
                *g = s.scale(2.0);
            }
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
