//! The (screened) Fock exchange operator — the paper's dominant cost.
//!
//! Three evaluation paths, exactly mirroring the paper:
//!
//! * [`FockOperator::apply_mixed_baseline`] — paper Alg. 2: the triple
//!   loop over (k, i, j) with the FFT *inside* the innermost loop,
//!   i.e. O(N³) FFT pairs. This is the baseline whose cost Fig. 9's "BL"
//!   bar measures.
//! * [`FockOperator::apply_diag`] — after the occupation-matrix
//!   diagonalization (Eq. 13): O(N²) FFT pairs, identical result. When
//!   the target block *is* the source block (ACE rebuilds,
//!   [`FockOperator::apply_pure`], [`FockOperator::apply_mixed_diag`]),
//!   the pair densities are Hermitian (`f_ji = conj(f_ij)`) and the real
//!   kernel gives `W_ji = conj(W_ij)`, so a **pair-block scheduler**
//!   solves only `i ≤ j` pairs and scatters each solution into both
//!   target bands — half the FFT volume.
//! * `ace::AceOperator` (separate module) — low-rank compression that
//!   replaces the integrals with GEMMs between rebuilds.
//!
//! The screened interaction is `K(G) = 4π/G² (1 - e^{-G²/4ω²})` (HSE-type
//! short-range kernel) with the finite limit `K(0) = π/ω²` — which also
//! removes the Γ-point divergence.
//!
//! Finite temperature adds a second lever: Fermi–Dirac weights decay
//! exponentially above μ, so high-lying bands carry negligible
//! occupation. [`FockOptions::occ_cutoff`] screens contributions whose
//! driving weight falls below the threshold, and
//! [`FockApplyStats::skipped_weight`] reports the total dropped weight so
//! callers can bound the error (see DESIGN.md §"Exchange").

use crate::gvec::PwGrid;
use pwfft::{Fft3, Fft32};
use pwnum::backend::{self, PairTask};
use pwnum::bands;
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;
use pwnum::cvec;
use pwnum::precision::{self, PrecisionPolicy};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// HSE06 screening parameter (bohr⁻¹).
pub const HSE_OMEGA: f64 = 0.106;

/// Default occupation cutoff: contributions whose Fermi–Dirac weight
/// falls below this are dropped. Shared by the SCF and TD paths (also
/// re-exported as [`crate::smearing::DEFAULT_OCC_CUTOFF`]); at this
/// threshold only numerically-zero occupations are screened, so results
/// are unchanged to machine precision.
pub const DEFAULT_OCC_CUTOFF: f64 = 1e-14;

/// Options of the exchange operator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FockOptions {
    /// Occupation screening threshold: a pair contribution driven by
    /// weight `d` is dropped when `|d| < occ_cutoff`, and a pair solve is
    /// skipped entirely when both of its contributions are dropped. The
    /// resulting error is bounded by the reported
    /// [`FockApplyStats::skipped_weight`] (times `max_G K(G)·‖φ‖²_∞`).
    pub occ_cutoff: f64,
    /// Per-stage precision policy: with a reduced `exchange` stage the
    /// orbital blocks are demoted once per apply, the pair densities,
    /// Poisson FFT round trips and kernel multiplies run in fp32, and the
    /// solved `W_ij` are accumulated into the fp64 targets (two-sum
    /// compensated under
    /// [`StagePrecision::Fp32Promoted`](pwnum::precision::StagePrecision)).
    /// Default: all-fp64. The baseline
    /// ([`FockOperator::apply_mixed_baseline`]) always runs fp64.
    pub precision: PrecisionPolicy,
}

impl Default for FockOptions {
    fn default() -> Self {
        FockOptions { occ_cutoff: DEFAULT_OCC_CUTOFF, precision: PrecisionPolicy::fp64() }
    }
}

impl FockOptions {
    /// Default options with an explicit occupation cutoff.
    pub fn with_occ_cutoff(self, occ_cutoff: f64) -> Self {
        FockOptions { occ_cutoff, ..self }
    }

    /// Sets the per-stage precision policy.
    pub fn with_precision(self, precision: PrecisionPolicy) -> Self {
        FockOptions { precision, ..self }
    }
}

/// What one exchange application actually did — FFT volume and screening
/// effect, for perf accounting and error control.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FockApplyStats {
    /// Screened Poisson solves performed (pair grids transformed; each
    /// costs one forward + one inverse 3-D FFT).
    pub solves: usize,
    /// Weighted scatter contributions accumulated into target bands.
    pub contributions: usize,
    /// Pair solves dropped by occupation screening.
    pub skipped_pairs: usize,
    /// Total `Σ |d|` over all screened-out contributions — the error
    /// bound handle.
    pub skipped_weight: f64,
    /// Whether the Hermitian pair-symmetric path was taken.
    pub symmetric: bool,
    /// Poisson solves performed in fp32 (subset of
    /// [`FockApplyStats::solves`]) — the per-apply precision count of
    /// the mixed pipeline; 0 under the all-fp64 policy.
    pub solves_fp32: usize,
}

impl std::ops::AddAssign for FockApplyStats {
    /// Accumulates another apply's counts (applies split over blocks).
    fn add_assign(&mut self, st: FockApplyStats) {
        self.solves += st.solves;
        self.contributions += st.contributions;
        self.skipped_pairs += st.skipped_pairs;
        self.skipped_weight += st.skipped_weight;
        self.symmetric |= st.symmetric;
        self.solves_fp32 += st.solves_fp32;
    }
}

/// Process-shared precision counters: total screened-Poisson solves by
/// precision, accumulated atomically by every [`FockOperator`] handed
/// the same `Arc`. The propagators snapshot these around a step to
/// surface per-step fp64/fp32 solve counts in their `StepStats`.
#[derive(Debug, Default)]
pub struct SolveCounters {
    fp64: AtomicUsize,
    fp32: AtomicUsize,
}

impl SolveCounters {
    /// Current `(fp64, fp32)` solve totals.
    pub fn snapshot(&self) -> (usize, usize) {
        (self.fp64.load(Ordering::Relaxed), self.fp32.load(Ordering::Relaxed))
    }

    /// `(fp64, fp32)` solves since a previous [`Self::snapshot`].
    pub fn since(&self, snap: (usize, usize)) -> (usize, usize) {
        let (f64s, f32s) = self.snapshot();
        (f64s - snap.0, f32s - snap.1)
    }

    fn add_fp64(&self, n: usize) {
        self.fp64.fetch_add(n, Ordering::Relaxed);
    }

    fn add_fp32(&self, n: usize) {
        self.fp32.fetch_add(n, Ordering::Relaxed);
    }
}

/// Screened-exchange kernel sampled on a grid's G vectors.
#[derive(Clone, Debug)]
pub struct ScreenedKernel {
    /// `K(G)` per grid point (shared with the grid's kernel cache).
    pub kg: Arc<Vec<f64>>,
    /// Screening parameter ω (bohr⁻¹).
    pub omega: f64,
}

/// The [`PwGrid::cached_kernel`] family tag of the HSE short-range
/// kernel (any distinct constant per kernel formula).
const HSE_KERNEL_FAMILY: u64 = 0x0048_5345_6b65_726e; // "HSEkern"

impl ScreenedKernel {
    /// Builds the short-range (erfc-type) kernel for `grid`, memoized per
    /// `(grid, ω)` in the grid's kernel cache so hot loops that construct
    /// a [`FockOperator`] per step stop re-evaluating `exp` over Ng.
    pub fn hse(grid: &PwGrid, omega: f64) -> Self {
        let kg = grid.cached_kernel(HSE_KERNEL_FAMILY, omega.to_bits(), |g| {
            let four_pi = 4.0 * std::f64::consts::PI;
            g.g2.iter()
                .map(|&g2| {
                    if g2 < 1e-12 {
                        std::f64::consts::PI / (omega * omega)
                    } else {
                        four_pi / g2 * (1.0 - (-g2 / (4.0 * omega * omega)).exp())
                    }
                })
                .collect()
        });
        ScreenedKernel { kg, omega }
    }
}

/// The Fock exchange operator bound to a grid + kernel.
///
/// Every FFT, pair solve and band operation inside runs on the
/// [`pwnum::backend`] kernels.
pub struct FockOperator<'g> {
    grid: &'g PwGrid,
    fft: Fft3,
    kernel: ScreenedKernel,
    opts: FockOptions,
    /// fp32 solve machinery (plans + demoted kernel), built once when
    /// the policy's exchange stage is reduced.
    fp32: Option<Fp32Kit>,
    /// Shared precision counters (see [`SolveCounters`]).
    counters: Arc<SolveCounters>,
}

/// The fp32 half of the operator: single-precision FFT plans for the
/// grid and the demoted `K(G)` table.
struct Fp32Kit {
    fft: Fft32,
    kg: Vec<f32>,
}

impl<'g> FockOperator<'g> {
    /// Creates the operator with an HSE-type kernel of parameter `omega`
    /// and default [`FockOptions`].
    pub fn new(grid: &'g PwGrid, omega: f64) -> Self {
        Self::with_options(grid, omega, FockOptions::default())
    }

    /// Creates the operator with explicit scheduler options.
    pub fn with_options(grid: &'g PwGrid, omega: f64, opts: FockOptions) -> Self {
        let fft = grid.fft();
        let kernel = ScreenedKernel::hse(grid, omega);
        let fp32 = opts
            .precision
            .exchange
            .reduced()
            .then(|| Fp32Kit { fft: grid.fft32(), kg: precision::demote_real(&kernel.kg) });
        FockOperator {
            grid,
            fft,
            kernel,
            opts,
            fp32,
            counters: Arc::new(SolveCounters::default()),
        }
    }

    /// Routes this operator's solve counts into a shared counter set
    /// (builder style) — the engines pass one `Arc` to every operator
    /// they construct so per-step precision counts can be snapshotted.
    pub fn with_counters(mut self, counters: Arc<SolveCounters>) -> Self {
        self.counters = counters;
        self
    }

    /// The operator's precision counters.
    #[inline]
    pub fn counters(&self) -> &Arc<SolveCounters> {
        &self.counters
    }

    /// Grid size.
    #[inline]
    pub fn ng(&self) -> usize {
        self.grid.len()
    }

    /// The scheduler options the operator was built with.
    #[inline]
    pub fn options(&self) -> &FockOptions {
        &self.opts
    }

    /// The screened kernel table `K(G)` per grid point, in the FFT's
    /// row-major order: what every screened-Poisson solve multiplies by.
    /// The fp32 pipeline demotes it once per operator, and a standalone
    /// convolve (one forward FFT, `K(G)` multiply, one inverse) can reuse
    /// it without building pair densities.
    #[inline]
    pub fn kernel_table(&self) -> &[f64] {
        &self.kernel.kg
    }

    /// One staged screened-Poisson round trip per grid of `pairs`, in
    /// place: `W(r) = Σ_G K(G) f_G e^{iGr}` (batched forward FFT → kernel
    /// multiply → batched inverse). The baseline (and the test-only
    /// per-pair oracle) solve through this; the batched schedulers go
    /// through [`Self::run_tasks`].
    fn poisson_batch(&self, pairs: &mut [Complex64], count: usize) {
        self.fft.convolve_many(pairs, count, &self.kernel.kg);
        self.counters.add_fp64(count);
    }

    /// Paper Alg. 2 — the mixed-state baseline. `phi_r` are the N orbitals
    /// in real space (band-major); `sigma` the occupation matrix. Returns
    /// `Vx Φ` in real space. The (k,i,j) loop structure — with the
    /// Poisson solve recomputed inside the `i` loop — is kept deliberately
    /// to reproduce the baseline's O(N³ Ng log Ng) cost profile.
    pub fn apply_mixed_baseline(&self, phi_r: &[Complex64], sigma: &CMat) -> Vec<Complex64> {
        let _s = pwobs::span("xch.apply_baseline");
        let ng = self.ng();
        let n = bands::n_bands(phi_r, ng);
        assert_eq!(sigma.rows(), n);
        let mut out = vec![Complex64::ZERO; n * ng];
        // Scratch contents are unspecified: hadamard_conj overwrites the
        // whole pair grid before any read.
        let mut pair = backend::take_scratch(ng);
        for k in 0..n {
            let pk = bands::band(phi_r, ng, k);
            for i in 0..n {
                let sik = sigma[(i, k)];
                if sik == Complex64::ZERO {
                    continue;
                }
                let pi = bands::band(phi_r, ng, i);
                for j in 0..n {
                    let pj = bands::band(phi_r, ng, j);
                    cvec::hadamard_conj(pk, pj, &mut pair);
                    self.poisson_batch(&mut pair, 1);
                    let oj = bands::band_mut(&mut out, ng, j);
                    // Vx φ_j -= σ_ik · W_kj ⊙ φ_i   (Eq. 10 sign).
                    cvec::hadamard_acc(-sik, &pair, pi, oj);
                }
            }
        }
        backend::recycle_buffer(pair);
        out
    }

    /// Diagonalized mixed-state operator (Eq. 13): orbitals `phi_r` must
    /// already be the *natural orbitals* `φ̃ = ΦQ` in real space, with
    /// occupations `d`. Applies Vx to the bands `psi_r` (often the same
    /// block, but PT-IM also applies it to trial vectors).
    ///
    /// When `psi_r` *aliases* `phi_r` (ACE rebuilds, [`Self::apply_pure`],
    /// [`Self::apply_mixed_diag`]) the Hermitian pair-symmetric scheduler
    /// runs — `i ≤ j` pairs only, ~half the Poisson solves; otherwise the
    /// asymmetric target-major path. Both are screened by
    /// [`FockOptions::occ_cutoff`] and differ only in which pairs they
    /// enumerate: every surviving pair runs density → Poisson round trip
    /// → scatter over pooled grids, on every worker the region is worth
    /// ([`pwnum::backend::fused_pair_solve`]).
    pub fn apply_diag(
        &self,
        phi_r: &[Complex64],
        d: &[f64],
        psi_r: &[Complex64],
    ) -> Vec<Complex64> {
        self.apply_diag_stats(phi_r, d, psi_r).0
    }

    /// [`Self::apply_diag`] also returning the scheduler's
    /// [`FockApplyStats`] (solve count, screening effect).
    pub fn apply_diag_stats(
        &self,
        phi_r: &[Complex64],
        d: &[f64],
        psi_r: &[Complex64],
    ) -> (Vec<Complex64>, FockApplyStats) {
        let _s = pwobs::span("xch.apply");
        let symmetric =
            phi_r.as_ptr() == psi_r.as_ptr() && phi_r.len() == psi_r.len();
        if symmetric {
            self.apply_pair_symmetric(phi_r, d)
        } else {
            self.apply_asymmetric(phi_r, d, psi_r)
        }
    }

    /// The Hermitian pair-symmetric enumerator (targets = sources): with a
    /// real kernel, `W_ji = conj(W_ij)`, so each `i ≤ j` pair is solved
    /// once and scattered into both accumulators —
    /// `out_j += -d_i·W_ij⊙φ_i` and, for `i ≠ j`,
    /// `out_i += -d_j·conj(W_ij)⊙φ_j`. Contributions are screened per
    /// driving weight; a pair whose both sides are screened is never
    /// solved.
    fn apply_pair_symmetric(
        &self,
        phi_r: &[Complex64],
        d: &[f64],
    ) -> (Vec<Complex64>, FockApplyStats) {
        let n = bands::n_bands(phi_r, self.ng());
        let mut out = vec![Complex64::ZERO; phi_r.len()];
        // Lexicographic (i, j) order means every target still
        // accumulates its sources in ascending band order, matching the
        // asymmetric path's summation order.
        let pairs = (0..n).flat_map(|i| (i..n).map(move |j| (i, j)));
        let stats = self.run_pairs(phi_r, d, pairs, &mut out);
        (out, stats)
    }

    /// The screened task of the source pair `(i, j)` of a pair-symmetric
    /// enumeration: `d_i` drives `out_j` and, unless `i == j`, `d_j`
    /// drives `out_i`. Each dropped contribution adds its weight to
    /// `stats`; a pair whose both sides are dropped is never solved
    /// (`None`).
    fn screen_pair(
        &self,
        i: usize,
        j: usize,
        d: &[f64],
        stats: &mut FockApplyStats,
    ) -> Option<PairTask> {
        let cutoff = self.opts.occ_cutoff;
        let fwd = d[i].abs() >= cutoff; // drives out_j
        let rev = i != j && d[j].abs() >= cutoff; // drives out_i
        stats.skipped_weight += if fwd { 0.0 } else { d[i].abs() }
            + if i == j || rev { 0.0 } else { d[j].abs() };
        if !(fwd || rev) {
            stats.skipped_pairs += 1;
            return None;
        }
        stats.contributions += usize::from(fwd) + usize::from(rev);
        Some(PairTask {
            i,
            j,
            w_fwd: if fwd { -d[i] } else { 0.0 },
            w_rev: if rev { -d[j] } else { 0.0 },
        })
    }

    /// The pair-symmetric apply restricted to the source pairs `pairs`,
    /// accumulated into `out` (laid out as `phi_r`): each `(i, j)` is
    /// solved once as `W = Poisson[conj(φ_i) ⊙ φ_j]` and scattered into
    /// `out_j` (driven by `d_i`) and, unless `i == j`, `out_i` (driven by
    /// `d_j`), screened and counted as [`Self::apply_pure_stats`] screens
    /// and counts it. A self-applied apply split over band blocks runs on
    /// this: the pairs within each block, and between two blocks held
    /// back to back in one buffer, each listed once and oriented as the
    /// whole apply orients them (`i` first in the band order, so each
    /// pair grid has the same bits at either precision) — together
    /// exactly the solves, screening and counts of one apply.
    pub fn apply_pairs_stats(
        &self,
        phi_r: &[Complex64],
        d: &[f64],
        pairs: impl IntoIterator<Item = (usize, usize)>,
        out: &mut [Complex64],
    ) -> FockApplyStats {
        let _s = pwobs::span("xch.apply");
        self.run_pairs(phi_r, d, pairs, out)
    }

    /// [`Self::apply_pairs_stats`] without its span.
    fn run_pairs(
        &self,
        phi_r: &[Complex64],
        d: &[f64],
        pairs: impl IntoIterator<Item = (usize, usize)>,
        out: &mut [Complex64],
    ) -> FockApplyStats {
        assert_eq!(d.len(), bands::n_bands(phi_r, self.ng()));
        assert_eq!(out.len(), phi_r.len());
        let mut stats = FockApplyStats { symmetric: true, ..Default::default() };
        // At most every pair of the set, reserved once.
        let n = d.len();
        let mut tasks = Vec::with_capacity(n * (n + 1) / 2);
        tasks.extend(pairs.into_iter().filter_map(|(i, j)| self.screen_pair(i, j, d, &mut stats)));
        self.run_tasks(phi_r, phi_r, &tasks, out, &mut stats);
        stats
    }

    /// The asymmetric enumerator (distinct target block): every occupied
    /// source against every target, target-major with sources ascending
    /// — the paper's multi-batch order (Sec. III-B b) — forward scatters
    /// only.
    fn apply_asymmetric(
        &self,
        phi_r: &[Complex64],
        d: &[f64],
        psi_r: &[Complex64],
    ) -> (Vec<Complex64>, FockApplyStats) {
        let ng = self.ng();
        let n_src = bands::n_bands(phi_r, ng);
        assert_eq!(d.len(), n_src);
        let n_tgt = bands::n_bands(psi_r, ng);
        let mut out = vec![Complex64::ZERO; n_tgt * ng];
        let mut stats = FockApplyStats::default();
        let cutoff = self.opts.occ_cutoff;
        // Occupied source bands only: screened bands are dropped for
        // every target, and their weight reported once per contribution.
        let occ: Vec<usize> = (0..n_src).filter(|&i| d[i].abs() >= cutoff).collect();
        let screened: f64 =
            (0..n_src).filter(|&i| d[i].abs() < cutoff).map(|i| d[i].abs()).sum();
        stats.skipped_pairs = (n_src - occ.len()) * n_tgt;
        stats.skipped_weight = screened * n_tgt as f64;
        let mut tasks = Vec::with_capacity(occ.len() * n_tgt);
        for j in 0..n_tgt {
            for &i in &occ {
                tasks.push(PairTask { i, j, w_fwd: -d[i], w_rev: 0.0 });
            }
        }
        stats.contributions = tasks.len();
        self.run_tasks(phi_r, psi_r, &tasks, &mut out, &mut stats);
        (out, stats)
    }

    /// The one pair pipeline behind both enumerators: `tasks` go through
    /// the fused pair solve — per pair, density → Poisson round
    /// trip → scatter over pooled grids, with the result of running them
    /// strictly in order at any thread count — at the policy's
    /// `exchange` precision. Reduced: the blocks
    /// are demoted once (`psi_r` only when it is not `phi_r` itself),
    /// every solve runs on the fp32 plans, and the scatters promote into
    /// `out`, two-sum compensated through a pooled buffer under
    /// `Fp32Promoted`.
    fn run_tasks(
        &self,
        phi_r: &[Complex64],
        psi_r: &[Complex64],
        tasks: &[PairTask],
        out: &mut [Complex64],
        stats: &mut FockApplyStats,
    ) {
        if tasks.is_empty() {
            return;
        }
        let ng = self.ng();
        stats.solves += tasks.len();
        let Some(kit) = &self.fp32 else {
            let solve = self.fft.convolve_pass(&self.kernel.kg);
            backend::fused_pair_solve(&solve, phi_r, psi_r, ng, tasks, out);
            self.counters.add_fp64(tasks.len());
            return;
        };
        let phi32 = precision::demote(phi_r);
        let psi32 = (!std::ptr::eq(phi_r, psi_r)).then(|| precision::demote(psi_r));
        let mut comp =
            self.opts.precision.exchange.compensated().then(|| backend::take_buffer(out.len()));
        backend::fused_pair_solve32(
            &kit.fft.convolve_pass(&kit.kg),
            &phi32,
            psi32.as_deref().unwrap_or(&phi32),
            ng,
            tasks,
            out,
            comp.as_deref_mut(),
        );
        stats.solves_fp32 += tasks.len();
        self.counters.add_fp32(tasks.len());
        if let Some(c) = comp {
            backend::recycle_buffer(c);
        }
    }

    /// Pure-state operator (Eq. 9): occupations `f` on the orbitals
    /// themselves. Aliased targets, so this always takes the
    /// pair-symmetric scheduler.
    pub fn apply_pure(&self, phi_r: &[Complex64], f: &[f64]) -> Vec<Complex64> {
        self.apply_diag(phi_r, f, phi_r)
    }

    /// [`Self::apply_pure`] also returning the scheduler stats.
    pub fn apply_pure_stats(
        &self,
        phi_r: &[Complex64],
        f: &[f64],
    ) -> (Vec<Complex64>, FockApplyStats) {
        self.apply_diag_stats(phi_r, f, phi_r)
    }

    /// Mixed-state operator on the orbitals themselves, via the σ
    /// diagonalization *and* the pair-symmetric scheduler: diagonalizes
    /// `σ = Q D Qᴴ`, rotates to natural orbitals in real space, runs the
    /// symmetric apply, and rotates back (`Vx Φ = (Vx Φ̃) Qᴴ` by
    /// linearity). Equivalent to [`Self::apply_mixed_baseline`] at
    /// ~N(N+1)/2 Poisson solves instead of O(N³).
    pub fn apply_mixed_diag(
        &self,
        phi_r: &[Complex64],
        sigma: &CMat,
    ) -> (Vec<Complex64>, FockApplyStats) {
        let ng = self.ng();
        let n = bands::n_bands(phi_r, ng);
        assert_eq!(sigma.rows(), n);
        let e = pwnum::eigh(sigma);
        let mut nat_r = backend::take_scratch(n * ng);
        backend::rotate(phi_r, &e.vectors, ng, &mut nat_r);
        let (vx_nat, stats) = self.apply_pure_stats(&nat_r, &e.values);
        let mut out = vec![Complex64::ZERO; n * ng];
        backend::rotate(&vx_nat, &e.vectors.herm(), ng, &mut out);
        backend::recycle_buffer(nat_r);
        (out, stats)
    }

    /// One weighted pair contribution through the staged fp64 round
    /// trip — the per-pair oracle the batched applies are checked
    /// against bit for bit (`apply_matches_per_pair_oracle_bitwise`):
    /// `out -= weight · src ⊙ Poisson[conj(src) ⊙ tgt]`.
    /// `pair` is caller-provided scratch of length Ng.
    #[cfg(test)]
    fn accumulate_pair(
        &self,
        src: &[Complex64],
        tgt: &[Complex64],
        weight: f64,
        out: &mut [Complex64],
        pair: &mut [Complex64],
    ) {
        cvec::hadamard_conj(src, tgt, pair);
        self.poisson_batch(pair, 1);
        cvec::hadamard_acc(Complex64::from_re(-weight), pair, src, out);
    }

    /// The pair-symmetric twin of [`Self::accumulate_pair`], the oracle
    /// of the symmetric apply: one Poisson solve of
    /// `W = Poisson[conj(φ_i) ⊙ φ_j]` scattered into both targets —
    /// `out_j -= w_i · W ⊙ φ_i` and `out_i -= w_j · conj(W) ⊙ φ_j`.
    /// `pair` is caller-provided scratch of length Ng.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn accumulate_pair_sym(
        &self,
        src_i: &[Complex64],
        src_j: &[Complex64],
        w_i: f64,
        w_j: f64,
        out_j: &mut [Complex64],
        out_i: &mut [Complex64],
        pair: &mut [Complex64],
    ) {
        cvec::hadamard_conj(src_i, src_j, pair);
        self.poisson_batch(pair, 1);
        cvec::hadamard_acc(Complex64::from_re(-w_i), pair, src_i, out_j);
        cvec::hadamard_acc_conj(Complex64::from_re(-w_j), pair, src_j, out_i);
    }

    /// Exchange energy `E_x = Σ_i d_i <φ̃_i|Vx|φ̃_i>` (real, ≤ 0), given
    /// natural orbitals in real space, their occupations, and `VxΦ̃` from
    /// [`Self::apply_diag`]. `dv` is the grid quadrature weight.
    pub fn exchange_energy(
        &self,
        phi_r: &[Complex64],
        d: &[f64],
        vx_phi_r: &[Complex64],
        dv: f64,
    ) -> f64 {
        let _s = pwobs::span("xch.energy");
        let ng = self.ng();
        let n = bands::n_bands(phi_r, ng);
        let mut e = 0.0;
        for (i, &di) in d.iter().enumerate().take(n) {
            if di.abs() < self.opts.occ_cutoff {
                continue;
            }
            let pi = bands::band(phi_r, ng, i);
            let wi = bands::band(vx_phi_r, ng, i);
            e += di * cvec::dotc(pi, wi).re;
        }
        e * dv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::natural_orbitals;
    use crate::lattice::Cell;
    use crate::wavefunction::Wavefunction;
    use pwnum::eigh;
    use pwnum::precision::Complex32;

    fn setup(n_bands: usize) -> (PwGrid, Wavefunction) {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 2.0, [6, 6, 6]);
        let wf = Wavefunction::random(&grid, n_bands, 31);
        (grid, wf)
    }

    fn test_sigma(n: usize, seed: u64) -> CMat {
        let h = pwnum::cmat::random_hermitian(n, {
            let mut s = seed;
            move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            }
        });
        let e = eigh(&h);
        let d: Vec<f64> = e.values.iter().map(|&w| 1.0 / (1.0 + (2.0 * w).exp())).collect();
        let dm = CMat::from_real_diag(&d);
        let vd = e.vectors.matmul(&dm);
        pwnum::gemm::gemm(
            Complex64::ONE,
            &vd,
            pwnum::gemm::Op::None,
            &e.vectors,
            pwnum::gemm::Op::ConjTrans,
            Complex64::ZERO,
            None,
        )
        .hermitian_part()
    }

    #[test]
    fn kernel_limits() {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 2.0, [6, 6, 6]);
        let k = ScreenedKernel::hse(&grid, 0.106);
        // G=0 finite limit π/ω².
        let expect0 = std::f64::consts::PI / (0.106 * 0.106);
        assert!((k.kg[0] - expect0).abs() < 1e-9);
        // Large G: approaches bare Coulomb 4π/G².
        let (idx, _) = grid
            .g2
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let g2 = grid.g2[idx];
        assert!((k.kg[idx] - 4.0 * std::f64::consts::PI / g2).abs() / k.kg[idx] < 1e-3);
        // All positive.
        assert!(k.kg.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn baseline_equals_diagonalized() {
        // The paper's central algebraic claim (Sec. IV-A1): Alg. 2 and the
        // σ-diagonalized form give identical VxΦ.
        let (_, wf) = setup(4);
        let grid_cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&grid_cell, 2.0, [6, 6, 6]);
        let fock = FockOperator::new(&grid, 0.2);
        let sigma = test_sigma(4, 3);

        let phi_r = wf.to_real_all(&grid);
        let vx_base = fock.apply_mixed_baseline(&phi_r, &sigma);

        // Diagonalized path: rotate, apply, rotate back.
        let nat = natural_orbitals(&wf, &sigma);
        let nat_r = nat.phi.to_real_all(&grid);
        // Vx applied to the *original* orbitals ψ_j = Φ_j.
        let vx_diag = fock.apply_diag(&nat_r, &nat.occ, &phi_r);

        let max_diff = pwnum::cvec::max_abs_diff(&vx_base, &vx_diag);
        let scale = vx_base.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        assert!(max_diff < 1e-9 * scale.max(1.0), "diff {max_diff} (scale {scale})");
    }

    #[test]
    fn operator_is_hermitian() {
        // <a|Vx b> == <Vx a|b> for the diagonalized operator.
        let (grid, wf) = setup(3);
        let fock = FockOperator::new(&grid, 0.15);
        let d = vec![1.0, 0.7, 0.2];
        let phi_r = wf.to_real_all(&grid);
        let vx = fock.apply_diag(&phi_r, &d, &phi_r);
        let ng = grid.len();
        for a in 0..3 {
            for b in 0..3 {
                let lhs = cvec::dotc(bands::band(&phi_r, ng, a), bands::band(&vx, ng, b));
                let rhs = cvec::dotc(bands::band(&vx, ng, a), bands::band(&phi_r, ng, b));
                assert!((lhs - rhs).abs() < 1e-9, "Hermiticity ({a},{b})");
            }
        }
    }

    #[test]
    fn pair_symmetric_matches_asymmetric_path() {
        // Aliased targets take the halved scheduler; a *copied* target
        // block forces the asymmetric path. Same math, ~half the solves.
        let (grid, wf) = setup(5);
        let fock = FockOperator::new(&grid, 0.18);
        let d = vec![1.0, 0.9, 0.5, 0.5, 0.0];
        let phi_r = wf.to_real_all(&grid);
        let psi_copy = phi_r.clone();
        let (sym, s_sym) = fock.apply_diag_stats(&phi_r, &d, &phi_r);
        let (asym, s_asym) = fock.apply_diag_stats(&phi_r, &d, &psi_copy);
        assert!(s_sym.symmetric && !s_asym.symmetric);
        // 4 occupied sources × 5 targets = 20 vs pairs with either side
        // occupied: all (i,j≥i) except (4,4) = 15 − 1 = 14.
        assert_eq!(s_asym.solves, 20);
        assert_eq!(s_sym.solves, 14);
        let scale = asym.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        let diff = pwnum::cvec::max_abs_diff(&sym, &asym);
        assert!(diff < 1e-10 * scale.max(1.0), "pairsym diff {diff} (scale {scale})");
    }

    #[test]
    fn mixed_diag_matches_baseline() {
        // apply_mixed_diag (σ-diagonalized + pair-symmetric + rotate
        // back) reproduces Alg. 2 on the original orbitals.
        let (_, wf) = setup(4);
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 2.0, [6, 6, 6]);
        let fock = FockOperator::new(&grid, 0.2);
        let sigma = test_sigma(4, 11);
        let phi_r = wf.to_real_all(&grid);
        let base = fock.apply_mixed_baseline(&phi_r, &sigma);
        let (diag, stats) = fock.apply_mixed_diag(&phi_r, &sigma);
        assert!(stats.symmetric);
        assert_eq!(stats.solves, 4 * 5 / 2);
        let scale = base.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        let diff = pwnum::cvec::max_abs_diff(&base, &diag);
        assert!(diff < 1e-9 * scale.max(1.0), "mixed diag diff {diff}");
    }

    #[test]
    fn screening_reports_skipped_weight() {
        let (grid, wf) = setup(4);
        let phi_r = wf.to_real_all(&grid);
        let d = vec![1.0, 0.5, 1e-3, 1e-3];
        let screened =
            FockOperator::with_options(&grid, 0.2, FockOptions::default().with_occ_cutoff(1e-2));
        let exact =
            FockOperator::with_options(&grid, 0.2, FockOptions::default().with_occ_cutoff(0.0));
        let (vs, ss) = screened.apply_pure_stats(&phi_r, &d);
        let (ve, se) = exact.apply_pure_stats(&phi_r, &d);
        // Pairs among the two screened bands are skipped entirely.
        assert_eq!(ss.skipped_pairs, 3);
        assert!(ss.solves < se.solves);
        assert_eq!(se.skipped_weight, 0.0);
        // The dropped weight is reported: 2e-3 per screened contribution.
        assert!(ss.skipped_weight > 0.0);
        // And the induced error is small (weights were tiny) but nonzero.
        let diff = pwnum::cvec::max_abs_diff(&vs, &ve);
        let scale = ve.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        assert!(diff > 0.0 && diff < 1e-1 * scale, "screening error {diff} vs {scale}");
    }

    #[test]
    fn mixed_precision_matches_fp64_within_tolerance() {
        // The fp32 exchange pipeline (demote → fp32 pair density → fp32
        // Poisson round trip → compensated fp64 accumulation) must track
        // the fp64 reference to fp32 accuracy on both scheduler paths,
        // and report its solves in the precision counters.
        let (grid, wf) = setup(5);
        let d = vec![1.0, 0.9, 0.5, 0.2, 0.05];
        let phi_r = wf.to_real_all(&grid);
        let exact = FockOperator::with_options(&grid, 0.2, FockOptions::default());
        let mixed = FockOperator::with_options(
            &grid,
            0.2,
            FockOptions { precision: PrecisionPolicy::mixed(), ..Default::default() },
        );
        // Symmetric path.
        let (ve, se) = exact.apply_pure_stats(&phi_r, &d);
        let (vm, sm) = mixed.apply_pure_stats(&phi_r, &d);
        assert_eq!(se.solves_fp32, 0);
        assert_eq!(sm.solves_fp32, sm.solves);
        assert_eq!(sm.solves, se.solves);
        let scale = ve.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        let diff = pwnum::cvec::max_abs_diff(&ve, &vm);
        assert!(diff < 1e-4 * scale.max(1.0), "fp32 symmetric drift {diff} (scale {scale})");
        // Asymmetric path (copied target block).
        let psi = phi_r.clone();
        let (ae, _) = exact.apply_diag_stats(&phi_r, &d, &psi);
        let (am, sam) = mixed.apply_diag_stats(&phi_r, &d, &psi);
        assert!(!sam.symmetric && sam.solves_fp32 == sam.solves);
        let adiff = pwnum::cvec::max_abs_diff(&ae, &am);
        assert!(adiff < 1e-4 * scale.max(1.0), "fp32 asymmetric drift {adiff}");
        // Counters recorded the split.
        let (e64, e32) = exact.counters().snapshot();
        assert!(e64 > 0 && e32 == 0);
        let (m64, m32) = mixed.counters().snapshot();
        assert!(m32 > 0 && m64 == 0);
    }

    #[test]
    fn compensated_and_plain_fp32_both_track_fp64() {
        // Fp32 vs Fp32Promoted: both stay within fp32 tolerance of the
        // fp64 result; the compensated variant must not be worse.
        let (grid, wf) = setup(4);
        let d = vec![1.0, 0.8, 0.6, 0.3];
        let phi_r = wf.to_real_all(&grid);
        let exact = FockOperator::new(&grid, 0.2);
        let ve = exact.apply_pure(&phi_r, &d);
        let scale = ve.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        let mut errs = Vec::new();
        for stage in [
            pwnum::precision::StagePrecision::Fp32,
            pwnum::precision::StagePrecision::Fp32Promoted,
        ] {
            let policy =
                PrecisionPolicy { exchange: stage, ..PrecisionPolicy::mixed() };
            let op = FockOperator::with_options(
                &grid,
                0.2,
                FockOptions { precision: policy, ..Default::default() },
            );
            let v = op.apply_pure(&phi_r, &d);
            errs.push(pwnum::cvec::max_abs_diff(&ve, &v));
        }
        assert!(errs[0] < 1e-4 * scale.max(1.0), "plain fp32 err {}", errs[0]);
        assert!(errs[1] < 1e-4 * scale.max(1.0), "compensated err {}", errs[1]);
    }

    #[test]
    fn apply_matches_per_pair_oracle_bitwise() {
        // The per-pair staged round trip (`accumulate_pair{,_sym}`),
        // looped in scheduler order, is the oracle of the batched
        // applies: same elementwise kernels,
        // same scatter order, and the fused convolve is exact
        // against the staged one — so a reordered, dropped or doubled
        // pair shows as a nonzero difference. Six bands put both task
        // lists (20 and 30 solves of 216 points) above the inline
        // threshold, so the pipeline runs on every worker the process
        // has (CI repeats this suite under `PWDFT_NUM_THREADS=3`; the
        // explicit worker-count matrix is `pwnum::backend`'s
        // `pair_pipeline_is_bitwise_identical_at_every_worker_count`).
        let (grid, wf) = setup(6);
        let ng = grid.len();
        let d = [1.0, 0.9, 0.0, 0.2, 0.05, 0.4];
        let n = d.len();
        let phi_r = wf.to_real_all(&grid);
        let psi = phi_r.clone();
        let fock = FockOperator::new(&grid, 0.2);
        let mut pair = vec![Complex64::ZERO; ng];

        // Symmetric: i ≤ j, one solve scattered into both targets.
        let mut want = vec![Complex64::ZERO; n * ng];
        let mut solves = 0;
        for i in 0..n {
            for j in i..n {
                if d[i] == 0.0 && d[j] == 0.0 {
                    continue;
                }
                solves += 1;
                let (pi, pj) = (bands::band(&phi_r, ng, i), bands::band(&phi_r, ng, j));
                if i == j {
                    let oi = bands::band_mut(&mut want, ng, i);
                    fock.accumulate_pair(pi, pi, d[i], oi, &mut pair);
                } else {
                    let (lo, hi) = want.split_at_mut(j * ng);
                    let (oi, oj) = (bands::band_mut(lo, ng, i), &mut hi[..ng]);
                    fock.accumulate_pair_sym(pi, pj, d[i], d[j], oj, oi, &mut pair);
                }
            }
        }
        let (got, st) = fock.apply_pure_stats(&phi_r, &d);
        assert!(st.symmetric);
        assert_eq!(st.solves, solves, "symmetric solves");
        assert_eq!(pwnum::cvec::max_abs_diff(&got, &want), 0.0, "symmetric");

        // Asymmetric: target-major, occupied sources ascending.
        let mut want = vec![Complex64::ZERO; n * ng];
        let mut solves = 0;
        for j in 0..n {
            for i in (0..n).filter(|&i| d[i] != 0.0) {
                solves += 1;
                fock.accumulate_pair(
                    bands::band(&phi_r, ng, i),
                    bands::band(&psi, ng, j),
                    d[i],
                    bands::band_mut(&mut want, ng, j),
                    &mut pair,
                );
            }
        }
        let (got, st) = fock.apply_diag_stats(&phi_r, &d, &psi);
        assert!(!st.symmetric);
        assert_eq!((st.solves, st.contributions), (solves, solves), "asymmetric");
        assert_eq!(pwnum::cvec::max_abs_diff(&got, &want), 0.0, "asymmetric");
    }

    #[test]
    fn fused_fp32_is_value_identical_to_staged_fp32() {
        // The mixed apply against a stage-by-stage transcription of the
        // fp32 pipeline — demote once, then per pair: fp32 density →
        // forward FFT → ×K(G) → inverse FFT → compensated promote-scatter
        // — in scheduler order. Exact: the fused convolve is
        // value-identical to the staged round trip.
        let (grid, wf) = setup(5);
        let ng = grid.len();
        let d = [1.0, 0.9, 0.5, 0.2, 0.05];
        let n = d.len();
        let phi_r = wf.to_real_all(&grid);
        let psi = phi_r.clone();
        let phi32 = precision::demote(&phi_r);
        let fft32 = grid.fft32();
        let band32 = |i: usize| &phi32[i * ng..(i + 1) * ng];
        let mixed = FockOperator::with_options(
            &grid,
            0.2,
            FockOptions::default().with_precision(PrecisionPolicy::mixed()),
        );
        let kg32 = precision::demote_real(mixed.kernel_table());
        let mut pair = vec![Complex32::ZERO; ng];
        let solve = |i: usize, j: usize, pair: &mut [Complex32]| {
            precision::hadamard_conj32(band32(i), band32(j), pair);
            fft32.transform_fused(pair, false);
            for (z, &k) in pair.iter_mut().zip(&kg32) {
                *z = z.scale(k);
            }
            fft32.transform_fused(pair, true);
        };

        let mut want = vec![Complex64::ZERO; n * ng];
        let mut comp = vec![Complex64::ZERO; n * ng];
        for i in 0..n {
            for j in i..n {
                solve(i, j, &mut pair);
                let (oj, cj) =
                    (bands::band_mut(&mut want, ng, j), bands::band_mut(&mut comp, ng, j));
                precision::hadamard_acc_promote(-d[i], &pair, band32(i), oj, Some(cj));
                if i != j {
                    let (oi, ci) =
                        (bands::band_mut(&mut want, ng, i), bands::band_mut(&mut comp, ng, i));
                    precision::hadamard_acc_promote_conj(-d[j], &pair, band32(j), oi, Some(ci));
                }
            }
        }
        let (got, st) = mixed.apply_pure_stats(&phi_r, &d);
        assert_eq!((st.solves, st.solves_fp32), (n * (n + 1) / 2, n * (n + 1) / 2));
        assert_eq!(pwnum::cvec::max_abs_diff(&got, &want), 0.0, "fp32 symmetric");

        // Asymmetric (copied target block: demotes to the same values).
        let mut want = vec![Complex64::ZERO; n * ng];
        let mut comp = vec![Complex64::ZERO; n * ng];
        for j in 0..n {
            let (oj, cj) =
                (bands::band_mut(&mut want, ng, j), bands::band_mut(&mut comp, ng, j));
            for (i, &di) in d.iter().enumerate() {
                solve(i, j, &mut pair);
                precision::hadamard_acc_promote(-di, &pair, band32(i), oj, Some(&mut *cj));
            }
        }
        let (got, st) = mixed.apply_diag_stats(&phi_r, &d, &psi);
        assert_eq!((st.solves, st.solves_fp32), (n * n, n * n));
        assert_eq!(pwnum::cvec::max_abs_diff(&got, &want), 0.0, "fp32 asymmetric");
    }

    #[test]
    fn exchange_energy_negative() {
        let (grid, wf) = setup(3);
        let fock = FockOperator::new(&grid, 0.106);
        let d = vec![1.0, 1.0, 0.5];
        let phi_r = wf.to_real_all(&grid);
        let vx = fock.apply_diag(&phi_r, &d, &phi_r);
        let ex = fock.exchange_energy(&phi_r, &d, &vx, grid.dv());
        assert!(ex < 0.0, "exchange energy must be negative: {ex}");
    }

    #[test]
    fn zero_occupation_gives_zero_operator() {
        let (grid, wf) = setup(2);
        let fock = FockOperator::new(&grid, 0.106);
        let phi_r = wf.to_real_all(&grid);
        let vx = fock.apply_diag(&phi_r, &[0.0, 0.0], &phi_r);
        assert!(vx.iter().all(|z| z.abs() < 1e-15));
    }

    #[test]
    fn screening_reduces_magnitude() {
        // The kernel K(G) = 4π/G²(1 − e^{−G²/4ω²}) keeps only the
        // short-range part: larger ω truncates more of the interaction,
        // so |Ex| must shrink as ω grows (ω → 0 recovers bare Coulomb).
        let (grid, wf) = setup(2);
        let d = vec![1.0, 1.0];
        let phi_r = wf.to_real_all(&grid);
        let long_range = FockOperator::new(&grid, 0.05);
        let short_range = FockOperator::new(&grid, 0.5);
        let vl = long_range.apply_diag(&phi_r, &d, &phi_r);
        let vs = short_range.apply_diag(&phi_r, &d, &phi_r);
        let el = long_range.exchange_energy(&phi_r, &d, &vl, grid.dv());
        let es = short_range.exchange_energy(&phi_r, &d, &vs, grid.dv());
        assert!(es.abs() < el.abs(), "short-range |Ex| {es} should be < {el}");
    }
}
