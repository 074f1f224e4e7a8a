//! Mixed-precision compute subsystem: fp32 storage, conversion kernels,
//! error-compensated accumulation, and the per-stage precision policy.
//!
//! The paper's target platforms (ARM SVE, GPUs) run fp32 at twice the
//! FLOP rate and half the memory traffic of fp64. The dominant cost —
//! the screened-Poisson solves of the Fock exchange — tolerates reduced
//! precision because each solved pair potential `W_ij` is *accumulated*
//! into a well-conditioned fp64 state (the same playbook as PT-TDDFT on
//! Summit and GPU-accelerated hybrid SPARC; see PAPERS.md). This module
//! provides the pieces:
//!
//! * [`Complex32`] / [`c32`] — the single-precision complex scalar.
//! * [`CVec32`] / [`CMat32`] — fp32 grid/coefficient storage mirroring
//!   `Vec<Complex64>` / [`CMat`](crate::cmat::CMat).
//! * [`demote`] / [`promote`] and friends — conversion kernels between
//!   the fp64 state and fp32 compute buffers.
//! * [`hadamard_acc_promote`] — weighted elementwise accumulation of
//!   fp32 products into fp64 targets, optionally with two-sum (Kahan)
//!   compensation so the fp64 accumulation itself contributes no
//!   rounding beyond the fp32 inputs.
//! * [`StagePrecision`] / [`PrecisionPolicy`] — the per-stage precision
//!   map (exchange Poisson solves, subspace GEMM, FFT, propagator
//!   accumulation) threaded through `FockOptions` into every hot path,
//!   with the drift threshold the propagators' auto-promotion monitor
//!   trips on.
//!
//! The elementwise kernels here are the stages of the fused fp32 pair
//! pipeline ([`Backend::fused_pair_solve32`](crate::backend::Backend::fused_pair_solve32)),
//! called directly on every backend; the fp32 GEMM, overlap and
//! rotation are `Backend` methods whose `Reference` and `Blocked`
//! bodies must agree bitwise (same per-element arithmetic order).

use crate::complex::Complex64;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

// ---------------------------------------------------------------------
// Scalar type
// ---------------------------------------------------------------------

/// A complex number `re + i*im` in single precision.
#[derive(Clone, Copy, Default, PartialEq)]
pub struct Complex32 {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

/// Shorthand constructor: `c32(re, im)`.
#[inline(always)]
pub const fn c32(re: f32, im: f32) -> Complex32 {
    Complex32 { re, im }
}

impl Complex32 {
    /// The additive identity.
    pub const ZERO: Complex32 = c32(0.0, 0.0);
    /// The multiplicative identity.
    pub const ONE: Complex32 = c32(1.0, 0.0);
    /// The imaginary unit.
    pub const I: Complex32 = c32(0.0, 1.0);

    /// Creates a purely real value.
    #[inline(always)]
    pub const fn from_re(re: f32) -> Self {
        c32(re, 0.0)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        c32(self.re, -self.im)
    }

    /// Squared modulus `|z|²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline(always)]
    pub fn abs(self) -> f32 {
        self.re.hypot(self.im)
    }

    /// Multiplies by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f32) -> Self {
        c32(self.re * s, self.im * s)
    }

    /// `z * w + acc` fused form used by the fp32 micro-kernels. The
    /// arithmetic order matches [`Complex64::mul_add`] so the Blocked
    /// and Reference backends stay bitwise identical.
    #[inline(always)]
    pub fn mul_add(self, w: Complex32, acc: Complex32) -> Complex32 {
        c32(
            acc.re + self.re * w.re - self.im * w.im,
            acc.im + self.re * w.im + self.im * w.re,
        )
    }

    /// Demotes a double-precision value (round-to-nearest per component).
    #[inline(always)]
    pub fn from_c64(z: Complex64) -> Self {
        c32(z.re as f32, z.im as f32)
    }

    /// Promotes to double precision (exact).
    #[inline(always)]
    pub fn to_c64(self) -> Complex64 {
        Complex64::new(self.re as f64, self.im as f64)
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:+.6e}{:+.6e}i)", self.re, self.im)
    }
}

impl fmt::Display for Complex32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex32 {
    type Output = Complex32;
    #[inline(always)]
    fn add(self, rhs: Complex32) -> Complex32 {
        c32(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex32 {
    type Output = Complex32;
    #[inline(always)]
    fn sub(self, rhs: Complex32) -> Complex32 {
        c32(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex32 {
    type Output = Complex32;
    #[inline(always)]
    fn mul(self, rhs: Complex32) -> Complex32 {
        c32(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex32 {
    type Output = Complex32;
    #[inline(always)]
    fn neg(self) -> Complex32 {
        c32(-self.re, -self.im)
    }
}

impl AddAssign for Complex32 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex32) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex32 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex32) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Sum for Complex32 {
    fn sum<I: Iterator<Item = Complex32>>(iter: I) -> Complex32 {
        iter.fold(Complex32::ZERO, |a, b| a + b)
    }
}

// ---------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------

/// Band-major fp32 coefficient/grid storage (the `Vec<Complex64>` analog
/// for demoted wavefunction blocks and pair-density tile arenas).
pub type CVec32 = Vec<Complex32>;

/// Dense row-major fp32 matrix for N×N subspace objects — the
/// [`CMat`](crate::cmat::CMat) analog for fp32 subspace GEMMs.
#[derive(Clone, Debug, PartialEq)]
pub struct CMat32 {
    rows: usize,
    cols: usize,
    data: CVec32,
}

impl CMat32 {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat32 { rows, cols, data: vec![Complex32::ZERO; rows * cols] }
    }

    /// Builds from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex32) -> Self {
        let mut m = CMat32::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Wraps a row-major element vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: CVec32) -> Self {
        assert_eq!(data.len(), rows * cols, "CMat32::from_vec shape mismatch");
        CMat32 { rows, cols, data }
    }

    /// Demotes an fp64 matrix.
    pub fn from_c64(m: &crate::cmat::CMat) -> Self {
        CMat32 {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().iter().map(|&z| Complex32::from_c64(z)).collect(),
        }
    }

    /// Promotes to an fp64 matrix (exact).
    pub fn to_c64(&self) -> crate::cmat::CMat {
        crate::cmat::CMat::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|z| z.to_c64()).collect(),
        )
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major element slice.
    #[inline]
    pub fn as_slice(&self) -> &[Complex32] {
        &self.data
    }

    /// Mutable row-major element slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex32] {
        &mut self.data
    }

    /// One row as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Complex32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Largest elementwise modulus difference to `other`.
    pub fn max_abs_diff(&self, other: &CMat32) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs() as f64)
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for CMat32 {
    type Output = Complex32;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &Complex32 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat32 {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex32 {
        &mut self.data[i * self.cols + j]
    }
}

// ---------------------------------------------------------------------
// Conversion kernels
// ---------------------------------------------------------------------

/// Demotes an fp64 slice to a fresh fp32 vector.
pub fn demote(src: &[Complex64]) -> CVec32 {
    src.iter().map(|&z| Complex32::from_c64(z)).collect()
}

/// Demotes into a caller-provided buffer (hot-loop variant).
pub fn demote_into(src: &[Complex64], dst: &mut [Complex32]) {
    assert_eq!(src.len(), dst.len(), "demote_into length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = Complex32::from_c64(s);
    }
}

/// Promotes an fp32 slice to a fresh fp64 vector (exact).
pub fn promote(src: &[Complex32]) -> Vec<Complex64> {
    src.iter().map(|z| z.to_c64()).collect()
}

/// Promotes into a caller-provided buffer (hot-loop variant; exact).
pub fn promote_into(src: &[Complex32], dst: &mut [Complex64]) {
    assert_eq!(src.len(), dst.len(), "promote_into length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s.to_c64();
    }
}

/// Promote-accumulate `dst += src` (exact promotion, fp64 addition).
pub fn promote_acc(src: &[Complex32], dst: &mut [Complex64]) {
    assert_eq!(src.len(), dst.len(), "promote_acc length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s.to_c64();
    }
}

/// Demotes a real fp64 kernel (e.g. `K(G)`) to fp32.
pub fn demote_real(src: &[f64]) -> Vec<f32> {
    src.iter().map(|&v| v as f32).collect()
}

/// Largest elementwise modulus difference between two fp32 slices.
pub fn max_abs_diff32(a: &[Complex32], b: &[Complex32]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff32 length mismatch");
    a.iter().zip(b).map(|(x, y)| (*x - *y).abs() as f64).fold(0.0, f64::max)
}

// ---------------------------------------------------------------------
// fp32 elementwise kernels (the stages of `Backend::fused_pair_solve32`)
// ---------------------------------------------------------------------

/// Elementwise conjugated product `out = conj(a) ⊙ b` in fp32 — the
/// pair-density kernel of the fp32 Fock path.
pub fn hadamard_conj32(a: &[Complex32], b: &[Complex32], out: &mut [Complex32]) {
    assert_eq!(a.len(), b.len(), "hadamard_conj32 length mismatch");
    assert_eq!(a.len(), out.len(), "hadamard_conj32 output length mismatch");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x.conj() * *y;
    }
}

/// Weighted promote-accumulate `acc += w · a ⊙ b`: the fp32 operands are
/// promoted to fp64 and the product formed in fp64, so the only error
/// relative to the all-fp64 kernel is the fp32 rounding already present
/// in `a` and `b`. With `comp` supplied, each element runs a two-sum
/// (Kahan) compensated update so long accumulation chains add no fp64
/// rounding either — the "error-compensated fp64 accumulation" of the
/// mixed-precision exchange.
pub fn hadamard_acc_promote(
    w: f64,
    a: &[Complex32],
    b: &[Complex32],
    acc: &mut [Complex64],
    comp: Option<&mut [Complex64]>,
) {
    assert_eq!(a.len(), b.len(), "hadamard_acc_promote length mismatch");
    assert_eq!(a.len(), acc.len(), "hadamard_acc_promote output length mismatch");
    match comp {
        Some(comp) => {
            assert_eq!(a.len(), comp.len(), "hadamard_acc_promote comp length mismatch");
            for (((s, c), x), y) in acc.iter_mut().zip(comp.iter_mut()).zip(a).zip(b) {
                let term = (x.to_c64() * y.to_c64()).scale(w);
                two_sum_acc(term, s, c);
            }
        }
        None => {
            for ((s, x), y) in acc.iter_mut().zip(a).zip(b) {
                *s += (x.to_c64() * y.to_c64()).scale(w);
            }
        }
    }
}

/// Conjugated variant of [`hadamard_acc_promote`]:
/// `acc += w · conj(a) ⊙ b` — the swapped-side scatter of the
/// pair-symmetric Fock scheduler in fp32.
pub fn hadamard_acc_promote_conj(
    w: f64,
    a: &[Complex32],
    b: &[Complex32],
    acc: &mut [Complex64],
    comp: Option<&mut [Complex64]>,
) {
    assert_eq!(a.len(), b.len(), "hadamard_acc_promote_conj length mismatch");
    assert_eq!(a.len(), acc.len(), "hadamard_acc_promote_conj output length mismatch");
    match comp {
        Some(comp) => {
            assert_eq!(a.len(), comp.len(), "hadamard_acc_promote_conj comp length mismatch");
            for (((s, c), x), y) in acc.iter_mut().zip(comp.iter_mut()).zip(a).zip(b) {
                let term = (x.to_c64().conj() * y.to_c64()).scale(w);
                two_sum_acc(term, s, c);
            }
        }
        None => {
            for ((s, x), y) in acc.iter_mut().zip(a).zip(b) {
                *s += (x.to_c64().conj() * y.to_c64()).scale(w);
            }
        }
    }
}

/// One Kahan (two-sum compensated) update `sum += term`, carrying the
/// running compensation in `comp` (per component).
#[inline(always)]
fn two_sum_acc(term: Complex64, sum: &mut Complex64, comp: &mut Complex64) {
    let y = term - *comp;
    let t = *sum + y;
    *comp = (t - *sum) - y;
    *sum = t;
}

// ---------------------------------------------------------------------
// Precision policy
// ---------------------------------------------------------------------

/// Precision of one pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StagePrecision {
    /// Full double precision — the reference path, exact to fp64.
    Fp64,
    /// fp32 compute with plain fp64 accumulation of the results.
    Fp32,
    /// fp32 compute with two-sum (Kahan) compensated fp64 accumulation —
    /// the recommended reduced mode: the fp64 accumulation chain itself
    /// contributes no rounding beyond the fp32 inputs. Compensation only
    /// matters for long accumulation chains, i.e. the `exchange` stage;
    /// for single-add stages (the subspace GEMM's one promote-add per
    /// element) `Fp32Promoted` behaves identically to [`Self::Fp32`].
    Fp32Promoted,
}

impl StagePrecision {
    /// True for the reduced (fp32-compute) modes.
    #[inline]
    pub fn reduced(self) -> bool {
        self != StagePrecision::Fp64
    }

    /// True when fp64 accumulation should carry two-sum compensation.
    #[inline]
    pub fn compensated(self) -> bool {
        self == StagePrecision::Fp32Promoted
    }
}

/// Per-stage precision map for the rt-TDDFT pipeline, threaded through
/// `FockOptions` into the exchange operator, the ACE compressor, and the
/// propagators.
///
/// Stage semantics:
///
/// * `exchange` — the Fock pair solves: pair densities, the
///   screened-Poisson FFT round trip, and the scatter back into the
///   fp64 targets. Reduced modes demote the orbital block once per
///   apply and solve every `W_ij` on the fp32 plans.
/// * `subspace_gemm` — the ACE apply (`ξ^Hψ` overlap + `ξ C` rotation).
///
/// The propagator state updates always accumulate in fp64: the whole
/// error budget of the mixed pipeline rests on a well-conditioned fp64
/// state (DESIGN.md §"Precision error budget").
///
/// `promote_drift` is the propagators' auto-promotion threshold: when a
/// step's pre-constraint orthonormality drift exceeds it (or goes
/// non-finite) under a reduced policy, the step is recomputed at fp64.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrecisionPolicy {
    /// Fock exchange Poisson solves.
    pub exchange: StagePrecision,
    /// ACE / subspace GEMMs.
    pub subspace_gemm: StagePrecision,
    /// Orthonormality-drift threshold for per-step auto-promotion.
    pub promote_drift: f64,
}

impl PrecisionPolicy {
    /// All-fp64 policy — bit-identical to the pre-subsystem behavior.
    pub const fn fp64() -> Self {
        PrecisionPolicy {
            exchange: StagePrecision::Fp64,
            subspace_gemm: StagePrecision::Fp64,
            promote_drift: f64::INFINITY,
        }
    }

    /// The accelerator default (the paper's GPU playbook): fp32 exchange
    /// solves and FFTs with compensated fp64 accumulation, fp64 subspace
    /// GEMMs, and a loose drift guardrail that catches catastrophic fp32
    /// failures (NaNs, blow-ups) without tripping on routine rounding.
    pub const fn mixed() -> Self {
        PrecisionPolicy {
            exchange: StagePrecision::Fp32Promoted,
            subspace_gemm: StagePrecision::Fp64,
            promote_drift: 1e-3,
        }
    }

    /// True when any compute stage runs reduced.
    #[inline]
    pub fn any_reduced(&self) -> bool {
        self.exchange.reduced() || self.subspace_gemm.reduced()
    }

    /// True when the propagators should monitor drift and auto-promote.
    #[inline]
    pub fn monitors_drift(&self) -> bool {
        self.exchange.reduced() && self.promote_drift.is_finite()
    }

    /// The all-fp64 policy a tripped step is recomputed under (keeps the
    /// threshold for reporting).
    pub fn promoted(&self) -> Self {
        PrecisionPolicy { promote_drift: self.promote_drift, ..Self::fp64() }
    }
}

impl Default for PrecisionPolicy {
    fn default() -> Self {
        PrecisionPolicy::fp64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn signal64(n: usize, seed: f64) -> Vec<Complex64> {
        (0..n)
            .map(|j| c64((j as f64 * 0.37 + seed).sin(), (j as f64 * 0.23 - seed).cos()))
            .collect()
    }

    #[test]
    fn arithmetic_identities() {
        let z = c32(3.0, -2.0);
        let w = c32(-1.5, 0.25);
        assert_eq!(z + w, c32(1.5, -1.75));
        assert_eq!(z * Complex32::ONE, z);
        assert_eq!(Complex32::I * Complex32::I, c32(-1.0, 0.0));
        assert_eq!(z.conj(), c32(3.0, 2.0));
        assert!((z.norm_sqr() - 13.0).abs() < 1e-6);
        let acc = z.mul_add(w, Complex32::ONE);
        let want = z * w + Complex32::ONE;
        assert!((acc - want).abs() < 1e-6);
    }

    #[test]
    fn demote_promote_roundtrip_error_bound() {
        let x = signal64(257, 0.9);
        let back = promote(&demote(&x));
        for (a, b) in x.iter().zip(&back) {
            // Round-to-nearest: per-component error ≤ 2^-24 · |component|.
            assert!((a.re - b.re).abs() <= a.re.abs() * 2f64.powi(-24));
            assert!((a.im - b.im).abs() <= a.im.abs() * 2f64.powi(-24));
        }
    }

    #[test]
    fn promotion_is_exact() {
        let x: CVec32 = (0..100)
            .map(|j| c32((j as f32 * 0.11).sin(), (j as f32 * 0.07).cos()))
            .collect();
        let up = promote(&x);
        let down = demote(&up);
        assert_eq!(x, down, "fp32 -> fp64 -> fp32 must be lossless");
    }

    #[test]
    fn compensated_accumulation_beats_naive() {
        // Accumulate many small terms onto a large fp64 value: the
        // compensated path must match an exact (higher-precision)
        // reference better than the naive path. Terms are chosen
        // fp32-representable so the only error source is accumulation.
        let n = 1;
        let reps = 200_000;
        let a = vec![c32(1.0, 0.0)];
        let b = vec![c32(1e-9, 0.0)];
        let mut naive = vec![c64(1.0, 0.0)];
        let mut comp_acc = vec![c64(1.0, 0.0)];
        let mut comp = vec![Complex64::ZERO; n];
        for _ in 0..reps {
            hadamard_acc_promote(1.0, &a, &b, &mut naive, None);
            hadamard_acc_promote(1.0, &a, &b, &mut comp_acc, Some(&mut comp));
        }
        let exact = 1.0 + reps as f64 * 1e-9_f32 as f64;
        let err_naive = (naive[0].re - exact).abs();
        let err_comp = (comp_acc[0].re - exact).abs();
        assert!(err_comp <= err_naive, "comp {err_comp} vs naive {err_naive}");
        assert!(err_comp < 1e-15);
    }

    #[test]
    fn hadamard_promote_matches_f64_kernel_on_exact_inputs() {
        // On inputs that are exactly fp32-representable the promote
        // kernels must reproduce the fp64 kernels bit for bit.
        let n = 64;
        let a32: CVec32 = (0..n).map(|j| c32(j as f32 * 0.5, -(j as f32) * 0.25)).collect();
        let b32: CVec32 = (0..n).map(|j| c32(1.0 - j as f32, j as f32 * 2.0)).collect();
        let a64 = promote(&a32);
        let b64 = promote(&b32);
        let w = -0.75;
        let mut acc32 = vec![c64(0.5, -0.5); n];
        let mut acc64 = acc32.clone();
        hadamard_acc_promote(w, &a32, &b32, &mut acc32, None);
        crate::cvec::hadamard_acc(Complex64::from_re(w), &a64, &b64, &mut acc64);
        assert_eq!(acc32, acc64);

        let mut acc32c = vec![c64(0.5, -0.5); n];
        let mut acc64c = acc32c.clone();
        hadamard_acc_promote_conj(w, &a32, &b32, &mut acc32c, None);
        crate::cvec::hadamard_acc_conj(Complex64::from_re(w), &a64, &b64, &mut acc64c);
        assert_eq!(acc32c, acc64c);
    }

    #[test]
    fn cmat32_roundtrip_and_indexing() {
        let m = CMat32::from_fn(3, 4, |i, j| c32(i as f32, j as f32));
        assert_eq!(m[(2, 3)], c32(2.0, 3.0));
        assert_eq!(m.row(1)[2], c32(1.0, 2.0));
        let up = m.to_c64();
        let down = CMat32::from_c64(&up);
        assert_eq!(m.max_abs_diff(&down), 0.0);
    }

    #[test]
    fn policy_presets() {
        let p = PrecisionPolicy::default();
        assert!(!p.any_reduced());
        assert!(!p.monitors_drift());
        let m = PrecisionPolicy::mixed();
        assert!(m.any_reduced());
        assert!(m.monitors_drift());
        assert!(m.exchange.compensated());
        let promoted = m.promoted();
        assert!(!promoted.any_reduced());
        assert_eq!(promoted.promote_drift, m.promote_drift);
    }
}
