//! Observability decorator over any [`Backend`].
//!
//! [`Traced`] wraps a [`BackendHandle`] and opens a `pwobs` span around
//! every hot primitive, so per-kernel time attribution (the paper's
//! Fig. 9 component split) comes from *one* seam instead of edits to
//! each backend implementation. The wrapped backend keeps its own
//! overrides of the default trait methods (`fused_pair_solve{,32}`,
//! batching strategy, pooling) because calls forward to the inner
//! handle, and internal calls the inner backend makes to itself do not
//! re-enter the decorator — a fused pair solve is therefore *one*
//! `xch.fused_pair_solve` span whose self time is the whole pipeline,
//! exactly how the paper attributes its exchange component.
//!
//! Span naming follows the `pwobs` phase convention:
//!
//! * `gemm.*` — GEMMs and band-space algebra (overlap / rotate /
//!   lincomb), fp64 and fp32,
//! * `grid.*` — grid-local elementwise kernels (Hadamard products,
//!   kernel×field multiplies),
//! * `fft.*` — batched grid transforms,
//! * `xch.*` — the fused exchange pair-solve pipelines.
//!
//! Buffer-pool management (`take_buffer` / `recycle_buffer` and kin) is
//! forwarded without spans: the calls are O(1) pool lookups whose cost
//! is far below timer resolution, and spanning them would double the
//! event volume for nothing.
//!
//! When the `pwobs` recorder is disabled every span degenerates to one
//! relaxed atomic load, so wrapping the process-wide handles (see
//! [`crate::backend::default_backend`]) costs nothing in production.

use crate::backend::{
    Backend, BackendHandle, GridTransform, GridTransform32, PairTask, PoolStats,
};
use crate::cmat::CMat;
use crate::complex::Complex64;
use crate::gemm::Op;
use crate::precision::{CMat32, Complex32};
use std::sync::Arc;

/// Span-instrumented wrapper around an inner backend.
#[derive(Debug)]
pub struct Traced {
    inner: BackendHandle,
}

impl Traced {
    /// Wrap `inner` (idempotent at the type level — double wrapping is
    /// harmless but pointless, so the constructor is the only way in).
    pub fn wrap(inner: BackendHandle) -> BackendHandle {
        Arc::new(Traced { inner })
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &BackendHandle {
        &self.inner
    }
}

impl Backend for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
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
        self.inner.gemm(alpha, a, op_a, b, op_b, beta, c0)
    }

    fn overlap(&self, a: &[Complex64], b: &[Complex64], band_len: usize, scale: f64) -> CMat {
        let _s = pwobs::span("gemm.overlap");
        self.inner.overlap(a, b, band_len, scale)
    }

    fn rotate(&self, a: &[Complex64], q: &CMat, band_len: usize, out: &mut [Complex64]) {
        let _s = pwobs::span("gemm.rotate");
        self.inner.rotate(a, q, band_len, out)
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
        self.inner.rotate_acc(alpha, a, q, band_len, out)
    }

    fn lincomb(
        &self,
        ca: Complex64,
        a: &[Complex64],
        cb: Complex64,
        b: &[Complex64],
        out: &mut [Complex64],
    ) {
        let _s = pwobs::span("gemm.lincomb");
        self.inner.lincomb(ca, a, cb, b, out)
    }

    fn scale_by_real(&self, k: &[f64], field: &mut [Complex64]) {
        let _s = pwobs::span("grid.scale_by_real");
        self.inner.scale_by_real(k, field)
    }

    fn hadamard_conj(&self, a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
        let _s = pwobs::span("grid.hadamard_conj");
        self.inner.hadamard_conj(a, b, out)
    }

    fn hadamard_acc(&self, w: Complex64, a: &[Complex64], b: &[Complex64], acc: &mut [Complex64]) {
        let _s = pwobs::span("grid.hadamard_acc");
        self.inner.hadamard_acc(w, a, b, acc)
    }

    fn hadamard_acc_conj(
        &self,
        w: Complex64,
        a: &[Complex64],
        b: &[Complex64],
        acc: &mut [Complex64],
    ) {
        let _s = pwobs::span("grid.hadamard_acc_conj");
        self.inner.hadamard_acc_conj(w, a, b, acc)
    }

    fn transform_batch(&self, pass: &dyn GridTransform, data: &mut [Complex64], count: usize) {
        let _s = pwobs::span("fft.transform_batch");
        self.inner.transform_batch(pass, data, count)
    }

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
        self.inner.fused_pair_solve(solve, phi, psi, ng, tasks, out)
    }

    fn take_buffer(&self, len: usize) -> Vec<Complex64> {
        self.inner.take_buffer(len)
    }

    fn take_buffer_copy(&self, src: &[Complex64]) -> Vec<Complex64> {
        self.inner.take_buffer_copy(src)
    }

    fn take_scratch(&self, len: usize) -> Vec<Complex64> {
        self.inner.take_scratch(len)
    }

    fn recycle_buffer(&self, buf: Vec<Complex64>) {
        self.inner.recycle_buffer(buf)
    }

    fn pool_stats(&self) -> PoolStats {
        self.inner.pool_stats()
    }

    fn reset_pool_peak(&self) {
        self.inner.reset_pool_peak()
    }

    fn gemm32(&self, alpha: Complex32, a: &CMat32, op_a: Op, b: &CMat32, op_b: Op) -> CMat32 {
        let _s = pwobs::span("gemm.gemm32");
        self.inner.gemm32(alpha, a, op_a, b, op_b)
    }

    fn overlap32(&self, a: &[Complex32], b: &[Complex32], band_len: usize, scale: f32) -> CMat32 {
        let _s = pwobs::span("gemm.overlap32");
        self.inner.overlap32(a, b, band_len, scale)
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
        self.inner.rotate_acc32(alpha, a, q, band_len, out)
    }

    fn hadamard_conj32(&self, a: &[Complex32], b: &[Complex32], out: &mut [Complex32]) {
        let _s = pwobs::span("grid.hadamard_conj32");
        self.inner.hadamard_conj32(a, b, out)
    }

    fn hadamard_acc_promote(
        &self,
        w: f64,
        a: &[Complex32],
        b: &[Complex32],
        acc: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    ) {
        let _s = pwobs::span("grid.hadamard_acc_promote");
        self.inner.hadamard_acc_promote(w, a, b, acc, comp)
    }

    fn hadamard_acc_promote_conj(
        &self,
        w: f64,
        a: &[Complex32],
        b: &[Complex32],
        acc: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    ) {
        let _s = pwobs::span("grid.hadamard_acc_promote_conj");
        self.inner.hadamard_acc_promote_conj(w, a, b, acc, comp)
    }

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
        self.inner.fused_pair_solve32(solve, phi, psi, ng, tasks, out, comp)
    }

    fn take_scratch32(&self, len: usize) -> Vec<Complex32> {
        self.inner.take_scratch32(len)
    }

    fn recycle_buffer32(&self, buf: Vec<Complex32>) {
        self.inner.recycle_buffer32(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Blocked, Reference};
    use crate::complex::c64;

    #[test]
    fn traced_forwards_identity_and_results() {
        let bare: BackendHandle = Arc::new(Reference);
        let traced = Traced::wrap(bare.clone());
        assert_eq!(traced.name(), "reference");

        let vals =
            [[c64(1.0, 2.0), c64(0.5, -1.0)], [c64(-1.0, 0.0), c64(2.0, 0.25)]];
        let a = CMat::from_fn(2, 2, |i, j| vals[i][j]);
        let got = traced.gemm(Complex64::ONE, &a, Op::None, &a, Op::ConjTrans, Complex64::ZERO, None);
        let want = bare.gemm(Complex64::ONE, &a, Op::None, &a, Op::ConjTrans, Complex64::ZERO, None);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(got[(i, j)], want[(i, j)]);
            }
        }

        let x = vec![c64(1.0, 1.0); 8];
        let y = vec![c64(2.0, -1.0); 8];
        let mut out_t = vec![Complex64::ZERO; 8];
        let mut out_b = vec![Complex64::ZERO; 8];
        traced.hadamard_conj(&x, &y, &mut out_t);
        bare.hadamard_conj(&x, &y, &mut out_b);
        assert_eq!(out_t, out_b);

        // Pool plumbing forwards to the wrapped backend.
        let blocked = Traced::wrap(Arc::new(Blocked::new()));
        let buf = blocked.take_buffer(128);
        blocked.recycle_buffer(buf);
        assert!(blocked.pool_stats().fp64.peak_bytes > 0);
    }
}
