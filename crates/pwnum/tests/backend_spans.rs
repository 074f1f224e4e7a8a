//! Span taxonomy of the compute layer: with the `pwobs` recorder on,
//! each spanned primitive of the process-wide backend (and the two free
//! kernels that carry spans) records exactly its own span name, the
//! fused pair pipelines count their tasks, and a fused solve is one
//! `xch.*` span with no `grid.*` child.
//!
//! One test in this binary: it owns the process-wide recorder.

use pwnum::backend::{default_backend, GridTransform, GridTransform32, PairTask};
use pwnum::bands;
use pwnum::cmat::CMat;
use pwnum::complex::{c64, Complex64};
use pwnum::cvec;
use pwnum::gemm::Op;
use pwnum::precision::{self, CMat32, Complex32};

/// A grid pass that only scales: exercises the batching and the fused
/// pipelines without a transform's own cost.
struct HalvePass(usize);

impl GridTransform for HalvePass {
    fn grid_len(&self) -> usize {
        self.0
    }
    fn run(&self, grid: &mut [Complex64]) {
        grid.iter_mut().for_each(|g| *g = g.scale(0.5));
    }
}

impl GridTransform32 for HalvePass {
    fn grid_len(&self) -> usize {
        self.0
    }
    fn run(&self, grid: &mut [Complex32]) {
        grid.iter_mut().for_each(|g| *g = g.scale(0.5));
    }
}

fn block(n: usize, seed: f64) -> Vec<Complex64> {
    (0..n).map(|k| c64((k as f64 * 0.13 + seed).sin(), (k as f64 * 0.07 - seed).cos())).collect()
}

/// Recorded span names, sorted, with every span's call count.
fn recorded() -> Vec<(&'static str, u64)> {
    let mut spans: Vec<_> =
        pwobs::global().span_stats().into_iter().map(|(name, s)| (name, s.calls)).collect();
    spans.sort();
    spans
}

#[test]
fn spans_open_where_the_work_is() {
    let (nb, ng) = (3, 8);
    let be = default_backend();
    let (a, b) = (block(nb * ng, 0.2), block(nb * ng, 1.4));
    let (a32, b32) = (precision::demote(&a), precision::demote(&b));
    let m = CMat::from_fn(nb, nb, |i, j| c64(i as f64 + 0.5, j as f64 - 0.25));
    let m32 = CMat32::from_c64(&m);
    let pass = HalvePass(ng);
    let tasks = [
        PairTask { i: 0, j: 1, w_fwd: -1.0, w_rev: -0.5 },
        PairTask { i: 2, j: 2, w_fwd: -0.25, w_rev: 0.0 },
    ];

    pwobs::set_enabled(true);
    pwobs::reset();
    let mut out = vec![Complex64::ZERO; nb * ng];
    be.gemm(Complex64::ONE, &m, Op::None, &m, Op::ConjTrans, Complex64::ZERO, None);
    be.overlap(&a, &b, ng, 1.0);
    be.rotate(&a, &m, ng, &mut out);
    be.rotate_acc(Complex64::ONE, &a, &m, ng, &mut out);
    be.transform_batch(&pass, &mut out, nb);
    be.gemm32(Complex32::ONE, &m32, Op::None, &m32, Op::None);
    be.overlap32(&a32, &b32, ng, 1.0);
    let mut out32 = precision::demote(&out);
    be.rotate_acc32(Complex32::ONE, &a32, &m32, ng, &mut out32);
    be.fused_pair_solve(&pass, &a, &b, ng, &tasks, &mut out);
    be.fused_pair_solve32(&pass, &a32, &b32, ng, &tasks[..1], &mut out, None);
    bands::lincomb(Complex64::ONE, &a, Complex64::ONE, &b, &mut out);
    cvec::scale_by_real(&[2.0; 8], &mut out);
    // Pool plumbing is O(1) and carries no span.
    let buf = be.take_buffer(ng);
    be.recycle_buffer(buf);
    let spans = recorded();
    let rec = pwobs::global();
    let counts = (rec.counter("xch.pair_tasks"), rec.counter("xch.pair_tasks_fp32"));

    // A fused solve alone: one span, all of it self time.
    pwobs::reset();
    be.fused_pair_solve(&pass, &a, &a, ng, &tasks, &mut out);
    let fused = recorded();
    let stat = rec.span_stat("xch.fused_pair_solve").expect("fused span");
    pwobs::set_enabled(false);

    let want = [
        "fft.transform_batch",
        "gemm.gemm",
        "gemm.gemm32",
        "gemm.lincomb",
        "gemm.overlap",
        "gemm.overlap32",
        "gemm.rotate",
        "gemm.rotate_acc",
        "gemm.rotate_acc32",
        "grid.scale_by_real",
        "xch.fused_pair_solve",
        "xch.fused_pair_solve32",
    ];
    assert_eq!(spans, want.map(|name| (name, 1)));
    assert_eq!(counts, (tasks.len() as u64, 1));
    assert_eq!(fused, [("xch.fused_pair_solve", 1)]);
    assert!(fused.iter().all(|(name, _)| !name.starts_with("grid.")));
    assert_eq!(stat.self_ns, stat.total_ns);
}
