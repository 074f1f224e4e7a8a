//! Observability overhead bench: the `pwobs` recorder must be free when
//! disabled and near-free when enabled (DESIGN.md §13 overhead budget).
//!
//! Measures, on a hybrid PT-IM step (the process default `Blocked`
//! backend, whose primitives open their own spans; 8³ grid, dense
//! exchange):
//!
//! * `enabled_overhead_frac` — the relative step-time cost of running
//!   with the recorder enabled. Disabled and enabled samples are
//!   **interleaved** (dis, en, dis, en, …) so drift in machine load hits
//!   both sides equally, and each side takes its **minimum** over the
//!   pairs — the fastest achievable time is the right basis for an
//!   overhead bound because scheduler noise only ever adds time (the
//!   true enabled cost, ~200 ns per span record, is orders of magnitude
//!   below a step's run-to-run variance, so medians would gate on noise).
//! * `disabled_span_ns` — nanoseconds per [`pwobs::span`] open/drop when
//!   the recorder is disabled: one relaxed atomic load, expected at
//!   single-digit nanoseconds ("disabled ≈ 0").
//!
//! Writes `BENCH_observability.json`, gated in CI by `bin/compare.rs`:
//! `enabled_overhead_frac` ≤ 0.02 and `disabled_span_ns` ≤ 50.

use ptim::{ptim_step, HybridParams, LaserPulse, PtimConfig, TdEngine, TdState};
use pwdft::{Cell, DftSystem, Wavefunction};
use pwnum::cmat::CMat;
use std::hint::black_box;
use std::time::Instant;

/// Interleaved sample pairs for the overhead measurement.
const PAIRS: usize = 11;
/// Propagator steps per sample (averages out per-step scheduler noise).
const STEPS_PER_SAMPLE: usize = 3;
/// Disabled-span microbench iterations.
const SPAN_ITERS: u32 = 1_000_000;

fn fixture() -> (DftSystem, TdState, HybridParams) {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let mut phi = Wavefunction::random(&sys.grid, 4, 11);
    phi.orthonormalize_lowdin();
    let sigma = CMat::from_real_diag(&[1.0, 0.8, 0.5, 0.2]);
    (sys, TdState { phi, sigma, time: 0.0 }, HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() })
}

fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn main() {
    let (sys, st, hyb) = fixture();
    let eng = TdEngine::new(&sys, LaserPulse::off(), hyb);
    let cfg = PtimConfig { dt: 0.3, max_scf: 25, tol_rho: 1e-8, ..Default::default() };

    // Warm-up: pools, lazy plans, page faults.
    pwobs::set_enabled(false);
    black_box(ptim_step(&eng, black_box(&st), &cfg));

    let mut dis = Vec::with_capacity(PAIRS);
    let mut en = Vec::with_capacity(PAIRS);
    let mut span_records = 0usize;
    let mut event_count = 0usize;
    for _ in 0..PAIRS {
        pwobs::set_enabled(false);
        let t0 = Instant::now();
        for _ in 0..STEPS_PER_SAMPLE {
            black_box(ptim_step(&eng, black_box(&st), &cfg));
        }
        dis.push(t0.elapsed().as_secs_f64() / STEPS_PER_SAMPLE as f64);

        pwobs::set_enabled(true);
        pwobs::reset();
        let t0 = Instant::now();
        for _ in 0..STEPS_PER_SAMPLE {
            black_box(ptim_step(&eng, black_box(&st), &cfg));
        }
        en.push(t0.elapsed().as_secs_f64() / STEPS_PER_SAMPLE as f64);
        span_records = pwobs::global().span_stats().iter().map(|(_, s)| s.calls as usize).sum();
        event_count = pwobs::global().timeline_len();
    }
    pwobs::set_enabled(false);
    let step_dis_s = fastest(&dis);
    let step_en_s = fastest(&en);
    let enabled_overhead_frac = (step_en_s - step_dis_s) / step_dis_s;

    // Disabled span cost: the no-op fast path the hot loops pay always.
    let t0 = Instant::now();
    for i in 0..SPAN_ITERS {
        let _s = pwobs::span("bench.disabled_span");
        black_box(i);
    }
    let disabled_span_ns = t0.elapsed().as_secs_f64() * 1e9 / SPAN_ITERS as f64;

    let json = format!(
        "{{\n  \"benchmarks\": [\n    \
         {{\"name\": \"observability_overhead\", \"mode\": 1, \"step_dis_s\": {step_dis_s:.6e}, \
         \"step_en_s\": {step_en_s:.6e}, \"enabled_overhead_frac\": {enabled_overhead_frac:.6}, \
         \"span_records\": {span_records}, \"timeline_events\": {event_count}}},\n    \
         {{\"name\": \"observability_disabled_span\", \"mode\": 2, \
         \"disabled_span_ns\": {disabled_span_ns:.3}}}\n  ],\n  \
         \"backend\": \"blocked\", \"grid\": \"8x8x8\", \"bands\": 4, \
         \"propagator\": \"ptim\", \"alpha\": 0.25, \"pairs\": {PAIRS}\n}}\n"
    );
    std::fs::write("BENCH_observability.json", &json).expect("write BENCH_observability.json");
    println!("wrote BENCH_observability.json:\n{json}");
}
