//! End-to-end observability: an instrumented hybrid PT-IM run must
//! account for ≥ 95% of its stepping wall time in the four paper phases
//! (FFT/GEMM/exchange/comm — the Fig. 9 breakdown), export a loadable
//! chrome trace, and stream one JSONL metrics record per step.
//!
//! Everything lives in ONE test function: the `pwobs` recorder is
//! process-global, and cargo runs a file's tests concurrently — separate
//! tests toggling `set_enabled` would race each other's windows.

use pwdft_repro::ptim::{ptim_step, HybridParams, LaserPulse, PtimConfig, TdEngine, TdState};
use pwdft_repro::pwdft::{Cell, DftSystem, Wavefunction};
use pwdft_repro::pwnum::cmat::CMat;
use pwdft_repro::pwobs;
use pwdft_repro::pwobs::export::{
    chrome_trace_json, phase_table, tracked_fraction, StepRecord, StepStream,
};
use std::time::Instant;

#[test]
fn instrumented_hybrid_run_accounts_for_the_wall_time() {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let mut phi = Wavefunction::random(&sys.grid, 4, 11);
    phi.orthonormalize_lowdin();
    let sigma = CMat::from_real_diag(&[1.0, 0.8, 0.5, 0.2]);
    let st0 = TdState { phi, sigma, time: 0.0 };
    let hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
    let eng = TdEngine::new(&sys, LaserPulse::off(), hyb);
    let cfg = PtimConfig { dt: 0.3, max_scf: 25, tol_rho: 1e-8, ..Default::default() };

    // Warm-up OUTSIDE the recording window (pool growth, lazy FFT plans
    // — one-time costs that belong to no phase).
    let (warm, _) = ptim_step(&eng, &st0, &cfg);

    pwobs::set_enabled(true);
    pwobs::reset();
    let mut stream = StepStream::new(Vec::new());
    let mut state = warm;
    let n_steps = 3u64;
    let mut total_s = 0.0;
    for step in 1..=n_steps {
        let t0 = Instant::now();
        let (next, stats) = ptim_step(&eng, &state, &cfg);
        let wall_s = t0.elapsed().as_secs_f64();
        total_s += wall_s;
        state = next;
        let rec = StepRecord::new(step)
            .f("wall_s", wall_s)
            .u("scf_iters", stats.scf_iters as u64)
            .u("fock_applies", stats.fock_applies as u64)
            .b("converged", stats.converged)
            .u("pool_peak_bytes", stats.pool_peak_bytes as u64);
        stream.emit(&rec).expect("Vec<u8> sink cannot fail");
        // The pool high-water mark must surface per step (the exchange
        // and FFT kernels draw their buffers from the process's pool, so
        // a hybrid step always has a nonzero peak).
        assert!(stats.pool_peak_bytes > 0, "pool peak missing from StepStats");
    }
    pwobs::set_enabled(false);
    let rec = pwobs::global();

    // Acceptance: FFT + GEMM + exchange + comm self time covers ≥ 95%
    // of the measured stepping wall time.
    let frac = tracked_fraction(rec, total_s);
    assert!(
        frac >= 0.95,
        "tracked fraction {frac:.4} < 0.95 over {total_s:.4}s\n{}",
        phase_table(rec, total_s)
    );
    // ...and no phase can claim more than the wall clock on one thread.
    assert!(frac <= 1.05, "tracked fraction {frac:.4} over-attributes");

    // Chrome trace: loadable JSON array shape with the step span present.
    let trace = chrome_trace_json(rec);
    assert!(trace.starts_with("{\"traceEvents\": ["), "bad trace head");
    assert!(trace.contains("\"ph\": \"X\""), "no duration events");
    assert!(trace.contains("step.ptim"), "step span missing from timeline");
    assert!(trace.contains("\"gemm.gemm\"") || trace.contains("\"fft."), "backend spans missing");
    assert_eq!(rec.dropped_events(), 0, "timeline overflowed in a 3-step run");

    // JSONL stream: one line per step, each a flat JSON object.
    assert_eq!(stream.lines(), n_steps);
    let bytes = stream.into_inner();
    let text = std::str::from_utf8(&bytes).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), n_steps as usize);
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with('{') && line.ends_with('}'), "line {i} not an object: {line}");
        assert!(line.contains(&format!("\"step\": {}", i + 1)), "step counter wrong: {line}");
        assert!(line.contains("\"pool_peak_bytes\""), "pool peak missing: {line}");
    }
}
