//! Finite-temperature laser-driven dynamics: how temperature changes the
//! electronic response (the physics regime the paper's PT-IM method
//! unlocks at scale).
//!
//! Propagates the same 8-atom silicon cell at 300 K (nearly pure state)
//! and 8000 K (strongly mixed state) under one pulse and compares the
//! occupation-matrix dynamics.
//!
//! ```bash
//! cargo run --release --example laser_dynamics
//! # instrumented: chrome trace + phase table + per-step JSONL
//! cargo run --release --example laser_dynamics -- --trace target/pwobs
//! ```
//!
//! With `--trace [dir]` the run enables the [`pwobs`] recorder and
//! writes `trace.json` (load in `chrome://tracing` or Perfetto) and
//! `steps.jsonl` (one metrics object per propagator step) into `dir`
//! (default `target/pwobs`), then prints the Fig. 9-style per-phase
//! breakdown of the stepping wall time.

use std::io::Write as _;
use std::time::Instant;

use pwdft_repro::ptim::laser::{AU_TIME_AS, AU_TIME_FS};
use pwdft_repro::ptim::{ptim_ace_step, HybridParams, LaserPulse, PtimAceConfig, TdEngine, TdState};
use pwdft_repro::pwdft::{scf_hybrid, scf_lda, Cell, DftSystem, HybridConfig, ScfConfig};
use pwdft_repro::pwobs;
use pwdft_repro::pwobs::export::{chrome_trace_json, phase_table, StepRecord, StepStream};

/// Instrumentation context threaded through the two temperature runs:
/// the JSONL stream, the global step counter, and the stepping-loop wall
/// time (the phase table's denominator).
struct Trace {
    stream: StepStream<std::fs::File>,
    step: u64,
    stepping_s: f64,
}

fn run_temperature(sys: &DftSystem, temp_k: f64, trace: &mut Option<Trace>) -> (f64, f64, f64) {
    let cfg = ScfConfig { n_bands: 24, temperature_k: temp_k, ..Default::default() };
    let gs = scf_lda(sys, &cfg);
    let gs = scf_hybrid(sys, &cfg, &HybridConfig { outer_iters: 2, ..Default::default() }, gs);
    let fractional =
        gs.occ.iter().filter(|&&f| f > 0.01 && f < 0.99).count();
    println!(
        "  T = {temp_k:6.0} K: E = {:+.6} Ha, fractional occupations: {fractional}",
        gs.energies.total()
    );

    let pulse = LaserPulse::paper_pulse(0.04, 1.5);
    let eng = TdEngine::new(sys, pulse, HybridParams::default());
    let mut state = TdState::from_ground_state(&gs);
    let cfg_td = PtimAceConfig { dt: 50.0 / AU_TIME_AS, ..Default::default() };

    let e_start = eng.total_energy(&state).total();
    let n_steps = 12;
    // Record only the stepping loop: the ground-state prep above runs
    // the same instrumented kernels, and letting it into the recorder would
    // inflate the phase rows past the stepping-wall denominator.
    if trace.is_some() {
        pwobs::set_enabled(true);
    }
    for _ in 0..n_steps {
        let t0 = Instant::now();
        let (next, stats) = ptim_ace_step(&eng, &state, &cfg_td);
        let wall_s = t0.elapsed().as_secs_f64();
        state = next;
        if let Some(tr) = trace.as_mut() {
            tr.step += 1;
            tr.stepping_s += wall_s;
            let rec = StepRecord::new(tr.step)
                .f("wall_s", wall_s)
                .f("temp_k", temp_k)
                .u("scf_iters", stats.scf_iters as u64)
                .u("outer_iters", stats.outer_iters as u64)
                .u("fock_applies", stats.fock_applies as u64)
                .b("converged", stats.converged)
                .f("residual", stats.residual)
                .u("fock_solves_fp64", stats.fock_solves_fp64 as u64)
                .u("fock_solves_fp32", stats.fock_solves_fp32 as u64)
                .u("pool_peak_bytes", stats.pool_peak_bytes as u64);
            tr.stream.emit(&rec).expect("steps.jsonl write failed");
        }
    }
    if trace.is_some() {
        pwobs::set_enabled(false);
    }
    let e_end = eng.total_energy(&state).total();

    // Occupation redistribution: total |σ - σ(0)| off-diagonal weight.
    let mut off = 0.0;
    for i in 0..24 {
        for j in 0..24 {
            if i != j {
                off += state.sigma[(i, j)].abs();
            }
        }
    }
    (e_end - e_start, off, state.time * AU_TIME_FS)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_dir = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| "target/pwobs".into()));
    let mut trace = trace_dir.as_ref().map(|dir| {
        std::fs::create_dir_all(dir).expect("trace dir");
        let f = std::fs::File::create(format!("{dir}/steps.jsonl")).expect("steps.jsonl");
        Trace { stream: StepStream::new(f), step: 0, stepping_s: 0.0 }
    });

    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 3.0, [10, 10, 10]);
    println!("8-atom Si under a strong 380 nm pulse (hybrid functional, PT-IM-ACE):\n");
    println!("preparing and propagating at two temperatures...");
    let (de_cold, off_cold, t) = run_temperature(&sys, 300.0, &mut trace);
    let (de_hot, off_hot, _) = run_temperature(&sys, 8000.0, &mut trace);

    println!("\nafter {t:.2} fs of irradiation:");
    println!("  energy absorbed  : {de_cold:+.3e} Ha (300 K) vs {de_hot:+.3e} Ha (8000 K)");
    println!("  σ off-diag weight: {off_cold:.3e} (300 K) vs {off_hot:.3e} (8000 K)");
    println!("\nat 8000 K the fractionally-occupied manifold participates in the");
    println!("response — exactly the mixed-state regime where the paper's σ");
    println!("diagonalization and PT-IM integrator earn their keep.");

    if let (Some(tr), Some(dir)) = (trace, trace_dir) {
        let rec = pwobs::global();
        let mut f = std::fs::File::create(format!("{dir}/trace.json")).expect("trace.json");
        f.write_all(chrome_trace_json(rec).as_bytes()).expect("trace.json write");
        println!("\nper-phase breakdown of {} propagator steps:", tr.step);
        println!("{}", phase_table(rec, tr.stepping_s));
        println!("wrote {dir}/trace.json ({} events) and {dir}/steps.jsonl ({} lines)",
            rec.timeline_len(), tr.stream.lines());
    }
}
