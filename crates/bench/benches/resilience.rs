//! Resilience bench: checkpoint overhead and restart fidelity for the
//! `ptim::resilience` run driver (DESIGN.md §12).
//!
//! Measures, on a hybrid PT-IM run (Blocked backend, 8³ grid, dense
//! exchange):
//!
//! * the per-step cost of the checkpoint cadence — one atomic
//!   `ckpt_*.ptck` write amortized over `interval` steps, reported as
//!   `overhead_frac` = save time / (interval × step time);
//! * restart fidelity — a run interrupted after the first checkpoint and
//!   restored from disk must land **bitwise** on the uninterrupted run's
//!   final state (`restart_max_diff`, deterministic dynamics).
//!
//! Writes `BENCH_resilience.json`, gated in CI by `bin/compare.rs`:
//! `overhead_frac` ≤ 0.05 and `restart_max_diff` ≤ 0.0 at interval 10.
//! Also leaves one `sample_checkpoint.ptck` in the bench directory for
//! the CI artifact upload.

use ptim::resilience::{run, Checkpoint, CheckpointPolicy, Propagator, RecoveryPolicy};
use ptim::{HybridParams, LaserPulse, PtimConfig, TdEngine, TdState};
use pwdft::{Cell, DftSystem, Wavefunction};
use pwdft_bench::median_secs;
use pwnum::cmat::CMat;
use std::hint::black_box;
use std::path::PathBuf;

const STEPS: u64 = 20;

fn fixture() -> (DftSystem, TdState, HybridParams, LaserPulse) {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let mut phi = Wavefunction::random(&sys.grid, 4, 11);
    phi.orthonormalize_lowdin();
    let sigma = CMat::from_real_diag(&[1.0, 0.8, 0.5, 0.2]);
    let hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
    let laser = LaserPulse { e0: 0.01, omega: 0.15, t_center: 5.0, t_width: 2.0 };
    (sys, TdState { phi, sigma, time: 0.0 }, hyb, laser)
}

fn bench_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join(format!("pwdft_bench_resilience_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

struct Row {
    interval: u64,
    step_s: f64,
    save_s: f64,
    ckpt_bytes: u64,
    overhead_frac: f64,
    restart_max_diff: f64,
}

fn measure(interval: u64) -> Row {
    let (sys, st, hyb, laser) = fixture();
    let prop =
        Propagator::Ptim(PtimConfig { dt: 0.3, max_scf: 25, tol_rho: 1e-8, ..Default::default() });
    let recovery = RecoveryPolicy::default();

    // Per-step cost on a bare engine (no checkpoint policy).
    let eng = TdEngine::new(&sys, laser.clone(), hyb);
    let step_s = median_secs(5, || {
        black_box(prop.step(&eng, black_box(&st)));
    });

    // Per-write cost + file size of one checkpoint.
    let dir = bench_dir("save");
    let mut path = PathBuf::new();
    let save_s = median_secs(5, || {
        path = Checkpoint::save(&dir, 1, &st, &prop, &eng.laser).expect("checkpoint write");
    });
    let ckpt_bytes = std::fs::metadata(&path).expect("checkpoint stat").len();
    // Keep one copy in the bench CWD (crates/bench/, like TUNING.json) so
    // CI can upload it as the sample-checkpoint artifact.
    std::fs::copy(&path, "sample_checkpoint.ptck").expect("persist sample checkpoint");
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // Restart fidelity: uninterrupted 0..STEPS vs interrupted-at-first-
    // checkpoint + restored-from-disk continuation. Deterministic
    // dynamics make bitwise agreement the pass bar.
    let baseline = run(&eng, &st, 0, STEPS, &prop, &recovery).expect("baseline run");
    let dir = bench_dir(&format!("restart_{interval}"));
    let eng_ck = TdEngine::new(&sys, laser, hyb)
        .with_checkpoints(CheckpointPolicy::new(&dir, interval));
    // "Interrupt" just past the first checkpoint...
    let _partial = run(&eng_ck, &st, 0, interval + 1, &prop, &recovery).expect("partial run");
    // ...then restart the binary: load the newest checkpoint and continue.
    let ck = Checkpoint::load_latest(&dir, &st).expect("readable dir").expect("checkpoint");
    assert_eq!(ck.meta.step, interval);
    let resumed =
        run(&eng_ck, &ck.state, ck.meta.step, STEPS, &prop, &recovery).expect("resumed run");
    let restart_max_diff = resumed
        .state
        .phi
        .max_abs_diff(&baseline.state.phi)
        .max(resumed.state.sigma.max_abs_diff(&baseline.state.sigma))
        .max((resumed.state.time - baseline.state.time).abs());
    std::fs::remove_dir_all(&dir).expect("cleanup");

    Row {
        interval,
        step_s,
        save_s,
        ckpt_bytes,
        overhead_frac: save_s / (interval as f64 * step_s),
        restart_max_diff,
    }
}

fn main() {
    let rows = [measure(5), measure(10)];
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"checkpoint_interval{}\", \"interval\": {}, \"steps\": {STEPS}, \
             \"step_s\": {:.6e}, \"ckpt_save_s\": {:.6e}, \"ckpt_bytes\": {}, \
             \"overhead_frac\": {:.6}, \"restart_max_diff\": {:.1e}}}{comma}\n",
            r.interval, r.interval, r.step_s, r.save_s, r.ckpt_bytes, r.overhead_frac,
            r.restart_max_diff,
        ));
    }
    json.push_str(
        "  ],\n  \"backend\": \"blocked\", \"grid\": \"8x8x8\", \"bands\": 4, \
         \"propagator\": \"ptim\", \"alpha\": 0.25\n}\n",
    );
    std::fs::write("BENCH_resilience.json", &json).expect("write BENCH_resilience.json");
    println!("wrote BENCH_resilience.json:\n{json}");
}
