//! Mixed-precision exchange bench: the all-fp64 Fock `apply_diag`
//! pipeline vs the fp32 pipeline (fp32 pair densities + fp32 Poisson
//! round trips + two-sum-compensated fp64 accumulation) on the Blocked
//! backend, at N ∈ {32, 64} bands with Fermi–Dirac occupations at the
//! paper's 8000 K — plus the accuracy half of the story: the max
//! apply-level deviation, and the dipole-trace / energy deviation of a
//! 20-step hybrid RT-TDDFT run under the mixed policy vs the all-fp64
//! run.
//!
//! Writes `BENCH_mixed_precision.json` (consumed by EXPERIMENTS.md §4
//! and gated in CI by `bin/compare.rs` on accuracy only: apply-level
//! deviation and dipole-trace agreement within the documented
//! tolerances). The speed columns are reported, not gated — the repo
//! benchmark's `dense_fp64` vs `dense_mixed` workloads measure the
//! precision effect end to end.

use perfmodel::platform::Platform;
use ptim::{rk4_step, HybridParams, LaserPulse, Rk4Config, TdEngine, TdState};
use pwdft::fock::FockOptions;
use pwdft::smearing::{occupations, KB_HARTREE};
use pwdft::{Cell, DftSystem, FockOperator, PwGrid, Wavefunction};
use pwdft_bench::{median_secs, precision_for_platform};
use pwnum::backend::default_backend;
use pwnum::cmat::CMat;
use pwnum::precision::PrecisionPolicy;
use std::hint::black_box;

struct SpeedRow {
    name: String,
    bands: usize,
    fp64_s: f64,
    mixed_s: f64,
    solves: usize,
    solves_fp32: usize,
    apply_err: f64,
}

/// One head-to-head `apply_pure` measurement at `n` bands on the
/// Blocked backend (the accelerator path the mixed policy targets).
fn measure(grid: &PwGrid, n: usize, iters: usize) -> SpeedRow {
    let fft = grid.fft();
    let kt = KB_HARTREE * 8000.0;
    let eigs: Vec<f64> = (0..n).map(|i| -0.0025 * n as f64 + 0.005 * i as f64).collect();
    let (_, occ) = occupations(&eigs, n as f64, kt);
    let wf = Wavefunction::random(grid, n, 3);
    let phi_r = wf.to_real_all(&fft);
    // The product backend under the accelerator platform's mixed
    // policy (fp32 exchange); the fp64 side runs the same backend so the
    // ratio isolates precision.
    let gpu = Platform::gpu_a100();
    let be = default_backend().clone();
    let policy = precision_for_platform(&gpu);
    assert!(policy.exchange.reduced(), "GPU platform default must reduce exchange");
    let fp64 = FockOperator::with_backend(grid, 0.106, be.clone());
    let mixed = FockOperator::with_options(
        grid,
        0.106,
        be,
        FockOptions::default().with_precision(policy),
    );

    let (v64, s64) = fp64.apply_pure_stats(&phi_r, &occ);
    let (v32, s32) = mixed.apply_pure_stats(&phi_r, &occ);
    assert_eq!(s64.solves, s32.solves);
    assert_eq!(s32.solves_fp32, s32.solves);
    let scale = v64.iter().map(|z| z.abs()).fold(0.0f64, f64::max).max(1e-300);
    let apply_err = pwnum::cvec::max_abs_diff(&v64, &v32) / scale;

    let fp64_s = median_secs(iters, || {
        black_box(fp64.apply_pure(black_box(&phi_r), black_box(&occ)));
    });
    let mixed_s = median_secs(iters, || {
        black_box(mixed.apply_pure(black_box(&phi_r), black_box(&occ)));
    });
    SpeedRow {
        name: format!("fock_mixed_n{n}"),
        bands: n,
        fp64_s,
        mixed_s,
        solves: s64.solves,
        solves_fp32: s32.solves_fp32,
        apply_err,
    }
}

/// 20-step hybrid RT-TDDFT dipole/energy accuracy gate: CI-scale
/// system, RK4 (fixed Fock count per step), laser on.
fn dipole_gate(steps: usize) -> (f64, f64, usize) {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
    let mut phi = Wavefunction::random(&sys.grid, 3, 23);
    phi.orthonormalize_lowdin();
    let st0 = TdState {
        phi,
        sigma: CMat::from_real_diag(&[1.0, 0.7, 0.4]),
        time: 0.0,
    };
    let laser = LaserPulse { e0: 0.05, omega: 0.15, t_center: 0.15, t_width: 0.1 };
    let run = |policy: PrecisionPolicy| {
        let eng = TdEngine::new(
            &sys,
            laser.clone(),
            HybridParams {
                alpha: 0.25,
                omega: 0.2,
                fock: FockOptions { precision: policy, ..Default::default() },
            },
        );
        let cfg = Rk4Config { dt: 0.02 };
        let mut s = st0.clone();
        let mut dip = Vec::with_capacity(steps);
        let mut promotions = 0;
        for _ in 0..steps {
            let (next, stats) = rk4_step(&eng, &s, &cfg);
            promotions += stats.precision_promotions;
            s = next;
            let ev = eng.eval(&s.phi, &s.sigma, s.time);
            dip.push(eng.dipole_x(&ev.rho));
        }
        (dip, eng.total_energy(&s).total(), promotions)
    };
    let (d64, e64, _) = run(PrecisionPolicy::fp64());
    let (dmx, emx, promotions) = run(PrecisionPolicy::mixed());
    let dipole_err = d64
        .iter()
        .zip(&dmx)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let energy_err = (e64 - emx).abs() / e64.abs().max(1.0);
    (dipole_err, energy_err, promotions)
}

fn main() {
    let cell = Cell::silicon_supercell(1, 1, 1);
    let grid = PwGrid::with_dims(&cell, 2.0, [12, 12, 12]);

    let rows = vec![measure(&grid, 32, 7), measure(&grid, 64, 5)];
    let steps = 20;
    let (dipole_err, energy_err, promotions) = dipole_gate(steps);

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for r in &rows {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"bands\": {}, \"fp64_s\": {:.6e}, \
             \"mixed_s\": {:.6e}, \"speedup\": {:.3}, \"solves\": {}, \
             \"solves_fp32\": {}, \"apply_rel_err\": {:.3e}}},\n",
            r.name,
            r.bands,
            r.fp64_s,
            r.mixed_s,
            r.fp64_s / r.mixed_s,
            r.solves,
            r.solves_fp32,
            r.apply_err,
        ));
    }
    json.push_str(&format!(
        "    {{\"name\": \"mixed_dipole_trace\", \"steps\": {steps}, \
         \"dipole_err\": {dipole_err:.3e}, \"energy_rel_err\": {energy_err:.3e}, \
         \"promotions\": {promotions}}}\n"
    ));
    json.push_str(
        "  ],\n  \"backend\": \"blocked\", \"grid\": \"12x12x12\", \
         \"temperature_k\": 8000, \"policy\": \"mixed (fp32 exchange, \
         compensated fp64 accumulation)\"\n}\n",
    );
    std::fs::write("BENCH_mixed_precision.json", &json).expect("write BENCH_mixed_precision.json");
    println!("wrote BENCH_mixed_precision.json:\n{json}");
}
