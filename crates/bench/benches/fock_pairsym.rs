//! Pair-symmetric Fock scheduler bench: baseline `apply_diag` (asymmetric
//! per-target batches, forced by a copied target block) vs the Hermitian
//! `i ≤ j` pair-block scheduler, at N ∈ {32, 64, 128} bands with
//! Fermi–Dirac occupations from `pwdft::smearing` at the paper's 8000 K.
//!
//! Writes `BENCH_fock_pairsym.json` (consumed by EXPERIMENTS.md §4 and
//! gated in CI by `bin/compare.rs`: the job fails if the pair-symmetric
//! path is slower than baseline at N = 128).

use pwdft::fock::FockOptions;
use pwdft::smearing::{occupations, KB_HARTREE};
use pwdft::{Cell, FockOperator, PwGrid, Wavefunction};
use pwdft_bench::median_secs;
use std::hint::black_box;

struct Row {
    name: String,
    bands: usize,
    baseline_s: f64,
    pairsym_s: f64,
    solves_baseline: usize,
    solves_pairsym: usize,
    skipped_weight: f64,
}

/// One head-to-head measurement at `n` bands. `spacing` sets the model
/// eigenvalue ladder (hartree): tight ladders keep every band above the
/// screening cutoff (pure halving); wide ladders push a high-energy tail
/// below it, adding the finite-temperature screening cut.
fn measure(grid: &PwGrid, n: usize, spacing: f64, opts: FockOptions, iters: usize) -> Row {
    let kt = KB_HARTREE * 8000.0;
    let eigs: Vec<f64> = (0..n).map(|i| -0.5 * spacing * n as f64 + spacing * i as f64).collect();
    let (_, occ) = occupations(&eigs, n as f64, kt);
    let wf = Wavefunction::random(grid, n, 3);
    let phi_r = wf.to_real_all(grid);
    let psi_copy = phi_r.clone(); // distinct pointer → asymmetric baseline
    let fock = FockOperator::with_options(grid, 0.106, opts);

    let (_, s_base) = fock.apply_diag_stats(&phi_r, &occ, &psi_copy);
    let (_, s_sym) = fock.apply_pure_stats(&phi_r, &occ);
    assert!(s_sym.symmetric && !s_base.symmetric);

    let baseline_s = median_secs(iters, || {
        black_box(fock.apply_diag(black_box(&phi_r), black_box(&occ), black_box(&psi_copy)));
    });
    let pairsym_s = median_secs(iters, || {
        black_box(fock.apply_pure(black_box(&phi_r), black_box(&occ)));
    });
    Row {
        name: format!("fock_pairsym_n{n}"),
        bands: n,
        baseline_s,
        pairsym_s,
        solves_baseline: s_base.solves,
        solves_pairsym: s_sym.solves,
        skipped_weight: s_sym.skipped_weight,
    }
}

fn main() {
    let cell = Cell::silicon_supercell(1, 1, 1);
    let grid = PwGrid::with_dims(&cell, 2.0, [12, 12, 12]);
    let opts = FockOptions::default();

    let mut rows = vec![
        measure(&grid, 32, 0.005, opts, 7),
        measure(&grid, 64, 0.005, opts, 5),
        measure(&grid, 128, 0.005, opts, 3),
    ];
    // Finite-temperature screening on top of the halving: a wide ladder
    // pushes the high tail below the default cutoff, and a looser cutoff
    // drops more weight (reported so callers can bound the error).
    let mut screened = measure(
        &grid,
        64,
        0.05,
        FockOptions { occ_cutoff: 1e-8, ..opts },
        5,
    );
    screened.name = "fock_pairsym_screened_n64".into();
    rows.push(screened);

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"bands\": {}, \"baseline_s\": {:.6e}, \
             \"pairsym_s\": {:.6e}, \"speedup\": {:.3}, \"solves_baseline\": {}, \
             \"solves_pairsym\": {}, \"skipped_weight\": {:.3e}}}{}\n",
            r.name,
            r.bands,
            r.baseline_s,
            r.pairsym_s,
            r.baseline_s / r.pairsym_s,
            r.solves_baseline,
            r.solves_pairsym,
            r.skipped_weight,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(
        "  ],\n  \"backend\": \"blocked\", \"grid\": \"12x12x12\", \"temperature_k\": 8000\n}\n",
    );
    std::fs::write("BENCH_fock_pairsym.json", &json).expect("write BENCH_fock_pairsym.json");
    println!("wrote BENCH_fock_pairsym.json:\n{json}");
}
