//! Fig. 11 — weak scaling of the optimized PT-IM code:
//! (a) ARM platform, 48 → 1536 atoms with nodes = orbitals/4,
//! (b) GPU platform, 48 → 3072 atoms with nodes = orbitals/40.
//!
//! The ideal line scales as O(N²) (per-step work per node grows linearly
//! when nodes track orbitals and total work grows as N³). The memory
//! model reports the capacity limits the paper hits (8 GB/CMG on Fugaku,
//! 40 GB/GPU).
//!
//! The final section drives the *real* `dist_ptim_step` on the mpisim
//! virtual clock with one band per rank (16/32/64/128 ranks) and
//! merges the `weak` series into `BENCH_dist_scale.json` next to fig10's
//! `strong` rows. Pass `--model-only` to emit closed-form rows instead
//! (rejected by the CI gate; local iteration only).

use perfmodel::memory::{max_atoms, per_rank_memory};
use perfmodel::{weak_scaling, Platform, Workload};
use pwdft_bench::{
    dist_scale_point_stats, fmt_s, print_table, truncate_rank_stats, write_dist_scale_json,
    write_rank_stats_jsonl,
};

fn run(pf: &Platform, atoms: &[usize], nodes_for: impl Fn(usize) -> usize, anchor: &str) {
    let series = weak_scaling(pf, atoms, &nodes_for);
    let t0 = series[0].time;
    let a0 = series[0].n_atoms as f64;
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|p| {
            let w = Workload::silicon(p.n_atoms);
            let mem = per_rank_memory(pf, &w, p.nodes, true);
            vec![
                p.n_atoms.to_string(),
                p.nodes.to_string(),
                fmt_s(p.time),
                fmt_s(t0 * (p.n_atoms as f64 / a0).powi(2)),
                format!("{:.1}", mem.total() / 1e9),
                format!("{:.0}%", 100.0 * mem.total() / pf.mem_per_rank),
            ]
        })
        .collect();
    print_table(
        &format!("Fig. 11 — weak scaling on {}", pf.name),
        &["atoms", "nodes", "t/step (s)", "ideal O(N²) (s)", "mem/rank (GB)", "mem used"],
        &rows,
    );
    println!("{anchor}");
}

fn main() {
    println!("# Fig. 11 reproduction — weak scaling + memory capacity (model-driven)");
    run(
        &Platform::fugaku_arm(),
        &[48, 96, 192, 384, 768, 1536],
        |orb| orb / 4,
        "paper: 1536 atoms on 960 nodes is the Fugaku capacity limit (8 GB/CMG)",
    );
    run(
        &Platform::gpu_a100(),
        &[48, 96, 192, 384, 768, 1536, 3072],
        |orb| orb / 40,
        "paper: 3072 atoms @ 192 nodes = 429.3 s/step, >80% of GPU memory; 6144 does not fit",
    );

    // Capacity check (the Sec. VIII-C claims).
    let gpu = Platform::gpu_a100();
    println!(
        "\nmodel capacity on 192 GPU nodes: with SHM {} atoms, without SHM {} atoms",
        max_atoms(&gpu, 192, true),
        max_atoms(&gpu, 192, false)
    );
    let arm = Platform::fugaku_arm();
    println!(
        "model capacity on 960 ARM nodes: with SHM {} atoms, without SHM {} atoms",
        max_atoms(&arm, 960, true),
        max_atoms(&arm, 960, false)
    );
    println!(
        "\nnote: this implementation keeps fewer GPU-resident wavefunction copies than\n         production PWDFT (which holds the 20-deep Anderson history and multi-batch\n         staging buffers in device memory), so absolute utilization is lower than the\n         paper's >80%; the capacity *ordering* — SHM extends reach, 6144 atoms does\n         not fit on 192 nodes — is reproduced."
    );
    let w192 = Workload::silicon(192);
    let t192 = perfmodel::step_time(&gpu, &w192, 12, perfmodel::Variant::AceAsync).total();
    let w3072 = Workload::silicon(3072);
    let t3072 = perfmodel::step_time(&gpu, &w3072, 192, perfmodel::Variant::AceAsync).total();
    println!("\nanchors: 192 atoms @ 12 GPU nodes: model {} s (paper 11.40 s)", fmt_s(t192));
    println!("         3072 atoms @ 192 GPU nodes: model {} s (paper 429.3 s)", fmt_s(t3072));
    println!(
        "         => 1 fs of simulation at 3072 atoms: model {:.1} h (paper ~2.5 h)",
        t3072 * 20.0 / 3600.0
    );

    // Weak scaling through the real distributed step: one band per rank.
    let model_only = std::env::args().any(|a| a == "--model-only");
    let stats_path = "target/pwobs/fig11_rank_stats.jsonl";
    truncate_rank_stats(stats_path);
    let points: Vec<_> = [16usize, 32, 64, 128]
        .iter()
        .map(|&p| {
            let (pt, reports) = dist_scale_point_stats(p, p, model_only);
            write_rank_stats_jsonl(stats_path, &format!("weak_p{p}"), &reports)
                .expect("rank stats jsonl");
            pt
        })
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                pt.ranks.to_string(),
                pt.n_bands.to_string(),
                format!("{:.6}", pt.step_s),
                format!("{:.6}", pt.model_s),
                format!("{:.3}", pt.ratio()),
                pt.source.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig. 11(c) — real dist_ptim_step on the virtual clock, bands = ranks (weak)",
        &["ranks", "bands", "step (s)", "model (s)", "ratio", "source"],
        &rows,
    );
    let path = write_dist_scale_json("weak", &points);
    println!("wrote weak series to {path}");
    if !model_only {
        println!("wrote per-rank comm profiles to {stats_path}");
    }
}
