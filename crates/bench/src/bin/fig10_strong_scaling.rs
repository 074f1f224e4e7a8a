//! Fig. 10 — strong scaling of the optimized PT-IM code:
//! (a) 768-atom silicon on the ARM platform (15 → 480 nodes),
//! (b) 1536-atom silicon on the GPU platform (12 → 192 nodes),
//! (c) the *real* `dist_ptim_step` executed on the mpisim virtual clock
//!     with 128 bands on 16/32/64/128 simulated ranks — 8 down to 1 band
//!     per rank, as the paper's largest ARM points hold one orbital per
//!     rank (RingOverlap exchange, SHM σ, hierarchical collectives), next
//!     to the two-level closed-form prediction and the 16→128 parallel
//!     efficiency beside the paper's. Section (c) writes the `strong`
//!     series of `BENCH_dist_scale.json` (gated by `bin/compare.rs`).
//!
//! The "ideal" column scales as `1/nodes` from the first point, matching
//! the paper's ideal-scaling line. Pass `--model-only` to skip the
//! simulator and emit closed-form rows instead (their `source` column
//! says `model`, which the CI gate rejects — the flag exists for quick
//! local iteration, not for CI).

use perfmodel::{parallel_efficiency, strong_scaling, Platform};
use pwdft_bench::{
    dist_scale_point_stats, fmt_s, print_table, truncate_rank_stats, write_dist_scale_json,
    write_rank_stats_jsonl,
};

fn run(pf: &Platform, atoms: usize, nodes: &[usize], paper_eff: f64, paper_factor: f64) {
    let series = strong_scaling(pf, atoms, nodes);
    let eff = parallel_efficiency(&series);
    let t0 = series[0].time;
    let n0 = series[0].nodes as f64;
    let rows: Vec<Vec<String>> = series
        .iter()
        .zip(&eff)
        .map(|(p, e)| {
            vec![
                p.nodes.to_string(),
                fmt_s(p.time),
                fmt_s(t0 * n0 / p.nodes as f64),
                format!("{:.1}%", 100.0 * e),
                fmt_s(p.breakdown.comm.total()),
            ]
        })
        .collect();
    print_table(
        &format!("Fig. 10 — strong scaling, {} Si atoms on {}", atoms, pf.name),
        &["nodes", "t/step (s)", "ideal (s)", "parallel eff.", "comm (s)"],
        &rows,
    );
    let measured_factor = series[0].time / series.last().unwrap().time;
    let scale = series.last().unwrap().nodes / series[0].nodes;
    println!(
        "model: {scale}x nodes -> {measured_factor:.2}x faster (efficiency {:.1}%)",
        100.0 * eff.last().unwrap()
    );
    println!(
        "paper: {scale}x nodes -> {paper_factor:.2}x faster (efficiency {:.1}%)",
        100.0 * paper_eff
    );
}

fn main() {
    let model_only = std::env::args().any(|a| a == "--model-only");
    println!("# Fig. 10 reproduction — strong scaling (model-driven)");
    run(
        &Platform::fugaku_arm(),
        768,
        &[15, 30, 60, 120, 240, 480],
        0.368,
        11.79,
    );
    run(&Platform::gpu_a100(), 1536, &[12, 24, 48, 96, 192], 0.229, 3.67);

    // (c) The real distributed step down to one band per rank.
    let n_bands = 128;
    let stats_path = "target/pwobs/fig10_rank_stats.jsonl";
    truncate_rank_stats(stats_path);
    let points: Vec<_> = [16usize, 32, 64, 128]
        .iter()
        .map(|&p| {
            let (pt, reports) = dist_scale_point_stats(p, n_bands, model_only);
            write_rank_stats_jsonl(stats_path, &format!("strong_p{p}"), &reports)
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
                (pt.n_bands / pt.ranks).to_string(),
                format!("{:.6}", pt.step_s),
                format!("{:.6}", pt.model_s),
                format!("{:.3}", pt.ratio()),
                pt.source.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fig. 10(c) — real dist_ptim_step on the virtual clock, {} bands (strong)",
            n_bands
        ),
        &["ranks", "bands", "bands/rank", "step (s)", "model (s)", "ratio", "source"],
        &rows,
    );
    let (first, last) = (&points[0], points.last().unwrap());
    let eff = first.step_s * first.ranks as f64 / (last.step_s * last.ranks as f64);
    println!(
        "{}→{} ranks: parallel efficiency {:.1}% (paper: 36.8% ARM 15→480 nodes, \
         22.9% GPU 12→192 nodes)",
        first.ranks,
        last.ranks,
        100.0 * eff
    );
    let path = write_dist_scale_json("strong", &points);
    println!("wrote strong series to {path}");
    if !model_only {
        println!("wrote per-rank comm profiles to {stats_path}");
    }
}
