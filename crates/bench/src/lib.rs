//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every binary accepts `--full` for paper-scale parameters; the default
//! is a CI-scale configuration that exercises the identical code paths in
//! seconds. `EXPERIMENTS.md` records both.

use mpisim::Cluster;
use perfmodel::platform::Platform;
use pwdft::{scf_hybrid, scf_lda, Cell, DftSystem, GroundState, HybridConfig, ScfConfig};
use pwnum::precision::PrecisionPolicy;

/// Harness options parsed from the command line.
#[derive(Clone, Copy, Debug)]
pub struct HarnessOpts {
    /// Run at (closer to) paper scale instead of CI scale.
    pub full: bool,
}

impl HarnessOpts {
    /// Parses `--full` from `std::env::args`.
    pub fn from_args() -> HarnessOpts {
        let full = std::env::args().any(|a| a == "--full");
        HarnessOpts { full }
    }
}

/// The 8-atom silicon cell of the paper's accuracy experiments (Fig. 7/8)
/// at a CI-friendly cutoff.
pub fn si8_system(opts: &HarnessOpts) -> DftSystem {
    if opts.full {
        // Paper settings: Ecut = 10 Ha (grid chosen automatically).
        DftSystem::new(Cell::silicon_supercell(1, 1, 1), 10.0)
    } else {
        DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 3.0, [10, 10, 10])
    }
}

/// Prepares the finite-temperature hybrid ground state `(Φ(0), σ(0))`
/// for the 8-atom system with `n_bands` states at temperature `temp_k`.
pub fn prepare_ground_state(
    sys: &DftSystem,
    n_bands: usize,
    temp_k: f64,
    hybrid: bool,
) -> GroundState {
    let cfg = ScfConfig {
        n_bands,
        temperature_k: temp_k,
        tol_rho: 1e-6,
        max_scf: 60,
        davidson_iters: 8,
        davidson_tol: 1e-7,
        mix_depth: 15,
        mix_beta: 0.6,
        seed: 7,
    };
    let gs = scf_lda(sys, &cfg);
    if hybrid {
        let hyb = HybridConfig { outer_iters: 3, ..Default::default() };
        scf_hybrid(sys, &cfg, &hyb, gs)
    } else {
        gs
    }
}

/// Maps a modeled platform to its default precision policy — the
/// paper's fp32 playbook: accelerator-style platforms (GPU) run the
/// exchange Poisson solves in fp32 with compensated fp64 accumulation
/// ([`PrecisionPolicy::mixed`]), while the ARM path stays all-fp64
/// ([`PrecisionPolicy::fp64`]).
pub fn precision_for_platform(platform: &Platform) -> PrecisionPolicy {
    if platform.accelerator {
        PrecisionPolicy::mixed()
    } else {
        PrecisionPolicy::fp64()
    }
}

// ---------------------------------------------------------------------------
// Paper-scale distributed runs (Fig. 10/11 at 128–512 simulated ranks).
//
// One canonical configuration shared by the fig10/fig11 binaries and the
// root integration tests: the *real* `dist_ptim_step` (RingOverlap
// exchange, SHM-backed σ, hierarchical collectives) on a Fugaku-like
// network, timed on the mpisim virtual clock, next to the two-level
// closed-form prediction (`perfmodel::dist_step_sim_time_pw`, which
// prices the G-space messages at the system's plane-wave count).
// ---------------------------------------------------------------------------

/// Ranks per node in the scaling runs (one rank per A64FX CMG).
pub const DIST_SCALE_RPN: usize = 4;
/// Modeled compute seconds charged per exchange pair solve.
pub const DIST_SCALE_SOLVE_COST_S: f64 = 2e-5;
/// SCF corrector iterations (the predictor adds one more evaluation).
pub const DIST_SCALE_MAX_SCF: usize = 1;
/// FFT grid of the scaling system (ng = 512).
pub const DIST_SCALE_DIMS: [usize; 3] = [8, 8, 8];

/// One measured (or modeled) scaling point for `BENCH_dist_scale.json`.
#[derive(Clone, Debug)]
pub struct DistScalePoint {
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Total bands N.
    pub n_bands: usize,
    /// Step time (s): virtual-clock max over ranks, or the model value
    /// when `source == "model"`.
    pub step_s: f64,
    /// Closed-form prediction (s).
    pub model_s: f64,
    /// Where `step_s` came from: `"simulator"` or `"model"`.
    pub source: &'static str,
}

impl DistScalePoint {
    /// Measured-over-model agreement ratio.
    pub fn ratio(&self) -> f64 {
        self.step_s / self.model_s
    }
}

/// The Fugaku-like network the scaling runs simulate.
pub fn dist_scale_net(p: usize) -> mpisim::NetworkModel {
    mpisim::NetworkModel::fugaku(p.div_ceil(DIST_SCALE_RPN))
}

/// Platform whose parameters mirror [`dist_scale_net`] so the closed
/// forms and the simulator price every message identically: per-link
/// bandwidth (not the per-rank share), single-hop torus latency.
pub fn dist_scale_platform() -> Platform {
    let net = dist_scale_net(DIST_SCALE_RPN);
    let mut pf = Platform::fugaku_arm();
    pf.net_bw = net.bandwidth;
    pf.net_latency = net.sw_overhead + net.hop_latency;
    pf.shm_bw = net.shm_bandwidth;
    pf.shm_latency = net.shm_latency;
    pf.ranks_per_node = DIST_SCALE_RPN;
    pf
}

/// The scaling system: Si8 at Ecut 2 Ha on the [`DIST_SCALE_DIMS`] grid.
fn dist_scale_system() -> DftSystem {
    DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, DIST_SCALE_DIMS)
}

/// Closed-form prediction for one scaling point, its G-space messages
/// priced at the scaling system's plane-wave count.
pub fn dist_scale_model_s(p: usize, n_bands: usize) -> f64 {
    let grid = dist_scale_system().grid;
    let shape = perfmodel::DistStepShape {
        p,
        n_bands,
        ng: grid.len(),
        solve_cost_s: DIST_SCALE_SOLVE_COST_S,
        max_scf: DIST_SCALE_MAX_SCF,
    };
    perfmodel::dist_step_sim_time_pw(&dist_scale_platform(), &shape, grid.n_pw())
}

/// Runs one real `dist_ptim_step` at `p` simulated ranks and returns the
/// virtual-clock step time (max over ranks).
pub fn measure_dist_step(p: usize, n_bands: usize) -> f64 {
    measure_dist_step_stats(p, n_bands).0
}

/// [`measure_dist_step`] keeping every rank's communication profile:
/// returns the step time plus the per-rank [`mpisim::RankReport`]s (in
/// rank order) for [`write_rank_stats_jsonl`].
pub fn measure_dist_step_stats(p: usize, n_bands: usize) -> (f64, Vec<mpisim::RankReport>) {
    use ptim::distributed::{
        dist_ptim_step, scatter_state, BandDistribution, DistConfig, ExchangeStrategy,
    };
    use ptim::engine::HybridParams;
    use ptim::laser::LaserPulse;
    use ptim::state::TdState;
    use pwnum::cmat::CMat;

    let sys = dist_scale_system();
    let mut phi = pwdft::Wavefunction::random(&sys.grid, n_bands, 7);
    phi.orthonormalize_lowdin();
    // Finite-temperature-style occupations, all above the Fock cutoff.
    let occ: Vec<f64> = (0..n_bands).map(|i| 1.0 / (1.0 + 0.2 * i as f64)).collect();
    let st = TdState { phi, sigma: CMat::from_real_diag(&occ), time: 0.0 };
    let laser = LaserPulse::off();
    let hybrid = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };

    let sys_ref = &sys;
    let laser_ref = &laser;
    let st_ref = &st;
    let out = Cluster::new(p, DIST_SCALE_RPN, dist_scale_net(p)).run(move |c| {
        let dist = BandDistribution::new(n_bands, c.size());
        let local = scatter_state(c, st_ref, &dist);
        let cfg = DistConfig {
            strategy: ExchangeStrategy::RingOverlap,
            use_shm: true,
            hybrid,
            solve_cost_s: DIST_SCALE_SOLVE_COST_S,
        };
        let _ = dist_ptim_step(
            c,
            sys_ref,
            laser_ref,
            &cfg,
            &dist,
            &local,
            0.1,
            DIST_SCALE_MAX_SCF,
            0.0,
        );
        c.now()
    });
    let step_s = out.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
    let reports = out.into_iter().map(|(_, r)| r).collect();
    (step_s, reports)
}

/// Appends one JSONL line per rank to `path`: `{"label": ..., ` then the
/// flat [`mpisim::RankReport::to_json`] fields. One file accumulates all
/// the scaling points of a run (truncate it first with
/// [`truncate_rank_stats`]), giving a directly loadable per-rank
/// communication profile next to the aggregate `BENCH_*.json` rows.
pub fn write_rank_stats_jsonl(
    path: &str,
    label: &str,
    reports: &[mpisim::RankReport],
) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    for r in reports {
        let body = r.to_json();
        writeln!(f, "{{\"label\": \"{label}\", {}", &body[1..])?;
    }
    Ok(())
}

/// Starts a fresh rank-stats JSONL file (removes any previous run's).
pub fn truncate_rank_stats(path: &str) {
    let _ = std::fs::remove_file(path);
}

/// Produces one scaling point: simulator-measured unless `model_only`.
pub fn dist_scale_point(p: usize, n_bands: usize, model_only: bool) -> DistScalePoint {
    dist_scale_point_stats(p, n_bands, model_only).0
}

/// [`dist_scale_point`] keeping the per-rank communication profiles
/// (empty under `model_only` — the closed form has no ranks to report).
pub fn dist_scale_point_stats(
    p: usize,
    n_bands: usize,
    model_only: bool,
) -> (DistScalePoint, Vec<mpisim::RankReport>) {
    let model_s = dist_scale_model_s(p, n_bands);
    let (step_s, source, reports) = if model_only {
        (model_s, "model", Vec::new())
    } else {
        let (t, r) = measure_dist_step_stats(p, n_bands);
        (t, "simulator", r)
    };
    (DistScalePoint { ranks: p, n_bands, step_s, model_s, source }, reports)
}

/// Merge-writes one series of `BENCH_dist_scale.json` next to this
/// crate's manifest (where `bin/compare.rs` looks): rows of other series
/// already in the file are kept, rows of `series` are replaced — so
/// fig10 (strong) and fig11 (weak) can each refresh their own rows in
/// either order.
pub fn write_dist_scale_json(series: &str, points: &[DistScalePoint]) -> String {
    let path = format!("{}/BENCH_dist_scale.json", env!("CARGO_MANIFEST_DIR"));
    let mut rows: Vec<String> = match std::fs::read_to_string(&path) {
        Ok(old) => old
            .lines()
            .filter(|l| {
                l.trim_start().starts_with("{\"name\"")
                    && !l.contains(&format!("\"series\": \"{series}\""))
            })
            .map(|l| l.trim_end_matches(',').to_string())
            .collect(),
        Err(_) => Vec::new(),
    };
    for pt in points {
        rows.push(format!(
            "{{\"name\": \"dist_scale_{series}_p{}\", \"series\": \"{series}\", \
             \"source\": \"{}\", \"ranks\": {}, \"bands\": {}, \"step_s\": {:.6e}, \
             \"model_s\": {:.6e}, \"ratio\": {:.4}}}",
            pt.ranks, pt.source, pt.ranks, pt.n_bands, pt.step_s, pt.model_s, pt.ratio()
        ));
    }
    let mut json = String::from("{\n\"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(r);
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("],\n\"config\": \"si8 8x8x8, rpn=4, fugaku net, RingOverlap, max_scf=1\"\n}\n");
    std::fs::write(&path, &json).expect("write BENCH_dist_scale.json");
    path
}

/// Median wall time per call of `f` over `iters` samples (one warm-up) —
/// shared by the JSON-writing bench harnesses.
pub fn median_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats seconds with sensible precision.
pub fn fmt_s(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.1}")
    } else if t >= 1.0 {
        format!("{t:.2}")
    } else {
        format!("{t:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_scale_system_is_small() {
        let sys = si8_system(&HarnessOpts { full: false });
        assert_eq!(sys.grid.len(), 1000);
        assert_eq!(sys.cell.n_atoms(), 8);
    }

    #[test]
    fn platform_precision_defaults() {
        let arm = precision_for_platform(&Platform::fugaku_arm());
        assert!(!arm.any_reduced(), "ARM default must stay fp64");
        let gpu = precision_for_platform(&Platform::gpu_a100());
        assert!(gpu.exchange.reduced(), "GPU default must reduce exchange");
        assert!(gpu.monitors_drift());
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_s(429.3), "429.3");
        assert_eq!(fmt_s(11.4), "11.40");
        assert_eq!(fmt_s(0.5), "0.5000");
    }
}
