//! `dist_ring16`: the real `dist_ptim_step` on 16 simulated ranks.
//!
//! Si8 at 64 bands on 16³, four ranks per node on a Fugaku-like
//! network, ring-pipelined overlapped exchange, σ in node-shared
//! windows, a fixed budget of 3 corrector iterations per step, no
//! laser. Wall time here measures the simulator itself (16 rank threads
//! on the host's cores, each single-threaded); the virtual clock gives
//! the predicted step time and is exact.

use crate::harness::{self, Health, MixShape, Rep, RunOpts, StepSample};
use crate::ladder::Propagation;
use crate::report::Report;
use crate::stats;
use pwdft_repro::mpisim::{Cluster, NetworkModel, RankReport};
use pwdft_repro::perfmodel::{dist_step_sim_time, DistStepShape, Platform};
use pwdft_repro::ptim::distributed::{
    dist_ptim_step, scatter_state, BandDistribution, DistConfig, ExchangeStrategy,
};
use pwdft_repro::ptim::laser::AU_TIME_FS;
use pwdft_repro::ptim::resilience::Propagator;
use pwdft_repro::ptim::{HybridParams, LaserPulse, PtimConfig, TdEngine, TdState};
use pwdft_repro::pwdft::{Cell, DftSystem, Wavefunction};
use pwdft_repro::pwnum::cmat::CMat;
use std::time::Instant;

pub const NAME: &str = "dist_ring16";

// Frozen shape (ISSUE 11).
const RANKS: usize = 16;
const RANKS_PER_NODE: usize = 4;
const N_BANDS: usize = 64;
const ECUT: f64 = 2.0;
const DIMS: [usize; 3] = [16, 16, 16];
/// Modelled compute seconds the virtual clock charges per pair solve.
const SOLVE_COST_S: f64 = 2e-5;
/// Corrector iterations per step; with `TOL_RHO = 0` every step takes
/// exactly this many, so the work is the same at every seed.
const MAX_SCF: usize = 3;
const TOL_RHO: f64 = 0.0;
const DT_AU: f64 = 0.1;
/// Timed steps per repetition.
const SEG_STEPS: usize = 2;

fn network(ranks: usize) -> NetworkModel {
    NetworkModel::fugaku(ranks.div_ceil(RANKS_PER_NODE))
}

fn config(strategy: ExchangeStrategy) -> DistConfig {
    DistConfig {
        strategy,
        use_shm: true,
        hybrid: HybridParams::default(),
        solve_cost_s: SOLVE_COST_S,
    }
}

/// What one cluster run of `steps` steps produced.
struct ClusterRun {
    /// Per step: wall = slowest rank, CPU = whole process (rank 0's reading).
    steps: Vec<StepSample>,
    /// The full state after each step, reassembled from the ranks.
    states: Vec<TdState>,
    /// Virtual-clock seconds per step (slowest rank).
    virt_step_s: f64,
    /// Σ over ranks of their stepping wall time (thread-seconds).
    rank_wall_s: f64,
    reports: Vec<RankReport>,
}

/// Steps `full` forward `steps` times on a fresh simulated cluster.
fn run_cluster(
    sys: &DftSystem,
    full: &TdState,
    ranks: usize,
    strategy: ExchangeStrategy,
    steps: usize,
) -> ClusterRun {
    let laser = LaserPulse::off();
    let cfg = config(strategy);
    let out = Cluster::new(ranks, RANKS_PER_NODE, network(ranks)).run(|c| {
        let dist = BandDistribution::new(N_BANDS, c.size());
        let mut local = scatter_state(c, full, &dist);
        let mut samples = Vec::with_capacity(steps);
        let mut locals = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (next, sample) = harness::timed_step(|| {
                dist_ptim_step(c, sys, &laser, &cfg, &dist, &local, DT_AU, MAX_SCF, TOL_RHO)
            });
            samples.push(sample);
            locals.push(next.clone());
            local = next;
        }
        (samples, locals, c.now())
    });

    let per_step = |i: usize| out.iter().map(move |((samples, _, _), _)| &samples[i]);
    let steps_out = (0..steps)
        .map(|i| StepSample {
            wall_s: per_step(i).map(|s| s.wall_s).fold(0.0, f64::max),
            ..out[0].0 .0[i].clone()
        })
        .collect();
    // Bands are dealt out in contiguous rank order, so concatenating the
    // local blocks is the gather (no communication, clock untouched).
    let states = (0..steps)
        .map(|i| {
            let mut phi = full.phi.clone();
            phi.data = out
                .iter()
                .flat_map(|((_, locals, _), _)| locals[i].phi_local.data.iter().copied())
                .collect();
            let rank0 = &out[0].0 .1[i];
            TdState {
                phi,
                sigma: rank0.sigma.clone(),
                time: rank0.time,
            }
        })
        .collect();
    ClusterRun {
        steps: steps_out,
        states,
        virt_step_s: out.iter().map(|((_, _, now), _)| *now).fold(0.0, f64::max) / steps as f64,
        rank_wall_s: out
            .iter()
            .flat_map(|((samples, _, _), _)| samples)
            .map(|s| s.wall_s)
            .sum(),
        reports: out.into_iter().map(|(_, report)| report).collect(),
    }
}

/// One timed repetition: checks every step and keeps the end state.
fn segment(
    sys: &DftSystem,
    eng: &TdEngine,
    start: &TdState,
    health: &mut Health,
) -> (Rep, ClusterRun) {
    let mut run = run_cluster(sys, start, RANKS, ExchangeStrategy::RingOverlap, SEG_STEPS);
    let mut prev = start;
    for (sample, next) in run.steps.iter_mut().zip(&run.states) {
        // A fixed iteration budget is not expected to converge.
        sample.failure = harness::check_step(prev, next, true, health);
        prev = next;
    }
    let ev = eng.eval(&prev.phi, &prev.sigma, prev.time);
    let rep = Rep {
        steps: std::mem::take(&mut run.steps),
        dipole_x: eng.dipole_x(&ev.rho),
        trace_sigma: prev.sigma.trace().re,
    };
    (rep, run)
}

/// Runs the workload in this process (expects `PWDFT_NUM_THREADS=1`, so
/// the rank threads are the only threads).
pub fn run(opts: &RunOpts) -> Report {
    let mut report = Report::default();

    // Set-up: system, a seeded orthonormal state with finite-temperature
    // style occupations (all above the Fock cutoff), and one warm-up
    // step on the cluster (buffer pools, kernel tables, FFT plans).
    let t0 = Instant::now();
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), ECUT, DIMS);
    let occ: Vec<f64> = (0..N_BANDS).map(|i| 1.0 / (1.0 + 0.2 * i as f64)).collect();
    let initial = TdState {
        phi: Wavefunction::random(&sys.grid, N_BANDS, opts.seed),
        sigma: CMat::from_real_diag(&occ),
        time: 0.0,
    };
    let warm = run_cluster(&sys, &initial, RANKS, ExchangeStrategy::RingOverlap, 1);
    let start = warm
        .states
        .into_iter()
        .next_back()
        .expect("one warm-up step");
    let setup_s = t0.elapsed().as_secs_f64();
    println!("set-up {setup_s:.3} s (system + state + {RANKS}-rank warm-up step)");
    // Single-node engine on the same system: observables and layer calls.
    let eng = TdEngine::new(&sys, LaserPulse::off(), HybridParams::default());

    let mut health = Health::default();
    let mut runs = Vec::new();
    let reps = opts.repeat(|| {
        let (rep, run) = segment(&sys, &eng, &start, &mut health);
        runs.push(run);
        rep
    });
    let (untraced, traced) = harness::split_traced(&reps, opts.trace);
    let end = runs
        .last()
        .and_then(|r| r.states.last())
        .expect("a repetition has steps");
    let total_energy = eng.total_energy(end).total();
    let ref_dev = harness::verify(&mut report, NAME, opts, &reps, total_energy);
    // The virtual clock is Lamport-consistent: it must repeat bit for bit.
    if runs
        .iter()
        .any(|r| r.virt_step_s.to_bits() != runs[0].virt_step_s.to_bits())
    {
        let seen: Vec<f64> = runs.iter().map(|r| r.virt_step_s).collect();
        report.fail_all(format!(
            "virtual clock differs between repetitions: {seen:?}"
        ));
    }

    harness::end_to_end(&mut report, &untraced, DT_AU * AU_TIME_FS, setup_s);
    if !opts.trace {
        return report;
    }

    // Per-layer pass.
    let traced_s: f64 = runs.iter().skip(1).step_by(2).map(|r| r.rank_wall_s).sum();
    harness::pwobs_metrics(&mut report, traced_s, &untraced, &traced);
    harness::repetition_metrics(&mut report, &untraced, &health, ref_dev, RANKS);

    // Virtual clock: the headline, the Fig. 5 strategy ladder beside it
    // (one step each), strong scaling 4 → 16 ranks, and the closed form.
    let virt16 = runs[0].virt_step_s;
    report.set("virt_step_s", virt16);
    for (name, strategy) in [
        ("ptim.dist_virt_step_s.bcast", ExchangeStrategy::Bcast),
        ("ptim.dist_virt_step_s.ring", ExchangeStrategy::Ring),
        (
            "ptim.dist_virt_step_s.async_ring",
            ExchangeStrategy::AsyncRing,
        ),
    ] {
        report.set(
            name,
            run_cluster(&sys, &start, RANKS, strategy, 1).virt_step_s,
        );
    }
    let virt4 = run_cluster(&sys, &start, 4, ExchangeStrategy::RingOverlap, SEG_STEPS).virt_step_s;
    report.set("ptim.dist_virt_step_s.p4", virt4);
    report.set("strong_eff_4to16", (4.0 * virt4) / (RANKS as f64 * virt16));
    let shape = DistStepShape {
        p: RANKS,
        n_bands: N_BANDS,
        ng: sys.grid.len(),
        solve_cost_s: SOLVE_COST_S,
        max_scf: MAX_SCF,
    };
    report.set(
        "perfmodel.dist_model_ratio",
        virt16 / dist_step_sim_time(&model_platform(), &shape),
    );

    mpisim_metrics(&mut report, &runs[0].reports);
    // dist_ptim_step mixes with a history of 10, once per corrector.
    let mix = MixShape {
        depth: 10,
        beta: 0.6,
    };
    harness::measure_layers(&mut report, &eng, &sys, &start, Propagation::Dense, &mix);
    let propagator = Propagator::Ptim(PtimConfig {
        dt: DT_AU,
        max_scf: MAX_SCF,
        tol_rho: TOL_RHO,
        ..Default::default()
    });
    let ckpt_dir = opts.out_dir.join("ckpt");
    if let Err(e) = harness::checkpoint_metrics(
        &mut report,
        &ckpt_dir,
        &start,
        &propagator,
        &LaserPulse::off(),
    ) {
        report.fail_all(format!("checkpoint round trip: {e}"));
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if let Err(e) = harness::write_trace(&opts.out_dir) {
        report.fail_all(format!("cannot write trace: {e}"));
    }
    report
}

/// The platform whose parameters mirror [`network`], so the closed form
/// and the simulator price every message alike: per-link bandwidth and
/// single-hop latency.
fn model_platform() -> Platform {
    let net = network(RANKS);
    let mut pf = Platform::fugaku_arm();
    pf.net_bw = net.bandwidth;
    pf.net_latency = net.sw_overhead + net.hop_latency;
    pf.shm_bw = net.shm_bandwidth;
    pf.shm_latency = net.shm_latency;
    pf.ranks_per_node = RANKS_PER_NODE;
    pf
}

/// Exact communication profile of one repetition, from the rank reports.
fn mpisim_metrics(report: &mut Report, reports: &[RankReport]) {
    let per_step =
        |f: fn(&RankReport) -> u64| reports.iter().map(f).sum::<u64>() as f64 / SEG_STEPS as f64;
    report.set(
        "mpisim.msgs_per_step",
        per_step(|r| r.stats.intra_msgs + r.stats.inter_msgs),
    );
    report.set("mpisim.bytes_per_step", per_step(|r| r.stats.bytes_sent));
    report.set(
        "mpisim.inter_bytes_per_step",
        per_step(|r| r.stats.inter_bytes),
    );
    report.set(
        "mpisim.intra_bytes_per_step",
        per_step(|r| r.stats.intra_bytes),
    );
    report.set(
        "mpisim.sched_wakeups_per_step",
        per_step(|r| r.stats.sched_wakeups),
    );
    report.set(
        "mpisim.shm_staged_bytes",
        reports
            .iter()
            .map(|r| r.stats.shm_staged_bytes)
            .sum::<u64>() as f64,
    );
    report.set(
        "mpisim.comm_virt_s",
        reports
            .iter()
            .map(|r| r.stats.comm_time())
            .fold(0.0, f64::max),
    );
    let hidden: Vec<f64> = reports
        .iter()
        .map(|r| r.stats.overlap_efficiency())
        .collect();
    report.set(
        "mpisim.overlap_hidden_frac",
        hidden.iter().copied().fold(f64::INFINITY, f64::min),
    );
    if let Some((median, n)) = stats::median(&hidden) {
        println!("overlap efficiency over {n} ranks: median {median:.4}");
    }
}
