//! The three single-node workloads: Si8, 32 bands, 8000 K, HSE-type
//! hybrid (α = 0.25), the paper's 380 nm pulse, dt = 50 as.
//!
//! Set-up prepares the finite-temperature hybrid ground state and takes
//! one untimed warm-up step; the timed segment is the next
//! `seg_steps` steps of that trajectory, repeated from the same state.

use crate::harness::{self, Health, MixShape, Rep, RunOpts};
use crate::json::Json;
use crate::ladder::{self, Propagation};
use crate::report::Report;
use pwdft_repro::ptim::laser::AU_TIME_FS;
use pwdft_repro::ptim::resilience::{Checkpoint, Propagator};
use pwdft_repro::ptim::{
    ptim_ace_step, ptim_step, HybridParams, LaserPulse, PtimAceConfig, PtimConfig, StepStats,
    TdEngine, TdState,
};
use pwdft_repro::pwdft::{
    scf_hybrid, scf_lda, Cell, DftSystem, FockOptions, HybridConfig, ScfConfig, Wavefunction,
};
use pwdft_repro::pwnum::cmat::CMat;
use pwdft_repro::pwnum::precision::PrecisionPolicy;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

const N_BANDS: usize = 32;
const TEMPERATURE_K: f64 = 8000.0;

/// Shape and propagator of one single-node workload. Frozen: a later
/// change to any field makes every committed number incomparable.
pub struct Spec {
    pub name: &'static str,
    ecut: f64,
    dims: [usize; 3],
    kind: Propagation,
    mixed: bool,
    /// Timed steps per repetition (after the warm-up step).
    seg_steps: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "dense_fp64",
        ecut: 4.0,
        dims: [12, 12, 12],
        kind: Propagation::Dense,
        mixed: false,
        seg_steps: 3,
    },
    Spec {
        name: "dense_mixed",
        ecut: 4.0,
        dims: [12, 12, 12],
        kind: Propagation::Dense,
        mixed: true,
        seg_steps: 3,
    },
    Spec {
        name: "ace_fp64",
        ecut: 5.0,
        dims: [16, 16, 16],
        kind: Propagation::Ace,
        mixed: false,
        seg_steps: 2,
    },
];

impl Spec {
    fn system(&self) -> DftSystem {
        DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), self.ecut, self.dims)
    }

    fn laser() -> LaserPulse {
        LaserPulse::paper_pulse(0.04, 1.5)
    }

    fn engine<'s>(&self, sys: &'s DftSystem) -> TdEngine<'s> {
        let fock = if self.mixed {
            FockOptions::default().with_precision(PrecisionPolicy::mixed())
        } else {
            FockOptions::default().with_precision(PrecisionPolicy::fp64())
        };
        TdEngine::new(
            sys,
            Self::laser(),
            HybridParams {
                fock,
                ..Default::default()
            },
        )
    }

    /// One step at the paper's tolerances: dt = 50 as, tol_rho = 1e-6
    /// (the configs' defaults).
    fn step(&self, eng: &TdEngine, state: &TdState) -> (TdState, StepStats) {
        match self.kind {
            Propagation::Dense => ptim_step(eng, state, &PtimConfig::default()),
            Propagation::Ace => ptim_ace_step(eng, state, &PtimAceConfig::default()),
        }
    }

    /// The same propagator as the checkpoint format records it.
    fn propagator(&self) -> Propagator {
        match self.kind {
            Propagation::Dense => Propagator::Ptim(PtimConfig::default()),
            Propagation::Ace => Propagator::PtimAce(PtimAceConfig::default()),
        }
    }

    /// The propagator's Anderson mixer, and the iteration budget of one
    /// of its fixed-point loops.
    fn mixer(&self) -> (MixShape, usize) {
        match self.kind {
            Propagation::Dense => {
                let c = PtimConfig::default();
                (
                    MixShape {
                        depth: c.anderson_depth,
                        beta: c.anderson_beta,
                    },
                    c.max_scf,
                )
            }
            Propagation::Ace => {
                let c = PtimAceConfig::default();
                (
                    MixShape {
                        depth: c.anderson_depth,
                        beta: c.anderson_beta,
                    },
                    c.max_inner,
                )
            }
        }
    }

    /// One repetition: `seg_steps` timed, checked steps from `start`;
    /// also returns the state it ends at.
    fn segment(&self, eng: &TdEngine, start: &TdState, health: &mut Health) -> (Rep, TdState) {
        let mut state = start.clone();
        let mut steps = Vec::with_capacity(self.seg_steps);
        for _ in 0..self.seg_steps {
            let (next, mut sample) = harness::timed_step(|| self.step(eng, &state));
            sample.failure = harness::check_step(&state, &next, sample.stats.converged, health);
            steps.push(sample);
            state = next;
        }
        let ev = eng.eval(&state.phi, &state.sigma, state.time);
        let rep = Rep {
            steps,
            dipole_x: eng.dipole_x(&ev.rho),
            trace_sigma: state.sigma.trace().re,
        };
        (rep, state)
    }
}

/// Runs one single-node workload in this process.
pub fn run(spec: &Spec, opts: &RunOpts) -> Report {
    let mut report = Report::default();

    // Set-up: what a user pays before the first production step.
    let t0 = Instant::now();
    let sys = spec.system();
    let cfg = ScfConfig {
        n_bands: N_BANDS,
        temperature_k: TEMPERATURE_K,
        seed: opts.seed,
        ..Default::default()
    };
    let lda = scf_lda(&sys, &cfg);
    let scf_lda_s = t0.elapsed().as_secs_f64();
    let (lda_iters, lda_residual) = (lda.iterations, lda.rho_residual);
    let gs = scf_hybrid(
        &sys,
        &cfg,
        &HybridConfig {
            outer_iters: 2,
            ..Default::default()
        },
        lda,
    );
    let scf_hybrid_s = t0.elapsed().as_secs_f64() - scf_lda_s;
    let eng = spec.engine(&sys);
    // Warm-up step: fills lazy kernel tables, FFT plans and buffer pools.
    let (start, _) = spec.step(&eng, &TdState::from_ground_state(&gs));
    let setup_s = t0.elapsed().as_secs_f64();
    println!("set-up {setup_s:.3} s (scf_lda {scf_lda_s:.3} s / {lda_iters} iterations, scf_hybrid {scf_hybrid_s:.3} s)");

    // Timed repetitions.
    let mut health = Health::default();
    let mut end = start.clone();
    let reps = opts.repeat(|| {
        let (rep, state) = spec.segment(&eng, &start, &mut health);
        end = state;
        rep
    });
    let (untraced, traced) = harness::split_traced(&reps, opts.trace);
    let total_energy = eng.total_energy(&end).total();
    let ref_dev = harness::verify(&mut report, spec.name, opts, &reps, total_energy);

    let dt_fs = spec.propagator().dt() * AU_TIME_FS;
    harness::end_to_end(&mut report, &untraced, dt_fs, setup_s);
    if !opts.trace {
        return report;
    }

    // Per-layer pass.
    let traced_s: f64 = traced.iter().flat_map(|r| &r.steps).map(|s| s.wall_s).sum();
    harness::pwobs_metrics(&mut report, traced_s, &untraced, &traced);
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    harness::repetition_metrics(&mut report, &untraced, &health, ref_dev, threads);
    report.set("pwdft.scf_lda_s", scf_lda_s);
    report.set("pwdft.scf_lda_iters", lda_iters as f64);
    report.set("pwdft.scf_lda_residual", lda_residual);
    report.set("pwdft.scf_hybrid_s", scf_hybrid_s);

    // The ladder: each step rebuilt from its counts and the unit times,
    // against the same steps' least-disturbed measured time.
    let (mix, max_inner) = spec.mixer();
    let ops: Vec<_> = untraced[0]
        .steps
        .iter()
        .map(|s| ladder::step_ops(spec.kind, &s.counts(), max_inner))
        .collect();
    let units = harness::measure_layers(&mut report, &eng, &sys, &start, spec.kind, &mix);
    let walls = harness::min_over_reps(&untraced, |s| s.wall_s);
    let ladder_s: f64 = ops.iter().map(|o| ladder::ladder_step_s(o, &units)).sum();
    report.set("ptim.ladder_step_s", ladder_s / walls.len() as f64);
    report.set(
        "ptim.ladder_residual_frac",
        ladder::residual_frac(ladder_s, walls.iter().sum()),
    );

    // Checkpoint I/O, and the single-threaded baseline: a child process
    // restarts from the checkpoint with PWDFT_NUM_THREADS=1 (the thread
    // count is fixed at first use, so it cannot change in-process).
    let ckpt_dir = opts.out_dir.join("ckpt");
    match harness::checkpoint_metrics(
        &mut report,
        &ckpt_dir,
        &start,
        &spec.propagator(),
        &Spec::laser(),
    ) {
        Ok(path) => match probe_single_thread(spec, &path) {
            Ok(one_thread_s) => report.set(
                "pwnum.thread_speedup",
                one_thread_s / walls.iter().sum::<f64>(),
            ),
            Err(e) => report.fail_all(format!("single-thread probe: {e}")),
        },
        Err(e) => report.fail_all(format!("checkpoint round trip: {e}")),
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    if let Err(e) = harness::write_trace(&opts.out_dir) {
        report.fail_all(format!("cannot write trace: {e}"));
    }
    report
}

/// Spawns this binary with `PWDFT_NUM_THREADS=1` to time the segment
/// single-threaded from the checkpoint; returns its Σ step wall.
fn probe_single_thread(spec: &Spec, ckpt: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--probe-single-thread", spec.name])
        .arg(ckpt)
        .env("PWDFT_NUM_THREADS", "1")
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    crate::json::parse(text.trim())
        .ok()
        .and_then(|doc| doc.get("segment_wall_s")?.as_f64())
        .ok_or_else(|| format!("unexpected probe output {text:?}"))
}

/// Child side of [`probe_single_thread`]: two repetitions of the segment
/// from the checkpointed state, per-index minimum, summed.
pub fn probe_main(name: &str, ckpt: &Path) -> Result<(), String> {
    let spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("{name} is not a single-node workload"))?;
    let sys = spec.system();
    let eng = spec.engine(&sys);
    let template = TdState {
        phi: Wavefunction::zeros(&sys.grid, N_BANDS),
        sigma: CMat::identity(N_BANDS),
        time: 0.0,
    };
    let start = Checkpoint::load(ckpt, &template)
        .map_err(|e| format!("{}: {e:?}", ckpt.display()))?
        .state;
    let mut health = Health::default();
    let reps: Vec<Rep> = (0..harness::MIN_REPS)
        .map(|_| spec.segment(&eng, &start, &mut health).0)
        .collect();
    let walls = harness::min_over_reps(&reps.iter().collect::<Vec<_>>(), |s| s.wall_s);
    println!(
        "{}",
        Json::obj([("segment_wall_s", Json::Num(walls.iter().sum()))]).render()
    );
    Ok(())
}
