//! What every workload shares: the repetition loop, per-step health
//! checks, the end-to-end arithmetic, the outside-timed layer calls,
//! checkpoint I/O and the traced-pass phase shares.
//!
//! Program items are named only through `pwdft_repro::` re-exports and
//! only from the allowlist in README.md, so this file compiles against
//! every later commit that keeps that surface.

use crate::golden::{self, Counts, Golden};
use crate::ladder::{Propagation, StepCounts, UnitTimes};
use crate::proc;
use crate::registry::DEFAULT_SEED;
use crate::report::Report;
use crate::stats;
use pwdft_repro::ptim::resilience::{Checkpoint, Propagator};
use pwdft_repro::ptim::{LaserPulse, StepStats, TdEngine, TdState};
use pwdft_repro::pwdft::mixing::AndersonMixer;
use pwdft_repro::pwdft::{AceOperator, DftSystem, FockApplyStats};
use pwdft_repro::pwnum::backend::default_backend;
use pwdft_repro::pwnum::cmat::CMat;
use pwdft_repro::pwobs;
use pwdft_repro::pwobs::export::{chrome_trace_json, phase_breakdown, tracked_fraction};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Options of one run of one workload.
pub struct RunOpts {
    pub seed: u64,
    /// How long the repetition loop measures.
    pub seconds: f64,
    /// Per-layer pass (`--trace 1`) instead of the end-to-end pass.
    pub trace: bool,
    /// Write the golden reference instead of comparing with it.
    pub bless: bool,
    /// `<target>/benchmark/<workload>`: trace.json, layers.json, scratch.
    pub out_dir: PathBuf,
}

impl RunOpts {
    /// Runs `segment` again and again for the pass's `seconds`. In the
    /// traced pass every second repetition (the odd ones) runs with the
    /// `pwobs` recorder on, interleaved with the untraced ones so both
    /// see the same machine state.
    pub fn repeat<T>(&self, mut segment: impl FnMut() -> T) -> Vec<T> {
        let min_reps = if self.trace { 2 * MIN_REPS } else { MIN_REPS };
        pwobs::reset();
        repeat_for(self.seconds, min_reps, |rep| {
            pwobs::set_enabled(self.trace && rep % 2 == 1);
            let out = segment();
            pwobs::set_enabled(false);
            out
        })
    }
}

/// Every pass repeats its segment at least this often untraced (and in
/// the traced pass as often traced), so the per-index minimum always
/// has two samples to choose from.
pub const MIN_REPS: usize = 2;
/// Timed calls per layer metric, after one warm-up call.
pub const LAYER_CALLS: usize = 5;

// Per-step invariants (ISSUE 11): a step fails beyond these.
const MAX_TRACE_DRIFT: f64 = 1e-8;
const MAX_HERM_ERR: f64 = 1e-10;
const MAX_ORTHO_ERR: f64 = 1e-8;
/// Repetitions start from one state and run one deterministic program;
/// their end points may differ by rounding noise at most.
const MAX_REP_DEV: f64 = 1e-10;

pub fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Runs `segment(rep)` again and again while another repetition of the
/// last one's length still fits into `seconds`, and at least
/// `min_reps` times.
pub fn repeat_for<T>(seconds: f64, min_reps: usize, mut segment: impl FnMut(usize) -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(segment(out.len()));
        let last = t.elapsed().as_secs_f64();
        if out.len() >= min_reps && t0.elapsed().as_secs_f64() + last > seconds {
            return out;
        }
    }
}

/// One timed propagator step.
#[derive(Clone, Debug, Default)]
pub struct StepSample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub stats: StepStats,
    /// Why the step failed its checks, if it did.
    pub failure: Option<String>,
}

impl StepSample {
    pub fn counts(&self) -> StepCounts {
        StepCounts {
            scf_iters: self.stats.scf_iters,
            outer_iters: self.stats.outer_iters,
            fock_applies: self.stats.fock_applies,
            converged: self.stats.converged,
        }
    }
}

/// Times `step` (wall and process CPU) under the harness's own
/// `bench.step` span.
pub fn timed_step<T>(step: impl FnOnce() -> (T, StepStats)) -> (T, StepSample) {
    let c0 = proc::cpu_seconds();
    let t0 = Instant::now();
    let (next, stats) = {
        let _s = pwobs::span("bench.step");
        step()
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = proc::cpu_seconds() - c0;
    (
        next,
        StepSample {
            wall_s,
            cpu_s,
            stats,
            failure: None,
        },
    )
}

/// Worst invariant errors seen over a run's timed steps.
#[derive(Clone, Copy, Debug, Default)]
pub struct Health {
    pub ne_drift_max: f64,
    pub ortho_err_max: f64,
    pub sigma_herm_err_max: f64,
}

/// Checks one step `prev → next`; returns why it failed, if it did.
pub fn check_step(
    prev: &TdState,
    next: &TdState,
    converged: bool,
    health: &mut Health,
) -> Option<String> {
    let finite = next.time.is_finite()
        && next
            .phi
            .data
            .iter()
            .chain(next.sigma.as_slice())
            .all(|z| z.re.is_finite() && z.im.is_finite());
    if !finite {
        return Some("state is not finite".into());
    }
    let trace_drift = (next.sigma.trace().re - prev.sigma.trace().re).abs();
    let herm = next.sigma.hermiticity_error();
    let phi = &next.phi;
    let ortho = default_backend()
        .overlap(&phi.data, &phi.data, phi.ng, phi.ip_scale)
        .max_abs_diff(&CMat::identity(phi.n_bands));
    // Electron count is 2 Tr σ (spin-restricted).
    health.ne_drift_max = health.ne_drift_max.max(2.0 * trace_drift);
    health.sigma_herm_err_max = health.sigma_herm_err_max.max(herm);
    health.ortho_err_max = health.ortho_err_max.max(ortho);
    if !converged {
        Some("SCF did not converge".into())
    } else if trace_drift > MAX_TRACE_DRIFT {
        Some(format!("|ΔTr σ| = {trace_drift:e}"))
    } else if herm > MAX_HERM_ERR {
        Some(format!("σ hermiticity error {herm:e}"))
    } else if ortho > MAX_ORTHO_ERR {
        Some(format!("orthonormality error {ortho:e}"))
    } else {
        None
    }
}

/// One repetition of a workload's frozen segment.
pub struct Rep {
    pub steps: Vec<StepSample>,
    /// Cheap end-point observables, compared across repetitions.
    pub dipole_x: f64,
    pub trace_sigma: f64,
}

impl Rep {
    pub fn counts(&self) -> Counts {
        let col =
            |f: fn(&StepStats) -> usize| self.steps.iter().map(|s| f(&s.stats) as f64).collect();
        Counts {
            scf_iters: col(|s| s.scf_iters),
            outer_iters: col(|s| s.outer_iters),
            fock_applies: col(|s| s.fock_applies),
            fock_solves_fp64: col(|s| s.fock_solves_fp64),
            fock_solves_fp32: col(|s| s.fock_solves_fp32),
        }
    }
}

/// Splits what [`RunOpts::repeat`] produced into `(untraced, traced)`.
pub fn split_traced(reps: &[Rep], trace: bool) -> (Vec<&Rep>, Vec<&Rep>) {
    if trace {
        (
            reps.iter().step_by(2).collect(),
            reps.iter().skip(1).step_by(2).collect(),
        )
    } else {
        (reps.iter().collect(), Vec::new())
    }
}

/// Per-index minimum over repetitions of one per-step quantity.
pub fn min_over_reps(reps: &[&Rep], f: fn(&StepSample) -> f64) -> Vec<f64> {
    let cols: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| r.steps.iter().map(f).collect())
        .collect();
    stats::min_per_index(&cols)
}

/// Step accounting and the checks that span repetitions: every
/// repetition must do the same work and end at the same point, and (at
/// the default seed) that point must be the committed reference.
/// `total_energy` is the last repetition's. Returns the |Δ| of dipole
/// and energy against the reference (0 without one).
pub fn verify(
    report: &mut Report,
    workload: &str,
    opts: &RunOpts,
    reps: &[Rep],
    total_energy: f64,
) -> (f64, f64) {
    for rep in reps {
        report.attempted += rep.steps.len() as u64;
        for (i, s) in rep.steps.iter().enumerate() {
            if let Some(why) = &s.failure {
                report.failed += 1;
                report.note(format!("step {i} failed: {why}"));
            }
        }
    }
    let last = reps.last().expect("at least one repetition");
    for (r, rep) in reps.iter().enumerate() {
        let dev = (rep.dipole_x - last.dipole_x)
            .abs()
            .max((rep.trace_sigma - last.trace_sigma).abs());
        // A NaN deviation is not a repeat either.
        let repeats = rep.counts() == last.counts() && dev <= MAX_REP_DEV;
        if !repeats {
            report.fail_all(format!(
                "repetition {r} is not a repeat of the last one (|Δ| {dev:e})"
            ));
        }
    }
    let run = Golden {
        workload: workload.to_owned(),
        seed: opts.seed,
        dipole_x: last.dipole_x,
        total_energy,
        trace_sigma: last.trace_sigma,
        counts: last.counts(),
    };
    if opts.seed != DEFAULT_SEED {
        // References exist for the default seed only; other seeds are
        // held to the per-step invariants.
        return (0.0, 0.0);
    }
    if opts.bless {
        if !report.correct() {
            report.note("not blessing a run that failed its checks".into());
        } else {
            match golden::store(&run) {
                Ok(path) => println!("blessed {}", path.display()),
                Err(e) => report.fail_all(format!("cannot write reference: {e}")),
            }
        }
        return (0.0, 0.0);
    }
    // dense_mixed must take dense_fp64's SCF iterations, step for step.
    let scf_like = (workload == "dense_mixed").then(|| golden::load("dense_fp64"));
    let verdict = match (golden::load(workload), scf_like.transpose()) {
        (Ok(reference), Ok(scf_like)) => {
            run.compare(&reference, golden::tolerance(workload), scf_like.as_ref())
        }
        (Err(e), _) | (_, Err(e)) => {
            report.fail_all(format!("no reference ({e}); run with --bless"));
            return (0.0, 0.0);
        }
    };
    for note in &verdict.notes {
        report.note(note.clone());
    }
    if !verdict.observables_ok {
        report.fail_all("final observables left the reference tolerance".into());
    }
    (verdict.dipole_dev, verdict.energy_dev)
}

/// The wall/CPU end-to-end metrics from the untraced repetitions:
/// per step index the least-disturbed repetition, then the median
/// (`step_wall_s`) and the sums per simulated femtosecond and per step.
pub fn end_to_end(report: &mut Report, reps: &[&Rep], dt_fs: f64, setup_s: f64) {
    let walls = min_over_reps(reps, |s| s.wall_s);
    let cpus = min_over_reps(reps, |s| s.cpu_s);
    let k = walls.len() as f64;
    let (step_wall_s, _) = stats::median(&walls).expect("a segment has steps");
    report.set("step_wall_s", step_wall_s);
    report.set("wall_s_per_fs", walls.iter().sum::<f64>() / (k * dt_fs));
    report.set("cpu_s_per_step", cpus.iter().sum::<f64>() / k);
    report.set("setup_s", setup_s);
    println!(
        "samples: {} timed steps x {} repetitions (per-index minimum, then median)",
        walls.len(),
        reps.len()
    );
}

/// The traced pass's rows that come from the untraced repetitions
/// alone: exact per-step work counts (means over the segment's steps),
/// health maxima, deviations from the reference, sample counts, and CPU
/// seconds per wall second of the timed steps.
pub fn repetition_metrics(
    report: &mut Report,
    untraced: &[&Rep],
    health: &Health,
    (dipole_dev, energy_dev): (f64, f64),
    threads: usize,
) {
    let rep = untraced[0];
    let k = rep.steps.len() as f64;
    let mean =
        |f: fn(&StepStats) -> usize| rep.steps.iter().map(|s| f(&s.stats) as f64).sum::<f64>() / k;
    report.set("ptim.scf_iters_per_step", mean(|s| s.scf_iters));
    report.set("ptim.outer_iters_per_step", mean(|s| s.outer_iters));
    report.set("ptim.fock_applies_per_step", mean(|s| s.fock_applies));
    report.set(
        "ptim.fock_solves_fp64_per_step",
        mean(|s| s.fock_solves_fp64),
    );
    report.set(
        "ptim.fock_solves_fp32_per_step",
        mean(|s| s.fock_solves_fp32),
    );
    report.set("ptim.promotions", mean(|s| s.precision_promotions) * k);
    report.set(
        "ptim.unconverged_steps",
        mean(|s| usize::from(!s.converged)) * k,
    );
    let pool_peak = rep.steps.last().map_or(0, |s| s.stats.pool_peak_bytes);
    report.set("pwnum.pool_peak_bytes", pool_peak as f64);
    report.set("ptim.ne_drift_max", health.ne_drift_max);
    report.set("ptim.ortho_err_max", health.ortho_err_max);
    report.set("ptim.sigma_herm_err_max", health.sigma_herm_err_max);
    report.set("ptim.dipole_ref_dev", dipole_dev);
    report.set("ptim.energy_ref_dev", energy_dev);
    report.set(
        "failed_frac",
        report.failed as f64 / report.attempted as f64,
    );
    report.set("bench.threads", threads as f64);
    report.set("bench.timed_steps", k);
    report.set("bench.repetitions", untraced.len() as f64);
    let (wall, cpu) = untraced
        .iter()
        .flat_map(|r| &r.steps)
        .fold((0.0, 0.0), |(w, c), s| (w + s.wall_s, c + s.cpu_s));
    report.set("pwnum.cpu_util", cpu / wall);
}

/// Times one layer call: one warm-up, [`LAYER_CALLS`] timed calls with
/// tracing off (median reported), and one more call under its own
/// `bench.layer.*` span so it shows in `trace.json`. `call` returns the
/// seconds of its measured part, so it can restore its input outside
/// that part.
fn time_layer(span: &'static str, mut call: impl FnMut() -> f64) -> f64 {
    time_layer_parts(span, 1, |part| part[0] = call())[0]
}

/// [`time_layer`] for a call that times `parts` consecutive parts of
/// itself: the median of each part over the timed calls.
fn time_layer_parts(
    span: &'static str,
    parts: usize,
    mut call: impl FnMut(&mut [f64]),
) -> Vec<f64> {
    let mut part = vec![0.0; parts];
    call(&mut part);
    let mut samples = vec![Vec::with_capacity(LAYER_CALLS); parts];
    for _ in 0..LAYER_CALLS {
        call(&mut part);
        for (column, p) in samples.iter_mut().zip(&part) {
            column.push(*p);
        }
    }
    pwobs::set_enabled(true);
    {
        let _s = pwobs::span(span);
        call(&mut part);
    }
    pwobs::set_enabled(false);
    samples
        .iter()
        .map(|column| stats::median(column).expect("LAYER_CALLS > 0").0)
        .collect()
}

/// The fixed-point mixer a workload's propagator runs: history depth
/// and damping.
pub struct MixShape {
    pub depth: usize,
    pub beta: f64,
}

/// Mixing steps replayed from an empty history to price the mixer at
/// each history length: the inner-loop budget of PT-IM-ACE, and as many
/// as a dense PT-IM step of the baseline takes.
pub const MIX_REPLAY: usize = 13;

/// Times the public entry points of each layer at the workload's own
/// shape and end-of-set-up state, and returns the rungs of the ladder.
pub fn measure_layers(
    report: &mut Report,
    eng: &TdEngine,
    sys: &DftSystem,
    state: &TdState,
    kind: Propagation,
    mix: &MixShape,
) -> UnitTimes {
    let be = default_backend();
    let phi = &state.phi;
    let (n, ng) = (phi.n_bands, phi.ng);
    let ev = eng.eval(phi, &state.sigma, state.time);

    // pwnum: one N×N overlap and one rotation of the Φ block.
    let overlap_s = time_layer("bench.layer.pwnum.overlap_s", || {
        secs(|| {
            black_box(be.overlap(&phi.data, &phi.data, ng, phi.ip_scale));
        })
    });
    let mut rotated = phi.data.clone();
    let rotate_s = time_layer("bench.layer.pwnum.rotate_s", || {
        secs(|| be.rotate(&phi.data, &state.sigma, ng, &mut rotated))
    });
    report.set("pwnum.overlap_s", overlap_s);
    report.set("pwnum.rotate_s", rotate_s);
    // Computed, not counted: 8 real flops per complex multiply-add.
    report.set(
        "pwnum.gemm_gflops",
        8.0 * (n * n * ng) as f64 / overlap_s * 1e-9,
    );

    // pwfft: batched round trip and screened-Poisson convolve, per grid.
    let mut grids = ev.nat_r.clone();
    let roundtrip_s = time_layer("bench.layer.pwfft.fft_roundtrip_s", || {
        grids.copy_from_slice(&ev.nat_r);
        secs(|| {
            sys.fft.forward_many_with(&**be, &mut grids, n);
            sys.fft.inverse_many_with(&**be, &mut grids, n);
        })
    }) / n as f64;
    let fock = eng.fock_operator();
    let kernel = fock.kernel_table().to_vec();
    let convolve_s = time_layer("bench.layer.pwfft.convolve_s", || {
        grids.copy_from_slice(&ev.nat_r);
        secs(|| sys.fft.convolve_many_with(&**be, &mut grids, n, &kernel))
    }) / n as f64;
    report.set("pwfft.fft_roundtrip_s", roundtrip_s);
    // Computed: 5·Ng·log2 Ng flops per complex transform, two per trip.
    report.set(
        "pwfft.fft_gflops",
        2.0 * 5.0 * ng as f64 * (ng as f64).log2() / roundtrip_s * 1e-9,
    );
    report.set("pwfft.convolve_s", convolve_s);

    // pwdft: Fock applies. Targets that alias the sources take the
    // pair-symmetric scheduler; a copy forces the asymmetric one (the
    // dense-Hamiltonian path).
    let targets = ev.nat_r.clone();
    let snap = eng.counters.snapshot();
    black_box(fock.apply_diag(&ev.nat_r, &ev.nat.occ, &targets));
    let (fp64, fp32) = eng.counters.since(snap);
    let solves_asym = (fp64 + fp32) as f64;
    let asym_s = time_layer("bench.layer.pwdft.fock_apply_asym_s", || {
        secs(|| {
            black_box(fock.apply_diag(&ev.nat_r, &ev.nat.occ, &targets));
        })
    });
    let mut sym_stats = FockApplyStats::default();
    let sym_s = time_layer("bench.layer.pwdft.fock_apply_sym_s", || {
        secs(|| sym_stats = fock.apply_pure_stats(&ev.nat_r, &ev.nat.occ).1)
    });
    report.set("pwdft.fock_apply_asym_s", asym_s);
    report.set("pwdft.fock_apply_sym_s", sym_s);
    report.set("pwdft.fock_solves_asym", solves_asym);
    report.set("pwdft.fock_solves_sym", sym_stats.solves as f64);
    report.set("pwdft.fock_solve_us", asym_s / solves_asym * 1e6);

    // pwdft: ACE build/apply and the workload's own Hamiltonian.
    let mut ace = None;
    let ace_build_s = time_layer("bench.layer.pwdft.ace_build_s", || {
        secs(|| {
            ace = Some(
                AceOperator::build_from_fock(&fock, &sys.grid, &sys.fft, &ev.nat.phi, &ev.nat.occ)
                    .0,
            )
        })
    });
    let ace = ace.expect("time_layer calls its closure");
    let mut acc = phi.data.clone();
    let ace_apply_s = time_layer("bench.layer.pwdft.ace_apply_s", || {
        secs(|| ace.apply_add(phi, eng.hybrid.alpha, &mut acc))
    });
    let ham = match kind {
        Propagation::Dense => eng.hamiltonian_dense(&ev),
        Propagation::Ace => eng.hamiltonian_ace(&ev, ace),
    };
    let ham_apply_s = time_layer("bench.layer.pwdft.ham_apply_s", || {
        secs(|| {
            black_box(ham.apply(phi));
        })
    });
    report.set("pwdft.ace_build_s", ace_build_s);
    report.set("pwdft.ace_apply_s", ace_apply_s);
    report.set("pwdft.ham_apply_s", ham_apply_s);

    // pwdft: Anderson mixing of the packed (Φ, σ) iterate. A step costs
    // O(history²), so one loop is replayed from an empty history and
    // every step timed on its own. The images are synthetic; the cost
    // does not depend on the values.
    let packed = [phi.data.as_slice(), state.sigma.as_slice()].concat();
    let anderson_s = time_layer_parts("bench.layer.pwdft.anderson_step_s", MIX_REPLAY, |part| {
        let mut mixer = AndersonMixer::new(mix.depth, mix.beta);
        let mut x = packed.clone();
        for (j, p) in part.iter_mut().enumerate() {
            let image: Vec<_> = x
                .iter()
                .map(|z| z.scale(1.0 + 1e-3 * (j + 1) as f64))
                .collect();
            *p = secs(|| x = mixer.step(&x, &image));
        }
    });
    report.set(
        "pwdft.anderson_step_s",
        anderson_s.iter().sum::<f64>() / MIX_REPLAY as f64,
    );

    // ptim: one evaluation point and one set of exchange images.
    let eval_s = time_layer("bench.layer.ptim.eval_s", || {
        secs(|| {
            black_box(eng.eval(phi, &state.sigma, state.time));
        })
    });
    let images_s = time_layer("bench.layer.ptim.exchange_images_s", || {
        secs(|| {
            black_box(eng.exchange_images(phi, &state.sigma));
        })
    });
    report.set("ptim.eval_s", eval_s);
    report.set("ptim.exchange_images_s", images_s);

    UnitTimes {
        eval_s,
        ham_apply_s,
        ace_build_s,
        overlap_s,
        rotate_s,
        anderson_s,
    }
}

/// Saves and reloads one checkpoint of `state` in `dir` (medians of
/// three) and returns the file, which the caller removes.
pub fn checkpoint_metrics(
    report: &mut Report,
    dir: &Path,
    state: &TdState,
    propagator: &Propagator,
    laser: &LaserPulse,
) -> std::io::Result<PathBuf> {
    let mut path = PathBuf::new();
    let mut writes = Vec::new();
    let mut loads = Vec::new();
    for _ in 0..3 {
        let mut saved = None;
        writes.push(secs(|| {
            saved = Some(Checkpoint::save(dir, 1, state, propagator, laser))
        }));
        path = saved.expect("closure ran")?;
        let mut loaded = None;
        loads.push(secs(|| loaded = Some(Checkpoint::load(&path, state))));
        let restored = loaded
            .expect("closure ran")
            .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        if restored.state.sigma.max_abs_diff(&state.sigma) != 0.0 {
            return Err(std::io::Error::other(
                "checkpoint did not restore σ bit for bit",
            ));
        }
    }
    report.set(
        "ptim.ckpt_write_s",
        stats::median(&writes).expect("three samples").0,
    );
    report.set(
        "ptim.ckpt_load_s",
        stats::median(&loads).expect("three samples").0,
    );
    report.set("ptim.ckpt_bytes", std::fs::metadata(&path)?.len() as f64);
    Ok(path)
}

/// Derives the `pwobs.*` rows from the global recorder after the traced
/// repetitions: self-time shares of `traced_s` (the traced stepping
/// time, summed over the threads that stepped) and the tracing overhead
/// against the untraced repetitions.
pub fn pwobs_metrics(report: &mut Report, traced_s: f64, untraced: &[&Rep], traced: &[&Rep]) {
    let rec = pwobs::global();
    report.set("pwobs.tracked_frac", tracked_fraction(rec, traced_s));
    for row in phase_breakdown(rec) {
        let name = match row.phase {
            pwobs::Phase::Gemm => "pwobs.share_gemm",
            pwobs::Phase::Fft => "pwobs.share_fft_grid",
            pwobs::Phase::Exchange => "pwobs.share_exchange",
            pwobs::Phase::Step => "pwobs.share_step_glue",
            pwobs::Phase::Comm => "pwobs.share_comm",
            _ => continue,
        };
        report.set(name, row.self_s / traced_s);
    }
    let sum = |reps: &[&Rep]| min_over_reps(reps, |s| s.wall_s).iter().sum::<f64>();
    report.set(
        "pwobs.trace_overhead_frac",
        sum(traced) / sum(untraced) - 1.0,
    );
}

/// Writes `trace.json` (Chrome trace of everything recorded so far).
pub fn write_trace(out_dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join("trace.json");
    std::fs::write(&path, chrome_trace_json(pwobs::global()))?;
    println!(
        "wrote {} ({} events; open in chrome://tracing or ui.perfetto.dev)",
        path.display(),
        pwobs::global().timeline_len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_for_runs_at_least_twice_and_stops_on_time() {
        assert_eq!(repeat_for(0.0, 2, |rep| rep), vec![0, 1]);
        let reps = repeat_for(0.05, 2, |_| {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        assert!((2..=5).contains(&reps.len()), "{} repetitions", reps.len());
    }

    fn rep(walls: &[f64], scf: usize) -> Rep {
        let steps = walls
            .iter()
            .map(|&wall_s| StepSample {
                wall_s,
                cpu_s: wall_s * 0.9,
                stats: StepStats {
                    scf_iters: scf,
                    fock_applies: scf,
                    converged: true,
                    ..Default::default()
                },
                failure: None,
            })
            .collect();
        Rep {
            steps,
            dipole_x: -0.2,
            trace_sigma: 16.0,
        }
    }

    #[test]
    fn end_to_end_takes_the_least_disturbed_repetition_per_step() {
        let (a, b) = (rep(&[1.2, 2.0], 9), rep(&[1.0, 2.5], 9));
        let mut report = Report::default();
        end_to_end(&mut report, &[&a, &b], 0.05, 7.5);
        assert_eq!(report.get("step_wall_s"), Some(1.5));
        assert!((report.get("wall_s_per_fs").unwrap() - 30.0).abs() < 1e-12);
        assert!((report.get("cpu_s_per_step").unwrap() - 1.35).abs() < 1e-12);
        assert_eq!(report.get("setup_s"), Some(7.5));
    }

    #[test]
    fn verify_counts_steps_and_rejects_diverging_repetitions() {
        let opts = RunOpts {
            seed: 7,
            seconds: 1.0,
            trace: false,
            bless: false,
            out_dir: PathBuf::new(),
        };
        let mut report = Report::default();
        verify(
            &mut report,
            "dense_fp64",
            &opts,
            &[rep(&[1.0, 2.0], 9), rep(&[1.1, 2.1], 9)],
            -20.0,
        );
        assert_eq!((report.attempted, report.failed), (4, 0));

        let mut bad = rep(&[1.0, 2.0], 9);
        bad.steps[1].failure = Some("SCF did not converge".into());
        let mut report = Report::default();
        verify(
            &mut report,
            "dense_fp64",
            &opts,
            &[bad, rep(&[1.1, 2.1], 9)],
            -20.0,
        );
        assert_eq!((report.attempted, report.failed), (4, 1));

        let mut report = Report::default();
        verify(
            &mut report,
            "dense_fp64",
            &opts,
            &[rep(&[1.0, 2.0], 10), rep(&[1.1, 2.1], 9)],
            -20.0,
        );
        assert_eq!((report.attempted, report.failed), (4, 4));
    }
}
