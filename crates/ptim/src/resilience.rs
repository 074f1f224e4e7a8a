//! Resilience for long RT-TDDFT campaigns: periodic checkpoint/restart,
//! a step-level recovery ladder, and the run driver that ties them
//! together (DESIGN.md §12).
//!
//! The paper's headline results are thousands of hybrid-functional steps
//! on large machines, where node failure and numerical blow-up are
//! routine. Three layers make such runs survivable:
//!
//! * **Checkpoints** ([`Checkpoint`]) — versioned, checksummed binary
//!   snapshots of the full [`TdState`] plus propagator/laser metadata,
//!   written atomically (tmp-file + rename via
//!   [`pwnum::persist::atomic_write`]) and rotated under a
//!   [`CheckpointPolicy`]. Because the dynamics are deterministic, a
//!   restart from a checkpoint is **bitwise identical** to the
//!   uninterrupted run (asserted in `tests/checkpoint_restart.rs`).
//! * **Recovery ladder** ([`step_with_recovery`]) — on a non-finite step
//!   result, retry promoted to all-fp64, then with halved dt
//!   (2 substeps at dt/2, 4 at dt/4, …), before giving up. The fp32
//!   drift guard of every propagator's step envelope remains the inner
//!   rung; this ladder catches what it cannot.
//! * **Run driver** ([`run`]) — steps a [`Propagator`], writes
//!   checkpoints on the policy cadence, and on ladder exhaustion
//!   restores from the newest loadable checkpoint (once per failing
//!   step) before declaring the run dead.
//!
//! Crashed *peers* in distributed runs are handled one layer down:
//! [`mpisim::fault::FaultPlan`] injects the failure and
//! `Comm::require_alive` surfaces it as an attributed error instead of a
//! deadlock (see [`crate::distributed`]).

use crate::engine::TdEngine;
use crate::laser::LaserPulse;
use crate::propagate::StepStats;
use crate::ptim::{ptim_step, PtimConfig};
use crate::ptim_ace::{ptim_ace_step, PtimAceConfig};
use crate::rk4::{rk4_step, Rk4Config};
use crate::state::TdState;
use pwnum::persist::{atomic_write, fnv1a64};
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;
use std::path::{Path, PathBuf};

/// On-disk checkpoint format version; bumped on any layout change, and
/// checked at load so an old binary never misreads a new file.
pub const CHECKPOINT_VERSION: u32 = 1;

/// File magic of a checkpoint (`ckpt_NNNNNNNN.ptck`).
const MAGIC: &[u8; 4] = b"PTCK";

/// When (and how many) checkpoints the [`run`] driver writes.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Write a checkpoint every this many completed steps (0 disables).
    pub interval_steps: u64,
    /// Rotation depth: how many of the newest checkpoints to keep.
    /// Keeping more than one is the corruption fallback — a file that
    /// fails its checksum at load is skipped in favor of the previous
    /// rotation.
    pub keep_last: usize,
    /// Directory the `ckpt_NNNNNNNN.ptck` files live in.
    pub dir: PathBuf,
}

impl CheckpointPolicy {
    /// Policy writing to `dir` every `interval_steps`, keeping the two
    /// newest files (one rotation of fallback).
    pub fn new(dir: impl Into<PathBuf>, interval_steps: u64) -> Self {
        CheckpointPolicy { interval_steps, keep_last: 2, dir: dir.into() }
    }
}

/// Why a checkpoint file was rejected at load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Too short to contain the advertised payload.
    Truncated,
    /// Wrong magic bytes — not a checkpoint file.
    BadMagic,
    /// Format version this build does not understand.
    Version(u32),
    /// Trailing FNV-1a checksum mismatch (bit rot / partial write).
    Checksum,
    /// Band/grid shape differs from the run being restarted.
    Shape {
        /// `(n_bands, ng)` in the file.
        found: (usize, usize),
        /// `(n_bands, ng)` of the restarting run.
        expected: (usize, usize),
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Truncated => write!(f, "checkpoint file truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::Version(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {CHECKPOINT_VERSION})")
            }
            CheckpointError::Checksum => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Shape { found, expected } => write!(
                f,
                "checkpoint shape (bands, ng) = {found:?} does not match run {expected:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Metadata stored alongside the state in every checkpoint, letting a
/// restart verify it resumes the *same* run (propagator, dt, laser).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointMeta {
    /// Completed-step count at the snapshot.
    pub step: u64,
    /// Physical time of the snapshot (a.u.); duplicated from the state
    /// so staleness checks don't need to deserialize the payload.
    pub time: f64,
    /// [`Propagator::kind`] tag of the run that wrote the file.
    pub propagator: u8,
    /// Time step of that run.
    pub dt: f64,
    /// Laser parameters `(e0, omega, t_center, t_width)` — the pulse
    /// phase is a pure function of time, so these four floats fully
    /// reconstruct the drive.
    pub laser: [f64; 4],
}

/// A deserialized checkpoint: restored state + its metadata.
pub struct Checkpoint {
    /// The restored `(Φ, σ, t)` — bitwise equal to what was saved.
    pub state: TdState,
    /// Run metadata written with it.
    pub meta: CheckpointMeta,
}

fn ckpt_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(format!("ckpt_{step:08}.ptck"))
}

fn push_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Sequential little-endian reader over a checkpoint's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn chunk<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let end = self.pos + N;
        let s = self.bytes.get(self.pos..end).ok_or(CheckpointError::Truncated)?;
        self.pos = end;
        Ok(s.try_into().expect("slice has length N"))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.chunk()?))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.chunk()?))
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.chunk::<1>()?[0])
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.chunk()?)))
    }
}

impl Checkpoint {
    /// Serializes `(state, meta)` and writes `ckpt_{step:08}.ptck` in
    /// `dir` atomically; returns the path. Floats are stored as raw IEEE
    /// bits, so the restored state is bitwise equal to the saved one.
    pub fn save(
        dir: &Path,
        step: u64,
        state: &TdState,
        propagator: &Propagator,
        laser: &LaserPulse,
    ) -> std::io::Result<PathBuf> {
        let _s = pwobs::span("ckpt.write");
        std::fs::create_dir_all(dir)?;
        let n = state.n_bands();
        let ng = state.phi.ng;
        let mut buf = Vec::with_capacity(81 + 16 * (state.phi.data.len() + n * n) + 8);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        buf.extend_from_slice(&step.to_le_bytes());
        push_f64(&mut buf, state.time);
        buf.push(propagator.kind());
        push_f64(&mut buf, propagator.dt());
        for v in [laser.e0, laser.omega, laser.t_center, laser.t_width] {
            push_f64(&mut buf, v);
        }
        buf.extend_from_slice(&(n as u64).to_le_bytes());
        buf.extend_from_slice(&(ng as u64).to_le_bytes());
        for z in state.phi.data.iter().chain(state.sigma.as_slice()) {
            push_f64(&mut buf, z.re);
            push_f64(&mut buf, z.im);
        }
        let sum = fnv1a64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        let path = ckpt_path(dir, step);
        atomic_write(&path, &buf)?;
        Ok(path)
    }

    /// Loads and validates one checkpoint file. `template` supplies the
    /// expected `(Φ, σ)` shapes (any state of the restarting run); the
    /// file is rejected on magic/version/checksum/shape mismatch.
    pub fn load(path: &Path, template: &TdState) -> Result<Checkpoint, CheckpointError> {
        let _s = pwobs::span("ckpt.restore");
        let bytes = std::fs::read(path)?;
        if bytes.len() < 8 {
            return Err(CheckpointError::Truncated);
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a64(payload) != stored {
            return Err(CheckpointError::Checksum);
        }
        let mut r = Reader { bytes: payload, pos: 0 };
        if &r.chunk::<4>()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version(version));
        }
        let step = r.u64()?;
        let time = r.f64()?;
        let propagator = r.u8()?;
        let dt = r.f64()?;
        let laser = [r.f64()?, r.f64()?, r.f64()?, r.f64()?];
        let n = r.u64()? as usize;
        let ng = r.u64()? as usize;
        let expected = (template.n_bands(), template.phi.ng);
        if (n, ng) != expected {
            return Err(CheckpointError::Shape { found: (n, ng), expected });
        }
        let mut state = template.clone();
        state.time = time;
        for z in state.phi.data.iter_mut() {
            *z = Complex64 { re: r.f64()?, im: r.f64()? };
        }
        let mut sigma = Vec::with_capacity(n * n);
        for _ in 0..n * n {
            sigma.push(Complex64 { re: r.f64()?, im: r.f64()? });
        }
        state.sigma = CMat::from_vec(n, n, sigma);
        if r.pos != payload.len() {
            return Err(CheckpointError::Truncated);
        }
        Ok(Checkpoint {
            state,
            meta: CheckpointMeta { step, time, propagator, dt, laser },
        })
    }

    /// Loads the newest loadable checkpoint in `dir`, silently skipping
    /// files that fail validation — the rotation fallback: a corrupt or
    /// stale newest file falls through to the previous one. `Ok(None)`
    /// when no file loads.
    pub fn load_latest(
        dir: &Path,
        template: &TdState,
    ) -> Result<Option<Checkpoint>, CheckpointError> {
        let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "ptck"))
                .collect(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CheckpointError::Io(e)),
        };
        // Step numbers are zero-padded, so filename order is step order.
        paths.sort();
        for path in paths.iter().rev() {
            if let Ok(ck) = Self::load(path, template) {
                return Ok(Some(ck));
            }
        }
        Ok(None)
    }

    /// Deletes all but the `keep_last` newest checkpoints in `dir`.
    pub fn prune(dir: &Path, keep_last: usize) -> std::io::Result<()> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "ptck"))
            .collect();
        paths.sort();
        let n = paths.len().saturating_sub(keep_last);
        for p in &paths[..n] {
            std::fs::remove_file(p)?;
        }
        Ok(())
    }
}

/// A propagator choice with its configuration — the unit the resilience
/// layer snapshots, halves, and replays uniformly across all three
/// integrators.
#[derive(Clone, Copy, Debug)]
pub enum Propagator {
    /// PT-IM with dense Fock exchange (paper Alg. 1).
    Ptim(PtimConfig),
    /// PT-IM-ACE (double SCF loop, Fig. 4b).
    PtimAce(PtimAceConfig),
    /// RK4 reference.
    Rk4(Rk4Config),
}

impl Propagator {
    /// One step of the wrapped propagator (drift guard included).
    pub fn step(&self, eng: &TdEngine, state: &TdState) -> (TdState, StepStats) {
        match self {
            Propagator::Ptim(cfg) => ptim_step(eng, state, cfg),
            Propagator::PtimAce(cfg) => ptim_ace_step(eng, state, cfg),
            Propagator::Rk4(cfg) => rk4_step(eng, state, cfg),
        }
    }

    /// The configured time step.
    pub fn dt(&self) -> f64 {
        match self {
            Propagator::Ptim(cfg) => cfg.dt,
            Propagator::PtimAce(cfg) => cfg.dt,
            Propagator::Rk4(cfg) => cfg.dt,
        }
    }

    /// The same propagator with a different time step.
    pub fn with_dt(&self, dt: f64) -> Propagator {
        let mut prop = *self;
        match &mut prop {
            Propagator::Ptim(PtimConfig { dt: d, .. })
            | Propagator::PtimAce(PtimAceConfig { dt: d, .. })
            | Propagator::Rk4(Rk4Config { dt: d }) => *d = dt,
        }
        prop
    }

    /// Stable one-byte tag stored in checkpoints. Tag 1 is retired (it
    /// was the pure-state PT-CN baseline) and is never reassigned, so a
    /// file keeps naming the propagator that wrote it.
    pub fn kind(&self) -> u8 {
        match self {
            Propagator::Ptim(_) => 0,
            Propagator::PtimAce(_) => 2,
            Propagator::Rk4(_) => 3,
        }
    }

    /// Human-readable name for error messages and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Propagator::Ptim(_) => "ptim",
            Propagator::PtimAce(_) => "ptim-ace",
            Propagator::Rk4(_) => "rk4",
        }
    }
}

/// The retry ladder [`step_with_recovery`] climbs when a step's result
/// is non-finite.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Rung 1: rerun the step on the all-fp64 promoted engine (skipped
    /// when the policy is already all-fp64 — nothing to promote).
    pub promote_fp64: bool,
    /// Rung 2: retry with dt/2ʰ in 2ʰ substeps, for h = 1..=this (on
    /// the promoted engine). 0 disables.
    pub max_dt_halvings: u32,
    /// Rung 3: let the [`run`] driver restore from the newest checkpoint
    /// when the ladder is exhausted.
    pub restore_checkpoint: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { promote_fp64: true, max_dt_halvings: 2, restore_checkpoint: true }
    }
}

/// Ladder exhaustion: every rung produced a non-finite state.
#[derive(Debug)]
pub struct RecoveryError {
    /// Total step attempts made (original + rungs).
    pub attempts: usize,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step result non-finite after {} recovery attempt(s) (fp64 promotion and dt halving exhausted)",
            self.attempts
        )
    }
}

impl std::error::Error for RecoveryError {}

/// A step result is healthy when the state and the reported residual
/// are finite.
fn healthy(state: &TdState, stats: &StepStats) -> bool {
    state.all_finite() && stats.residual.is_finite()
}

/// Accumulates substep statistics into one per-step record.
fn accumulate(agg: &mut StepStats, s: &StepStats, first: bool) {
    agg.scf_iters += s.scf_iters;
    agg.outer_iters += s.outer_iters;
    agg.fock_applies += s.fock_applies;
    agg.converged = if first { s.converged } else { agg.converged && s.converged };
    agg.residual = s.residual;
    agg.fock_skipped_weight += s.fock_skipped_weight;
    agg.fock_solves_fp64 += s.fock_solves_fp64;
    agg.fock_solves_fp32 += s.fock_solves_fp32;
    agg.orthonormality_drift = agg.orthonormality_drift.max(s.orthonormality_drift);
    agg.precision_promotions += s.precision_promotions;
    agg.pool_peak_bytes = agg.pool_peak_bytes.max(s.pool_peak_bytes);
}

/// One propagator step under the [`RecoveryPolicy`] ladder:
///
/// 1. the plain step (which already contains the fp32 drift guard);
/// 2. on a non-finite result, the same step on the all-fp64 engine;
/// 3. then 2ʰ substeps at dt/2ʰ for increasing h.
///
/// The successful attempt's statistics are returned, with
/// [`StepStats::recovery_dt_halvings`] recording the rung. Errors mean
/// the ladder is exhausted — the [`run`] driver's cue to restore from a
/// checkpoint.
pub fn step_with_recovery<'s>(
    eng: &TdEngine<'s>,
    state: &TdState,
    prop: &Propagator,
    policy: &RecoveryPolicy,
) -> Result<(TdState, StepStats), RecoveryError> {
    let (next, stats) = prop.step(eng, state);
    if healthy(&next, &stats) {
        return Ok((next, stats));
    }
    let mut attempts = 1;
    let eng64 = eng.promoted();
    if policy.promote_fp64 && eng.hybrid.fock.precision.any_reduced() {
        attempts += 1;
        let (next64, mut stats64) = prop.step(&eng64, state);
        if healthy(&next64, &stats64) {
            stats64.precision_promotions = stats64.precision_promotions.max(1);
            return Ok((next64, stats64));
        }
    }
    for h in 1..=policy.max_dt_halvings {
        attempts += 1;
        let substeps = 1u64 << h;
        let sub = prop.with_dt(prop.dt() / substeps as f64);
        let mut cur = state.clone();
        let mut agg = StepStats::default();
        let mut ok = true;
        for i in 0..substeps {
            let (n, s) = sub.step(&eng64, &cur);
            accumulate(&mut agg, &s, i == 0);
            if !healthy(&n, &s) {
                ok = false;
                break;
            }
            cur = n;
        }
        if ok {
            agg.recovery_dt_halvings = h as usize;
            return Ok((cur, agg));
        }
    }
    Err(RecoveryError { attempts })
}

/// Why a resilient run stopped short of its target step.
#[derive(Debug)]
pub enum RunError {
    /// The recovery ladder was exhausted at `step` and no checkpoint
    /// restore was possible (or the restored run failed there again).
    Unrecoverable {
        /// The step that would not complete.
        step: u64,
        /// The final ladder failure.
        source: RecoveryError,
    },
    /// Checkpoint write failure.
    Io(std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Unrecoverable { step, source } => {
                write!(f, "run unrecoverable at step {step}: {source}")
            }
            RunError::Io(e) => write!(f, "checkpoint write failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// The outcome of a resilient run.
pub struct RunReport {
    /// Final state.
    pub state: TdState,
    /// Per-completed-step statistics, in step order (restores rewind the
    /// list to the restored step, so it reflects the surviving history).
    pub steps: Vec<StepStats>,
    /// Checkpoints written.
    pub checkpoints_written: usize,
    /// Checkpoint restores performed.
    pub restores: usize,
    /// Wall time spent writing checkpoints (save + prune), seconds — the
    /// resilience overhead a cadence choice buys.
    pub checkpoint_write_s: f64,
    /// Wall time spent restoring from checkpoints, seconds.
    pub restore_s: f64,
    /// High-water mark of the backend buffer pools over the surviving
    /// step history (max of [`StepStats::pool_peak_bytes`]).
    pub pool_peak_bytes: usize,
}

/// Steps `start` from `start_step` to `end_step` under the engine's
/// [`CheckpointPolicy`] and the given [`RecoveryPolicy`]: writes a
/// checkpoint every `interval_steps` completed steps (rotating to
/// `keep_last`), and on ladder exhaustion restores from the newest
/// loadable checkpoint and replays — at most once per failing step, so a
/// deterministic failure surfaces as [`RunError::Unrecoverable`] instead
/// of looping forever.
///
/// `start_step` is normally 0 for a fresh run or
/// [`CheckpointMeta::step`] after [`Checkpoint::load_latest`] on a
/// restart.
pub fn run<'s>(
    eng: &TdEngine<'s>,
    start: &TdState,
    start_step: u64,
    end_step: u64,
    prop: &Propagator,
    recovery: &RecoveryPolicy,
) -> Result<RunReport, RunError> {
    let mut state = start.clone();
    let mut steps: Vec<StepStats> = Vec::new();
    let mut checkpoints_written = 0usize;
    let mut restores = 0usize;
    let mut checkpoint_write_s = 0.0f64;
    let mut restore_s = 0.0f64;
    let mut pending_restores = 0usize;
    let mut restored_at: Option<u64> = None;
    let mut step = start_step;
    while step < end_step {
        match step_with_recovery(eng, &state, prop, recovery) {
            Ok((next, mut stats)) => {
                stats.recovery_restores = pending_restores;
                pending_restores = 0;
                state = next;
                step += 1;
                steps.push(stats);
                if let Some(pol) = &eng.checkpoints {
                    if pol.interval_steps > 0 && step.is_multiple_of(pol.interval_steps) {
                        let t0 = std::time::Instant::now();
                        Checkpoint::save(&pol.dir, step, &state, prop, &eng.laser)
                            .map_err(RunError::Io)?;
                        Checkpoint::prune(&pol.dir, pol.keep_last.max(1))
                            .map_err(RunError::Io)?;
                        checkpoint_write_s += t0.elapsed().as_secs_f64();
                        checkpoints_written += 1;
                    }
                }
            }
            Err(source) => {
                let restorable = recovery.restore_checkpoint && restored_at != Some(step);
                let loaded = if restorable {
                    let t0 = std::time::Instant::now();
                    let ck = eng
                        .checkpoints
                        .as_ref()
                        .and_then(|pol| Checkpoint::load_latest(&pol.dir, start).ok().flatten());
                    restore_s += t0.elapsed().as_secs_f64();
                    ck
                } else {
                    None
                };
                match loaded {
                    Some(ck) => {
                        restores += 1;
                        pending_restores += 1;
                        restored_at = Some(step);
                        // Rewind the history to the restore point.
                        steps.truncate((ck.meta.step - start_step) as usize);
                        state = ck.state;
                        step = ck.meta.step;
                    }
                    None => return Err(RunError::Unrecoverable { step, source }),
                }
            }
        }
    }
    let pool_peak_bytes = steps.iter().map(|s| s.pool_peak_bytes).max().unwrap_or(0);
    Ok(RunReport {
        state,
        steps,
        checkpoints_written,
        restores,
        checkpoint_write_s,
        restore_s,
        pool_peak_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HybridParams;
    use pwdft::{Cell, DftSystem, Wavefunction};

    fn fixture() -> (DftSystem, TdState) {
        let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
        let mut phi = Wavefunction::random(&sys.grid, 3, 5);
        phi.orthonormalize_lowdin();
        let sigma = CMat::from_real_diag(&[1.0, 0.7, 0.3]);
        (sys, TdState { phi, sigma, time: 0.0 })
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("ptim_resilience_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpoint_roundtrip_is_bitwise() {
        let (_, st) = fixture();
        let dir = tmpdir("rt");
        let prop = Propagator::Ptim(PtimConfig::default());
        let laser = LaserPulse { e0: 0.1, omega: 0.2, t_center: 3.0, t_width: 1.5 };
        let path = Checkpoint::save(&dir, 42, &st, &prop, &laser).unwrap();
        let ck = Checkpoint::load(&path, &st).unwrap();
        assert_eq!(ck.meta.step, 42);
        assert_eq!(ck.meta.propagator, prop.kind());
        // The tags checkpoint files store; 1 (PT-CN) is retired.
        let ace = Propagator::PtimAce(PtimAceConfig::default());
        let rk4 = Propagator::Rk4(Rk4Config { dt: 0.1 });
        assert_eq!([prop.kind(), ace.kind(), rk4.kind()], [0, 2, 3]);
        assert_eq!(ck.meta.dt.to_bits(), prop.dt().to_bits());
        assert_eq!(ck.meta.laser, [0.1, 0.2, 3.0, 1.5]);
        assert_eq!(ck.state.time.to_bits(), st.time.to_bits());
        for (a, b) in ck.state.phi.data.iter().zip(&st.phi.data) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        for (a, b) in ck.state.sigma.as_slice().iter().zip(st.sigma.as_slice()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_and_stale_files_are_rejected() {
        let (_, st) = fixture();
        let dir = tmpdir("reject");
        let prop = Propagator::Rk4(Rk4Config { dt: 0.1 });
        let path = Checkpoint::save(&dir, 1, &st, &prop, &LaserPulse::off()).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flipped payload bit -> checksum.
        let mut bad = good.clone();
        bad[100] ^= 1;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(Checkpoint::load(&path, &st), Err(CheckpointError::Checksum)));

        // Truncation -> checksum (the trailing hash moves) or truncated.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(Checkpoint::load(&path, &st).is_err());

        // Version bump (checksum recomputed so only the version differs).
        let mut stale = good.clone();
        stale[4..8].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        let n = stale.len() - 8;
        let sum = pwnum::persist::fnv1a64(&stale[..n]);
        stale[n..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &stale).unwrap();
        assert!(matches!(
            Checkpoint::load(&path, &st),
            Err(CheckpointError::Version(v)) if v == CHECKPOINT_VERSION + 1
        ));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_latest_falls_back_past_corruption() {
        let (_, st) = fixture();
        let dir = tmpdir("fallback");
        let prop = Propagator::Ptim(PtimConfig::default());
        Checkpoint::save(&dir, 10, &st, &prop, &LaserPulse::off()).unwrap();
        let mut st20 = st.clone();
        st20.time = 20.0;
        let p20 = Checkpoint::save(&dir, 20, &st20, &prop, &LaserPulse::off()).unwrap();
        // Corrupt the newest file: load_latest must fall back to step 10.
        let mut bytes = std::fs::read(&p20).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&p20, &bytes).unwrap();
        let ck = Checkpoint::load_latest(&dir, &st).unwrap().expect("fallback");
        assert_eq!(ck.meta.step, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_newest() {
        let (_, st) = fixture();
        let dir = tmpdir("prune");
        let prop = Propagator::Ptim(PtimConfig::default());
        for step in [1, 2, 3, 4] {
            Checkpoint::save(&dir, step, &st, &prop, &LaserPulse::off()).unwrap();
        }
        Checkpoint::prune(&dir, 2).unwrap();
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, vec!["ckpt_00000003.ptck", "ckpt_00000004.ptck"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn healthy_step_passes_through_unchanged() {
        let (sys, st) = fixture();
        let eng = TdEngine::new(
            &sys,
            LaserPulse::off(),
            HybridParams { alpha: 0.0, omega: 0.1, ..Default::default() },
        );
        let prop = Propagator::Ptim(PtimConfig { dt: 0.4, ..Default::default() });
        let (direct, _) = prop.step(&eng, &st);
        let (recovered, stats) =
            step_with_recovery(&eng, &st, &prop, &RecoveryPolicy::default()).unwrap();
        assert_eq!(stats.recovery_dt_halvings, 0);
        assert_eq!(stats.recovery_restores, 0);
        assert!(direct.phi.max_abs_diff(&recovered.phi) == 0.0, "recovery wrapper must not perturb a healthy step");
        std::hint::black_box(&recovered);
    }

    #[test]
    fn poisoned_state_exhausts_the_ladder() {
        // A NaN state must walk the whole ladder and come back as an
        // error from every propagator — never a panic in `eigh`, the ACE
        // Cholesky or the PT projection's solve. A NaN Φ and a NaN σ.
        let (sys, st) = fixture();
        let mut nan_phi = st.clone();
        nan_phi.phi.data[0] = Complex64 { re: f64::NAN, im: 0.0 };
        let mut nan_sigma = st;
        nan_sigma.sigma[(1, 1)] = Complex64 { re: f64::NAN, im: 0.0 };
        let ptim = Propagator::Ptim(PtimConfig { dt: 0.05, ..Default::default() });
        let ace = Propagator::PtimAce(PtimAceConfig { dt: 0.05, ..Default::default() });
        let rk4 = Propagator::Rk4(Rk4Config { dt: 0.05 });
        let mut cases = vec![
            ("Φ", &nan_phi, 0.0, rk4),
            ("Φ", &nan_phi, 0.0, ptim),
            ("Φ", &nan_phi, 0.25, ptim),
            ("Φ", &nan_phi, 0.25, ace),
        ];
        for (alpha, prop) in [(0.0, rk4), (0.0, ptim), (0.25, ace)] {
            cases.push(("σ", &nan_sigma, alpha, prop));
        }
        for (what, state, alpha, prop) in cases {
            let eng = TdEngine::new(
                &sys,
                LaserPulse::off(),
                HybridParams { alpha, omega: 0.1, ..Default::default() },
            );
            let name = prop.name();
            let Err(err) = step_with_recovery(&eng, state, &prop, &RecoveryPolicy::default()) else {
                panic!("{name} α={alpha} NaN {what}: NaN input cannot be recovered by retries")
            };
            assert!(err.attempts >= 3, "{name} α={alpha} NaN {what}: ladder must try halvings");
        }
    }

    #[test]
    fn run_driver_checkpoints_on_cadence() {
        let (sys, st) = fixture();
        let dir = tmpdir("driver");
        let eng = TdEngine::new(
            &sys,
            LaserPulse::off(),
            HybridParams { alpha: 0.0, omega: 0.1, ..Default::default() },
        )
        .with_checkpoints(CheckpointPolicy::new(&dir, 2));
        let prop = Propagator::Ptim(PtimConfig { dt: 0.4, ..Default::default() });
        let report = run(&eng, &st, 0, 5, &prop, &RecoveryPolicy::default()).unwrap();
        assert_eq!(report.steps.len(), 5);
        assert_eq!(report.checkpoints_written, 2, "steps 2 and 4");
        assert_eq!(report.restores, 0);
        let ck = Checkpoint::load_latest(&dir, &st).unwrap().expect("checkpoint");
        assert_eq!(ck.meta.step, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
