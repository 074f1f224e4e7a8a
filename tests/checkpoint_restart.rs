//! Checkpoint/restart fidelity (DESIGN.md §12): a run interrupted at a
//! checkpoint and restored from disk must continue **bitwise identical**
//! to the uninterrupted run — under the fp64 and the mixed-precision
//! policy, and for all three propagators — and the loader
//! must reject corrupt, truncated, version-bumped, and wrong-shape files.

use pwdft_repro::ptim::resilience::{
    run, Checkpoint, CheckpointError, CheckpointPolicy, Propagator, RecoveryPolicy,
    CHECKPOINT_VERSION,
};
use pwdft_repro::ptim::{
    HybridParams, LaserPulse, PtimAceConfig, PtimConfig, Rk4Config, TdEngine, TdState,
};
use pwdft_repro::pwdft::{Cell, DftSystem, Wavefunction};
use pwdft_repro::pwnum::cmat::CMat;
use pwdft_repro::pwnum::precision::PrecisionPolicy;
use std::path::PathBuf;

const STEPS: u64 = 4;
const INTERVAL: u64 = 2;

fn fixture() -> (DftSystem, TdState) {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
    let mut phi = Wavefunction::random(&sys.grid, 3, 17);
    phi.orthonormalize_lowdin();
    let sigma = CMat::from_real_diag(&[1.0, 0.7, 0.3]);
    (sys, TdState { phi, sigma, time: 0.0 })
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join(format!("ckpt_restart_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Max bitwise-visible deviation between two states (0.0 means every
/// float is identical, since the checkpoint stores raw IEEE bits).
fn state_diff(a: &TdState, b: &TdState) -> f64 {
    a.phi
        .max_abs_diff(&b.phi)
        .max(a.sigma.max_abs_diff(&b.sigma))
        .max((a.time - b.time).abs())
}

/// Runs `prop` for [`STEPS`] uninterrupted, then again with an
/// interruption right after the first checkpoint and a restore from
/// disk; asserts the two final states agree bitwise.
fn assert_bitwise_restart(hyb: HybridParams, prop: &Propagator, tag: &str) {
    let (sys, st) = fixture();
    let laser = LaserPulse { e0: 0.02, omega: 0.15, t_center: 2.0, t_width: 1.0 };
    let recovery = RecoveryPolicy::default();

    let eng = TdEngine::new(&sys, laser.clone(), hyb);
    let baseline = run(&eng, &st, 0, STEPS, prop, &recovery).expect("baseline run");

    let dir = tmpdir(tag);
    let eng_ck = TdEngine::new(&sys, laser, hyb)
        .with_checkpoints(CheckpointPolicy::new(&dir, INTERVAL));
    // "Crash" one step past the first checkpoint...
    let _ = run(&eng_ck, &st, 0, INTERVAL + 1, prop, &recovery).expect("partial run");
    // ...then restart the process: load the newest snapshot and continue.
    let ck = Checkpoint::load_latest(&dir, &st).expect("readable dir").expect("checkpoint");
    assert_eq!(ck.meta.step, INTERVAL);
    assert_eq!(ck.meta.propagator, prop.kind());
    assert_eq!(ck.meta.dt.to_bits(), prop.dt().to_bits());
    let resumed =
        run(&eng_ck, &ck.state, ck.meta.step, STEPS, prop, &recovery).expect("resumed run");

    let diff = state_diff(&resumed.state, &baseline.state);
    assert!(
        diff == 0.0,
        "{tag}: restart deviates from the uninterrupted run by {diff:e}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn restart_is_bitwise_for_all_propagators_on_both_backends() {
    let hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
    let props: [(Propagator, &str); 3] = [
        (
            Propagator::Ptim(PtimConfig { dt: 0.3, max_scf: 20, tol_rho: 1e-8, ..Default::default() }),
            "ptim",
        ),
        (
            Propagator::PtimAce(PtimAceConfig {
                dt: 0.3,
                max_outer: 3,
                max_inner: 8,
                ..Default::default()
            }),
            "ptim_ace",
        ),
        (Propagator::Rk4(Rk4Config { dt: 0.05 }), "rk4"),
    ];
    for (prop, name) in &props {
        assert_bitwise_restart(hyb, prop, name);
    }
}

#[test]
fn restart_is_bitwise_under_mixed_precision() {
    // The fp32 exchange pipeline is deterministic too, so the bitwise
    // bar holds even with reduced-precision Fock solves in the loop.
    let mut hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
    hyb.fock = hyb.fock.with_precision(PrecisionPolicy::mixed());
    let prop = Propagator::Ptim(PtimConfig {
        dt: 0.3,
        max_scf: 20,
        tol_rho: 1e-8,
        ..Default::default()
    });
    assert_bitwise_restart(hyb, &prop, "mixed");
}

#[test]
fn loader_rejects_bad_files_and_wrong_shapes() {
    let (_, st) = fixture();
    let dir = tmpdir("reject");
    let prop = Propagator::Rk4(Rk4Config { dt: 0.1 });
    let path = Checkpoint::save(&dir, 7, &st, &prop, &LaserPulse::off()).expect("save");
    let good = std::fs::read(&path).expect("read back");

    // Bit rot in the payload -> checksum mismatch.
    let mut corrupt = good.clone();
    corrupt[64] ^= 0x10;
    std::fs::write(&path, &corrupt).expect("rewrite");
    assert!(matches!(Checkpoint::load(&path, &st), Err(CheckpointError::Checksum)));

    // Partial write (torn file) -> rejected.
    std::fs::write(&path, &good[..good.len() - 9]).expect("rewrite");
    assert!(Checkpoint::load(&path, &st).is_err());

    // Future format version (checksum recomputed) -> version error.
    let mut stale = good.clone();
    stale[4..8].copy_from_slice(&(CHECKPOINT_VERSION + 3).to_le_bytes());
    let n = stale.len() - 8;
    let sum = pwdft_repro::pwnum::persist::fnv1a64(&stale[..n]);
    stale[n..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &stale).expect("rewrite");
    assert!(matches!(
        Checkpoint::load(&path, &st),
        Err(CheckpointError::Version(v)) if v == CHECKPOINT_VERSION + 3
    ));

    // A checkpoint from a different run shape -> shape error.
    std::fs::write(&path, &good).expect("restore");
    let sys_big = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
    let mut phi_big = Wavefunction::random(&sys_big.grid, 4, 18);
    phi_big.orthonormalize_lowdin();
    let template_big = TdState {
        phi: phi_big,
        sigma: CMat::from_real_diag(&[1.0, 0.8, 0.5, 0.2]),
        time: 0.0,
    };
    assert!(matches!(
        Checkpoint::load(&path, &template_big),
        Err(CheckpointError::Shape { found: (3, _), expected: (4, _) })
    ));

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
