//! Checkpoint/restart demo: interrupt a hybrid PT-IM run at step k,
//! restart from the newest snapshot, and watch the dipole trace agree
//! bitwise with a never-interrupted run (DESIGN.md §12).
//!
//! ```bash
//! cargo run --release --example checkpoint_restart
//! ```
//!
//! Also exercises the recovery ladder on a deliberately NaN-poisoned
//! state to show the failure side: fp64 promotion and dt halving are
//! tried before the run driver reaches for a checkpoint.

use pwdft_repro::ptim::resilience::{
    run, step_with_recovery, Checkpoint, CheckpointPolicy, Propagator, RecoveryPolicy,
};
use pwdft_repro::ptim::{HybridParams, LaserPulse, PtimConfig, Rk4Config, TdEngine, TdState};
use pwdft_repro::pwdft::{Cell, DftSystem, Wavefunction};
use pwdft_repro::pwnum::cmat::CMat;
use pwdft_repro::pwnum::complex::Complex64;

const STEPS: u64 = 12;
const INTERRUPT_AT: u64 = 7;

fn main() {
    // A small hybrid-functional system: 8-atom silicon, 4 mixed-occupancy
    // states, a weak laser pulse driving real dynamics.
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let mut phi = Wavefunction::random(&sys.grid, 4, 29);
    phi.orthonormalize_lowdin();
    let sigma = CMat::from_real_diag(&[1.0, 0.8, 0.5, 0.2]);
    let st = TdState { phi, sigma, time: 0.0 };
    let hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
    let laser = LaserPulse { e0: 0.02, omega: 0.15, t_center: 1.5, t_width: 0.8 };
    let prop = Propagator::Ptim(PtimConfig { dt: 0.3, max_scf: 25, tol_rho: 1e-8, ..Default::default() });
    let recovery = RecoveryPolicy::default();
    let dir = std::env::temp_dir().join(format!("ckpt_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Baseline: the uninterrupted trajectory.
    let eng = TdEngine::new(&sys, laser.clone(), hyb);
    let reference = run(&eng, &st, 0, STEPS, &prop, &recovery).expect("reference run");
    println!("uninterrupted run: {} steps, final t = {:.3} a.u.", STEPS, reference.state.time);

    // The same run with a checkpoint every 3 steps, killed at step 7.
    let eng_ck = TdEngine::new(&sys, laser.clone(), hyb)
        .with_checkpoints(CheckpointPolicy::new(&dir, 3));
    let partial =
        run(&eng_ck, &st, 0, INTERRUPT_AT, &prop, &recovery).expect("interrupted run");
    let dip = |state: &TdState| {
        let rho = eng.eval(&state.phi, &state.sigma, state.time).rho;
        eng.dipole_x(&rho)
    };
    println!(
        "\ninterrupted at step {INTERRUPT_AT}: {} checkpoint(s) on disk, last dipole_x = {:+.6e}",
        partial.checkpoints_written,
        dip(&partial.state),
    );

    // "Restart the binary": recover the newest snapshot and resume.
    let ck = Checkpoint::load_latest(&dir, &st).expect("readable dir").expect("snapshot");
    println!(
        "restored checkpoint: step {}, t = {:.3} a.u., propagator tag {}, dt = {}",
        ck.meta.step, ck.meta.time, ck.meta.propagator, ck.meta.dt
    );
    let resumed =
        run(&eng_ck, &ck.state, ck.meta.step, STEPS, &prop, &recovery).expect("resumed run");

    // Deterministic dynamics: the resumed trace lands bitwise on the
    // reference.
    println!("\nfinal dipole (uninterrupted) = {:+.12e}", dip(&reference.state));
    println!("final dipole (restarted)    = {:+.12e}", dip(&resumed.state));
    let diff = resumed
        .state
        .phi
        .max_abs_diff(&reference.state.phi)
        .max(resumed.state.sigma.max_abs_diff(&reference.state.sigma));
    println!("max |Δ(Φ,σ)| vs uninterrupted = {diff:e} (bitwise ⇒ 0)");
    assert!(diff == 0.0, "restart must be bitwise identical");

    // The failure side: a NaN-poisoned state climbs the recovery ladder
    // (fp64 rerun, then 2/4 substeps at dt/2, dt/4) and reports cleanly.
    // Every propagator's step envelope returns a NaN state at once for a
    // non-finite input, so each rung fails the ladder's finiteness check;
    // RK4 is simply the cheapest step to retry.
    let mut poisoned = st.clone();
    poisoned.phi.data[0] = Complex64 { re: f64::NAN, im: 0.0 };
    let rk4 = Propagator::Rk4(Rk4Config { dt: 0.05 });
    match step_with_recovery(&eng, &poisoned, &rk4, &recovery) {
        Ok(_) => unreachable!("NaN input cannot be repaired by retries"),
        Err(e) => println!("\npoisoned step, ladder exhausted as expected: {e}"),
    }

    std::fs::remove_dir_all(&dir).expect("cleanup");
    println!("\ndone.");
}
