//! Manifest-regression smoke test: the umbrella crate must re-export
//! all six library crates. If a future workspace edit drops a
//! dependency or a `pub use`, this fails at compile time — cheaply,
//! before any physics test runs.

#[test]
fn umbrella_reexports_all_six_crates() {
    // One load-bearing path per re-exported crate, spelled through the
    // umbrella. Using the values keeps the imports from being
    // dead-code-eliminated by an overzealous refactor.
    let z = pwdft_repro::pwnum::c64(3.0, 4.0);
    assert!((z.abs() - 5.0).abs() < 1e-12);

    let fft = pwdft_repro::pwfft::Fft3::new(4, 4, 4);
    assert_eq!(fft.len(), 64);

    let cluster = pwdft_repro::mpisim::Cluster::ideal(2);
    let out = cluster.run(|c| c.allreduce(vec![1.0f64]));
    assert!(out.iter().all(|(v, _)| (v[0] - 2.0).abs() < 1e-12));

    let cell = pwdft_repro::pwdft::Cell::silicon_supercell(1, 1, 1);
    let sys = pwdft_repro::pwdft::DftSystem::with_dims(cell, 2.0, [6, 6, 6]);
    assert!(!sys.grid.is_empty());

    let pulse = pwdft_repro::ptim::LaserPulse::paper_pulse(0.01, 10.0);
    assert!(pulse.field(0.0).is_finite());

    let wl = pwdft_repro::perfmodel::Workload::silicon(48);
    assert!(wl.n_atoms == 48);
}
