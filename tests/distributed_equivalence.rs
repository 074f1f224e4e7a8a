//! Distributed-vs-serial equivalence at the full time-step level, across
//! exchange strategies, rank counts and the SHM toggle — the correctness
//! backbone behind every performance claim in the reproduction.
//!
//! Both sides run the one PT-IM body, so they differ only in reduction
//! order and in the mixer: each rank mixes its own (local Φ, σ), which
//! takes a different path to the same fixed point. Both therefore solve
//! to `tol_rho` 1e-12, two decades below the 1e-10 the states are
//! compared at; at 1e-10 the two would stop on iterates ≈ 1e-10 apart.

use pwdft_repro::mpisim::{Cluster, NetworkModel};
use pwdft_repro::ptim::distributed::{
    dist_fock_apply_pure, dist_ptim_step, gather_state, scatter_state, BandDistribution,
    DistConfig, ExchangeStrategy,
};
use pwdft_repro::ptim::{ptim_step, HybridParams, LaserPulse, PtimConfig, TdEngine, TdState};
use pwdft_repro::pwdft::fock::FockOptions;
use pwdft_repro::pwdft::{Cell, DftSystem, FockApplyStats, FockOperator, Wavefunction};
use pwdft_repro::pwnum::backend::default_backend;
use pwdft_repro::pwnum::cmat::CMat;
use pwdft_repro::pwnum::precision::PrecisionPolicy;
use pwdft_repro::pwnum::{c64, eigh};

fn fixture() -> (DftSystem, TdState) {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let mut phi = Wavefunction::random(&sys.grid, 6, 19);
    phi.orthonormalize_lowdin();
    let mut sigma = CMat::from_real_diag(&[1.0, 0.95, 0.7, 0.5, 0.2, 0.05]);
    sigma[(1, 3)] = c64(0.04, -0.01);
    sigma[(3, 1)] = c64(0.04, 0.01);
    (sys, TdState { phi, sigma, time: 0.0 })
}

/// [`fixture`]'s system with `n` orthonormal bands and a diagonal σ of
/// occupations spread from 1 down to 0.05.
fn fixture_with_bands(sys: &DftSystem, n: usize) -> TdState {
    let mut phi = Wavefunction::random(&sys.grid, n, 23);
    phi.orthonormalize_lowdin();
    let occ: Vec<f64> = (0..n).map(|i| 1.0 - 0.95 * i as f64 / (n - 1) as f64).collect();
    TdState { phi, sigma: CMat::from_real_diag(&occ), time: 0.0 }
}

fn serial_reference(sys: &DftSystem, st: &TdState, hyb: HybridParams, dt: f64) -> (Vec<f64>, CMat) {
    let eng = TdEngine::new(sys, LaserPulse::off(), hyb);
    let cfg = PtimConfig { dt, max_scf: 40, tol_rho: 1e-12, anderson_depth: 10, anderson_beta: 0.6 };
    let (next, stats) = ptim_step(&eng, st, &cfg);
    assert!(stats.converged);
    let rho = eng.eval(&next.phi, &next.sigma, next.time).rho;
    (rho, next.sigma)
}

fn run_distributed(
    sys: &DftSystem,
    st: &TdState,
    hyb: HybridParams,
    dt: f64,
    (p, rpn): (usize, usize),
    strategy: ExchangeStrategy,
    use_shm: bool,
) -> (Vec<f64>, CMat, bool) {
    let laser = LaserPulse::off();
    let out = Cluster::new(p, rpn, NetworkModel::ideal()).run(move |c| {
        let dist = BandDistribution::new(st.phi.n_bands, c.size());
        let local = scatter_state(c, st, &dist);
        let cfg = DistConfig { strategy, use_shm, hybrid: hyb, ..Default::default() };
        let (next, stats) = dist_ptim_step(c, sys, &laser, &cfg, &dist, &local, dt, 40, 1e-12);
        let full = gather_state(c, &next, &dist);
        let eng = TdEngine::new(sys, LaserPulse::off(), hyb);
        let rho = eng.eval(&full.phi, &full.sigma, full.time).rho;
        (rho, full.sigma, stats.converged)
    });
    let (rho, sigma, conv) = out.into_iter().next().unwrap().0;
    (rho, sigma, conv)
}

fn rho_diff(a: &[f64], b: &[f64], dv: f64) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() * dv
}

#[test]
fn every_strategy_matches_serial_semilocal() {
    let (sys, st) = fixture();
    let hyb = HybridParams { alpha: 0.0, omega: 0.2, ..Default::default() };
    let dt = 0.4;
    let (rho_ref, sigma_ref) = serial_reference(&sys, &st, hyb, dt);
    for strategy in [
        ExchangeStrategy::Bcast,
        ExchangeStrategy::Ring,
        ExchangeStrategy::AsyncRing,
        ExchangeStrategy::RingOverlap,
    ] {
        let (rho, sigma, conv) =
            run_distributed(&sys, &st, hyb, dt, (3, 2), strategy, false);
        assert!(conv, "{strategy:?} did not converge");
        let d = rho_diff(&rho, &rho_ref, sys.grid.dv());
        let ds = sigma.max_abs_diff(&sigma_ref);
        assert!(d < 1e-10, "{strategy:?}: density diff {d:e}");
        assert!(ds < 1e-10, "{strategy:?}: σ diff {ds:e}");
    }
}

#[test]
fn hybrid_distributed_matches_serial() {
    let (sys, st) = fixture();
    let hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
    let dt = 0.3;
    let (rho_ref, sigma_ref) = serial_reference(&sys, &st, hyb, dt);
    let (rho, sigma, conv) =
        run_distributed(&sys, &st, hyb, dt, (2, 2), ExchangeStrategy::Ring, true);
    assert!(conv);
    let d = rho_diff(&rho, &rho_ref, sys.grid.dv());
    let ds = sigma.max_abs_diff(&sigma_ref);
    assert!(d < 1e-10, "hybrid distributed density diff {d:e}");
    assert!(ds < 1e-10, "hybrid distributed σ diff {ds:e}");
}

#[test]
fn distributed_step_matches_serial_at_4_and_16_ranks_both_precisions() {
    // The exchange through the full hybrid time step, on the half ring
    // (6 bands on 4 ranks, 16 on 16), each cross pair solved in the
    // serial orientation. fp64 agrees to 1e-10 everywhere. The mixed
    // pipeline demotes the natural orbitals to fp32, and the ring-ordered
    // rotation that builds them rounds apart from the serial GEMM in the
    // last fp64 bit, which flips a few fp32 roundings: 4e-12 at 4 ranks,
    // 1.1e-10 at 16.
    let (sys, six) = fixture();
    let sixteen = fixture_with_bands(&sys, 16);
    let dt = 0.3;
    for precision in [PrecisionPolicy::fp64(), PrecisionPolicy::mixed()] {
        let fock = FockOptions::default().with_precision(precision);
        let hyb = HybridParams { alpha: 0.25, omega: 0.2, fock };
        for (st, ranks, mixed_tol) in [(&six, (4, 2), 1e-10), (&sixteen, (16, 4), 2e-9)] {
            let case = format!("{precision:?} {} bands {ranks:?}", st.phi.n_bands);
            let tol = if precision == PrecisionPolicy::fp64() { 1e-10 } else { mixed_tol };
            let (rho_ref, sigma_ref) = serial_reference(&sys, st, hyb, dt);
            let (rho, sigma, conv) =
                run_distributed(&sys, st, hyb, dt, ranks, ExchangeStrategy::RingOverlap, true);
            assert!(conv, "{case}");
            let d = rho_diff(&rho, &rho_ref, sys.grid.dv());
            let ds = sigma.max_abs_diff(&sigma_ref);
            assert!(d < tol, "{case}: density diff {d:e}");
            assert!(ds < tol, "{case}: σ diff {ds:e}");
        }
    }
}

#[test]
fn shm_toggle_does_not_change_physics() {
    let (sys, st) = fixture();
    let hyb = HybridParams { alpha: 0.0, omega: 0.2, ..Default::default() };
    let dt = 0.5;
    let (rho_a, sigma_a, _) =
        run_distributed(&sys, &st, hyb, dt, (4, 4), ExchangeStrategy::Ring, true);
    let (rho_b, sigma_b, _) =
        run_distributed(&sys, &st, hyb, dt, (4, 4), ExchangeStrategy::Ring, false);
    assert!(rho_diff(&rho_a, &rho_b, sys.grid.dv()) < 1e-12);
    assert!(sigma_a.max_abs_diff(&sigma_b) < 1e-12);
}

#[test]
fn rank_count_does_not_change_physics() {
    let (sys, st) = fixture();
    let dt = 0.4;
    for alpha in [0.0, 0.25] {
        let hyb = HybridParams { alpha, omega: 0.2, ..Default::default() };
        let mut results = Vec::new();
        for p in [1usize, 2, 3, 6] {
            let (rho, sigma, conv) =
                run_distributed(&sys, &st, hyb, dt, (p, 2), ExchangeStrategy::Ring, false);
            assert!(conv, "α={alpha} p={p}");
            results.push((p, rho, sigma));
        }
        for (p, rho, sigma) in &results[1..] {
            let d = rho_diff(rho, &results[0].1, sys.grid.dv());
            let ds = sigma.max_abs_diff(&results[0].2);
            assert!(d < 1e-10, "α={alpha} p={p}: density diff {d:e}");
            assert!(ds < 1e-10, "α={alpha} p={p}: σ diff {ds:e}");
        }
    }
}

#[test]
fn hybrid_ring_overlap_matches_serial() {
    // The overlapped exchange through the full hybrid time step, at a
    // non-power-of-two rank count.
    let (sys, st) = fixture();
    let hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
    let dt = 0.3;
    let (rho_ref, sigma_ref) = serial_reference(&sys, &st, hyb, dt);
    let (rho, sigma, conv) =
        run_distributed(&sys, &st, hyb, dt, (3, 2), ExchangeStrategy::RingOverlap, true);
    assert!(conv);
    let d = rho_diff(&rho, &rho_ref, sys.grid.dv());
    let ds = sigma.max_abs_diff(&sigma_ref);
    assert!(d < 1e-10, "hybrid RingOverlap density diff {d:e}");
    assert!(ds < 1e-10, "hybrid RingOverlap σ diff {ds:e}");
}

#[test]
fn sigma_spectrum_stays_physical_distributed() {
    let (sys, st) = fixture();
    let hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
    let (_, sigma, _) =
        run_distributed(&sys, &st, hyb, 0.4, (2, 2), ExchangeStrategy::AsyncRing, true);
    let e = eigh(&sigma);
    // The implicit-midpoint update preserves the σ spectrum to O(Δt³)
    // per step, not exactly; allow that integrator-level tolerance.
    for w in &e.values {
        assert!(*w > -1e-4 && *w < 1.0 + 1e-4, "occupation {w}");
    }
    let trace: f64 = e.values.iter().sum();
    assert!((trace - 3.4).abs() < 1e-8, "trace {trace}");
}

#[test]
fn ring_exchange_reports_the_serial_screened_weight() {
    // A cutoff between the two smallest occupations (0.2, ≈ 0.05) screens
    // the tail of the finite-T state. Summed over ranks, the half ring's
    // per-rank stats must be the serial pair-symmetric apply's, on every
    // strategy.
    let (sys, st) = fixture();
    let fock_opts = FockOptions { occ_cutoff: 0.1, ..Default::default() };
    let e = eigh(&st.sigma);
    let nat_r = st.phi.rotated(&e.vectors).to_real_all(&sys.grid);
    let ng = sys.grid.len();
    let fock = || FockOperator::with_options(&sys.grid, 0.2, default_backend().clone(), fock_opts);
    let (_, serial) = fock().apply_pure_stats(&nat_r, &e.values);
    assert!(serial.skipped_pairs > 0 && serial.skipped_weight > 0.0, "{serial:?}");
    for strategy in [
        ExchangeStrategy::Bcast,
        ExchangeStrategy::Ring,
        ExchangeStrategy::AsyncRing,
        ExchangeStrategy::RingOverlap,
    ] {
        for p in [2usize, 3, 4] {
            let out = Cluster::ideal(p).run(|c| {
                let dist = BandDistribution::new(6, c.size());
                let my = dist.range(c.rank());
                let nat = &nat_r[my.start * ng..my.end * ng];
                dist_fock_apply_pure(c, &fock(), &dist, nat, &e.values, strategy).1
            });
            let sum = out.iter().fold(FockApplyStats::default(), |mut acc, (st, _)| {
                acc.solves += st.solves;
                acc.skipped_pairs += st.skipped_pairs;
                acc.skipped_weight += st.skipped_weight;
                acc
            });
            assert_eq!(sum.solves, serial.solves, "{strategy:?} p={p}");
            assert_eq!(sum.skipped_pairs, serial.skipped_pairs, "{strategy:?} p={p}");
            let rel = (sum.skipped_weight - serial.skipped_weight).abs() / serial.skipped_weight;
            assert!(rel <= 1e-12, "{strategy:?} p={p}: skipped weight off by {rel:e}");
        }
    }

    // The distributed step carries the ring's weight into its StepStats,
    // each rank its share: summed over ranks it is the serial step's.
    // The predictor and one corrector: later iterates differ by the
    // per-rank mixing (≈ 1e-6), and so would their screened weights.
    let hybrid = HybridParams { alpha: 0.25, omega: 0.2, fock: fock_opts };
    let eng = TdEngine::new(&sys, LaserPulse::off(), hybrid);
    let fp = PtimConfig { dt: 0.3, max_scf: 1, tol_rho: 0.0, anderson_depth: 10, anderson_beta: 0.6 };
    let (_, serial) = ptim_step(&eng, &st, &fp);
    assert!(serial.fock_applies == 2 && serial.fock_skipped_weight > 0.0, "{serial:?}");
    let cfg = DistConfig { strategy: ExchangeStrategy::RingOverlap, hybrid, ..Default::default() };
    let laser = LaserPulse::off();
    let out = Cluster::ideal(3).run(|c| {
        let dist = BandDistribution::new(6, c.size());
        let local = scatter_state(c, &st, &dist);
        dist_ptim_step(c, &sys, &laser, &cfg, &dist, &local, fp.dt, fp.max_scf, fp.tol_rho).1
    });
    assert!(out.iter().all(|(stats, _)| stats.fock_applies == serial.fock_applies));
    let weight: f64 = out.iter().map(|(stats, _)| stats.fock_skipped_weight).sum();
    let rel = (weight - serial.fock_skipped_weight).abs() / serial.fock_skipped_weight;
    assert!(rel <= 1e-12, "step's screened weight off by {rel:e}");
}

#[test]
fn dist_ptim_step_solves_each_pair_once_per_apply() {
    // Summed over ranks, every dense apply of the distributed step solves
    // the serial pair-symmetric n(n+1)/2 pairs on the half ring, on every
    // strategy, and the step reports them.
    let (sys, st) = fixture();
    let laser = LaserPulse::off();
    let hybrid = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
    for strategy in [ExchangeStrategy::Bcast, ExchangeStrategy::Ring, ExchangeStrategy::RingOverlap] {
        for p in [2usize, 4] {
            let cfg = DistConfig { strategy, hybrid, ..Default::default() };
            let out = Cluster::ideal(p).run(|c| {
                let dist = BandDistribution::new(6, c.size());
                let local = scatter_state(c, &st, &dist);
                dist_ptim_step(c, &sys, &laser, &cfg, &dist, &local, 0.3, 3, 0.0).1
            });
            let applies = out[0].0.fock_applies;
            assert_eq!(applies, 4, "{strategy:?} p={p}: predictor + 3 correctors");
            let solves: usize = out.iter().map(|(stats, _)| stats.fock_solves_fp64).sum();
            assert_eq!(solves, applies * 6 * 7 / 2, "{strategy:?} p={p}");
            assert!(out.iter().all(|(stats, _)| stats.fock_solves_fp32 == 0));
        }
    }
}
