//! Paper-shaped distributed correctness: the real distributed code paths
//! — the RingOverlap half-ring Fock exchange and the full
//! `dist_ptim_step` — executed with one band on each of 128 simulated
//! ranks (32 Fugaku-like nodes at 4 ranks/node, torus network,
//! hierarchical collectives), as the paper's largest ARM points hold one
//! orbital per rank, validated against the serial reference. The
//! O(active-ranks) event loop is what makes these rank counts cheap
//! enough for the tier-1 suite.

use pwdft_repro::mpisim::{Cluster, NetworkModel};
use pwdft_repro::ptim::distributed::{
    dist_fock_apply_pure, dist_ptim_step, gather_state, scatter_state, BandDistribution,
    DistConfig, ExchangeStrategy,
};
use pwdft_repro::ptim::engine::HybridParams;
use pwdft_repro::ptim::laser::LaserPulse;
use pwdft_repro::ptim::state::TdState;
use pwdft_repro::pwdft::{Cell, DftSystem, FockOperator, Wavefunction};
use pwdft_repro::pwnum::cmat::CMat;

const RPN: usize = 4;

fn fugaku_net(p: usize) -> NetworkModel {
    NetworkModel::fugaku(p.div_ceil(RPN))
}

#[test]
fn ring_overlap_fock_matches_serial_at_128_ranks() {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let ng = sys.grid.len();
    let n_bands = 128;
    let phi = Wavefunction::random(&sys.grid, n_bands, 11);
    let nat_r = phi.to_real_all(&sys.grid);
    let occ: Vec<f64> = (0..n_bands).map(|i| 1.0 / (1.0 + 0.2 * i as f64)).collect();
    let fock = FockOperator::new(&sys.grid, 0.2);
    let serial = fock.apply_pure(&nat_r, &occ);

    let p = 128;
    let sys_ref = &sys;
    let nat_ref = &nat_r;
    let occ_ref = &occ;
    let serial_ref = &serial;
    let out = Cluster::new(p, RPN, fugaku_net(p)).run(move |c| {
        let dist = BandDistribution::new(n_bands, c.size());
        let my = dist.range(c.rank());
        let fock = FockOperator::new(&sys_ref.grid, 0.2);
        let nat_local = &nat_ref[my.start * ng..my.end * ng];
        let (vx, _) =
            dist_fock_apply_pure(c, &fock, &dist, nat_local, occ_ref, ExchangeStrategy::RingOverlap);
        let want = &serial_ref[my.start * ng..my.end * ng];
        pwdft_repro::pwnum::cvec::max_abs_diff(&vx, want)
    });
    for (rank, (d, _)) in out.iter().enumerate() {
        assert!(*d < 1e-10, "rank {rank}: RingOverlap Fock mismatch {d}");
    }
}

#[test]
fn real_dist_step_at_128_ranks_matches_serial_ptim() {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let n_bands = 128;
    let mut phi = Wavefunction::random(&sys.grid, n_bands, 7);
    phi.orthonormalize_lowdin();
    let occ: Vec<f64> = (0..n_bands).map(|i| 1.0 / (1.0 + 0.2 * i as f64)).collect();
    let st = TdState { phi, sigma: CMat::from_real_diag(&occ), time: 0.0 };
    let laser = LaserPulse::off();
    let hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
    let ne = occ.iter().sum::<f64>() * pwdft_repro::pwdft::density::SPIN_FACTOR;

    // Serial reference.
    let eng = pwdft_repro::ptim::engine::TdEngine::new(&sys, LaserPulse::off(), hyb);
    let cfg_serial = pwdft_repro::ptim::ptim::PtimConfig {
        dt: 0.1,
        max_scf: 25,
        tol_rho: 1e-9,
        anderson_depth: 10,
        anderson_beta: 0.6,
    };
    let (serial_next, serial_stats) = pwdft_repro::ptim::ptim::ptim_step(&eng, &st, &cfg_serial);
    assert!(serial_stats.converged, "serial reference step must converge");
    let rho_serial = eng.eval(&serial_next.phi, &serial_next.sigma, serial_next.time).rho;

    let p = 128;
    let sys_ref = &sys;
    let laser_ref = &laser;
    let st_ref = &st;
    let rho_ref = &rho_serial;
    let sigma_ref = &serial_next.sigma;
    let out = Cluster::new(p, RPN, fugaku_net(p)).run(move |c| {
        let dist = BandDistribution::new(n_bands, c.size());
        let local = scatter_state(c, st_ref, &dist);
        let cfg = DistConfig {
            strategy: ExchangeStrategy::RingOverlap,
            use_shm: true,
            hybrid: hyb,
            ..Default::default()
        };
        let (next, stats) =
            dist_ptim_step(c, sys_ref, laser_ref, &cfg, &dist, &local, 0.1, 25, 1e-9);
        let full = gather_state(c, &next, &dist);
        let eng = pwdft_repro::ptim::engine::TdEngine::new(sys_ref, LaserPulse::off(), hyb);
        let rho = eng.eval(&full.phi, &full.sigma, full.time).rho;
        let res = pwdft_repro::ptim::propagate::density_residual(
            &rho,
            rho_ref,
            sys_ref.grid.dv(),
            ne,
        );
        (res, stats.converged, full.sigma.max_abs_diff(sigma_ref))
    });
    for (rank, ((res, conv, sig_diff), _)) in out.iter().enumerate() {
        assert!(*conv, "rank {rank}: 128-rank step did not converge");
        assert!(*res < 1e-6, "rank {rank}: density mismatch {res}");
        assert!(*sig_diff < 1e-6, "rank {rank}: sigma mismatch {sig_diff}");
    }
}
