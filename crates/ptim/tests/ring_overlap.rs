//! Correctness and overlap acceptance for the ring-pipelined overlapped
//! exchange: `RingOverlap` must match the serial Fock operator to
//! ≤ 1e-10 on both backends, under the fp32 precision policy (as must
//! every other strategy) and at non-power-of-two rank counts — with its
//! solve counts pinned — and hide ≥ 50% of the exchange communication at
//! 16 simulated ranks.

use mpisim::{Cluster, NetworkModel, Topology};
use ptim::distributed::{dist_fock_apply, BandDistribution, ExchangePlan, ExchangeStrategy};
use pwdft::fock::FockOptions;
use pwdft::{Cell, DftSystem, FockOperator, Wavefunction};
use pwnum::backend::{by_name, BackendHandle};
use pwnum::cmat::CMat;
use pwnum::complex::c64;
use pwnum::cvec::max_abs_diff;
use pwnum::eigh;
use pwnum::precision::PrecisionPolicy;

const N_BANDS: usize = 6;

struct Fixture {
    sys: DftSystem,
    nat_r: Vec<pwnum::complex::Complex64>,
    psi_r: Vec<pwnum::complex::Complex64>,
    occ: Vec<f64>,
}

fn fixture() -> Fixture {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
    let mut phi = Wavefunction::random(&sys.grid, N_BANDS, 77);
    phi.orthonormalize_lowdin();
    let mut sigma = CMat::from_real_diag(&[1.0, 0.9, 0.7, 0.5, 0.2, 0.1]);
    sigma[(0, 1)] = c64(0.05, 0.02);
    sigma[(1, 0)] = c64(0.05, -0.02);
    let e = eigh(&sigma);
    let nat = phi.rotated(&e.vectors);
    let psi = Wavefunction::random(&sys.grid, N_BANDS, 31);
    Fixture {
        nat_r: nat.to_real_all(&sys.fft),
        psi_r: psi.to_real_all(&sys.fft),
        occ: e.values.clone(),
        sys,
    }
}

fn backends() -> [BackendHandle; 2] {
    [by_name("reference").unwrap(), by_name("blocked").unwrap()]
}

#[test]
fn ring_overlap_matches_serial_asymmetric_on_both_backends() {
    let f = fixture();
    let ng = f.sys.grid.len();
    for be in backends() {
        let fock = FockOperator::with_backend(&f.sys.grid, 0.2, be.clone());
        let serial = fock.apply_diag(&f.nat_r, &f.occ, &f.psi_r);
        // p = 3 is the non-power-of-two count; p = 2 and 4 for coverage.
        for p in [2usize, 3, 4] {
            let out = Cluster::ideal(p).run(|c| {
                let dist = BandDistribution::new(N_BANDS, c.size());
                let my = dist.range(c.rank());
                let fock = FockOperator::with_backend(&f.sys.grid, 0.2, be.clone());
                let nat_local = f.nat_r[my.start * ng..my.end * ng].to_vec();
                let psi_local = f.psi_r[my.start * ng..my.end * ng].to_vec();
                let (vx, _) = dist_fock_apply(
                    c,
                    &fock,
                    &dist,
                    &nat_local,
                    &f.occ,
                    &psi_local,
                    ExchangeStrategy::RingOverlap,
                );
                let want = &serial[my.start * ng..my.end * ng];
                max_abs_diff(&vx, want)
            });
            for (rank, (d, _)) in out.iter().enumerate() {
                assert!(*d < 1e-10, "{} p={p} rank={rank}: mismatch {d}", be.name());
            }
        }
    }
}

#[test]
fn ring_overlap_symmetric_halving_matches_apply_pure_with_solve_counts() {
    let f = fixture();
    let ng = f.sys.grid.len();
    let fock = FockOperator::new(&f.sys.grid, 0.2);
    let serial = fock.apply_pure(&f.nat_r, &f.occ);
    for p in [2usize, 3] {
        let out = Cluster::ideal(p).run(|c| {
            let dist = BandDistribution::new(N_BANDS, c.size());
            let my = dist.range(c.rank());
            let fock = FockOperator::new(&f.sys.grid, 0.2);
            let nat_local = f.nat_r[my.start * ng..my.end * ng].to_vec();
            // Targets ARE the sources: the diagonal block must take the
            // Hermitian i ≤ j halving.
            let (vx, stats) = dist_fock_apply(
                c,
                &fock,
                &dist,
                &nat_local,
                &f.occ,
                &nat_local,
                ExchangeStrategy::RingOverlap,
            );
            let want = &serial[my.start * ng..my.end * ng];
            (max_abs_diff(&vx, want), stats.solves)
        });
        // Expected solves: i ≤ j halving on every diagonal block, full
        // nb_src × nb_tgt on every off-diagonal block (no screening:
        // every occupation is above the cutoff).
        let dist = BandDistribution::new(N_BANDS, p);
        let mut want_solves = 0usize;
        for r in 0..p {
            let nb = dist.count(r);
            want_solves += nb * (nb + 1) / 2; // diagonal block
            for s in 0..p {
                if s != r {
                    want_solves += dist.count(s) * nb; // sources s → targets r
                }
            }
        }
        let got_solves: usize = out.iter().map(|((_, s), _)| *s).sum();
        assert_eq!(got_solves, want_solves, "p={p}: solve count");
        for (rank, ((d, _), _)) in out.iter().enumerate() {
            assert!(*d < 1e-10, "p={p} rank={rank}: symmetric mismatch {d}");
        }
    }
}

#[test]
fn ring_overlap_honors_fp32_precision_policy() {
    let f = fixture();
    let ng = f.sys.grid.len();
    let opts = FockOptions { precision: PrecisionPolicy::mixed(), ..Default::default() };
    for be in backends() {
        let fock = FockOperator::with_options(&f.sys.grid, 0.2, be.clone(), opts);
        // Serial reference under the SAME policy: the distributed path
        // must reproduce the fp32 pipeline, not silently run fp64.
        let serial = fock.apply_diag(&f.nat_r, &f.occ, &f.psi_r);
        for p in [2usize, 3] {
            let out = Cluster::ideal(p).run(|c| {
                let dist = BandDistribution::new(N_BANDS, c.size());
                let my = dist.range(c.rank());
                let fock = FockOperator::with_options(&f.sys.grid, 0.2, be.clone(), opts);
                let nat_local = f.nat_r[my.start * ng..my.end * ng].to_vec();
                let psi_local = f.psi_r[my.start * ng..my.end * ng].to_vec();
                let (vx, stats) = dist_fock_apply(
                    c,
                    &fock,
                    &dist,
                    &nat_local,
                    &f.occ,
                    &psi_local,
                    ExchangeStrategy::RingOverlap,
                );
                let want = &serial[my.start * ng..my.end * ng];
                (max_abs_diff(&vx, want), stats.solves, stats.solves_fp32)
            });
            for (rank, ((d, solves, solves32), _)) in out.iter().enumerate() {
                assert!(
                    *d < 1e-10,
                    "{} p={p} rank={rank}: fp32-policy mismatch {d}",
                    be.name()
                );
                assert_eq!(
                    solves, solves32,
                    "{} p={p} rank={rank}: every solve must run fp32",
                    be.name()
                );
                assert_eq!(*solves, N_BANDS * dist_count(N_BANDS, p, rank));
            }
            // Every strategy through the step's entry point runs the same
            // policy-aware block kernel: none may fall back to fp64.
            for strategy in STRATEGIES {
                let out = Cluster::ideal(p).run(|c| {
                    let dist = BandDistribution::new(N_BANDS, c.size());
                    let my = dist.range(c.rank());
                    let fock = FockOperator::with_options(&f.sys.grid, 0.2, be.clone(), opts);
                    let nat_local = f.nat_r[my.start * ng..my.end * ng].to_vec();
                    let psi_local = f.psi_r[my.start * ng..my.end * ng].to_vec();
                    let (vx, _) =
                        dist_fock_apply(c, &fock, &dist, &nat_local, &f.occ, &psi_local, strategy);
                    max_abs_diff(&vx, &serial[my.start * ng..my.end * ng])
                });
                for (rank, (d, _)) in out.iter().enumerate() {
                    assert!(
                        *d < 1e-10,
                        "{} {strategy:?} p={p} rank={rank}: fp32-policy mismatch {d}",
                        be.name()
                    );
                }
            }
        }
    }
}

const STRATEGIES: [ExchangeStrategy; 4] = [
    ExchangeStrategy::Bcast,
    ExchangeStrategy::Ring,
    ExchangeStrategy::AsyncRing,
    ExchangeStrategy::RingOverlap,
];

fn dist_count(n: usize, p: usize, rank: usize) -> usize {
    BandDistribution::new(n, p).count(rank)
}

#[test]
fn overlap_hides_at_least_half_the_exchange_communication_at_16_ranks() {
    // The acceptance bar: at 16 simulated ranks, with the pair solves
    // charged to the virtual clock, the ring-pipelined exchange must
    // hide ≥ 50% of its communication time (hidden / total wire time,
    // reported per rank by the runtime's overlap metric).
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let n_bands = 32;
    let ng = sys.grid.len();
    let phi = Wavefunction::random(&sys.grid, n_bands, 5);
    let nat_r = phi.to_real_all(&sys.fft);
    let psi = Wavefunction::random(&sys.grid, n_bands, 6);
    let psi_r = psi.to_real_all(&sys.fft);
    let occ: Vec<f64> = (0..n_bands).map(|i| 1.0 / (1.0 + 0.1 * i as f64)).collect();
    let net = NetworkModel {
        topology: Topology::FullyConnected,
        hop_latency: 1e-6,
        sw_overhead: 0.0,
        bandwidth: 1e9,
        shm_bandwidth: 1e9,
        shm_latency: 1e-6,
    };
    let p = 16;
    // Block transfer ≈ 2 bands · 8192 pts · 16 B / 1 GB/s ≈ 262 µs;
    // block compute = 2·2 solves · 100 µs = 400 µs ≥ transfer, so the
    // pipeline can hide (nearly) all of it.
    let solve_cost = 1e-4;
    let out = Cluster::new(p, 4, net).run(|c| {
        let dist = BandDistribution::new(n_bands, c.size());
        let my = dist.range(c.rank());
        let fock = FockOperator::new(&sys.grid, 0.2);
        let nat_local = nat_r[my.start * ng..my.end * ng].to_vec();
        let psi_local = psi_r[my.start * ng..my.end * ng].to_vec();
        let plan = ExchangePlan {
            strategy: ExchangeStrategy::RingOverlap,
            solve_cost_s: solve_cost,
        };
        let _ = dist_fock_apply(c, &fock, &dist, &nat_local, &occ, &psi_local, plan);
        (c.stats.overlap_efficiency(), c.stats.overlap_total_s)
    });
    for (rank, ((eff, total), _)) in out.iter().enumerate() {
        assert!(*total > 0.0, "rank {rank}: no nonblocking transfers recorded");
        assert!(
            *eff >= 0.5,
            "rank {rank}: overlap efficiency {eff:.3} below the 50% acceptance bar"
        );
    }
}

#[test]
fn ring_overlap_populates_wait_not_sendrecv() {
    // Timing-category contract: like AsyncRing, the overlapped ring's
    // visible communication lands in Wait (MPI_Wait), never Sendrecv.
    let f = fixture();
    let ng = f.sys.grid.len();
    let net = NetworkModel {
        topology: Topology::Torus(vec![2, 2]),
        hop_latency: 1e-6,
        sw_overhead: 1e-6,
        bandwidth: 1e9,
        shm_bandwidth: 1e10,
        shm_latency: 1e-7,
    };
    let out = Cluster::new(4, 1, net).run(|c| {
        let dist = BandDistribution::new(N_BANDS, c.size());
        let my = dist.range(c.rank());
        let fock = FockOperator::new(&f.sys.grid, 0.2);
        let nat_local = f.nat_r[my.start * ng..my.end * ng].to_vec();
        let psi_local = f.psi_r[my.start * ng..my.end * ng].to_vec();
        let _ = dist_fock_apply(
            c,
            &fock,
            &dist,
            &nat_local,
            &f.occ,
            &psi_local,
            ExchangeStrategy::RingOverlap,
        );
        (
            c.stats.time(mpisim::Category::Sendrecv),
            c.stats.time(mpisim::Category::Wait),
            c.stats.time(mpisim::Category::Bcast),
        )
    });
    for ((s, w, b), _) in &out {
        assert_eq!(*s, 0.0, "RingOverlap must not use blocking sendrecv");
        assert_eq!(*b, 0.0, "RingOverlap must not broadcast");
        assert!(*w > 0.0, "visible wait time expected on a non-ideal network");
    }
}
