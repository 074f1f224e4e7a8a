//! Correctness and overlap acceptance for the ring-pipelined overlapped
//! exchange on the self-applied half ring: `RingOverlap` must match the
//! serial Fock operator to ≤ 1e-10 on both backends, under the fp32
//! precision policy (as must every other strategy) and at
//! non-power-of-two rank counts — with the serial pair-symmetric apply's
//! solve counts and statistics — and hide ≥ 50% of the exchange
//! communication at 16 simulated ranks.

use mpisim::{Cluster, NetworkModel, Topology};
use ptim::distributed::{dist_fock_apply_pure, BandDistribution, ExchangePlan, ExchangeStrategy};
use pwdft::fock::FockOptions;
use pwdft::{Cell, DftSystem, FockApplyStats, FockOperator, Wavefunction};
use pwnum::backend::{BackendHandle, Blocked, Reference};
use pwnum::cmat::CMat;
use pwnum::complex::{c64, Complex64};
use pwnum::cvec::max_abs_diff;
use pwnum::eigh;
use pwnum::precision::PrecisionPolicy;
use std::sync::Arc;

const N_BANDS: usize = 6;

struct Fixture {
    sys: DftSystem,
    nat_r: Vec<pwnum::complex::Complex64>,
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
    Fixture {
        nat_r: nat.to_real_all(&sys.grid),
        occ: e.values.clone(),
        sys,
    }
}

fn backends() -> [BackendHandle; 2] {
    [Arc::new(Reference), Arc::new(Blocked::new())]
}

#[test]
fn ring_overlap_matches_serial_asymmetric_on_both_backends() {
    // The half ring computes the operator of the serial asymmetric
    // (target-major) apply of the natural orbitals to themselves.
    let f = fixture();
    let ng = f.sys.grid.len();
    for be in backends() {
        let fock = FockOperator::with_backend(&f.sys.grid, 0.2, be.clone());
        let serial = fock.apply_diag(&f.nat_r, &f.occ, &f.nat_r);
        // p = 3 is the non-power-of-two count; p = 2 and 4 for coverage.
        for p in [2usize, 3, 4] {
            let out = Cluster::ideal(p).run(|c| {
                let dist = BandDistribution::new(N_BANDS, c.size());
                let my = dist.range(c.rank());
                let fock = FockOperator::with_backend(&f.sys.grid, 0.2, be.clone());
                let nat_local = &f.nat_r[my.start * ng..my.end * ng];
                let (vx, _) =
                    dist_fock_apply_pure(c, &fock, &dist, nat_local, &f.occ, ExchangeStrategy::RingOverlap);
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
    // The operator on its own sources: summed over ranks, the half ring
    // solves, screens and counts exactly the serial pair-symmetric apply's
    // pairs (n(n+1)/2 solves unscreened), and its images are the serial
    // ones — on every strategy, at odd, even and ragged rank counts and
    // with one band per rank (p = n), with and without screening, at both
    // precisions on both backends. The three ring strategies agree to the
    // bit.
    let f = fixture();
    let ng = f.sys.grid.len();
    let max_abs = |v: &[Complex64]| v.iter().map(|z| z.abs()).fold(0.0, f64::max);
    for (precision, tol) in [(PrecisionPolicy::fp64(), 1e-12), (PrecisionPolicy::mixed(), 1e-6)] {
        for be in backends() {
            // 0.15 screens the band of occupation 0.1.
            for occ_cutoff in [0.0, 0.15] {
                let opts = FockOptions { occ_cutoff, precision };
                let fock = || FockOperator::with_options(&f.sys.grid, 0.2, be.clone(), opts);
                let (serial, want) = fock().apply_pure_stats(&f.nat_r, &f.occ);
                if occ_cutoff == 0.0 {
                    assert_eq!(want.solves, N_BANDS * (N_BANDS + 1) / 2, "{want:?}");
                } else {
                    assert!(want.skipped_pairs > 0 && want.skipped_weight > 0.0, "{want:?}");
                }
                let scale = max_abs(&serial);
                for p in [1usize, 2, 3, 4, 5, 6] {
                    let mut ring_bits: Option<Vec<Vec<u64>>> = None;
                    for strategy in [
                        ExchangeStrategy::Bcast,
                        ExchangeStrategy::Ring,
                        ExchangeStrategy::AsyncRing,
                        ExchangeStrategy::RingOverlap,
                    ] {
                        let case = format!(
                            "{precision:?} {} cutoff {occ_cutoff} {strategy:?} p={p}",
                            be.name()
                        );
                        let out = Cluster::ideal(p).run(|c| {
                            let dist = BandDistribution::new(N_BANDS, c.size());
                            let my = dist.range(c.rank());
                            let nat_local = &f.nat_r[my.start * ng..my.end * ng];
                            let (vx, stats) =
                                dist_fock_apply_pure(c, &fock(), &dist, nat_local, &f.occ, strategy);
                            let d = max_abs_diff(&vx, &serial[my.start * ng..my.end * ng]);
                            let bits = vx.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]);
                            (d, stats, bits.collect::<Vec<u64>>())
                        });
                        let mut sum = FockApplyStats::default();
                        for (rank, ((d, stats, _), _)) in out.iter().enumerate() {
                            assert!(*d <= tol * scale, "{case} rank={rank}: mismatch {d}");
                            if precision == PrecisionPolicy::fp64() {
                                assert!(*d < 1e-10, "{case} rank={rank}: symmetric mismatch {d}");
                            }
                            sum += *stats;
                        }
                        assert_eq!(sum.solves, want.solves, "{case}: solve count");
                        assert_eq!(sum.solves_fp32, want.solves_fp32, "{case}");
                        assert_eq!(sum.skipped_pairs, want.skipped_pairs, "{case}");
                        assert_eq!(sum.contributions, want.contributions, "{case}");
                        let rel = (sum.skipped_weight - want.skipped_weight).abs()
                            / want.skipped_weight.max(f64::MIN_POSITIVE);
                        assert!(rel <= 1e-12, "{case}: skipped weight off by {rel:e}");
                        if strategy != ExchangeStrategy::Bcast {
                            let bits: Vec<Vec<u64>> = out.into_iter().map(|((_, _, b), _)| b).collect();
                            let first = ring_bits.get_or_insert_with(|| bits.clone());
                            assert!(*first == bits, "{case}: images differ from Ring's bits");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn ring_overlap_honors_fp32_precision_policy() {
    let f = fixture();
    let ng = f.sys.grid.len();
    let opts = FockOptions { precision: PrecisionPolicy::mixed(), ..Default::default() };
    let pairs = N_BANDS * (N_BANDS + 1) / 2;
    for be in backends() {
        let fock = FockOperator::with_options(&f.sys.grid, 0.2, be.clone(), opts);
        // Serial reference under the SAME policy: the distributed path
        // must reproduce the fp32 pipeline, not silently run fp64.
        let serial = fock.apply_pure(&f.nat_r, &f.occ);
        // Every strategy runs the same policy-aware block kernel: none may
        // fall back to fp64.
        for strategy in STRATEGIES {
            for p in [2usize, 3] {
                let out = Cluster::ideal(p).run(|c| {
                    let dist = BandDistribution::new(N_BANDS, c.size());
                    let my = dist.range(c.rank());
                    let fock = FockOperator::with_options(&f.sys.grid, 0.2, be.clone(), opts);
                    let nat_local = &f.nat_r[my.start * ng..my.end * ng];
                    let (vx, stats) = dist_fock_apply_pure(c, &fock, &dist, nat_local, &f.occ, strategy);
                    let want = &serial[my.start * ng..my.end * ng];
                    (max_abs_diff(&vx, want), stats.solves, stats.solves_fp32)
                });
                let case = format!("{} {strategy:?} p={p}", be.name());
                for (rank, ((d, solves, solves32), _)) in out.iter().enumerate() {
                    assert!(*d < 1e-10, "{case} rank={rank}: fp32-policy mismatch {d}");
                    assert_eq!(solves, solves32, "{case} rank={rank}: every solve must run fp32");
                }
                let total: usize = out.iter().map(|((_, solves, _), _)| solves).sum();
                assert_eq!(total, pairs, "{case}: solve count");
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
    let nat_r = phi.to_real_all(&sys.grid);
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
    // Block transfer ≈ 2 bands · 512 pts · 16 B / 1 GB/s ≈ 17 µs; a
    // visiting block's compute = 2·2 solves · 100 µs = 400 µs ≥ transfer,
    // so the pipeline can hide (nearly) all of it.
    let solve_cost = 1e-4;
    let out = Cluster::new(p, 4, net).run(|c| {
        let dist = BandDistribution::new(n_bands, c.size());
        let my = dist.range(c.rank());
        let fock = FockOperator::new(&sys.grid, 0.2);
        let nat_local = &nat_r[my.start * ng..my.end * ng];
        let plan = ExchangePlan {
            strategy: ExchangeStrategy::RingOverlap,
            solve_cost_s: solve_cost,
        };
        let _ = dist_fock_apply_pure(c, &fock, &dist, nat_local, &occ, plan);
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
        let nat_local = &f.nat_r[my.start * ng..my.end * ng];
        let _ = dist_fock_apply_pure(c, &fock, &dist, nat_local, &f.occ, ExchangeStrategy::RingOverlap);
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
