//! Table I — MPI communication time by category for the 1536-atom system
//! with the optimized methods (ACE / Ring / Async), on the ARM platform
//! (960 nodes) and the GPU platform (96 nodes).
//!
//! Two parts:
//! 1. the calibrated model at paper scale, printed next to the paper's
//!    measured values;
//! 2. a *measured* cross-check at small scale: the same three exchange
//!    strategies executed for real on the `mpisim` runtime (the
//!    distributed step's half-ring exchange, 8 ranks, scaled network),
//!    demonstrating the category shifts (Bcast → Sendrecv → Wait) emerge
//!    from execution, not the model.

use mpisim::{Category, Cluster, NetworkModel, Topology};
use perfmodel::{step_time, Platform, Variant, Workload};
use ptim::distributed::{dist_fock_apply_pure, BandDistribution, ExchangeStrategy};
use pwdft::{Cell, DftSystem, FockOperator, Wavefunction};
use pwdft_bench::{fmt_s, print_table};
use pwnum::cmat::CMat;
use pwnum::eigh;

/// Paper Table I values (seconds): (alltoallv, sendrecv, wait,
/// allgatherv, allreduce, bcast, total, ratio%).
const PAPER_ARM: [(&str, [f64; 8]); 3] = [
    ("ACE", [9.04, 0.0, 0.0, 0.17, 14.19, 67.22, 90.62, 18.92]),
    ("Ring", [9.03, 30.1, 0.0, 0.17, 14.21, 0.03, 53.54, 12.73]),
    ("Async", [9.18, 0.0, 20.13, 0.17, 14.18, 0.03, 43.69, 10.65]),
];
const PAPER_GPU: [(&str, [f64; 8]); 3] = [
    ("ACE", [7.95, 0.0, 0.0, 0.47, 4.99, 64.85, 78.26, 25.72]),
    ("Ring", [7.35, 20.54, 0.0, 0.47, 4.46, 0.89, 33.71, 21.13]),
    ("Async", [7.64, 0.0, 10.1, 0.47, 4.28, 0.82, 23.31, 16.38]),
];

fn model_table(pf: &Platform, nodes: usize, paper: &[(&str, [f64; 8]); 3]) {
    let w = Workload::silicon(1536);
    let mut rows = Vec::new();
    for (i, v) in [Variant::Ace, Variant::AceRing, Variant::AceAsync].iter().enumerate() {
        let b = step_time(pf, &w, nodes, *v);
        let c = b.comm;
        rows.push(vec![
            format!("{} (model)", v.label()),
            fmt_s(c.alltoallv),
            fmt_s(c.sendrecv),
            fmt_s(c.wait),
            fmt_s(c.allgatherv),
            fmt_s(c.allreduce),
            fmt_s(c.bcast),
            fmt_s(c.total()),
            format!("{:.2}%", 100.0 * b.comm_ratio()),
        ]);
        let p = &paper[i];
        rows.push(vec![
            format!("{} (paper)", p.0),
            fmt_s(p.1[0]),
            fmt_s(p.1[1]),
            fmt_s(p.1[2]),
            fmt_s(p.1[3]),
            fmt_s(p.1[4]),
            fmt_s(p.1[5]),
            fmt_s(p.1[6]),
            format!("{:.2}%", p.1[7]),
        ]);
    }
    print_table(
        &format!("Table I — 1536 Si atoms on {} ({} nodes)", pf.name, nodes),
        &[
            "method",
            "Alltoallv (s)",
            "Sendrecv (s)",
            "Wait (s)",
            "Allgatherv (s)",
            "Allreduce (s)",
            "Bcast (s)",
            "total comm (s)",
            "comm ratio",
        ],
        &rows,
    );
}

fn measured_cross_check() {
    println!("\n## Measured cross-check: real execution on the mpisim runtime (8 ranks)");
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let n_bands = 16;
    let phi = Wavefunction::random(&sys.grid, n_bands, 5);
    let sigma = CMat::from_real_diag(
        &(0..n_bands).map(|i| 1.0 / (1.0 + ((i as f64 - 8.0) * 0.5).exp())).collect::<Vec<_>>(),
    );
    let e = eigh(&sigma);
    let nat = phi.rotated(&e.vectors);
    let nat_r = nat.to_real_all(&sys.grid);
    let ng = sys.grid.len();

    let net = NetworkModel {
        topology: Topology::Torus(vec![2, 2, 2]),
        hop_latency: 1e-6,
        sw_overhead: 1e-6,
        bandwidth: 1e9,
        shm_bandwidth: 1e10,
        shm_latency: 1e-7,
    };

    let mut rows = Vec::new();
    for strategy in
        [ExchangeStrategy::Bcast, ExchangeStrategy::Ring, ExchangeStrategy::AsyncRing]
    {
        let nat_r = nat_r.clone();
        let values = e.values.clone();
        let sys_ref = &sys;
        let out = Cluster::new(8, 4, net.clone()).run(move |c| {
            let dist = BandDistribution::new(n_bands, c.size());
            let my = dist.range(c.rank());
            let fock = FockOperator::new(&sys_ref.grid, 0.2);
            let nat_local = &nat_r[my.start * ng..my.end * ng];
            let _ = dist_fock_apply_pure(c, &fock, &dist, nat_local, &values, strategy);
            (
                c.stats.time(Category::Bcast),
                c.stats.time(Category::Sendrecv),
                c.stats.time(Category::Wait),
            )
        });
        // Max over ranks, in milliseconds of virtual time.
        let max = |f: fn(&(f64, f64, f64)) -> f64| {
            out.iter().map(|(t, _)| f(t)).fold(0.0f64, f64::max) * 1e3
        };
        rows.push(vec![
            format!("{strategy:?}"),
            format!("{:.3}", max(|t| t.0)),
            format!("{:.3}", max(|t| t.1)),
            format!("{:.3}", max(|t| t.2)),
        ]);
    }
    print_table(
        "Measured virtual comm time per Vx (ms, max over ranks)",
        &["strategy", "Bcast", "Sendrecv", "Wait"],
        &rows,
    );
    println!("expected shape: Bcast>0 only for Bcast; Ring moves cost to Sendrecv;");
    println!("AsyncRing moves it to Wait and reduces it via overlap — as in Table I.");
}

fn main() {
    println!("# Table I reproduction — MPI communication time by category");
    model_table(&Platform::fugaku_arm(), 960, &PAPER_ARM);
    model_table(&Platform::gpu_a100(), 96, &PAPER_GPU);
    measured_cross_check();
}
