//! Distributed-exchange overlap bench: the blocking ring (`Ring`) vs the
//! ring-pipelined overlapped exchange (`RingOverlap`) at 4/8/16 simulated
//! ranks on a Tofu-like network, with the pair Poisson solves charged to
//! the virtual clock at a roofline-derived per-solve cost. Reports the
//! simulated exchange step time per strategy, the speedup, and the
//! measured overlap efficiency (hidden / total wire time).
//!
//! Writes `BENCH_dist_overlap.json` (consumed by EXPERIMENTS.md §4 and
//! gated in CI by `bin/compare.rs`: the job fails if the overlapped
//! exchange is less than 1.25× the blocking ring at 16 ranks).

use mpisim::{Cluster, NetworkModel, Topology};
use ptim::distributed::{dist_fock_apply, BandDistribution, ExchangePlan, ExchangeStrategy};
use pwdft::{Cell, DftSystem, FockOperator, Wavefunction};

struct Row {
    ranks: usize,
    ring_s: f64,
    overlap_s: f64,
    overlap_efficiency: f64,
    solve_cost_s: f64,
}

fn main() {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.5, [12, 12, 12]);
    let ng = sys.grid.len();
    let n_bands = 32;
    let phi = Wavefunction::random(&sys.grid, n_bands, 11);
    let nat_r = phi.to_real_all(&sys.grid);
    let psi = Wavefunction::random(&sys.grid, n_bands, 12);
    let psi_r = psi.to_real_all(&sys.grid);
    let occ: Vec<f64> = (0..n_bands).map(|i| 1.0 / (1.0 + 0.05 * i as f64)).collect();

    // Tofu-like link (ring exchanges are single-hop on the torus); the
    // per-solve cost comes from the roofline FFT price of a pair's
    // forward+inverse round trip at this grid size on the ARM platform.
    let net = NetworkModel {
        topology: Topology::Torus(vec![4, 4]),
        hop_latency: 1e-6,
        sw_overhead: 0.5e-6,
        bandwidth: 1e9,
        shm_bandwidth: 1e10,
        shm_latency: 1e-7,
    };
    let pf = perfmodel::Platform::fugaku_arm();
    let ngf = ng as f64;
    let solve_cost = 2.0 * pf.kernel_time(5.0 * ngf * ngf.log2(), 6.0 * 16.0 * ngf);

    let measure = |p: usize, strategy: ExchangeStrategy| -> (f64, f64) {
        let out = Cluster::new(p, 4, net.clone()).run(|c| {
            let dist = BandDistribution::new(n_bands, c.size());
            let my = dist.range(c.rank());
            let fock = FockOperator::new(&sys.grid, 0.106);
            let nat_local = nat_r[my.start * ng..my.end * ng].to_vec();
            let psi_local = psi_r[my.start * ng..my.end * ng].to_vec();
            let plan = ExchangePlan { strategy, solve_cost_s: solve_cost };
            let _ = dist_fock_apply(c, &fock, &dist, &nat_local, &occ, &psi_local, plan);
            (c.now(), c.stats.overlap_efficiency())
        });
        let step = out.iter().map(|((t, _), _)| *t).fold(0.0f64, f64::max);
        let eff = out.iter().map(|((_, e), _)| *e).fold(1.0f64, f64::min);
        (step, eff)
    };

    let rows: Vec<Row> = [4usize, 8, 16]
        .iter()
        .map(|&p| {
            let (ring_s, _) = measure(p, ExchangeStrategy::Ring);
            let (overlap_s, overlap_efficiency) = measure(p, ExchangeStrategy::RingOverlap);
            Row { ranks: p, ring_s, overlap_s, overlap_efficiency, solve_cost_s: solve_cost }
        })
        .collect();

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"dist_overlap_p{}\", \"ranks\": {}, \"ring_s\": {:.6e}, \
             \"overlap_s\": {:.6e}, \"speedup\": {:.3}, \"overlap_efficiency\": {:.3}, \
             \"solve_cost_s\": {:.3e}}}{}\n",
            r.ranks,
            r.ranks,
            r.ring_s,
            r.overlap_s,
            r.ring_s / r.overlap_s,
            r.overlap_efficiency,
            r.solve_cost_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"bands\": {n_bands}, \"grid\": \"12x12x12\", \"network\": \"torus4x4_1GBps\"\n}}\n"
    ));
    std::fs::write("BENCH_dist_overlap.json", &json).expect("write BENCH_dist_overlap.json");
    println!("wrote BENCH_dist_overlap.json:\n{json}");
}
