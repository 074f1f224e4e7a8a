//! Cross-validation of the analytic performance model against the
//! discrete-event mpisim runtime: the closed-form communication costs of
//! `perfmodel::comm` must track the virtual clocks the simulator actually
//! produces for the same patterns at small rank counts.

use pwdft_repro::mpisim::{Category, Cluster, NetworkModel, Topology};
use pwdft_repro::perfmodel::{comm, Platform};

/// A platform whose network parameters exactly mirror `net` so the
/// closed forms and the simulator price messages identically.
fn platform_like(net: &NetworkModel) -> Platform {
    let mut pf = Platform::fugaku_arm();
    pf.net_bw = net.bandwidth;
    pf.net_latency = net.hop_latency + net.sw_overhead;
    pf.bcast_penalty = 1.0;
    pf.ranks_per_node = 1;
    pf
}

fn test_net() -> NetworkModel {
    NetworkModel {
        topology: Topology::FullyConnected,
        hop_latency: 1e-6,
        sw_overhead: 0.0,
        bandwidth: 1e9,
        shm_bandwidth: 1e9,
        shm_latency: 1e-6,
    }
}

#[test]
fn ring_formula_matches_simulator() {
    let net = test_net();
    let pf = platform_like(&net);
    for p in [2usize, 4, 8, 16] {
        let bytes = 1_000_000usize;
        let out = Cluster::new(p, 1, net.clone()).run(move |c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let mut block = vec![0u8; bytes];
            for step in 0..c.size() - 1 {
                block = c.sendrecv(left, right, step as u64, block);
            }
            c.stats.time(Category::Sendrecv)
        });
        let measured = out.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
        let model = comm::ring_time(&pf, p, bytes as f64);
        let ratio = measured / model;
        assert!(
            (0.5..2.0).contains(&ratio),
            "p={p}: measured {measured:.6} vs model {model:.6} (ratio {ratio:.2})"
        );
    }
}

#[test]
fn bcast_cheaper_than_per_rank_bcasts_like_model_predicts() {
    // The *relative* claim behind the paper's ring optimization: per-root
    // broadcasts of everyone's block cost more than one ring rotation.
    let net = test_net();
    let pf = platform_like(&net);
    let p = 8;
    let bytes = 500_000usize;

    let out = Cluster::new(p, 1, net.clone()).run(move |c| {
        // All-roots broadcast (the baseline Fock exchange pattern).
        for root in 0..c.size() {
            let payload = if c.rank() == root { Some(vec![0u8; bytes]) } else { None };
            let _ = c.bcast(root, payload);
        }
        let t_bcast = c.stats.time(Category::Bcast);
        // Ring rotation of the same data volume.
        let right = (c.rank() + 1) % c.size();
        let left = (c.rank() + c.size() - 1) % c.size();
        let mut block = vec![0u8; bytes];
        for step in 0..c.size() - 1 {
            block = c.sendrecv(left, right, 1000 + step as u64, block);
        }
        let t_ring = c.stats.time(Category::Sendrecv);
        (t_bcast, t_ring)
    });
    let bcast = out.iter().map(|((b, _), _)| *b).fold(0.0f64, f64::max);
    let ring = out.iter().map(|((_, r), _)| *r).fold(0.0f64, f64::max);
    assert!(bcast > ring, "measured bcast {bcast} must exceed ring {ring}");

    // Model agrees on the direction and rough magnitude of the ratio.
    let model_bcast: f64 = (0..p).map(|_| comm::bcast_time(&pf, p, bytes as f64)).sum();
    let model_ring = comm::ring_time(&pf, p, bytes as f64);
    let measured_ratio = bcast / ring;
    let model_ratio = model_bcast / model_ring;
    assert!(
        measured_ratio / model_ratio > 0.3 && measured_ratio / model_ratio < 3.0,
        "ratio mismatch: measured {measured_ratio:.2} vs model {model_ratio:.2}"
    );
}

#[test]
fn allreduce_formula_tracks_simulator() {
    let net = test_net();
    let pf = platform_like(&net);
    for p in [2usize, 4, 8] {
        let n = 100_000usize;
        let out = Cluster::new(p, 1, net.clone()).run(move |c| {
            let v = vec![1.0f64; n];
            let _ = c.allreduce(v);
            c.stats.time(Category::Allreduce)
        });
        let measured = out.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
        let model = comm::allreduce_time(&pf, p, (n * 8) as f64);
        // The simulator uses a binomial tree (log p bandwidth passes);
        // the model prices the pipelined production algorithm (2 passes).
        // They must agree within the log2(p) algorithmic factor.
        let ratio = measured / model;
        let bound = comm::log2_ceil(p).max(1.0) * 1.5;
        assert!(
            ratio > 0.3 && ratio < bound + 0.5,
            "p={p}: measured {measured:.6} vs model {model:.6} (ratio {ratio:.2}, bound {bound})"
        );
    }
}

#[test]
fn async_ring_overlap_reduces_visible_time() {
    // The paper's Sec. IV-B2 claim, measured: with compute between ring
    // steps, the async ring's Wait time is below the synchronous ring's
    // Sendrecv time.
    let net = test_net();
    let p = 8;
    let bytes = 2_000_000usize;
    let compute_per_step = 1.0e-3; // 1 ms of overlappable work

    let sync_out = Cluster::new(p, 1, net.clone()).run(move |c| {
        let right = (c.rank() + 1) % c.size();
        let left = (c.rank() + c.size() - 1) % c.size();
        let mut block = vec![0u8; bytes];
        for step in 0..c.size() - 1 {
            c.compute(compute_per_step);
            block = c.sendrecv(left, right, step as u64, block);
        }
        c.compute(compute_per_step);
        c.stats.time(Category::Sendrecv)
    });
    let async_out = Cluster::new(p, 1, net.clone()).run(move |c| {
        let right = (c.rank() + 1) % c.size();
        let left = (c.rank() + c.size() - 1) % c.size();
        let mut block = vec![0u8; bytes];
        for step in 0..c.size() - 1 {
            let rreq = c.irecv(left, step as u64);
            let _ = c.isend(right, step as u64, block.clone());
            c.compute(compute_per_step);
            block = c.wait(rreq).expect("ring block");
        }
        c.compute(compute_per_step);
        c.stats.time(Category::Wait)
    });
    let t_sync = sync_out.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
    let t_wait = async_out.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
    assert!(
        t_wait < 0.8 * t_sync,
        "overlap must hide transfer time: wait {t_wait:.6} vs sendrecv {t_sync:.6}"
    );
}

#[test]
fn overlap_schedule_prediction_tracks_measured_ring_overlap_step() {
    // Calibration gate for the ring-pipelined exchange: the overlap-aware
    // half-ring closed form (`perfmodel::comm::hier_half_ring_overlap_time`,
    // paced by the busiest rank's pair solves) must predict the
    // mpisim-measured RingOverlap exchange time on the bench topology
    // (the `dist_overlap` bench network) within 20%, at every bench rank
    // count.
    use pwdft_repro::perfmodel::schedule::half_ring_solves;
    use pwdft_repro::ptim::distributed::{
        dist_fock_apply_pure, BandDistribution, ExchangePlan, ExchangeStrategy,
    };
    use pwdft_repro::pwdft::{Cell, DftSystem, FockOperator, Wavefunction};

    let net = test_net();
    let pf = platform_like(&net);
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let ng = sys.grid.len();
    let n_bands = 16;
    let phi = Wavefunction::random(&sys.grid, n_bands, 3);
    let nat_r = phi.to_real_all(&sys.grid);
    let occ = vec![1.0f64; n_bands];
    let solve_cost = 2e-5;

    for p in [4usize, 8, 16] {
        let out = Cluster::new(p, 1, net.clone()).run(|c| {
            let dist = BandDistribution::new(n_bands, c.size());
            let my = dist.range(c.rank());
            let fock = FockOperator::new(&sys.grid, 0.2);
            let nat_local = &nat_r[my.start * ng..my.end * ng];
            let plan = ExchangePlan {
                strategy: ExchangeStrategy::RingOverlap,
                solve_cost_s: solve_cost,
            };
            let _ = dist_fock_apply_pure(c, &fock, &dist, nat_local, &occ, plan);
            c.now()
        });
        let measured = out.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
        // The busiest rank's solves; wire block: nb real-space bands.
        let solves = (0..p).map(|r| half_ring_solves(n_bands, p, r)).fold(0.0, f64::max);
        let block_bytes = (n_bands / p * ng * 16) as f64;
        let predicted = comm::hier_half_ring_overlap_time(&pf, p, block_bytes, solves * solve_cost);
        let ratio = measured / predicted;
        assert!(
            (0.8..1.25).contains(&ratio),
            "p={p}: measured {measured:.6} vs predicted {predicted:.6} (ratio {ratio:.3})"
        );
    }
}

#[test]
fn dist_step_model_tracks_simulator_at_scale() {
    // The Fig. 10/11 agreement gate: the two-level closed form
    // (`perfmodel::dist_step_sim_time`) must predict the virtual-clock
    // time of the *real* `dist_ptim_step` within 25% at every scaling
    // point — the strong series (128 bands on 16–128 ranks, down to one
    // band per rank) and the weak series (one band per rank; its 128-rank
    // point is the strong series' last) — and the strong series must fall
    // monotonically. Both sides come from the bench crate's canonical
    // dist-scale config (si8, 8x8x8 grid, 4 ranks/node, Fugaku torus,
    // RingOverlap + SHM), so this test gates exactly what the figure
    // binaries emit into BENCH_dist_scale.json.
    use pwdft_bench::{dist_scale_model_s, measure_dist_step};

    let strong = [(16usize, 128usize), (32, 128), (64, 128), (128, 128)];
    let weak = [(16usize, 16usize), (32, 32), (64, 64)];
    let mut strong_s = Vec::new();
    for (p, n_bands) in strong.into_iter().chain(weak) {
        let measured = measure_dist_step(p, n_bands);
        let model = dist_scale_model_s(p, n_bands);
        let ratio = measured / model;
        assert!(
            (0.75..1.25).contains(&ratio),
            "p={p}, bands={n_bands}: measured {measured:.6} vs model {model:.6} \
             (ratio {ratio:.3} outside the 25% gate)"
        );
        if n_bands == 128 {
            strong_s.push(measured);
        }
    }
    for (pair, ranks) in strong_s.windows(2).zip(strong.windows(2)) {
        assert!(
            pair[1] < pair[0],
            "strong series rises from {} to {} ranks: {:.6} -> {:.6}",
            ranks[0].0,
            ranks[1].0,
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn node_aware_allreduce_cheaper_on_simulator_too() {
    let mut net = test_net();
    net.shm_bandwidth = 1e11; // fast intra-node
    net.shm_latency = 1e-8;
    let p = 16;
    let n = 200_000usize;
    let flat = Cluster::new(p, 1, net.clone()).run(move |c| {
        let _ = c.allreduce(vec![1.0f64; n]);
        c.stats.time(Category::Allreduce)
    });
    let aware = Cluster::new(p, 4, net.clone()).run(move |c| {
        let _ = c.hier_allreduce(vec![1.0f64; n]);
        c.stats.time(Category::Allreduce)
    });
    let t_flat = flat.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
    let t_aware = aware.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
    assert!(
        t_aware < t_flat,
        "node-aware allreduce {t_aware:.6} should beat flat {t_flat:.6}"
    );
}
