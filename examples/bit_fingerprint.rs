//! Bit-identity fingerprint: every propagator, both precision policies,
//! a checkpoint restart and the distributed step under every exchange
//! strategy, printed as IEEE bits so two builds (two commits, two thread
//! counts, two instruction sets) can be compared with `cmp`.
//!
//! ```bash
//! cargo run --release --example bit_fingerprint > a.txt
//! PWDFT_NUM_THREADS=3 cargo run --release --example bit_fingerprint > b.txt
//! cmp a.txt b.txt
//! ```
//!
//! Serial part: PT-IM, PT-IM-ACE and RK4 under the fp64 and the mixed
//! policy, two steps each on a 6³ system, then one checkpoint save and
//! load with a step from the restored state. Distributed part: one
//! `dist_ptim_step` at 4 and 16 simulated ranks under every
//! `ExchangeStrategy`, 16 bands on the 8³ / Ecut 2 system (every rank
//! holds a band). Per run it prints the dipole, total energy and Tr σ as
//! `to_bits` hex, an FNV-1a hash of the Φ and σ bits, every `StepStats`
//! count, and per rank the virtual clock and every deterministic mpisim
//! count. `pool_peak_bytes` is left out: the pair pipeline holds one
//! grid per worker, so it depends on the thread count by design.
//!
//! The example names only long-standing public API, so the same file
//! builds on earlier commits for a before/after comparison.

use pwdft_repro::mpisim::{Category, Cluster, NetworkModel, RankReport};
use pwdft_repro::ptim::distributed::{
    dist_ptim_step, scatter_state, BandDistribution, DistConfig, ExchangeStrategy,
};
use pwdft_repro::ptim::resilience::{Checkpoint, Propagator};
use pwdft_repro::ptim::{
    HybridParams, LaserPulse, PtimAceConfig, PtimConfig, Rk4Config, StepStats, TdEngine, TdState,
};
use pwdft_repro::pwdft::{Cell, DftSystem, FockOptions, Wavefunction};
use pwdft_repro::pwnum::cmat::CMat;
use pwdft_repro::pwnum::precision::PrecisionPolicy;

/// FNV-1a over the little-endian bits of every float of Φ and σ.
fn state_hash(st: &TdState) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let floats = st.phi.data.iter().chain(st.sigma.as_slice()).flat_map(|z| [z.re, z.im]);
    for v in floats {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The thread-count-invariant fields of a step's statistics.
fn stats_line(s: &StepStats) -> String {
    format!(
        "scf={} outer={} fock_applies={} converged={} residual={:016x} skipped={:016x} \
         solves64={} solves32={} drift={:016x} promotions={} halvings={} restores={}",
        s.scf_iters,
        s.outer_iters,
        s.fock_applies,
        s.converged,
        s.residual.to_bits(),
        s.fock_skipped_weight.to_bits(),
        s.fock_solves_fp64,
        s.fock_solves_fp32,
        s.orthonormality_drift.to_bits(),
        s.precision_promotions,
        s.recovery_dt_halvings,
        s.recovery_restores,
    )
}

/// Dipole, total energy, Tr σ and the state hash of `st`.
fn observables(eng: &TdEngine, st: &TdState) -> String {
    let ev = eng.eval(&st.phi, &st.sigma, st.time);
    format!(
        "dipole={:016x} energy={:016x} trace={:016x} hash={:016x}",
        eng.dipole_x(&ev.rho).to_bits(),
        eng.total_energy(st).total().to_bits(),
        st.sigma.trace().re.to_bits(),
        state_hash(st),
    )
}

/// Every deterministic count of one rank's report, with its clock.
fn rank_line(r: &RankReport) -> String {
    let s = &r.stats;
    let cats: Vec<String> = Category::ALL
        .iter()
        .map(|&c| format!("{}={}/{:016x}", c.key(), s.count(c), s.time(c).to_bits()))
        .collect();
    format!(
        "rank {} virt={:016x} {} bytes={} intra={}/{} inter={}/{} shm_staged={} private={} shm={}",
        r.rank,
        r.virtual_time.to_bits(),
        cats.join(" "),
        s.bytes_sent,
        s.intra_bytes,
        s.intra_msgs,
        s.inter_bytes,
        s.inter_msgs,
        s.shm_staged_bytes,
        s.private_bytes,
        s.shm_bytes,
    )
}

fn serial() {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
    let mut phi = Wavefunction::random(&sys.grid, 4, 23);
    phi.orthonormalize_lowdin();
    let start = TdState { phi, sigma: CMat::from_real_diag(&[1.0, 0.8, 0.4, 0.1]), time: 0.0 };
    let laser = LaserPulse { e0: 0.02, omega: 0.15, t_center: 0.6, t_width: 0.5 };
    let props = [
        Propagator::Ptim(PtimConfig { dt: 0.2, max_scf: 12, tol_rho: 1e-9, ..Default::default() }),
        Propagator::PtimAce(PtimAceConfig { dt: 0.2, tol_rho: 1e-9, ..Default::default() }),
        Propagator::Rk4(Rk4Config { dt: 0.02 }),
    ];
    for (label, policy) in [("fp64", PrecisionPolicy::fp64()), ("mixed", PrecisionPolicy::mixed())]
    {
        let fock = FockOptions::default().with_precision(policy);
        let hyb = HybridParams { alpha: 0.25, omega: 0.2, fock };
        let eng = TdEngine::new(&sys, laser.clone(), hyb);
        for prop in &props {
            let mut st = start.clone();
            for step in 1..=2 {
                let (next, stats) = prop.step(&eng, &st);
                st = next;
                println!("{} {label} step {step}: {}", prop.name(), observables(&eng, &st));
                println!("  {}", stats_line(&stats));
            }
        }
    }

    // One checkpoint restart: save after a step, load, step again.
    let eng = TdEngine::new(
        &sys,
        laser.clone(),
        HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() },
    );
    let prop = props[0];
    let dir = std::env::temp_dir().join(format!("bit_fingerprint_{}", std::process::id()));
    let (st1, _) = prop.step(&eng, &start);
    let path = Checkpoint::save(&dir, 1, &st1, &prop, &laser).expect("checkpoint write");
    let ck = Checkpoint::load(&path, &start).expect("checkpoint read");
    let (st2, stats) = prop.step(&eng, &ck.state);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    println!(
        "restart: loaded {} then {}",
        state_hash(&ck.state) == state_hash(&st1),
        observables(&eng, &st2)
    );
    println!("  {}", stats_line(&stats));
}

fn distributed() {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let n_bands = 16;
    let occ: Vec<f64> = (0..n_bands).map(|i| 1.0 / (1.0 + 0.2 * i as f64)).collect();
    let full = TdState {
        phi: Wavefunction::random(&sys.grid, n_bands, 5),
        sigma: CMat::from_real_diag(&occ),
        time: 0.0,
    };
    let eng = TdEngine::new(&sys, LaserPulse::off(), HybridParams::default());
    for ranks in [4, 16] {
        for strategy in [
            ExchangeStrategy::Bcast,
            ExchangeStrategy::Ring,
            ExchangeStrategy::AsyncRing,
            ExchangeStrategy::RingOverlap,
        ] {
            let cfg = DistConfig {
                strategy,
                use_shm: true,
                hybrid: HybridParams::default(),
                solve_cost_s: 2e-5,
            };
            let (sys, full, laser) = (&sys, &full, LaserPulse::off());
            let out = Cluster::new(ranks, 4, NetworkModel::fugaku(ranks.div_ceil(4))).run(|c| {
                let dist = BandDistribution::new(n_bands, c.size());
                let local = scatter_state(c, full, &dist);
                dist_ptim_step(c, sys, &laser, &cfg, &dist, &local, 0.1, 3, 0.0)
            });
            let mut phi = full.phi.clone();
            phi.data =
                out.iter().flat_map(|((st, _), _)| st.phi_local.data.iter().copied()).collect();
            let rank0 = &out[0].0 .0;
            let st = TdState { phi, sigma: rank0.sigma.clone(), time: rank0.time };
            println!("dist {ranks} {strategy:?}: {}", observables(&eng, &st));
            for ((_, stats), report) in &out {
                println!("  rank {}: {}", report.rank, stats_line(stats));
                println!("  {}", rank_line(report));
            }
        }
    }
}

fn main() {
    serial();
    distributed();
}
