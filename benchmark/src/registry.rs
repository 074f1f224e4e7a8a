//! The frozen names: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repo root is rendered from these tables
//! (`pwbench --benchmark-json`) and a unit test keeps the two equal.

use crate::json::Json;
use crate::stats::Better;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;
/// Seed of the committed golden references.
pub const DEFAULT_SEED: u64 = 12345;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dense_fp64",
        why: "PT-IM, dense sigma-diagonalised exchange (paper's Diag rung), fp64, Si8 32 bands 12^3: every SCF iteration applies the full Fock operator, so pair solves + FFT convolve carry the run",
    },
    Workload {
        name: "dense_mixed",
        why: "same trajectory with PrecisionPolicy::mixed(): fp32 demote -> fp32 FFT -> compensated fp64 scatter; a gain for the fp64 pair solve that costs the fp32 one (or the reverse) shows here",
    },
    Workload {
        name: "ace_fp64",
        why: "PT-IM-ACE (paper's final algorithm), Si8 32 bands 16^3: Fock runs 4-5 times per step against ~20 inner iterations, so subspace GEMM/band ops dominate and the working set is the largest",
    },
    Workload {
        name: "dist_ring16",
        why: "real dist_ptim_step on 16 simulated ranks (4 per node, Fugaku net), 64 bands 16^3, RingOverlap: the only workload where mpisim and ptim::distributed/grid2d do the work",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median; only
    /// end-to-end metrics carry one.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system pays, measured with tracing off. Every
/// one applies to every workload and is never zero.
pub const END_TO_END: [Metric; 5] = [
    e2e("step_wall_s", "s", 0.25),
    e2e("wall_s_per_fs", "s/fs", 0.25),
    e2e("cpu_s_per_step", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("rss_peak_bytes", "bytes", 0.15),
];

/// Single-layer numbers from the `--trace 1` pass. A metric that does
/// not apply to a workload reads 0 there (README lists which).
pub const PER_LAYER: [Metric; 67] = [
    // Exact or virtual-clock results a user sees; they repeat bit for
    // bit (or are always 0), so the contract keeps them out of END_TO_END.
    lo("failed_frac", "ratio"),
    lo("virt_step_s", "s"),
    hi("strong_eff_4to16", "ratio"),
    // pwnum
    lo("pwnum.overlap_s", "s"),
    lo("pwnum.rotate_s", "s"),
    hi("pwnum.gemm_gflops", "GFLOP/s"),
    hi("pwnum.cpu_util", "ratio"),
    hi("pwnum.thread_speedup", "ratio"),
    lo("pwnum.pool_peak_bytes", "bytes"),
    // pwfft
    lo("pwfft.fft_roundtrip_s", "s"),
    hi("pwfft.fft_gflops", "GFLOP/s"),
    lo("pwfft.convolve_s", "s"),
    // pwdft
    lo("pwdft.fock_apply_asym_s", "s"),
    lo("pwdft.fock_apply_sym_s", "s"),
    lo("pwdft.fock_solves_asym", "count"),
    lo("pwdft.fock_solves_sym", "count"),
    lo("pwdft.fock_solve_us", "us"),
    lo("pwdft.ace_build_s", "s"),
    lo("pwdft.ace_apply_s", "s"),
    lo("pwdft.ham_apply_s", "s"),
    lo("pwdft.anderson_step_s", "s"),
    lo("pwdft.scf_lda_s", "s"),
    lo("pwdft.scf_lda_iters", "count"),
    lo("pwdft.scf_lda_residual", "rel"),
    lo("pwdft.scf_hybrid_s", "s"),
    // ptim
    lo("ptim.eval_s", "s"),
    lo("ptim.exchange_images_s", "s"),
    lo("ptim.scf_iters_per_step", "count"),
    lo("ptim.outer_iters_per_step", "count"),
    lo("ptim.fock_applies_per_step", "count"),
    lo("ptim.fock_solves_fp64_per_step", "count"),
    lo("ptim.fock_solves_fp32_per_step", "count"),
    lo("ptim.promotions", "count"),
    lo("ptim.unconverged_steps", "count"),
    lo("ptim.ladder_step_s", "s"),
    lo("ptim.ladder_residual_frac", "ratio"),
    lo("ptim.ne_drift_max", "e"),
    lo("ptim.ortho_err_max", "abs"),
    lo("ptim.sigma_herm_err_max", "abs"),
    lo("ptim.dipole_ref_dev", "au"),
    lo("ptim.energy_ref_dev", "Ha"),
    lo("ptim.ckpt_write_s", "s"),
    lo("ptim.ckpt_load_s", "s"),
    lo("ptim.ckpt_bytes", "bytes"),
    lo("ptim.dist_virt_step_s.bcast", "s"),
    lo("ptim.dist_virt_step_s.ring", "s"),
    lo("ptim.dist_virt_step_s.async_ring", "s"),
    lo("ptim.dist_virt_step_s.p4", "s"),
    // mpisim
    lo("mpisim.msgs_per_step", "count"),
    lo("mpisim.bytes_per_step", "bytes"),
    lo("mpisim.inter_bytes_per_step", "bytes"),
    lo("mpisim.intra_bytes_per_step", "bytes"),
    lo("mpisim.comm_virt_s", "s"),
    hi("mpisim.overlap_hidden_frac", "ratio"),
    lo("mpisim.shm_staged_bytes", "bytes"),
    lo("mpisim.sched_wakeups_per_step", "count"),
    // perfmodel: should stay in [0.75, 1.33]; "lower" only because the
    // schema wants a direction.
    lo("perfmodel.dist_model_ratio", "ratio"),
    // pwobs (traced pass)
    lo("pwobs.trace_overhead_frac", "ratio"),
    hi("pwobs.tracked_frac", "ratio"),
    lo("pwobs.share_gemm", "ratio"),
    lo("pwobs.share_fft_grid", "ratio"),
    lo("pwobs.share_exchange", "ratio"),
    lo("pwobs.share_step_glue", "ratio"),
    lo("pwobs.share_comm", "ratio"),
    // Sample counts behind the end-to-end medians.
    hi("bench.timed_steps", "count"),
    hi("bench.repetitions", "count"),
    hi("bench.threads", "count"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The exact document the builder's contract asks for.
pub fn benchmark_json() -> Json {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::Str(m.name.into())),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(m.better.as_str().into())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                ["bash", "benchmark/run.sh"]
                    .map(|s| Json::Str(s.into()))
                    .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_are_unique_well_formed_and_within_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name, 64), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name, 64), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
    }

    #[test]
    fn end_to_end_metrics_carry_contract_bounds() {
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics have a bound");
            assert!((0.0..=0.25).contains(&b), "{}: {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s gets the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_matches_the_registry() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let committed = crate::json::parse(text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `pwbench --benchmark-json`"
        );
        let keys: Vec<&str> = committed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
