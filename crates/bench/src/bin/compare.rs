//! CI gate for the benchmark JSON artifacts: reads one or more
//! `BENCH_*.json` files (paths as arguments; with no arguments, the
//! full default set) and applies a per-file, per-metric tolerance table
//! — speedup floors and accuracy ceilings — exiting nonzero on any
//! violation. This is the generalization of the original single-file
//! pair-symmetry gate: every bench job funnels through one binary with
//! its thresholds recorded in one place.
//!
//! Current gates:
//!
//! * `BENCH_fock_pairsym.json` — the Hermitian pair-symmetric scheduler
//!   must not be slower than the baseline `apply_diag` at N = 128.
//! * `BENCH_mixed_precision.json` — accuracy only: the 20-step dipole
//!   trace of the mixed run within 1e-6 of the fp64 run and the
//!   apply-level relative error at fp32 scale (≤ 1e-5). The speed
//!   columns are reported, not gated: the repo benchmark's `dense_fp64`
//!   vs `dense_mixed` workloads measure the precision effect end to end.
//! * `BENCH_dist_overlap.json` — the ring-pipelined overlapped exchange
//!   must beat the blocking ring by ≥ 1.25× in simulated step time at
//!   16 ranks, hiding ≥ 50% of the exchange wire time (these are
//!   virtual-clock measurements, so the gate is deterministic).
//! * `BENCH_dist_scale.json` — the two-level closed form must track the
//!   real `dist_ptim_step` virtual-clock time within 25% at 16/32/64/128
//!   ranks in both the strong (128 bands) and weak (one band per rank)
//!   series. Rows whose `source` is `model` (from `--model-only` runs)
//!   are rejected: the gate demands simulator-measured rows.
//! * `BENCH_resilience.json` — checkpointing every 10 steps must cost
//!   ≤ 5% of step time (one atomic write amortized over the interval),
//!   and a run restored from a checkpoint must land bitwise on the
//!   uninterrupted run's final state (`restart_max_diff` ≤ 0,
//!   deterministic dynamics).
//! * `BENCH_observability.json` — the `pwobs` recorder must cost ≤ 2%
//!   of hybrid PT-IM step time when enabled (fastest-of-interleaved
//!   samples) and ≤ 50 ns per span when disabled (the always-paid no-op
//!   fast path of the instrumented hot loops).

use std::process::ExitCode;

/// One bound on one metric of one selected benchmark row.
struct MetricGate {
    /// Human-readable description printed with the verdict.
    what: &'static str,
    /// Row selector: the row's `select_key` field must equal `select_val`.
    select_key: &'static str,
    select_val: f64,
    /// Rows whose raw text contains this substring are skipped.
    exclude: Option<&'static str>,
    /// When set, only rows whose raw text contains this substring match
    /// (disambiguates rows that share the numeric selector, e.g. the
    /// strong vs weak series of the dist-scale artifact).
    require: Option<&'static str>,
    /// The metric field to check.
    metric: &'static str,
    /// Inclusive lower bound (speedup floors).
    min: Option<f64>,
    /// Inclusive upper bound (accuracy ceilings).
    max: Option<f64>,
}

/// The tolerance table: which gates apply to which artifact.
fn gates_for(basename: &str) -> Option<Vec<MetricGate>> {
    match basename {
        "BENCH_fock_pairsym.json" => Some(vec![MetricGate {
            what: "pair-symmetric speedup over baseline at N=128",
            select_key: "bands",
            select_val: 128.0,
            exclude: Some("screened"),
            require: None,
            metric: "speedup",
            min: Some(1.0),
            max: None,
        }]),
        "BENCH_mixed_precision.json" => Some(vec![
            MetricGate {
                what: "mixed-precision apply relative error at N=64",
                select_key: "bands",
                select_val: 64.0,
                exclude: None,
                require: None,
                metric: "apply_rel_err",
                min: None,
                max: Some(1e-5),
            },
            MetricGate {
                what: "20-step dipole trace deviation (mixed vs fp64)",
                select_key: "steps",
                select_val: 20.0,
                exclude: None,
                require: None,
                metric: "dipole_err",
                min: None,
                max: Some(1e-6),
            },
        ]),
        "BENCH_dist_overlap.json" => Some(vec![
            MetricGate {
                what: "RingOverlap speedup over blocking ring at 16 ranks",
                select_key: "ranks",
                select_val: 16.0,
                exclude: None,
                require: None,
                metric: "speedup",
                min: Some(1.25),
                max: None,
            },
            MetricGate {
                what: "overlap efficiency (hidden/total wire time) at 16 ranks",
                select_key: "ranks",
                select_val: 16.0,
                exclude: None,
                require: None,
                metric: "overlap_efficiency",
                min: Some(0.5),
                max: None,
            },
        ]),
        "BENCH_dist_scale.json" => {
            // Model-vs-simulator agreement at paper scale: every row of
            // both series must sit inside the 25% band, and `--model-only`
            // rows (source == model, ratio identically 1) are rejected by
            // the `require`/`exclude` pair — a model row never matches, so
            // the gate fails with "no row found" instead of passing
            // vacuously.
            fn dist_scale_gate(what: &'static str, series: &'static str, ranks: f64) -> MetricGate {
                MetricGate {
                    what,
                    select_key: "ranks",
                    select_val: ranks,
                    exclude: Some("\"source\": \"model\""),
                    require: Some(series),
                    metric: "ratio",
                    min: Some(0.75),
                    max: Some(1.33),
                }
            }
            let (strong, weak) = ("\"series\": \"strong\"", "\"series\": \"weak\"");
            Some(vec![
                dist_scale_gate("strong-series step/model ratio at 16 ranks", strong, 16.0),
                dist_scale_gate("strong-series step/model ratio at 32 ranks", strong, 32.0),
                dist_scale_gate("strong-series step/model ratio at 64 ranks", strong, 64.0),
                dist_scale_gate("strong-series step/model ratio at 128 ranks", strong, 128.0),
                dist_scale_gate("weak-series step/model ratio at 16 ranks", weak, 16.0),
                dist_scale_gate("weak-series step/model ratio at 32 ranks", weak, 32.0),
                dist_scale_gate("weak-series step/model ratio at 64 ranks", weak, 64.0),
                dist_scale_gate("weak-series step/model ratio at 128 ranks", weak, 128.0),
            ])
        }
        "BENCH_resilience.json" => Some(vec![
            MetricGate {
                what: "checkpoint overhead fraction of step time at interval 10",
                select_key: "interval",
                select_val: 10.0,
                exclude: None,
                require: None,
                metric: "overhead_frac",
                min: None,
                max: Some(0.05),
            },
            MetricGate {
                what: "restored vs uninterrupted final state (bitwise)",
                select_key: "interval",
                select_val: 10.0,
                exclude: None,
                require: None,
                metric: "restart_max_diff",
                min: None,
                max: Some(0.0),
            },
        ]),
        "BENCH_observability.json" => Some(vec![
            MetricGate {
                what: "pwobs enabled overhead fraction of hybrid PT-IM step time",
                select_key: "mode",
                select_val: 1.0,
                exclude: None,
                require: None,
                metric: "enabled_overhead_frac",
                min: None,
                max: Some(0.02),
            },
            MetricGate {
                what: "pwobs disabled span cost (ns per open/drop)",
                select_key: "mode",
                select_val: 2.0,
                exclude: None,
                require: None,
                metric: "disabled_span_ns",
                min: None,
                max: Some(50.0),
            },
        ]),
        _ => None,
    }
}

/// Extracts the `f64` after `"key": ` in `obj` (flat JSON object text).
fn field_f64(obj: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let at = obj.find(&tag)? + tag.len();
    let rest = obj[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Applies one gate to a file's text; returns `Err` on violation or
/// when no matching row exists.
fn apply_gate(text: &str, gate: &MetricGate) -> Result<(), String> {
    for obj in text.split('{') {
        let Some(sel) = field_f64(obj, gate.select_key) else { continue };
        if sel != gate.select_val {
            continue;
        }
        if let Some(ex) = gate.exclude {
            if obj.contains(ex) {
                continue;
            }
        }
        if let Some(req) = gate.require {
            if !obj.contains(req) {
                continue;
            }
        }
        let Some(value) = field_f64(obj, gate.metric) else { continue };
        if let Some(min) = gate.min {
            // NaN must fail the floor check, so compare negated.
            if value.partial_cmp(&min) != Some(std::cmp::Ordering::Greater)
                && value.partial_cmp(&min) != Some(std::cmp::Ordering::Equal)
            {
                return Err(format!(
                    "{}: {} = {value:.4} below floor {min}",
                    gate.what, gate.metric
                ));
            }
        }
        if let Some(max) = gate.max {
            // NaN must fail the ceiling check, so compare negated.
            if value.partial_cmp(&max) != Some(std::cmp::Ordering::Less)
                && value.partial_cmp(&max) != Some(std::cmp::Ordering::Equal)
            {
                return Err(format!(
                    "{}: {} = {value:.3e} above ceiling {max:.0e}",
                    gate.what, gate.metric
                ));
            }
        }
        println!("  OK  {} ({} = {value:.4e})", gate.what, gate.metric);
        return Ok(());
    }
    Err(format!(
        "{}: no row with {} == {} found",
        gate.what, gate.select_key, gate.select_val
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths: Vec<String> = if args.is_empty() {
        // The benches run with the package dir as CWD, so the artifacts
        // live next to this crate's manifest regardless of where compare
        // itself is invoked from.
        let dir = env!("CARGO_MANIFEST_DIR");
        vec![
            format!("{dir}/BENCH_fock_pairsym.json"),
            format!("{dir}/BENCH_mixed_precision.json"),
            format!("{dir}/BENCH_dist_overlap.json"),
            format!("{dir}/BENCH_dist_scale.json"),
            format!("{dir}/BENCH_resilience.json"),
            format!("{dir}/BENCH_observability.json"),
        ]
    } else {
        args
    };

    let mut failed = false;
    for path in &paths {
        let basename = path.rsplit('/').next().unwrap_or(path);
        let Some(gates) = gates_for(basename) else {
            eprintln!("compare: FAIL — no gate table registered for {basename}");
            failed = true;
            continue;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("compare: FAIL — cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        println!("{path}:");
        for gate in &gates {
            if let Err(msg) = apply_gate(&text, gate) {
                eprintln!("compare: FAIL — {msg}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("compare: OK ({} file(s) gated)", paths.len());
        ExitCode::SUCCESS
    }
}
