//! `pwbench` — the repo benchmark (see `../BENCHMARK.json`, `README.md`).
//!
//! ```text
//! pwbench --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! pwbench [--workload W]... [--seed N] [--seconds S]      suite: every workload, untraced then traced
//! pwbench --aa [...]                                      untraced pass twice, differences beside bounds
//! pwbench --spread N [...]                                untraced pass at N seeds, quartile spreads beside bounds
//! pwbench --bless [...]                                   regenerate reference/<workload>.json
//! pwbench --benchmark-json                                print BENCHMARK.json from the registry
//! ```
//!
//! Every workload runs in a child process of its own, one after
//! another, with `PWDFT_BACKEND`, `PWDFT_TUNING_FILE`, `PWDFT_NUM_THREADS`
//! and `PWOBS` cleared so the compiled defaults are what is measured.

mod dist;
mod golden;
mod harness;
mod json;
mod ladder;
mod proc;
mod registry;
mod report;
mod single;
mod stats;

use harness::RunOpts;
use json::Json;
use registry::{Metric, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Environment that would change what is measured.
const CLEARED_ENV: [&str; 4] = [
    "PWDFT_BACKEND",
    "PWDFT_TUNING_FILE",
    "PWDFT_NUM_THREADS",
    "PWOBS",
];

/// What to do with the selected workloads when no single `--trace`
/// pass is asked for.
#[derive(Clone, Copy, Default, PartialEq)]
enum Mode {
    /// Untraced then traced pass of each.
    #[default]
    Suite,
    /// `--aa`
    SelfCheck,
    /// `--spread N`
    Spread(usize),
    /// `--bless`
    Bless,
}

#[derive(Default)]
struct Args {
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    mode: Mode,
    /// Internal: run the one workload in this process.
    child: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: pwbench [--workload <{}>]... [--seed N] [--seconds S] \
         [--trace 0|1 | --aa | --spread N | --bless] | --benchmark-json",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                registry::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
                args.workloads.push(name.clone());
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--aa" => args.mode = Mode::SelfCheck,
            "--spread" => {
                let n: usize = value()?.parse().map_err(|e| format!("--spread: {e}"))?;
                if n < 2 {
                    return Err("--spread needs at least 2 runs".into());
                }
                args.mode = Mode::Spread(n);
            }
            "--bless" => args.mode = Mode::Bless,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--benchmark-json") => {
            print!("{}", registry::benchmark_json().render_pretty());
            Ok(true)
        }
        // Child side of the single-thread probe (see `single::run`).
        Some("--probe-single-thread") if argv.len() == 3 => {
            single::probe_main(&argv[1], Path::new(&argv[2])).map(|()| true)
        }
        _ => parse_args(&argv).and_then(dispatch),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pwbench: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    // In registry order: a blessed dense_mixed is compared with dense_fp64's.
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workloads.is_empty() || args.workloads.iter().any(|w| w == name))
        .collect();
    // One workload, one pass, result on the last line: the driver's form
    // (spawns the child) and the child's own.
    if let Some(trace) = args.trace {
        let [name] = selected.as_slice() else {
            return Err("--trace runs one --workload".into());
        };
        let bless = args.mode == Mode::Bless;
        return if args.child {
            run_in_process(name, seed, seconds, trace, bless)
        } else {
            Ok(spawn_workload(name, seed, seconds, trace, bless)?.0)
        };
    }
    match args.mode {
        Mode::Suite => suite(&selected, seed, seconds),
        Mode::SelfCheck => self_check(&selected, seed, seconds),
        Mode::Spread(runs) => spread(&selected, seed, seconds, runs),
        Mode::Bless if seed != DEFAULT_SEED => Err(format!(
            "references are for the default seed {DEFAULT_SEED}"
        )),
        Mode::Bless => selected.iter().try_fold(true, |ok, name| {
            Ok(ok & spawn_workload(name, seed, seconds, false, true)?.0)
        }),
    }
}

/// `<target>/benchmark`, next to the directory this binary was built in.
fn out_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("benchmark")))
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

/// Runs one workload in this process and prints every metric of the
/// pass as `name value unit`, then the result JSON as the last line.
fn run_in_process(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
) -> Result<bool, String> {
    let opts = RunOpts {
        seed,
        seconds,
        trace,
        bless,
        out_dir: out_root().join(name),
    };
    println!(
        "workload {name} seed {seed} seconds {seconds} trace {}",
        u8::from(trace)
    );
    let mut report = match single::SPECS.iter().find(|s| s.name == name) {
        Some(spec) => single::run(spec, &opts),
        None => dist::run(&opts),
    };
    if !trace {
        // Last, so it covers the whole run.
        report.set("rss_peak_bytes", proc::rss_peak_bytes());
    }
    let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let values = report.values(table, trace)?;
    for (m, v) in table.iter().zip(&values) {
        println!("{} {} {}", m.name, json::fmt_num(*v), m.unit);
    }
    println!("attempted {} failed {}", report.attempted, report.failed);
    let result = report.result_json(table, &values);
    if trace {
        let path = opts.out_dir.join("layers.json");
        std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&path, result.render_pretty()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.render());
    Ok(report.correct())
}

/// Runs one workload as a child process with the measurement-relevant
/// environment cleared, forwards its output, and returns whether it
/// succeeded together with its result JSON.
fn spawn_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", name])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if bless {
        cmd.arg("--bless");
    }
    for var in CLEARED_ENV {
        cmd.env_remove(var);
    }
    if name == dist::NAME {
        // Its rank threads must be the only threads.
        cmd.env("PWDFT_NUM_THREADS", "1");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        println!("{line}");
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let result = json::parse(&last)
        .map_err(|e| format!("{name}: no result line ({e}); child exited with {status}"))?;
    Ok((status.success(), result))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every selected workload, untraced then traced, one child at a time.
fn suite(selected: &[&str], seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for name in selected {
        for trace in [false, true] {
            let (success, result) = spawn_workload(name, seed, seconds, trace, false)?;
            ok &= success;
            rows.push((*name, trace, result));
        }
    }
    println!("\n== summary (seed {seed}, {seconds} s per pass) ==");
    for (name, trace, result) in &rows {
        let correct = result
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let n = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "{name} trace {}: correct {correct}, {} of {} steps failed",
            u8::from(*trace),
            n("failed"),
            n("attempted")
        );
        let table: &[Metric] = if *trace { &PER_LAYER } else { &END_TO_END };
        for m in table {
            if let Some(v) = metric_value(result, m.name) {
                println!("  {} {} {}", m.name, json::fmt_num(v), m.unit);
            }
        }
    }
    let doc = Json::Arr(
        rows.into_iter()
            .map(|(name, trace, result)| {
                Json::obj([
                    ("workload", Json::Str(name.into())),
                    ("trace", Json::Bool(trace)),
                    ("result", result),
                ])
            })
            .collect(),
    );
    let path = out_root().join("results.json");
    std::fs::create_dir_all(out_root())
        .and_then(|()| std::fs::write(&path, doc.render_pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// A/A self-check: the untraced pass twice per workload, back to back,
/// and the relative difference of every end-to-end metric beside its
/// bound. A metric that cannot repeat within its own bound cannot gate
/// anything: it must be steadied or demoted to `per_layer`.
fn self_check(selected: &[&str], seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    let mut lines = Vec::new();
    for name in selected {
        let (ok_a, a) = spawn_workload(name, seed, seconds, false, false)?;
        let (ok_b, b) = spawn_workload(name, seed, seconds, false, false)?;
        ok &= ok_a && ok_b;
        for m in &END_TO_END {
            let (va, vb) = match (metric_value(&a, m.name), metric_value(&b, m.name)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => return Err(format!("{name}: {} missing from a result", m.name)),
            };
            let bound = m.bound.expect("end-to-end metrics have a bound");
            // Either order may be "the parent": take the worse direction.
            let diff = stats::worsening(va, vb, m.better).max(stats::worsening(vb, va, m.better));
            let within = diff <= bound;
            ok &= within;
            lines.push(format!(
                "{name} {} A {} A' {} diff {:.2}% bound {:.0}% {}",
                m.name,
                json::fmt_num(va),
                json::fmt_num(vb),
                100.0 * diff,
                100.0 * bound,
                if within {
                    "ok"
                } else {
                    "EXCEEDS BOUND: steady it or demote it to per_layer"
                }
            ));
        }
    }
    println!("\n== A/A self-check (seed {seed}, {seconds} s per pass) ==");
    for line in lines {
        println!("{line}");
    }
    Ok(ok)
}

/// The contract's steadiness measure: the untraced pass at `runs`
/// consecutive seeds per workload, and for every end-to-end metric the
/// distance between the first and third quartile as a share of the
/// median, beside the metric's bound. `setup_s` is reported but, as in
/// the contract, not held to its bound.
fn spread(selected: &[&str], seed: u64, seconds: f64, runs: usize) -> Result<bool, String> {
    let mut ok = true;
    let mut lines = Vec::new();
    for name in selected {
        let mut samples = vec![Vec::with_capacity(runs); END_TO_END.len()];
        for k in 0..runs as u64 {
            let (success, result) = spawn_workload(name, seed + k, seconds, false, false)?;
            ok &= success;
            for (column, m) in samples.iter_mut().zip(&END_TO_END) {
                column.push(
                    metric_value(&result, m.name)
                        .ok_or_else(|| format!("{name}: {} missing", m.name))?,
                );
            }
        }
        for (column, m) in samples.iter().zip(&END_TO_END) {
            let bound = m.bound.expect("end-to-end metrics have a bound");
            let (median, n) = stats::median(column).expect("at least two runs");
            let spread = stats::iqr_spread(column)
                .ok_or_else(|| format!("{name}: {} has a zero median", m.name))?;
            let within = spread <= bound || m.name == "setup_s";
            ok &= within;
            lines.push(format!(
                "{name} {} median {} over {n} seeds, spread {:.2}% bound {:.0}% {}",
                m.name,
                json::fmt_num(median),
                100.0 * spread,
                100.0 * bound,
                if !within {
                    "EXCEEDS BOUND"
                } else if spread <= bound / 3.0 {
                    "ok"
                } else {
                    "ok (above a third of the bound)"
                }
            ));
        }
    }
    println!("\n== spread over {runs} seeds from {seed} ({seconds} s per pass) ==");
    for line in lines {
        println!("{line}");
    }
    Ok(ok)
}
