//! The SprintCon simulator's benchmark. Three entry points:
//!
//! * `benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!   [--quick]` runs one workload and prints every metric as
//!   `workload metric value unit`, each failed check as
//!   `FAIL workload run check`, and last one JSON result line.
//! * `benchmark run [--seed N] [--seconds S] [--quick] [--out FILE]` runs
//!   all four workloads, each in its own child process (so its peak RSS is
//!   its own), and appends the results to `FILE`.
//! * `benchmark compare BASE.json NEW.json [--spec BENCHMARK.json]` judges
//!   every end-to-end metric from two results files of alternating runs.
//!
//! See README.md for the metrics, the workloads and how to compare.

#![forbid(unsafe_code)]

mod compare;
mod host;
mod json;
mod spec;
mod stats;
mod traced;
mod workload;

use compare::{Results, RunRecord, WorkloadResult};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use workload::{Opts, Workload};

const DEFAULT_SEED: u64 = 2019;
const DEFAULT_SECONDS: f64 = 20.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => run_one(&args),
    };
    std::process::exit(code);
}

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
  benchmark run [--seed N] [--seconds S] [--quick] [--out FILE]
  benchmark compare BASE.json NEW.json [--spec BENCHMARK.json]
workloads: rack_sprintcon campaign_all dc_floor openloop_grid";

fn usage(msg: &str) -> i32 {
    eprintln!("benchmark: {msg}");
    eprintln!("{USAGE}");
    2
}

/// Flags shared by the single-workload and `run` forms.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_flags(args: &[String], allow_workload: bool) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" if allow_workload => {
                let v = value()?;
                f.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                f.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: bad integer {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                f.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: bad duration {v:?}"))?;
            }
            "--trace" if allow_workload => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--out" if !allow_workload => f.out = Some(value()?.clone()),
            "--quick" => f.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(f)
}

/// One workload: measure, print the metric lines and the result line.
fn run_one(args: &[String]) -> i32 {
    let f = match parse_flags(args, true) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    let Some(w) = f.workload else {
        return usage("--workload is required");
    };
    let opts = Opts {
        workload: w,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        quick: f.quick,
    };
    let out = match workload::run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", w.name());
            return 1;
        }
    };
    for (name, v) in &out.metrics {
        let unit = spec::unit_of(name).expect("every reported metric is catalogued");
        println!("{} {name} {v} {unit}", w.name());
    }
    for note in &out.notes {
        println!("# {} {note}", w.name());
    }
    for fail in &out.failures {
        println!("FAIL {} {fail}", w.name());
    }
    // The result line carries the end-to-end metrics on an untraced run
    // and the per-layer metrics on a traced one.
    let listed = if f.trace {
        &spec::PER_LAYER[..]
    } else {
        &spec::END_TO_END[..]
    };
    let metrics: BTreeMap<String, f64> = listed
        .iter()
        .map(|m| {
            let v = out.metrics.iter().find(|(n, _)| *n == m.name).map(|p| p.1);
            (m.name.to_string(), v.unwrap_or(0.0))
        })
        .collect();
    let complete = listed.iter().all(|m| {
        out.metrics
            .iter()
            .any(|(n, v)| *n == m.name && v.is_finite())
    });
    let result = WorkloadResult {
        correct: out.failures.is_empty() && out.failed == 0 && complete && out.attempted > 0,
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
    };
    println!("{}", result.to_json().render());
    0
}

/// All four workloads, one child process each.
fn run_all(args: &[String]) -> i32 {
    let f = match parse_flags(args, false) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: locating this executable: {e}");
            return 1;
        }
    };
    let started = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    let mut record = RunRecord {
        started_unix_s: started,
        seed: f.seed,
        seconds: f.seconds,
        quick: f.quick,
        workloads: BTreeMap::new(),
    };
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--trace", "1"])
            .args(["--seed", &f.seed.to_string()])
            .args(["--seconds", &f.seconds.to_string()])
            .stdout(Stdio::piped());
        if f.quick {
            cmd.arg("--quick");
        }
        let result = match child_result(w, &mut cmd) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("benchmark: {}: {e}", w.name());
                // Nothing this workload ran can be trusted.
                WorkloadResult {
                    attempted: 1,
                    failed: 1,
                    ..WorkloadResult::default()
                }
            }
        };
        let failed_frac = result.failed as f64 / result.attempted.max(1) as f64;
        println!("{} failed_frac {failed_frac} ratio", w.name());
        all_correct &= result.correct;
        record.workloads.insert(w.name().to_string(), result);
    }
    if let Some(path) = &f.out {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get()) as u64;
        if let Err(e) = Results::append(path, nproc, record) {
            eprintln!("benchmark: {e}");
            return 1;
        }
    }
    i32::from(!all_correct)
}

/// Run one workload child, echo its output, and collect every metric it
/// printed (end-to-end and per-layer) plus its result line's verdict.
fn child_result(w: Workload, cmd: &mut Command) -> Result<WorkloadResult, String> {
    let mut child = cmd.spawn().map_err(|e| format!("spawning: {e}"))?;
    let stdout = child.stdout.take().ok_or("child has no stdout")?;
    let mut metrics = BTreeMap::new();
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading child output: {e}"))?;
        println!("{line}");
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if let [name, metric, value, _unit] = tokens[..] {
            if name == w.name() {
                if let Ok(v) = value.parse::<f64>() {
                    metrics.insert(metric.to_string(), v);
                }
            }
        }
        last = line;
    }
    let status = child.wait().map_err(|e| format!("waiting: {e}"))?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    let line = json::parse(&last).map_err(|e| format!("result line: {e}"))?;
    let mut result = WorkloadResult::from_json(&line)?;
    result.metrics = metrics;
    Ok(result)
}
