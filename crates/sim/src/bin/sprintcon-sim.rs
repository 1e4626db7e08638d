//! `sprintcon-sim` — command-line driver for the rack simulation.
//!
//! ```text
//! sprintcon-sim [--policy sprintcon|sgct|sgct-v1|sgct-v2]
//!               [--minutes N] [--deadline-min N] [--seed N]
//!               [--demand-csv PATH]   # real request-rate trace (t_s,value or value rows)
//!               [--out PATH]          # per-period CSV recording
//!               [--trace PATH]        # JSONL telemetry trace (spans + events)
//!               [--slo-delay S]       # QoS delay budget (default 0.25 s)
//!               [--quiet]
//! ```
//!
//! Runs the §VI-A scenario under the chosen policy and prints the run
//! summary, the QoS report, the control-stack telemetry, and the event
//! log.

use powersim::units::Seconds;
use simkit::{qos_report, summary_table, PolicyKind, Recorder, RunSummary, Scenario};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use telemetry::{Collector, JsonlSink, NullSink, Sink};

struct Args {
    policy: PolicyKind,
    minutes: f64,
    deadline_min: f64,
    seed: u64,
    demand_csv: Option<PathBuf>,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    slo_delay: f64,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sprintcon-sim [--policy sprintcon|sgct|sgct-v1|sgct-v2] [--minutes N]\n\
         \x20                    [--deadline-min N] [--seed N] [--demand-csv PATH]\n\
         \x20                    [--out PATH] [--trace PATH] [--slo-delay S] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        policy: PolicyKind::SprintCon,
        minutes: 15.0,
        deadline_min: 12.0,
        seed: 2019,
        demand_csv: None,
        out: None,
        trace: None,
        slo_delay: 0.25,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--policy" => {
                args.policy = match val().to_lowercase().as_str() {
                    "sprintcon" => PolicyKind::SprintCon,
                    "sgct" => PolicyKind::Sgct,
                    "sgct-v1" | "v1" => PolicyKind::SgctV1,
                    "sgct-v2" | "v2" => PolicyKind::SgctV2,
                    other => {
                        eprintln!("unknown policy {other:?}");
                        usage()
                    }
                }
            }
            "--minutes" => args.minutes = val().parse().unwrap_or_else(|_| usage()),
            "--deadline-min" => args.deadline_min = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--demand-csv" => args.demand_csv = Some(PathBuf::from(val())),
            "--out" => args.out = Some(PathBuf::from(val())),
            "--trace" => args.trace = Some(PathBuf::from(val())),
            "--slo-delay" => args.slo_delay = val().parse().unwrap_or_else(|_| usage()),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    // NaN compares false both ways, so test for the valid range.
    let positive_finite = |v: f64| v > 0.0 && v.is_finite();
    if ![args.minutes, args.deadline_min, args.slo_delay]
        .into_iter()
        .all(positive_finite)
    {
        usage()
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut scenario = Scenario::paper_default(args.seed);
    scenario.duration = Seconds::minutes(args.minutes);
    scenario = scenario.with_deadline(Seconds::minutes(args.deadline_min));

    // Surface bad flag combinations as an error message, not a panic.
    let mut sim = match scenario.try_build() {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("invalid scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.demand_csv {
        match workloads::trace_io::read_trace_file(path, Seconds(1.0)) {
            Ok(trace) => {
                if !args.quiet {
                    println!(
                        "loaded demand trace: {} samples at {} ({} total)",
                        trace.len(),
                        trace.dt,
                        trace.duration()
                    );
                }
                *sim.tier.demand_mut() = trace;
            }
            Err(e) => {
                eprintln!("failed to read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    // One collector scoped over the run: the JSONL sink streams spans
    // and events to --trace; without it records are dropped but the
    // metric snapshot below is still collected.
    let sink: Box<dyn Sink> = match &args.trace {
        Some(path) => match JsonlSink::create(path) {
            Ok(s) => Box::new(s),
            Err(e) => {
                eprintln!("failed to create {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(NullSink),
    };
    let collector = Arc::new(Collector::new(sink));
    let rec: Recorder = telemetry::with_collector(Arc::clone(&collector), || {
        let mut policy = args
            .policy
            .build_for(&scenario.plant(), &Default::default())
            .expect("the paper knobs drive the paper plant");
        sim.run(policy.as_mut(), scenario.duration)
    });
    collector.flush();
    let metrics = collector.snapshot();
    let summary = RunSummary::from_run(args.policy.name(), &sim, &rec);

    if let Some(path) = &args.out {
        if let Err(e) = rec.write_csv(path) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            println!("recording written to {}", path.display());
        }
    }

    println!("{}", summary_table(std::slice::from_ref(&summary)));
    let qos = match qos_report(&rec, &[args.slo_delay]) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("failed to report QoS: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "interactive QoS: mean delay {:.3}s  p95 {:.3}s  p99 {:.3}s  SLO({:.2}s) violations {:.1}% (longest {:.0}s)",
        qos.mean_delay_s,
        qos.p95_delay_s,
        qos.p99_delay_s,
        args.slo_delay,
        qos.violation_fraction * 100.0,
        qos.longest_violation_s,
    );
    if !args.quiet {
        println!("\ncontrol-stack telemetry:");
        for (name, v) in &metrics.counters {
            println!("  counter   {name} = {v}");
        }
        for (name, v) in &metrics.gauges {
            println!("  gauge     {name} = {v:.4}");
        }
        for (name, h) in &metrics.histograms {
            let mean = if h.count > 0 {
                h.sum / h.count as f64
            } else {
                0.0
            };
            println!("  histogram {name}: n={} mean={mean:.2}", h.count);
        }
        if let Some(path) = &args.trace {
            println!("jsonl trace written to {}", path.display());
        }
        println!("\nevents:");
        for (t, e) in rec.events() {
            println!("  {:>8.1}s  {:?}", t.0, e);
        }
    }

    // Exit status reflects power safety — usable in CI.
    if summary.trips > 0 || summary.shutdown {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
