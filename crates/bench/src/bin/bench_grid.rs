//! Grid-responsive scenario benchmark: gates the curtailment ×
//! flash-crowd separation and emits it as `BENCH_grid.json`.
//!
//! During a curtailment overlapping an open-loop flash crowd,
//! SprintCon's deadline-aware triage and hot-queue guard must still beat
//! frequency-throttling SGCT on request p99.
//!
//! The grid layer's other checks live in the test suite, once each:
//! - an empty `GridPlan` is bit-transparent:
//!   `tests/grid.rs::explicit_empty_grid_plan_reproduces_every_golden_digest`;
//! - active grid + fault campaigns are bit-identical across workers:
//!   `tests/grid.rs::active_grid_campaigns_are_bit_identical_across_workers`;
//! - a binding feeder curtailment shrinks the market budget and shards
//!   bit-identically: `dc_engine::tests::feeder_curtailment_shrinks_the_market_budget`;
//! - SprintCon complies with a curtailment before its deadline, and its
//!   run digest is pinned:
//!   `tests/grid.rs::sprintcon_complies_with_curtailment_before_the_deadline`.
//!
//! Flags: `--secs N` simulated seconds for the separation run (default
//! 240), `--seed N` (default 2019), `--out PATH` (default
//! `BENCH_grid.json`), `--check` CI gate mode (exit 1 on any failure).

use powersim::units::{Seconds, Watts};
use simkit::{qos_report, run_policy, GridPlan, PolicyKind, Scenario, WorkloadSource};
use std::time::Instant;

struct Args {
    secs: f64,
    seed: u64,
    out: String,
    check_only: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        secs: 240.0,
        seed: 2019,
        out: "BENCH_grid.json".to_string(),
        check_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => args.check_only = true,
            "--secs" => {
                let v = it.next().expect("--secs needs a value");
                args.secs = v.parse().expect("--secs expects seconds");
            }
            "--seed" => {
                let v = it.next().expect("--seed needs a value");
                args.seed = v.parse().expect("--seed expects an integer");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_grid [--secs N] [--seed N] [--out PATH] [--check]");
                std::process::exit(2);
            }
        }
    }
    assert!(args.secs >= 200.0, "--secs must cover the event schedule");
    args
}

/// A flash crowd overlapping the curtailment window, offered hot enough
/// (ρ > 1 at demand peaks) that queues form whenever interactive cores
/// are throttled — the regime the hot-queue guard exists for.
fn curtailed_flash_crowd(seed: u64, secs: f64) -> Scenario {
    let mut sc = Scenario::paper_default(seed);
    let mut src = WorkloadSource::open_loop_flash_crowd();
    if let WorkloadSource::OpenLoop { arrivals, .. } = &mut src {
        arrivals.peak_rps_per_core = 60.0;
    }
    sc.workload = src;
    sc.duration = Seconds(secs);
    sc.grid = GridPlan::curtailment(Seconds(60.0), Seconds(120.0), Watts(3000.0), Seconds(30.0));
    sc
}

struct Separation {
    sprintcon_p99: f64,
    sgct_p99: f64,
}

/// The hot-queue guard keeps SprintCon's request tail ahead of SGCT's
/// even while both racks ride through the curtailment.
fn separation_gate(seed: u64, secs: f64) -> Result<Separation, String> {
    let a = run_policy(&curtailed_flash_crowd(seed, secs), PolicyKind::SprintCon);
    let b = run_policy(&curtailed_flash_crowd(seed, secs), PolicyKind::Sgct);
    let qa = qos_report(&a.recorder, &[0.1, 0.25, 1.0]).map_err(|e| e.to_string())?;
    let qb = qos_report(&b.recorder, &[0.1, 0.25, 1.0]).map_err(|e| e.to_string())?;
    let pa = qa.request_p99_s.ok_or("SprintCon run has no tail")?;
    let pb = qb.request_p99_s.ok_or("SGCT run has no tail")?;
    if pa >= pb {
        return Err(format!(
            "no p99 separation under curtailment: SprintCon {pa:.4}s vs SGCT {pb:.4}s"
        ));
    }
    Ok(Separation {
        sprintcon_p99: pa,
        sgct_p99: pb,
    })
}

fn main() {
    let args = parse_args();
    println!("bench_grid: seed {} x {}s", args.seed, args.secs);
    let t0 = Instant::now();

    println!("separation gate (curtailment x flash crowd, SprintCon vs SGCT)...");
    let separation = match separation_gate(args.seed, args.secs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("SEPARATION VIOLATION: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "  ok: p99 {:.4}s (SprintCon) < {:.4}s (SGCT)",
        separation.sprintcon_p99, separation.sgct_p99
    );

    let wall = t0.elapsed().as_secs_f64();
    let json = format!(
        "{{\n  \"seed\": {},\n  \"secs\": {},\n  \"wall_secs\": {:.3},\n  \
         \"separation\": {{\n    \
         \"sprintcon_p99_s\": {:.6},\n    \"sgct_p99_s\": {:.6}\n  }}\n}}\n",
        args.seed, args.secs, wall, separation.sprintcon_p99, separation.sgct_p99,
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("json: {}", args.out);
    if args.check_only {
        println!("bench_grid --check: separation gate passed");
    }
}
