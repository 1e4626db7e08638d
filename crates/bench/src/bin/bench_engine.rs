//! Execution-engine benchmark: measures campaign parallelism and the
//! MPC's cost per control period, and emits them as `BENCH_engine.json`.
//!
//! 1. **Campaign parallelism** — wall-clock of a 16-run campaign
//!    (4 seeds × 4 policies) sequentially vs under 1/2/4/8 worker
//!    threads. Speedup scales with the host's core count; on a 1-core
//!    host the JSON carries `"speedup_meaningful": false` and no
//!    speedup claims are printed (the numbers are pure scheduling noise
//!    there). That every parallel pass is bit-identical to the
//!    sequential one is a test (`tests/parallel.rs`), not a gate here.
//! 2. **MPC hot path** — mean ns per control period of the 64-channel
//!    paper-config MPC over a fixed feedback sweep. Whether each
//!    decision is optimal is a unit test
//!    (`mpc::tests::every_decision_meets_the_dense_eq8_kkt_conditions`),
//!    not a gate here.
//!
//! End-to-end and per-layer simulator speed, corrected for host speed,
//! is measured by the repository benchmark under `benchmark/`.
//!
//! Flags: `--secs N` scenario length (default 120), `--out PATH`
//! (default `BENCH_engine.json`).

use powersim::units::Seconds;
use simkit::{Campaign, ExecConfig, PolicyKind, Scenario};
use sprint_control::mpc::{MpcConfig, MpcController};
use std::time::Instant;

struct Args {
    secs: f64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        secs: 120.0,
        out: "BENCH_engine.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--secs" => {
                let v = it.next().expect("--secs needs a value");
                args.secs = v.parse().expect("--secs expects seconds");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_engine [--secs N] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    assert!(args.secs > 0.0, "--secs must be positive");
    args
}

/// The 16-run campaign: 4 seeds × every §VII policy.
fn campaign(secs: f64) -> Campaign {
    let scenarios = (0..4).map(move |i| {
        let mut sc = Scenario::paper_default(2019 + i);
        sc.duration = Seconds(secs);
        sc
    });
    let mut c = Campaign::new();
    c.add_grid(scenarios, &PolicyKind::ALL);
    c
}

/// Deterministic feedback sequence of the MPC timing.
fn feedback(i: usize) -> f64 {
    1500.0 + 80.0 * ((i as f64) * 0.37).sin()
}

/// Mean ns per control period of the paper-config MPC at `channels`
/// channels, over `periods` periods after a 10-period warm-up.
fn bench_mpc(channels: usize, periods: usize) -> f64 {
    let f_now = vec![0.6; channels];
    let target = 1700.0;
    let mut mpc = MpcController::new(
        MpcConfig::paper_default(),
        1.0,
        vec![15.0; channels],
        vec![0.2; channels],
        vec![1.0; channels],
    );
    let mut sink = 0.0;
    // Page in and branch-train before timing.
    for i in 0..10 {
        sink += mpc.compute(feedback(i), target, &f_now).freqs[0];
    }
    let t = Instant::now();
    for i in 0..periods {
        sink += mpc.compute(feedback(i), target, &f_now).freqs[0];
    }
    let ns = t.elapsed().as_nanos() as f64 / periods as f64;
    std::hint::black_box(sink);
    ns
}

fn main() {
    let args = parse_args();
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // Wall-clock speedups are only a claim worth making with real
    // parallel hardware underneath; on a 1-core host the parallel passes
    // still run, but the ratios are scheduling noise, so we neither
    // print nor emphasize them.
    let speedup_meaningful = cpus > 1;

    println!("bench_engine: {cpus}-core host, {}s scenarios", args.secs);
    let c = campaign(args.secs);

    println!("sequential pass ({} runs)...", c.len());
    let t0 = Instant::now();
    let _seq = c.run_sequential();
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("  {seq_ms:.0} ms");

    let widths = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    for &jobs in &widths {
        println!("parallel pass, {jobs} worker(s)...");
        let t = Instant::now();
        let _par = c.run_with(ExecConfig::jobs(jobs));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if speedup_meaningful {
            println!("  {ms:.0} ms  (speedup {:.2}x)", seq_ms / ms);
        } else {
            println!("  {ms:.0} ms  (1-core host; speedup not meaningful)");
        }
        rows.push((jobs, ms));
    }

    let mpc_periods = 10_000;
    println!("MPC hot path, 64 channels x {mpc_periods} periods...");
    let mpc_ns = bench_mpc(64, mpc_periods);
    println!("  {mpc_ns:.0} ns/period");

    let jobs_json: Vec<String> = rows
        .iter()
        .map(|(j, ms)| {
            format!(
                "{{\"jobs\": {j}, \"wall_ms\": {ms:.1}, \"speedup\": {:.3}}}",
                seq_ms / ms
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"host\": {{\"cpus\": {cpus}}},\n  \"campaign\": {{\"runs\": {}, \"scenario_secs\": {}}},\n  \"wall_clock\": {{\"seq_ms\": {seq_ms:.1}, \"speedup_meaningful\": {speedup_meaningful}, \"parallel\": [\n    {}\n  ]}},\n  \"mpc_hot_path\": {{\"channels\": 64, \"periods\": {mpc_periods}, \"ns_per_period\": {mpc_ns:.0}}}\n}}\n",
        c.len(),
        args.secs,
        jobs_json.join(",\n    "),
    );
    std::fs::write(&args.out, &json).expect("write BENCH_engine.json");
    println!("wrote {}", args.out);
}
