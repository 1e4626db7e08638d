//! Execution-engine benchmark: measures campaign parallelism and the
//! MPC's cost per control period, and emits them as `BENCH_engine.json`.
//!
//! 1. **Campaign parallelism** — wall-clock of a 16-run campaign
//!    (4 seeds × 4 policies) sequentially vs under 1/2/4/8 worker
//!    threads, with a digest comparison proving every parallel pass is
//!    bit-identical to the sequential one. Speedup scales with the
//!    host's core count; on a 1-core host the JSON carries
//!    `"speedup_meaningful": false` and no speedup claims are printed
//!    (the numbers are pure scheduling noise there). The determinism
//!    check is the invariant that must hold everywhere.
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
//! (default `BENCH_engine.json`), `--check` CI gate mode (small
//! campaign, no wall-clock sweep; exit 1 on a digest mismatch between
//! the sequential and the parallel pass).

use powersim::units::Seconds;
use simkit::{Campaign, ExecConfig, PolicyKind, Scenario};
use sprint_control::mpc::{MpcConfig, MpcController};
use std::time::Instant;

struct Args {
    secs: f64,
    out: String,
    check_only: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        secs: 120.0,
        out: "BENCH_engine.json".to_string(),
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
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_engine [--secs N] [--out PATH] [--check]");
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

/// Compare digests run-by-run; returns the mismatched labels.
fn digest_mismatches(
    seq: &[simkit::CampaignResult],
    par: &[simkit::CampaignResult],
) -> Vec<String> {
    assert_eq!(seq.len(), par.len(), "result counts must agree");
    seq.iter()
        .zip(par)
        .filter(|(a, b)| a.digest() != b.digest())
        .map(|(a, _)| a.label.clone())
        .collect()
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

    if args.check_only {
        // CI gate: determinism — a small campaign, sequential vs 4
        // workers, digest-compared run by run.
        let c = campaign(args.secs.min(30.0));
        let seq = c.run_sequential();
        let par = c.run_with(ExecConfig::jobs(4));
        let bad = digest_mismatches(&seq, &par);
        if !bad.is_empty() {
            eprintln!("DETERMINISM VIOLATION in {} runs: {bad:?}", bad.len());
            std::process::exit(1);
        }
        println!(
            "determinism check passed: {} runs bit-identical (seq vs 4 workers)",
            seq.len()
        );
        return;
    }

    // Wall-clock speedups are only a claim worth making with real
    // parallel hardware underneath; on a 1-core host the parallel passes
    // still run (the determinism gate matters everywhere) but the ratios
    // are scheduling noise, so we neither print nor emphasize them.
    let speedup_meaningful = cpus > 1;

    println!("bench_engine: {cpus}-core host, {}s scenarios", args.secs);
    let c = campaign(args.secs);

    println!("sequential pass ({} runs)...", c.len());
    let t0 = Instant::now();
    let seq = c.run_sequential();
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("  {seq_ms:.0} ms");

    let widths = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut all_match = true;
    for &jobs in &widths {
        println!("parallel pass, {jobs} worker(s)...");
        let t = Instant::now();
        let par = c.run_with(ExecConfig::jobs(jobs));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let bad = digest_mismatches(&seq, &par);
        all_match &= bad.is_empty();
        if !bad.is_empty() {
            eprintln!("  DETERMINISM VIOLATION: {bad:?}");
        }
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
        "{{\n  \"host\": {{\"cpus\": {cpus}}},\n  \"campaign\": {{\"runs\": {}, \"scenario_secs\": {}}},\n  \"wall_clock\": {{\"seq_ms\": {seq_ms:.1}, \"speedup_meaningful\": {speedup_meaningful}, \"parallel\": [\n    {}\n  ]}},\n  \"determinism\": {{\"checked\": true, \"bit_identical\": {all_match}}},\n  \"mpc_hot_path\": {{\"channels\": 64, \"periods\": {mpc_periods}, \"ns_per_period\": {mpc_ns:.0}}}\n}}\n",
        c.len(),
        args.secs,
        jobs_json.join(",\n    "),
    );
    std::fs::write(&args.out, &json).expect("write BENCH_engine.json");
    println!("wrote {}", args.out);

    if !all_match {
        eprintln!("determinism check FAILED");
        std::process::exit(1);
    }
}
