//! Execution-engine benchmark: proves the two PR-level performance
//! claims and emits them as `BENCH_engine.json`.
//!
//! 1. **Campaign parallelism** — wall-clock of a 16-run campaign
//!    (4 seeds × 4 policies) sequentially vs under 1/2/4/8 worker
//!    threads, with a digest comparison proving every parallel pass is
//!    bit-identical to the sequential one. Speedup scales with the
//!    host's core count; on a 1-core host the JSON carries
//!    `"speedup_meaningful": false` and no speedup claims are printed
//!    (the numbers are pure scheduling noise there). The determinism
//!    check is the invariant that must hold everywhere.
//! 2. **MPC hot path** — mean ns per control period at 64 channels for
//!    the two shipped backends: the dense FISTA workspace path
//!    (`MpcBackend::DenseFista`) and the structured
//!    diagonal-plus-rank-one path (`MpcBackend::Structured`, the
//!    production default). An **agreement gate** runs both backends over
//!    the same feedback sequence and requires the decision vectors to
//!    match within 1e-6 with both KKT-certified.
//!
//! End-to-end and per-layer simulator speed, corrected for host speed,
//! is measured by the repository benchmark under `benchmark/`.
//!
//! Flags: `--secs N` scenario length (default 120), `--out PATH`
//! (default `BENCH_engine.json`), `--check` CI gate mode (small
//! campaign, no wall-clock sweep; exit 1 on digest mismatch, on
//! dense-vs-structured disagreement > 1e-6, or on a structured path
//! slower than the dense one).

use powersim::units::Seconds;
use simkit::{Campaign, ExecConfig, PolicyKind, Scenario};
use sprint_control::mpc::{MpcBackend, MpcConfig, MpcController};
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

/// Deterministic feedback sequence shared by every measured path.
fn feedback(i: usize) -> f64 {
    1500.0 + 80.0 * ((i as f64) * 0.37).sin()
}

/// Per-period cost of the two MPC backends, ns.
struct MpcTimings {
    dense_ns: f64,
    structured_ns: f64,
}

/// Worst-case dense-vs-structured deviation over a feedback sweep.
struct Agreement {
    max_solution_dev: f64,
    max_kkt_residual: f64,
}

impl Agreement {
    fn pass(&self, tol: f64) -> bool {
        self.max_solution_dev <= tol && self.max_kkt_residual <= tol
    }
}

fn mk_controller(channels: usize, backend: MpcBackend) -> MpcController {
    MpcController::with_backend(
        MpcConfig::paper_default(),
        vec![15.0; channels],
        vec![0.2; channels],
        vec![1.0; channels],
        backend,
    )
}

/// The agreement gate: both backends on identical inputs, every period.
/// Decision vectors must track within `1e-6` and both solves must stay
/// KKT-certified — this is what licenses shipping the structured path as
/// the default.
fn check_agreement(channels: usize, periods: usize) -> Agreement {
    let mut dense = mk_controller(channels, MpcBackend::DenseFista);
    let mut structured = mk_controller(channels, MpcBackend::Structured);
    let f_now = vec![0.6; channels];
    let target = 1700.0;
    let mut agg = Agreement {
        max_solution_dev: 0.0,
        max_kkt_residual: 0.0,
    };
    for i in 0..periods {
        let a = dense.compute(feedback(i), target, &f_now);
        let b = structured.compute(feedback(i), target, &f_now);
        assert!(a.qp.converged && b.qp.converged, "period {i} diverged");
        for (x, y) in a.qp.x.iter().zip(&b.qp.x) {
            agg.max_solution_dev = agg.max_solution_dev.max((x - y).abs());
        }
        agg.max_kkt_residual = agg
            .max_kkt_residual
            .max(a.qp.kkt_residual)
            .max(b.qp.kkt_residual);
    }
    agg
}

fn bench_mpc_paths(channels: usize, periods: usize) -> MpcTimings {
    let f_now = vec![0.6; channels];
    let target = 1700.0;

    let mut dense = mk_controller(channels, MpcBackend::DenseFista);
    let mut structured = mk_controller(channels, MpcBackend::Structured);
    let mut sink = 0.0;

    // Warm up both paths (page in, branch-train) before timing.
    for i in 0..10 {
        sink += dense.compute(feedback(i), target, &f_now).freqs[0];
        sink += structured.compute(feedback(i), target, &f_now).freqs[0];
    }

    let t0 = Instant::now();
    for i in 0..periods {
        sink += dense.compute(feedback(i), target, &f_now).freqs[0];
    }
    let dense_ns = t0.elapsed().as_nanos() as f64 / periods as f64;

    // The structured path is orders of magnitude cheaper; run 50× the
    // periods so the measurement isn't timer-resolution noise.
    let structured_periods = periods * 50;
    let t1 = Instant::now();
    for i in 0..structured_periods {
        sink += structured.compute(feedback(i), target, &f_now).freqs[0];
    }
    let structured_ns = t1.elapsed().as_nanos() as f64 / structured_periods as f64;

    std::hint::black_box(sink);
    MpcTimings {
        dense_ns,
        structured_ns,
    }
}

fn main() {
    let args = parse_args();
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    if args.check_only {
        // CI gate 1: determinism — a small campaign, sequential vs 4
        // workers, digest-compared run by run (under the default
        // structured MPC backend, so the gate also proves the new solver
        // is seed-deterministic).
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
        // CI gate 2: backend agreement — dense and structured must stay
        // within 1e-6 of each other, KKT-certified.
        let agreement = check_agreement(64, 50);
        if !agreement.pass(1e-6) {
            eprintln!(
                "BACKEND DISAGREEMENT: max solution dev {:.3e}, max KKT residual {:.3e} (gate 1e-6)",
                agreement.max_solution_dev, agreement.max_kkt_residual
            );
            std::process::exit(1);
        }
        println!(
            "agreement check passed: dense vs structured within {:.3e} (KKT ≤ {:.3e})",
            agreement.max_solution_dev, agreement.max_kkt_residual
        );
        // CI gate 3: the structured path must actually be the fast one.
        let t = bench_mpc_paths(64, 50);
        if t.structured_ns >= t.dense_ns {
            eprintln!(
                "PERF REGRESSION: structured {:.0} ns/period ≥ dense {:.0} ns/period",
                t.structured_ns, t.dense_ns
            );
            std::process::exit(1);
        }
        println!(
            "perf check passed: structured {:.0} ns/period vs dense {:.0} ns/period ({:.1}x)",
            t.structured_ns,
            t.dense_ns,
            t.dense_ns / t.structured_ns
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

    println!("MPC agreement gate, 64 channels x 200 periods...");
    let agreement = check_agreement(64, 200);
    let agreement_ok = agreement.pass(1e-6);
    println!(
        "  max solution dev {:.3e}, max KKT residual {:.3e}  ({})",
        agreement.max_solution_dev,
        agreement.max_kkt_residual,
        if agreement_ok { "pass" } else { "FAIL" }
    );

    println!("MPC hot path, 64 channels x 200 periods...");
    let t = bench_mpc_paths(64, 200);
    println!(
        "  dense FISTA (workspace)      : {:.0} ns/period\n  structured rank-one (default): {:.0} ns/period  ({:.1}x vs dense)",
        t.dense_ns,
        t.structured_ns,
        t.dense_ns / t.structured_ns
    );

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
        "{{\n  \"host\": {{\"cpus\": {cpus}}},\n  \"campaign\": {{\"runs\": {}, \"scenario_secs\": {}}},\n  \"wall_clock\": {{\"seq_ms\": {seq_ms:.1}, \"speedup_meaningful\": {speedup_meaningful}, \"parallel\": [\n    {}\n  ]}},\n  \"determinism\": {{\"checked\": true, \"bit_identical\": {all_match}}},\n  \"mpc_hot_path\": {{\"channels\": 64, \"periods\": 200, \"dense_ns_per_period\": {:.0}, \"structured_ns_per_period\": {:.0}, \"speedup_structured_vs_dense\": {:.1}, \"agreement\": {{\"max_solution_dev\": {:.3e}, \"max_kkt_residual\": {:.3e}, \"pass\": {agreement_ok}}}}}\n}}\n",
        c.len(),
        args.secs,
        jobs_json.join(",\n    "),
        t.dense_ns,
        t.structured_ns,
        t.dense_ns / t.structured_ns,
        agreement.max_solution_dev,
        agreement.max_kkt_residual,
    );
    std::fs::write(&args.out, &json).expect("write BENCH_engine.json");
    println!("wrote {}", args.out);

    if !all_match {
        eprintln!("determinism check FAILED");
        std::process::exit(1);
    }
    if !agreement_ok {
        eprintln!("agreement check FAILED");
        std::process::exit(1);
    }
}
