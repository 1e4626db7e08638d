//! Tail-latency benchmark for the open-loop request-queueing path:
//! proves the PR-level claims about the typed workload-source API and
//! emits them as `BENCH_tail_latency.json`.
//!
//! 1. **Separation** — under a Markov-modulated flash crowd served
//!    open-loop, SprintCon (interactive cores pinned at peak frequency)
//!    must beat the frequency-throttling SGCT baseline on request p99
//!    and drop fraction. This is the paper's latency argument made
//!    request-level instead of backlog-proxy-level.
//! 2. **Determinism** — open-loop campaign digests must be
//!    bit-identical between sequential and parallel execution (the
//!    queueing state and latency sketches are rack-private).
//!
//! Flags: `--secs N` simulated seconds (default 180), `--seed N`
//! (default 2019), `--out PATH` (default `BENCH_tail_latency.json`),
//! `--check` CI gate mode (exit 1 on any gate failure).

use powersim::units::Seconds;
use simkit::{
    qos_report, run_policy, Campaign, ExecConfig, PolicyKind, QosReport, SamplesNotKept, Scenario,
    WorkloadSource,
};
use std::time::Instant;

struct Args {
    secs: f64,
    seed: u64,
    out: String,
    check_only: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        secs: 180.0,
        seed: 2019,
        out: "BENCH_tail_latency.json".to_string(),
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
                eprintln!("usage: bench_tail_latency [--secs N] [--seed N] [--out PATH] [--check]");
                std::process::exit(2);
            }
        }
    }
    assert!(args.secs > 0.0, "--secs must be positive");
    args
}

/// The §VI-A rack serving an open-loop flash crowd: MMPP arrivals over
/// the paper-default service model, sized so peak demand saturates the
/// interactive cores at peak frequency.
fn flash_crowd_scenario(seed: u64, secs: f64) -> Scenario {
    let mut sc = Scenario::paper_default(seed);
    sc.workload = WorkloadSource::open_loop_flash_crowd();
    sc.duration = Seconds(secs);
    sc
}

struct PolicyTail {
    policy: &'static str,
    qos: QosReport,
}

/// Run one policy over the flash crowd and pull its request tail.
fn tail_for(kind: PolicyKind, seed: u64, secs: f64) -> Result<PolicyTail, SamplesNotKept> {
    let out = run_policy(&flash_crowd_scenario(seed, secs), kind);
    Ok(PolicyTail {
        policy: kind.name(),
        qos: qos_report(&out.recorder, &[0.1, 0.25, 1.0])?,
    })
}

/// Gate 1: SprintCon's peak-pinned interactive cores must show a
/// strictly better request tail than frequency-throttling SGCT.
fn separation_gate(sc: &PolicyTail, sgct: &PolicyTail) -> Result<(), String> {
    let (a, b) = (&sc.qos, &sgct.qos);
    let (pa, pb) = (
        a.request_p99_s.ok_or("SprintCon run has no tail")?,
        b.request_p99_s.ok_or("SGCT run has no tail")?,
    );
    if pa >= pb {
        return Err(format!(
            "no p99 separation: SprintCon {pa:.4}s vs SGCT {pb:.4}s"
        ));
    }
    let (da, db) = (
        a.drop_fraction.ok_or("SprintCon run has no drops field")?,
        b.drop_fraction.ok_or("SGCT run has no drops field")?,
    );
    if da > db {
        return Err(format!(
            "SprintCon drops more than SGCT: {da:.5} vs {db:.5}"
        ));
    }
    Ok(())
}

/// Gate 2: open-loop campaigns shard bit-identically.
fn determinism_gate(seed: u64) -> Result<(), String> {
    let mut c = Campaign::new();
    c.add(flash_crowd_scenario(seed, 60.0), PolicyKind::SprintCon);
    c.add(flash_crowd_scenario(seed + 1, 60.0), PolicyKind::Sgct);
    c.add(flash_crowd_scenario(seed + 2, 45.0), PolicyKind::SgctV2);
    let seq = c.run_sequential();
    for jobs in [2usize, 4, 0] {
        let par = c.run_with(ExecConfig::jobs(jobs));
        for (p, s) in par.iter().zip(&seq) {
            if p.digest() != s.digest() {
                return Err(format!(
                    "jobs={jobs}: {} digest 0x{:016x} != sequential 0x{:016x}",
                    p.label,
                    p.digest(),
                    s.digest()
                ));
            }
        }
    }
    Ok(())
}

fn policy_json(t: &PolicyTail) -> String {
    let q = &t.qos;
    let attain: Vec<String> = q
        .per_slo
        .iter()
        .map(|a| {
            format!(
                "{{\"slo_s\": {}, \"attainment\": {:.4}}}",
                a.slo_delay_s, a.attainment
            )
        })
        .collect();
    format!(
        "{{\n    \"policy\": \"{}\",\n    \"request_p99_s\": {:.6},\n    \
         \"drop_fraction\": {:.6},\n    \"backlog_p99_s\": {:.4},\n    \
         \"slo_attainment\": [{}]\n  }}",
        t.policy,
        q.request_p99_s.unwrap_or(f64::NAN),
        q.drop_fraction.unwrap_or(f64::NAN),
        q.p99_delay_s,
        attain.join(", "),
    )
}

fn main() {
    let args = parse_args();
    println!(
        "bench_tail_latency: flash crowd, seed {} x {}s",
        args.seed, args.secs
    );

    println!("determinism gate (open-loop campaign, seq vs 2/4/all workers)...");
    if let Err(e) = determinism_gate(args.seed) {
        eprintln!("DETERMINISM VIOLATION: {e}");
        std::process::exit(1);
    }
    println!("  ok: open-loop digests bit-identical across worker counts");

    println!("tail separation run: SprintCon vs SGCT under the flash crowd...");
    let t0 = Instant::now();
    let tails: Result<Vec<PolicyTail>, _> =
        [PolicyKind::SprintCon, PolicyKind::Sgct, PolicyKind::SgctV2]
            .into_iter()
            .map(|k| tail_for(k, args.seed, args.secs))
            .collect();
    let tails = tails.unwrap_or_else(|e| {
        eprintln!("QoS REPORT FAILED: {e}");
        std::process::exit(1);
    });
    let wall = t0.elapsed().as_secs_f64();
    for t in &tails {
        println!(
            "  {:<10} p99 {:>8.4}s  drops {:>7.4}%  SLO(0.25s) {:>5.1}%",
            t.policy,
            t.qos.request_p99_s.unwrap_or(f64::NAN),
            t.qos.drop_fraction.unwrap_or(f64::NAN) * 100.0,
            t.qos.per_slo[1].attainment * 100.0,
        );
    }
    if let Err(e) = separation_gate(&tails[0], &tails[1]) {
        eprintln!("SEPARATION VIOLATION: {e}");
        std::process::exit(1);
    }
    println!("  ok: SprintCon beats SGCT on request p99 without extra drops");

    let rows: Vec<String> = tails.iter().map(policy_json).collect();
    let json = format!(
        "{{\n  \"seed\": {},\n  \"secs\": {},\n  \"wall_secs\": {:.3},\n  \
         \"policies\": [{}\n  ],\n  \"determinism\": \"pass\",\n  \
         \"separation\": \"pass\"\n}}\n",
        args.seed,
        args.secs,
        wall,
        rows.iter()
            .map(|r| format!("\n  {r}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("json: {}", args.out);
    if args.check_only {
        println!("bench_tail_latency --check: all gates passed");
    }
}
