//! Datacenter-engine benchmark: proves the PR-level scaling and
//! determinism claims for the feeder → PDU → rack hierarchy and emits
//! them as `BENCH_datacenter.json`.
//!
//! 1. **Scale** — wall-clock and `rack_ticks_per_sec` of a 1000-rack ×
//!    60 simulated-second campaign (one full SprintCon stack per rack,
//!    two-level headroom market at every allocator boundary) on one
//!    worker per core, in streaming retention by default. The CI gate
//!    requires this under 5 minutes. Peak resident memory is sampled
//!    from `/proc/self/status` `VmHWM` and an optional `--max-rss-mb`
//!    ceiling turns it into a hard gate (the nightly 10k-rack job uses
//!    this to prove streaming memory stays O(racks)).
//! 2. **Determinism** — the FNV datacenter digest (per-rack run
//!    digests, market grants, tree outcomes) must be bit-identical
//!    between sequential and parallel execution, including under an
//!    active fault plan.
//! 3. **Record-mode equivalence** — a streaming-retention run must
//!    reproduce the full-retention digest and per-rack digests bit for
//!    bit while actually discarding its per-period samples.
//! 4. **Single-rack equivalence** — a 1-PDU × 1-rack tree with an ample
//!    edge rating must reproduce the standalone single-rack engine's
//!    run digest exactly (grants are bit-transparent ceilings).
//! 5. **Conservation** — at every supervisor boundary, Σ rack grants ≤
//!    feeder headroom and each PDU's member grants ≤ its cap.
//!
//! Flags: `--racks N` floor size (default 1000), `--secs N` simulated
//! seconds (default 60), `--mode full|streaming` scale-run retention
//! (default streaming), `--max-rss-mb N` optional peak-RSS ceiling,
//! `--out PATH` (default `BENCH_datacenter.json`), `--check` CI gate
//! mode (exit 1 on any gate failure).

use powersim::datacenter::DatacenterTopology;
use powersim::faults::FaultPlan;
use powersim::units::{Seconds, Watts};
use simkit::{
    run_datacenter, run_datacenter_with, run_digest, run_policy, DcRecordMode, DcRunOutput,
    DcScenario, ExecConfig, PolicyKind, Scenario,
};
use std::time::Instant;

struct Args {
    racks: usize,
    secs: f64,
    out: String,
    check_only: bool,
    mode: DcRecordMode,
    max_rss_mb: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        racks: 1000,
        secs: 60.0,
        out: "BENCH_datacenter.json".to_string(),
        check_only: false,
        mode: DcRecordMode::Streaming,
        max_rss_mb: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => args.check_only = true,
            "--racks" => {
                let v = it.next().expect("--racks needs a value");
                args.racks = v.parse().expect("--racks expects a count");
            }
            "--secs" => {
                let v = it.next().expect("--secs needs a value");
                args.secs = v.parse().expect("--secs expects seconds");
            }
            "--mode" => {
                let v = it.next().expect("--mode needs full|streaming");
                args.mode = match v.as_str() {
                    "full" => DcRecordMode::Full,
                    "streaming" => DcRecordMode::Streaming,
                    other => panic!("--mode expects full|streaming, got {other}"),
                };
            }
            "--max-rss-mb" => {
                let v = it.next().expect("--max-rss-mb needs a value");
                args.max_rss_mb = Some(v.parse().expect("--max-rss-mb expects megabytes"));
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_datacenter [--racks N] [--secs N] [--mode full|streaming] \
                     [--max-rss-mb N] [--out PATH] [--check]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(args.racks > 0, "--racks must be positive");
    assert!(args.secs > 0.0, "--secs must be positive");
    args
}

/// Peak resident set of this process so far, from `/proc/self/status`
/// `VmHWM` (kB). `None` off Linux — the JSON then carries 0 and the
/// `--max-rss-mb` gate refuses to pass vacuously.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// A floor of `racks` racks in PDUs of (up to) 50, with per-PDU headroom
/// for a fifth of the members' overload swings and feeder headroom for
/// half of the PDU headrooms — scarce enough that both market levels
/// genuinely ration.
fn floor_topology(racks: usize) -> DatacenterTopology {
    let per_pdu = racks.min(50);
    let pdus = racks.div_ceil(per_pdu);
    let pdu_rating = per_pdu as f64 * 3200.0 + (per_pdu as f64 * 800.0 / 5.0).max(800.0);
    let feeder_rating = (pdus * per_pdu) as f64 * 3200.0
        + (pdus as f64 * (per_pdu as f64 * 800.0 / 5.0).max(800.0) / 2.0).max(800.0);
    let mut topo = DatacenterTopology::uniform(
        pdus,
        per_pdu,
        Watts(pdu_rating),
        Watts(feeder_rating.max(pdu_rating)),
    )
    .expect("floor topology is valid");
    let extra = pdus * per_pdu - racks;
    if extra > 0 {
        let last = topo.pdus.len() - 1;
        topo.pdus[last].num_racks -= extra;
    }
    topo
}

fn base_scenario(seed: u64, secs: f64, faults: bool) -> Scenario {
    let mut sc = if faults {
        Scenario::builder(seed)
            .faults(FaultPlan::monitor_dropout(0.3, Seconds(8.0)))
            .build()
            .expect("fault scenario is valid")
    } else {
        Scenario::paper_default(seed)
    };
    sc.duration = Seconds(secs);
    sc
}

/// Σ grants ≤ budget at every boundary, feeder- and PDU-level.
fn conserves(out: &DcRunOutput) -> bool {
    out.rounds.iter().all(|round| {
        let total: f64 = round.grants.iter().map(|g| g.0).sum();
        if total > out.feeder_budget.0 + 1e-9 {
            return false;
        }
        out.pdu_caps.iter().enumerate().all(|(p, cap)| {
            let pdu_sum: f64 = round
                .grants
                .iter()
                .zip(&out.pdu_of)
                .filter(|(_, &q)| q == p)
                .map(|(g, _)| g.0)
                .sum();
            pdu_sum <= cap.0 + 1e-9
        })
    })
}

/// Gate 2+5: sequential vs parallel digest on a faulty mid-size floor.
fn determinism_gate() -> Result<(), String> {
    let dc = DcScenario::new(base_scenario(7, 90.0, true), floor_topology(24))
        .map_err(|e| e.to_string())?;
    let seq = run_datacenter(&dc, ExecConfig::sequential()).map_err(|e| e.to_string())?;
    if !conserves(&seq) {
        return Err("market overspent a tree-edge budget".into());
    }
    for jobs in [2usize, 4, 0] {
        let par = run_datacenter(&dc, ExecConfig::jobs(jobs)).map_err(|e| e.to_string())?;
        if par.digest != seq.digest {
            return Err(format!(
                "jobs={jobs}: digest 0x{:016x} != sequential 0x{:016x}",
                par.digest, seq.digest
            ));
        }
    }
    Ok(())
}

/// Gate 3: streaming retention must be a pure memory optimization —
/// same digest, same per-rack digests, and actually empty sample logs.
fn record_mode_gate() -> Result<(), String> {
    let dc = DcScenario::new(base_scenario(7, 90.0, true), floor_topology(24))
        .map_err(|e| e.to_string())?;
    let full = run_datacenter_with(&dc, ExecConfig::sequential(), DcRecordMode::Full)
        .map_err(|e| e.to_string())?;
    let stream = run_datacenter_with(&dc, ExecConfig::jobs(2), DcRecordMode::Streaming)
        .map_err(|e| e.to_string())?;
    if stream.digest != full.digest {
        return Err(format!(
            "streaming digest 0x{:016x} != full 0x{:016x}",
            stream.digest, full.digest
        ));
    }
    if stream.rack_digests != full.rack_digests {
        return Err("per-rack digests diverged between record modes".into());
    }
    if let Some(r) = stream
        .racks
        .iter()
        .position(|r| !r.recorder.samples().is_empty())
    {
        return Err(format!("streaming run retained samples for rack {r}"));
    }
    Ok(())
}

/// Gate 4: single-rack datacenter == standalone engine, bit for bit.
fn equivalence_gate() -> Result<(), String> {
    let base = base_scenario(42, 90.0, false);
    let topo = DatacenterTopology::single_rack(Watts(4000.0)).map_err(|e| e.to_string())?;
    let dc = DcScenario::new(base.clone(), topo).map_err(|e| e.to_string())?;
    let out = run_datacenter(&dc, ExecConfig::sequential()).map_err(|e| e.to_string())?;
    let standalone = run_policy(&base, PolicyKind::SprintCon);
    let (a, b) = (run_digest(&out.racks[0]), run_digest(&standalone));
    if a != b {
        return Err(format!(
            "single-rack datacenter digest 0x{a:016x} != standalone 0x{b:016x}"
        ));
    }
    Ok(())
}

/// Gate 1: the full-size campaign on one worker per core, timed.
/// Returns (wall seconds, control ticks per rack, output).
fn scale_run(
    racks: usize,
    secs: f64,
    mode: DcRecordMode,
) -> Result<(f64, u64, DcRunOutput), String> {
    let base = base_scenario(2019, secs, false);
    let ticks = (base.duration.0 / base.dt.0).round() as u64;
    let dc = DcScenario::new(base, floor_topology(racks)).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let out = run_datacenter_with(&dc, ExecConfig::parallel(), mode).map_err(|e| e.to_string())?;
    Ok((t0.elapsed().as_secs_f64(), ticks, out))
}

fn mode_name(mode: DcRecordMode) -> &'static str {
    match mode {
        DcRecordMode::Full => "full",
        DcRecordMode::Streaming => "streaming",
    }
}

fn main() {
    let args = parse_args();
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "bench_datacenter: {cpus}-core host, {} racks x {}s, {} retention",
        args.racks,
        args.secs,
        mode_name(args.mode)
    );

    println!("determinism gate (24 faulty racks, seq vs 2/4/all workers)...");
    if let Err(e) = determinism_gate() {
        eprintln!("DETERMINISM VIOLATION: {e}");
        std::process::exit(1);
    }
    println!("  ok: datacenter digest bit-identical across worker counts");

    println!("record-mode gate (streaming vs full retention)...");
    if let Err(e) = record_mode_gate() {
        eprintln!("RECORD-MODE VIOLATION: {e}");
        std::process::exit(1);
    }
    println!("  ok: streaming reproduces the full-retention digests sample-free");

    println!("single-rack equivalence gate...");
    if let Err(e) = equivalence_gate() {
        eprintln!("EQUIVALENCE VIOLATION: {e}");
        std::process::exit(1);
    }
    println!("  ok: 1-rack tree reproduces the standalone engine digest");

    println!(
        "scale run: {} racks x {}s on {cpus} worker(s), {} retention...",
        args.racks,
        args.secs,
        mode_name(args.mode)
    );
    let (wall, ticks_per_rack, out) = match scale_run(args.racks, args.secs, args.mode) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("SCALE RUN FAILED: {e}");
            std::process::exit(1);
        }
    };
    let rack_ticks_per_sec = args.racks as f64 * ticks_per_rack as f64 / wall;
    let rss_kb = peak_rss_kb().unwrap_or(0);
    let conserved = conserves(&out);
    println!(
        "  {:.1}s wall ({:.0} rack-ticks/s), digest 0x{:016x}, {} market rounds, \
         peak feeder {:.0} W, peak rss {:.1} MB",
        wall,
        rack_ticks_per_sec,
        out.digest,
        out.rounds.len(),
        out.peak_feeder_load.0,
        rss_kb as f64 / 1024.0
    );
    if !conserved {
        eprintln!("CONSERVATION VIOLATION in the scale run");
        std::process::exit(1);
    }
    // CI budget: the acceptance bar is 5 minutes for 1000 x 60 s.
    let budget_secs = 300.0;
    if args.check_only && wall > budget_secs {
        eprintln!("SCALE GATE FAILED: {wall:.1}s > {budget_secs}s budget");
        std::process::exit(1);
    }
    if let Some(limit_mb) = args.max_rss_mb {
        if rss_kb == 0 {
            eprintln!("RSS GATE FAILED: VmHWM unavailable, cannot enforce --max-rss-mb");
            std::process::exit(1);
        }
        if rss_kb as f64 / 1024.0 > limit_mb {
            eprintln!(
                "RSS GATE FAILED: peak {:.1} MB > --max-rss-mb {limit_mb}",
                rss_kb as f64 / 1024.0
            );
            std::process::exit(1);
        }
        println!(
            "  rss gate ok: {:.1} MB <= {limit_mb} MB",
            rss_kb as f64 / 1024.0
        );
    }

    let json = format!(
        "{{\n  \"racks\": {},\n  \"secs\": {},\n  \"cpus\": {},\n  \"mode\": \"{}\",\n  \
         \"wall_secs\": {:.3},\n  \"rack_ticks_per_sec\": {:.0},\n  \"peak_rss_kb\": {},\n  \
         \"digest\": \"0x{:016x}\",\n  \"market_rounds\": {},\n  \"peak_feeder_w\": {:.1},\n  \
         \"feeder_trip_periods\": {},\n  \"conserved\": {},\n  \"determinism\": \"pass\",\n  \
         \"record_mode_digest_match\": \"pass\",\n  \"single_rack_equivalence\": \"pass\"\n}}\n",
        args.racks,
        args.secs,
        cpus,
        mode_name(args.mode),
        wall,
        rack_ticks_per_sec,
        rss_kb,
        out.digest,
        out.rounds.len(),
        out.peak_feeder_load.0,
        out.feeder_trip_periods,
        conserved,
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("json: {}", args.out);
    if args.check_only {
        println!("bench_datacenter --check: all gates passed");
    }
}
