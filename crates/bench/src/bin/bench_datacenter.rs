//! Datacenter-engine benchmark: times the feeder → PDU → rack floor at
//! scale and emits `BENCH_datacenter.json`.
//!
//! 1. **Scale** — wall-clock and `rack_ticks_per_sec` of a 1000-rack ×
//!    60 simulated-second campaign (one full SprintCon stack per rack,
//!    two-level headroom market at every allocator boundary) on one
//!    worker per core. The CI gate requires this under 5 minutes. Peak
//!    resident memory is sampled from `/proc/self/status` `VmHWM` and an
//!    optional `--max-rss-mb` ceiling turns it into a hard gate (the
//!    nightly 10k-rack job uses this to prove floor memory stays
//!    O(racks)).
//! 2. **Conservation** — at every supervisor boundary of the scale run,
//!    Σ rack grants ≤ feeder headroom and each PDU's member grants ≤ its
//!    cap.
//!
//! The floor's other contracts are tests, each run once:
//! `tests/datacenter.rs` holds worker-count determinism (including a
//! faulty 24-rack one-PDU floor) and equivalence to standalone runs.
//!
//! Flags: `--racks N` floor size (default 1000), `--secs N` simulated
//! seconds (default 60), `--max-rss-mb N` optional peak-RSS ceiling,
//! `--out PATH` (default `BENCH_datacenter.json`), `--check` CI gate
//! mode (exit 1 on any gate failure).

use powersim::datacenter::DatacenterTopology;
use powersim::units::{Seconds, Watts};
use simkit::{run_datacenter, DcRunOutput, DcScenario, ExecConfig, Scenario};
use std::time::Instant;

struct Args {
    racks: usize,
    secs: f64,
    out: String,
    check_only: bool,
    max_rss_mb: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        racks: 1000,
        secs: 60.0,
        out: "BENCH_datacenter.json".to_string(),
        check_only: false,
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
            "--max-rss-mb" => {
                let v = it.next().expect("--max-rss-mb needs a value");
                args.max_rss_mb = Some(v.parse().expect("--max-rss-mb expects megabytes"));
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_datacenter [--racks N] [--secs N] [--max-rss-mb N] \
                     [--out PATH] [--check]"
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

/// The full-size campaign on one worker per core, timed.
/// Returns (wall seconds, control ticks per rack, output).
fn scale_run(racks: usize, secs: f64) -> Result<(f64, u64, DcRunOutput), String> {
    let mut base = Scenario::paper_default(2019);
    base.duration = Seconds(secs);
    let ticks = (base.duration.0 / base.dt.0).round() as u64;
    let dc = DcScenario::new(base, floor_topology(racks)).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let out = run_datacenter(&dc, ExecConfig::parallel()).map_err(|e| e.to_string())?;
    Ok((t0.elapsed().as_secs_f64(), ticks, out))
}

fn main() {
    let args = parse_args();
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "scale run: {} racks x {}s on {cpus} worker(s)...",
        args.racks, args.secs
    );
    let (wall, ticks_per_rack, out) = match scale_run(args.racks, args.secs) {
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
        "{{\n  \"racks\": {},\n  \"secs\": {},\n  \"cpus\": {},\n  \
         \"wall_secs\": {:.3},\n  \"rack_ticks_per_sec\": {:.0},\n  \"peak_rss_kb\": {},\n  \
         \"digest\": \"0x{:016x}\",\n  \"market_rounds\": {},\n  \"peak_feeder_w\": {:.1},\n  \
         \"feeder_trip_periods\": {},\n  \"conserved\": {}\n}}\n",
        args.racks,
        args.secs,
        cpus,
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
