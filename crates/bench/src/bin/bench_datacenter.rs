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
//! 6. **Tree replay** — the pre-rework per-tick replay (a fresh
//!    rack-power gather plus the allocating [`Datacenter::step`] every
//!    tick, replicated operation-for-operation) vs today's vectorized
//!    replay (epoch-contiguous per-PDU lane sums through the
//!    allocation-free [`Datacenter::step_pdu_loads`]), driven by an
//!    identical deterministic trace on clones of the same tree. An
//!    agreement check requires bit-identical feeder loads and trip
//!    counts; the timing is interleaved best-of-3, same methodology as
//!    the PR 5 substrate gate. `--check` enforces the speedup floor.
//!
//! Flags: `--racks N` floor size (default 1000), `--secs N` simulated
//! seconds (default 60), `--mode full|streaming` scale-run retention
//! (default streaming), `--max-rss-mb N` optional peak-RSS ceiling,
//! `--out PATH` (default `BENCH_datacenter.json`), `--check` CI gate
//! mode (exit 1 on any gate failure).

use powersim::datacenter::{Datacenter, DatacenterTopology};
use powersim::faults::FaultPlan;
use powersim::units::{Seconds, Watts};
use simkit::{
    run_datacenter, run_datacenter_with, run_digest, run_policy, DcRecordMode, DcRunOutput,
    DcScenario, ExecConfig, PolicyKind, Scenario,
};
use std::time::Instant;

/// CI floor for the vectorized-replay speedup over the pre-rework
/// per-tick gather. The committed baseline shows well above this; the
/// gate leaves slack for noisy 1-core CI runners.
const REPLAY_SPEEDUP_FLOOR: f64 = 2.0;

/// Ticks per market epoch in the replay benchmark — the engine's
/// paper-default `allocator_period / dt` (30 s / 1 s).
const EPOCH_TICKS: usize = 30;

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

/// Deterministic per-rack breaker-power trace for the replay benchmark,
/// rack-major (`traces[r · ticks + k]`) — the same layout the recorder
/// kept per shard, so the pre-rework gather below is exactly as strided
/// as the historical one.
fn synth_traces(racks: usize, ticks: usize) -> Vec<Watts> {
    let mut traces = Vec::with_capacity(racks * ticks);
    for r in 0..racks {
        for k in 0..ticks {
            traces.push(Watts(
                2800.0 + 1200.0 * (((r * 7 + k * 13) % 97) as f64 / 96.0),
            ));
        }
    }
    traces
}

/// Trip counts and a serial feeder-load fold — enough state to prove two
/// replay implementations walked the breakers identically.
#[derive(PartialEq)]
struct ReplayFold {
    pdu_trip_ticks: u64,
    feeder_trip_ticks: u64,
    feeder_load_sum: u64,
}

/// The pre-rework tree replay, replicated operation-for-operation from
/// the last commit before the vectorized rework: every tick gathered a
/// fresh `Vec<Watts>` of rack breaker powers out of the per-rack
/// recordings (strided reads, one allocation per tick) and fed it to the
/// allocating [`Datacenter::step`].
fn prework_replay(dc: &mut Datacenter, traces: &[Watts], racks: usize, ticks: usize) -> ReplayFold {
    let dt = Seconds(1.0);
    let mut fold = ReplayFold {
        pdu_trip_ticks: 0,
        feeder_trip_ticks: 0,
        feeder_load_sum: 0.0f64.to_bits(),
    };
    let mut sum = 0.0f64;
    for k in 0..ticks {
        let rack_powers: Vec<Watts> = (0..racks).map(|r| traces[r * ticks + k]).collect();
        let out = dc.step(&rack_powers, dt);
        fold.pdu_trip_ticks += out.pdu_tripped.iter().filter(|&&b| b).count() as u64;
        fold.feeder_trip_ticks += u64::from(out.feeder_tripped);
        sum += out.feeder_load.0;
    }
    fold.feeder_load_sum = sum.to_bits();
    fold
}

/// Today's vectorized replay, the same shape `dc_engine` runs per epoch:
/// rack breaker powers folded rack-ascending into contiguous per-PDU
/// tick lanes (one sequential pass over each rack's trace), then the
/// breakers stepped tick by tick through the allocation-free
/// [`Datacenter::step_pdu_loads`]. Addition order per (PDU, tick) is
/// racks ascending — identical to [`Datacenter::step`] — so the fold is
/// bit-identical to the pre-rework path.
fn vectorized_replay(
    dc: &mut Datacenter,
    traces: &[Watts],
    racks: usize,
    ticks: usize,
    pdu_of: &[usize],
    num_pdus: usize,
) -> ReplayFold {
    let dt = Seconds(1.0);
    let mut lanes = vec![0.0f64; num_pdus * EPOCH_TICKS];
    let mut tick_loads = vec![0.0f64; num_pdus];
    let mut delivered = vec![0.0f64; num_pdus];
    let mut tripped = vec![false; num_pdus];
    let mut fold = ReplayFold {
        pdu_trip_ticks: 0,
        feeder_trip_ticks: 0,
        feeder_load_sum: 0.0f64.to_bits(),
    };
    let mut sum = 0.0f64;
    let mut done = 0;
    while done < ticks {
        let e_ticks = EPOCH_TICKS.min(ticks - done);
        let lanes = &mut lanes[..num_pdus * e_ticks];
        lanes.fill(0.0);
        for (r, &p) in pdu_of.iter().enumerate().take(racks) {
            let lane = &mut lanes[p * e_ticks..(p + 1) * e_ticks];
            let trace = &traces[r * ticks + done..r * ticks + done + e_ticks];
            for (slot, w) in lane.iter_mut().zip(trace) {
                *slot += w.0;
            }
        }
        for k in 0..e_ticks {
            for (p, load) in tick_loads.iter_mut().enumerate() {
                *load = lanes[p * e_ticks + k];
            }
            let feeder = dc.step_pdu_loads(&tick_loads, dt, &mut delivered, &mut tripped);
            fold.pdu_trip_ticks += tripped.iter().filter(|&&b| b).count() as u64;
            fold.feeder_trip_ticks += u64::from(feeder.feeder_tripped);
            sum += feeder.feeder_load.0;
        }
        done += e_ticks;
    }
    fold.feeder_load_sum = sum.to_bits();
    fold
}

struct ReplayResult {
    racks: usize,
    ticks: usize,
    prework_rack_ticks_per_sec: f64,
    vectorized_rack_ticks_per_sec: f64,
    speedup: f64,
    agreement: bool,
}

/// Gate 6: identical traces through both replay implementations on
/// clones of the same pristine tree — bit-compared folds, then
/// interleaved best-of-3 timing (fresh breaker state per rep, so
/// neither side ever replays against drifted thermal accumulators).
fn bench_replay(racks: usize, ticks: usize) -> ReplayResult {
    let topo = floor_topology(racks);
    let num_pdus = topo.num_pdus();
    let pdu_of: Vec<usize> = (0..racks).map(|r| topo.pdu_of_rack(r)).collect();
    let template = Datacenter::paper_calibrated(topo).expect("floor tree is valid");
    let traces = synth_traces(racks, ticks);

    let a = prework_replay(&mut template.clone(), &traces, racks, ticks);
    let b = vectorized_replay(
        &mut template.clone(),
        &traces,
        racks,
        ticks,
        &pdu_of,
        num_pdus,
    );
    let agreement = a == b;
    if !agreement {
        eprintln!("replay disagreement: prework and vectorized folds diverged");
    }

    let (mut pre_secs, mut vec_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let mut dc = template.clone();
        let t0 = Instant::now();
        std::hint::black_box(prework_replay(&mut dc, &traces, racks, ticks));
        pre_secs = pre_secs.min(t0.elapsed().as_secs_f64());

        let mut dc = template.clone();
        let t1 = Instant::now();
        std::hint::black_box(vectorized_replay(
            &mut dc, &traces, racks, ticks, &pdu_of, num_pdus,
        ));
        vec_secs = vec_secs.min(t1.elapsed().as_secs_f64());
    }
    let rack_ticks = (racks * ticks) as f64;
    ReplayResult {
        racks,
        ticks,
        prework_rack_ticks_per_sec: rack_ticks / pre_secs,
        vectorized_rack_ticks_per_sec: rack_ticks / vec_secs,
        speedup: pre_secs / vec_secs,
        agreement,
    }
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

    // Replay benchmark at (up to) the committed-baseline size; capped so
    // the trace buffer never dominates the VmHWM the scale run just
    // exercised (14 MB at the 1000 x 1800 cap).
    let replay_racks = args.racks.min(1000);
    let replay_ticks = 1800;
    println!("tree replay: prework per-tick gather vs vectorized lanes ({replay_racks} racks)...");
    let replay = bench_replay(replay_racks, replay_ticks);
    println!(
        "  prework   : {:.2e} rack-ticks/s\n  vectorized: {:.2e} rack-ticks/s  ({:.1}x, folds {})",
        replay.prework_rack_ticks_per_sec,
        replay.vectorized_rack_ticks_per_sec,
        replay.speedup,
        if replay.agreement {
            "bit-identical"
        } else {
            "DISAGREE"
        }
    );
    if !replay.agreement {
        eprintln!("REPLAY AGREEMENT FAILED: the two replay paths diverged");
        std::process::exit(1);
    }
    if args.check_only && replay.speedup < REPLAY_SPEEDUP_FLOOR {
        eprintln!(
            "PERF REGRESSION: replay speedup {:.2}x < floor {REPLAY_SPEEDUP_FLOOR}x",
            replay.speedup
        );
        std::process::exit(1);
    }

    let json = format!(
        "{{\n  \"racks\": {},\n  \"secs\": {},\n  \"cpus\": {},\n  \"mode\": \"{}\",\n  \
         \"wall_secs\": {:.3},\n  \"rack_ticks_per_sec\": {:.0},\n  \"peak_rss_kb\": {},\n  \
         \"digest\": \"0x{:016x}\",\n  \"market_rounds\": {},\n  \"peak_feeder_w\": {:.1},\n  \
         \"feeder_trip_periods\": {},\n  \"conserved\": {},\n  \"determinism\": \"pass\",\n  \
         \"record_mode_digest_match\": \"pass\",\n  \"single_rack_equivalence\": \"pass\",\n  \
         \"replay\": {{\"racks\": {}, \"ticks\": {}, \"prework_rack_ticks_per_sec\": {:.0}, \
         \"vectorized_rack_ticks_per_sec\": {:.0}, \"speedup\": {:.2}, \"agreement\": \
         \"bit-identical\"}}\n}}\n",
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
        replay.racks,
        replay.ticks,
        replay.prework_rack_ticks_per_sec,
        replay.vectorized_rack_ticks_per_sec,
        replay.speedup,
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("json: {}", args.out);
    if args.check_only {
        println!("bench_datacenter --check: all gates passed");
    }
}
