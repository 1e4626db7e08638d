//! The four workloads: their inputs (derived from the seed), the untimed
//! warm-up, the timed reps with their output checks, and the traced run.

use crate::host::{self, Span};
use crate::stats::{mean, median, tail_sorted};
use crate::traced::{self, LayerAcc};
use powersim::datacenter::DatacenterTopology;
use powersim::faults::FaultPlan;
use powersim::units::{Seconds, Watts};
use simkit::{
    Campaign, CampaignEntry, CampaignResult, DatacenterSim, DcRecordMode, DcRunOutput, DcScenario,
    ExecConfig, GridPlan, MetricsSnapshot, PolicyKind, RunSummary, Scenario, WorkloadSource,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's run: SprintCon on the §VI-A rack for 15 minutes, over
    /// many seeds, sequentially. MPC/QP dominates the tick.
    RackSprintcon,
    /// The paper's comparison: all four §VII policies over a few seeds.
    /// Baseline policies dominate the CPU.
    CampaignAll,
    /// The floor: SprintCon racks under the feeder → PDU → rack tree with
    /// market rounds, the tree replay and the streaming recorder, over a
    /// working set far beyond the caches.
    DcFloor,
    /// The same engine under open-loop request queueing, monitor dropouts
    /// and a grid curtailment: tier, degraded-measurement and
    /// `GridCurtail` paths.
    OpenloopGrid,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RackSprintcon,
        Workload::CampaignAll,
        Workload::DcFloor,
        Workload::OpenloopGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RackSprintcon => "rack_sprintcon",
            Workload::CampaignAll => "campaign_all",
            Workload::DcFloor => "dc_floor",
            Workload::OpenloopGrid => "openloop_grid",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: full scale, or the `--quick` smoke-test scale.
struct Sizes {
    rack_seeds: usize,
    campaign_seeds: usize,
    openloop_seeds: usize,
    floor_racks: usize,
    floor_secs: f64,
    warmup_racks: usize,
    warmup_secs: f64,
}

/// The floor runs 6 market epochs rather than a full sprint: one floor
/// run is one measured stretch (the engine cannot be calibrated inside a
/// run), and stretches much longer than ~1.5 s let host noise through.
const FULL: Sizes = Sizes {
    rack_seeds: 128,
    campaign_seeds: 16,
    openloop_seeds: 160,
    floor_racks: 1000,
    floor_secs: 180.0,
    warmup_racks: 100,
    warmup_secs: 90.0,
};

const QUICK: Sizes = Sizes {
    rack_seeds: 4,
    campaign_seeds: 4,
    openloop_seeds: 4,
    floor_racks: 20,
    floor_secs: 90.0,
    warmup_racks: 10,
    warmup_secs: 30.0,
};

/// Timed reps never stop before this many, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// A rack rep runs its campaign as this many consecutive chunks of seeds,
/// with a host calibration between chunks (see `host`).
const CHUNKS: usize = 16;

/// Timed reps run on one thread (see `host` for why); the untraced pass
/// that measures `exec.speedup` uses at most this many workers.
const MAX_WORKERS: usize = 2;

/// What one benchmark invocation runs.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulation runs attempted (a floor counts one run per rack).
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// `<run label> <check>` for every failed check.
    pub failures: Vec<String>,
    /// Metrics by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable extra lines (tail percentiles with sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, label: impl std::fmt::Display, check: impl std::fmt::Display) {
        self.failures.push(format!("{label} {check}"));
    }

    /// Record a panic that took `runs` runs down with it.
    fn panicked(&mut self, label: &str, runs: u64, msg: String) {
        self.failed += runs;
        self.fail(label, format!("panic: {msg}"));
    }
}

/// Seed `i` of workload `w`: a SplitMix64 stream per workload, so the
/// workloads' inputs are independent of each other for any `--seed`.
fn seeds(seed: u64, w: Workload, n: usize) -> Vec<u64> {
    let mut z = (seed ^ (w as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let base = z ^ (z >> 31);
    (0..n as u64).map(|i| base.wrapping_add(i)).collect()
}

fn max_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(MAX_WORKERS)
}

/// Run `f`, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// Repeat `rep` until `seconds` have been measured (and at least
/// `MIN_REPS` times); a rep is not started unless a typical rep still
/// fits. `rep` returns false to stop early (after a failure).
fn repeat_for(seconds: f64, mut rep: impl FnMut(usize) -> bool) {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        if !rep(walls.len()) {
            return;
        }
        walls.push(t.elapsed().as_secs_f64());
        if walls.len() >= MIN_REPS && start.elapsed().as_secs_f64() + median(&walls) > seconds {
            return;
        }
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Simulated outcomes of the first rep (deterministic for a given seed).
#[derive(Debug, Default)]
struct SimStats {
    batch_freq: Vec<f64>,
    max_dod_pct: Vec<f64>,
    /// `(Σ interactive freq, Σ batch freq, Σ DoD, runs)` for SprintCon,
    /// SGCT-V1 and SGCT-V2 — the policies the paper's Fig. 7/8(b) report.
    fig: [(f64, f64, f64, f64); 3],
    trips: f64,
    grid_violations: f64,
    req_p99_ms: Vec<f64>,
}

/// The paper's Fig. 7 interactive / batch frequency and Fig. 8(b) depth
/// of discharge at the 12-minute deadline.
const PAPER: [(PolicyKind, f64, f64, f64); 3] = [
    (PolicyKind::SprintCon, 1.00, 0.59, 0.17),
    (PolicyKind::SgctV1, 0.84, 0.91, 0.31),
    (PolicyKind::SgctV2, 0.94, 0.84, 0.31),
];

impl SimStats {
    fn add(&mut self, kind: PolicyKind, s: &RunSummary, m: &MetricsSnapshot) {
        if let Some(i) = PAPER.iter().position(|p| p.0 == kind) {
            let f = &mut self.fig[i];
            f.0 += s.avg_freq_interactive;
            f.1 += s.avg_freq_batch;
            f.2 += s.dod;
            f.3 += 1.0;
        }
        if kind != PolicyKind::SprintCon {
            return;
        }
        self.batch_freq.push(s.avg_freq_batch);
        self.max_dod_pct.push(s.max_dod * 100.0);
        self.trips += s.trips as f64;
        self.grid_violations += m.counter("grid.compliance_violations") as f64;
        if let Some(t) = s.open_loop {
            self.req_p99_ms.push(t.p99_s * 1e3);
        }
    }

    /// Mean relative error, %, of the mean measured values against the
    /// paper's, over every (policy, value) pair this workload ran.
    fn paper_err_pct(&self) -> f64 {
        let mut errs = Vec::new();
        for (f, p) in self.fig.iter().zip(&PAPER) {
            if f.3 > 0.0 {
                for (sum, want) in [(f.0, p.1), (f.1, p.2), (f.2, p.3)] {
                    errs.push((sum / f.3 - want).abs() / want);
                }
            }
        }
        mean(&errs) * 100.0
    }

    fn end_to_end(&self) -> [(&'static str, f64); 3] {
        [
            ("sim.batch_freq", mean(&self.batch_freq)),
            ("sim.ups_dod_pct", mean(&self.max_dod_pct)),
            ("sim.paper_err_pct", self.paper_err_pct()),
        ]
    }

    fn per_layer(&self) -> [(&'static str, f64); 3] {
        [
            ("sim.trips", self.trips),
            ("sim.grid_violations", self.grid_violations),
            ("sim.req_p99_ms", median_or_zero(&self.req_p99_ms)),
        ]
    }
}

/// Setup span and per-chunk run spans of every timed rep.
struct Timings {
    setup: Vec<Span>,
    /// `chunks[rep][chunk]`; every rep runs the same chunks in order.
    chunks: Vec<Vec<Span>>,
    /// Rack-ticks simulated per rep.
    ticks: f64,
}

impl Timings {
    fn new(ticks: f64) -> Self {
        Timings {
            setup: Vec::new(),
            chunks: Vec::new(),
            ticks,
        }
    }

    /// A typical rep's run time: per chunk, the median over reps, summed.
    /// A noise burst the calibration missed spoils one chunk of one rep,
    /// and the per-chunk median drops it.
    fn typical_run_s(&self, f: impl Fn(&Span) -> f64) -> f64 {
        let n = self.chunks.first().map_or(0, Vec::len);
        (0..n)
            .map(|c| median(&self.chunks.iter().map(|rep| f(&rep[c])).collect::<Vec<_>>()))
            .sum()
    }

    fn typical_setup_s(&self) -> f64 {
        median_or_zero(&self.setup.iter().map(|s| s.nominal_s).collect::<Vec<_>>())
    }

    fn end_to_end(&self, out: &mut Outcome) -> Result<(), String> {
        out.metrics.push((
            "rack_ticks_per_s",
            self.ticks / self.typical_run_s(|s| s.nominal_s),
        ));
        out.metrics.push(("setup_s", self.typical_setup_s()));
        out.metrics.push(("peak_rss_mb", host::peak_rss_mb()?));
        Ok(())
    }
}

/// Run one workload: warm-up, timed reps, and (with `trace`) the traced
/// run.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    match o.workload {
        Workload::DcFloor => run_floor(o),
        w => run_rack(o, w),
    }
}

fn rack_campaign(w: Workload, seeds: &[u64]) -> Result<Campaign, String> {
    let mut c = Campaign::new();
    for &s in seeds {
        match w {
            Workload::RackSprintcon => {
                c.add(Scenario::paper_default(s), PolicyKind::SprintCon);
            }
            Workload::CampaignAll => {
                c.add_all_policies(Scenario::paper_default(s));
            }
            Workload::OpenloopGrid => {
                let sc = Scenario::builder(s)
                    .workload(WorkloadSource::open_loop_flash_crowd())
                    .faults(FaultPlan::monitor_dropout(0.1, Seconds(8.0)))
                    .grid(GridPlan::curtailment(
                        Seconds(300.0),
                        Seconds(300.0),
                        Watts(3000.0),
                        Seconds(30.0),
                    ))
                    .build()
                    .map_err(|e| e.to_string())?;
                c.add(sc, PolicyKind::SprintCon);
            }
            Workload::DcFloor => unreachable!("the floor is not a campaign"),
        }
    }
    Ok(c)
}

/// `|residual| ≤ 1e-9 · scale`; false for a NaN residual, which fails.
fn conserved(residual: f64, scale: f64) -> bool {
    residual.abs() <= 1e-9 * scale.abs()
}

/// Physics checks on one finished rack run; returns the failed checks.
fn rack_checks(e: &CampaignEntry, r: &CampaignResult) -> Vec<&'static str> {
    let sc = &e.scenario;
    let samples = r.output.recorder.samples();
    let mut failed = Vec::new();
    let steps = (sc.duration.0 / sc.dt.0).round() as usize;
    if samples.len() != steps {
        failed.push("run_length");
    }
    let balanced = samples.iter().all(|s| {
        let residual = s.p_total.0 - s.cb_power.0 - s.ups_power.0 - s.shortfall.0;
        conserved(residual, s.p_total.0)
    });
    if !balanced {
        failed.push("energy_balance");
    }
    let s = &r.output.summary;
    let soc_ok = samples.iter().all(|s| (0.0..=1.0).contains(&s.ups_soc))
        && (0.0..=1.0).contains(&s.max_dod);
    if !soc_ok {
        failed.push("soc_bounds");
    }
    if let Some(t) = s.open_loop {
        let depth = samples
            .last()
            .and_then(|s| s.queue)
            .map_or(0.0, |q| q.depth);
        let queued = depth * sc.num_servers as f64;
        if !conserved(t.arrived - t.completed - t.dropped - queued, t.arrived) {
            failed.push("open_loop_conservation");
        }
    }
    failed
}

fn run_rack(o: &Opts, w: Workload) -> Result<Outcome, String> {
    let sz = if o.quick { &QUICK } else { &FULL };
    let n = match w {
        Workload::RackSprintcon => sz.rack_seeds,
        Workload::CampaignAll => sz.campaign_seeds,
        _ => sz.openloop_seeds,
    };
    let seeds = seeds(o.seed, w, n);
    let chunk = n.div_ceil(CHUNKS);
    let full = rack_campaign(w, &seeds)?;
    let runs = full.len() as u64;
    let ticks: usize = full
        .entries()
        .iter()
        .map(|e| (e.scenario.duration.0 / e.scenario.dt.0).round() as usize)
        .sum();
    let mut out = Outcome::default();

    // Untimed warm-up: one full rep fills the allocator and caches.
    out.attempted += runs;
    if let Err(p) = guarded(|| full.run_sequential()) {
        out.panicked("warmup", runs, p);
        return Ok(out);
    }

    let mut t = Timings::new(ticks as f64);
    let mut reference: Vec<u64> = Vec::new();
    let mut sim = SimStats::default();
    let mut error = None;
    repeat_for(o.seconds, |k| {
        let rep = guarded(|| {
            let (chunks, setup, mut cal) = host::measure(host::slowdown(), || {
                seeds
                    .chunks(chunk)
                    .map(|s| rack_campaign(w, s))
                    .collect::<Result<Vec<_>, _>>()
            });
            let chunks = chunks?;
            let mut spans = Vec::with_capacity(chunks.len());
            let mut results = Vec::with_capacity(runs as usize);
            for c in &chunks {
                let (r, span, after) = host::measure(cal, || c.run_sequential());
                spans.push(span);
                cal = after;
                results.extend(r);
            }
            Ok::<_, String>((chunks, results, setup, spans))
        });
        out.attempted += runs;
        let (chunks, results, setup, spans) = match rep {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                error = Some(e);
                return false;
            }
            Err(p) => {
                out.panicked(&format!("rep{k}"), runs, p);
                return false;
            }
        };
        let entries = chunks.iter().flat_map(|c| c.entries());
        for (i, (e, r)) in entries.zip(&results).enumerate() {
            let mut failed = Vec::new();
            if k == 0 {
                failed = rack_checks(e, r);
                reference.push(r.digest());
                sim.add(r.kind, r.summary(), &r.output.metrics);
            } else if r.digest() != reference[i] {
                failed.push("determinism");
            }
            for check in &failed {
                out.fail(format!("rep{k}/{}", r.label), check);
            }
            out.failed += !failed.is_empty() as u64;
        }
        t.setup.push(setup);
        t.chunks.push(spans);
        true
    });
    if let Some(e) = error {
        return Err(e);
    }
    t.end_to_end(&mut out)?;
    out.metrics.extend(sim.end_to_end());
    if !o.trace || reference.is_empty() {
        return Ok(out);
    }

    // One untraced pass on the pool (the other side of exec.speedup),
    // then the traced pass; each checks its digests against the reps'.
    let workers = max_workers();
    let t0 = Instant::now();
    let pooled = guarded(|| full.run_with(ExecConfig::jobs(workers)));
    let pooled_s = t0.elapsed().as_secs_f64();
    out.attempted += runs;
    match pooled {
        Ok(results) => {
            for (r, &want) in results.iter().zip(&reference) {
                if r.digest() != want {
                    out.fail(format!("workers{workers}/{}", r.label), "determinism");
                    out.failed += 1;
                }
            }
        }
        Err(p) => {
            out.panicked(&format!("workers{workers}"), runs, p);
            return Ok(out);
        }
    }

    let mut acc = LayerAcc::default();
    let (traced, traced_span, _) = host::measure(host::slowdown(), || {
        guarded(|| {
            let c = rack_campaign(w, &seeds)?;
            Ok::<_, String>(
                c.entries()
                    .iter()
                    .map(|e| traced::rack_run(e, &mut acc))
                    .collect::<Vec<_>>(),
            )
        })
    });
    acc.finish(traced_span.wall_s * 1e9);
    out.attempted += runs;
    match traced {
        Ok(digests) => {
            for (got, (e, want)) in digests?.iter().zip(full.entries().iter().zip(&reference)) {
                if got != want {
                    out.fail(format!("traced/{}", e.label), "traced_digest");
                    out.failed += 1;
                }
            }
        }
        Err(p) => {
            out.panicked("traced", runs, p);
            return Ok(out);
        }
    }
    finish_layers(&mut out, &mut acc, &t, pooled_s, traced_span, &sim);
    Ok(out)
}

/// Append the per-layer metrics, the tail note and the cover gate.
/// `pooled_s` is the raw wall time of the untraced run on the pool, and
/// `traced` the traced pass (setup included).
fn finish_layers(
    out: &mut Outcome,
    acc: &mut LayerAcc,
    t: &Timings,
    pooled_s: f64,
    traced: Span,
    sim: &SimStats,
) {
    if acc.soc_violation_runs > 0 {
        out.fail(
            "traced",
            format!("soc_bounds ({} runs)", acc.soc_violation_runs),
        );
        out.failed += acc.soc_violation_runs;
    }
    let layers = acc.metrics();
    let cover = layers
        .iter()
        .find(|(n, _)| *n == "trace.cover_frac")
        .map_or(0.0, |m| m.1);
    if !(0.95..=1.05).contains(&cover) {
        out.fail(
            "traced",
            format!("layers_cover ({cover:.4} outside [0.95, 1.05])"),
        );
    }
    out.metrics.extend(layers);
    let (wall, nominal) = (
        t.typical_run_s(|s| s.wall_s),
        t.typical_run_s(|s| s.nominal_s),
    );
    out.metrics.extend([
        // Raw wall time: what this host delivered, ≈1 while it runs both
        // vCPUs on one core.
        ("exec.speedup", wall / pooled_s),
        (
            "trace.overhead_frac",
            traced.nominal_s / (t.typical_setup_s() + nominal) - 1.0,
        ),
        ("host.raw_rack_ticks_per_s", t.ticks / wall),
        ("host.slowdown", wall / nominal),
    ]);
    out.metrics.extend(sim.per_layer());
    let ticks = acc.tick_ns_sorted();
    if let Some((label, v)) = tail_sorted(ticks) {
        out.notes.push(format!(
            "engine.tick_ns tail {label} = {v} ns (n = {})",
            ticks.len()
        ));
    }
}

/// The floor of `bench_datacenter`: PDUs of at most 50 racks, each PDU
/// with headroom for a fifth of its racks' 800 W overload swings, the
/// feeder with headroom for half of the PDUs' headroom.
fn floor_topology(racks: usize) -> Result<DatacenterTopology, String> {
    let per_pdu = racks.min(50);
    let pdus = racks.div_ceil(per_pdu);
    let pdu_headroom = (per_pdu as f64 * 800.0 / 5.0).max(800.0);
    let pdu_rating = per_pdu as f64 * 3200.0 + pdu_headroom;
    let feeder_rating =
        (pdus * per_pdu) as f64 * 3200.0 + (pdus as f64 * pdu_headroom / 2.0).max(800.0);
    let mut topo = DatacenterTopology::uniform(
        pdus,
        per_pdu,
        Watts(pdu_rating),
        Watts(feeder_rating.max(pdu_rating)),
    )
    .map_err(|e| e.to_string())?;
    let extra = pdus * per_pdu - racks;
    if let Some(last) = topo.pdus.last_mut() {
        last.num_racks -= extra;
    }
    Ok(topo)
}

fn floor_scenario(seed: u64, racks: usize, secs: f64) -> Result<DcScenario, String> {
    let mut base = Scenario::paper_default(seed);
    base.duration = Seconds(secs);
    DcScenario::new(base, floor_topology(racks)?).map_err(|e| e.to_string())
}

fn build_floor(dc: &DcScenario) -> Result<DatacenterSim, String> {
    DatacenterSim::from_scenario_with(dc, DcRecordMode::Streaming).map_err(|e| e.to_string())
}

/// Floor-level checks on one untraced run: market conservation and SoC
/// bounds. Returns the failed checks as `(label, check)`.
fn floor_checks(out: &DcRunOutput) -> Vec<(String, String)> {
    let mut failed = Vec::new();
    for r in &out.rounds {
        let broken = traced::overspend(
            r.epoch,
            &r.grants,
            &out.pdu_of,
            &out.pdu_caps,
            r.spent,
            r.budget,
        );
        for msg in broken {
            failed.push(("market".to_string(), format!("market_overspend ({msg})")));
        }
    }
    for (i, rack) in out.racks.iter().enumerate() {
        if !(0.0..=1.0).contains(&rack.summary.max_dod) {
            failed.push((format!("rack{i}"), "soc_bounds".to_string()));
        }
    }
    failed
}

fn run_floor(o: &Opts) -> Result<Outcome, String> {
    let sz = if o.quick { &QUICK } else { &FULL };
    let seed = seeds(o.seed, Workload::DcFloor, 1)[0];
    let dc = floor_scenario(seed, sz.floor_racks, sz.floor_secs)?;
    let racks = dc.topo.num_racks() as u64;
    let mut out = Outcome::default();

    let warm = floor_scenario(seed, sz.warmup_racks, sz.warmup_secs)?;
    let warm_racks = warm.topo.num_racks() as u64;
    out.attempted += warm_racks;
    match guarded(|| build_floor(&warm).map(|s| s.run(ExecConfig::sequential()))) {
        Ok(r) => drop(r?),
        Err(p) => {
            out.panicked("warmup", warm_racks, p);
            return Ok(out);
        }
    }

    let steps = (dc.base.duration.0 / dc.base.dt.0).round();
    let mut t = Timings::new(racks as f64 * steps);
    let mut reference: Option<(u64, Vec<u64>)> = None;
    let mut sim = SimStats::default();
    let mut error = None;
    repeat_for(o.seconds, |k| {
        let rep = guarded(|| {
            let (s, setup, cal) = host::measure(host::slowdown(), || build_floor(&dc));
            let s = s?;
            let (run, span, _) = host::measure(cal, || s.run(ExecConfig::sequential()));
            Ok::<_, String>((run, setup, span))
        });
        out.attempted += racks;
        let (run, setup, span) = match rep {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                error = Some(e);
                return false;
            }
            Err(p) => {
                out.panicked(&format!("rep{k}"), racks, p);
                return false;
            }
        };
        let mut failed: Vec<(String, String)> = Vec::new();
        match &reference {
            None => {
                failed = floor_checks(&run);
                for rack in &run.racks {
                    sim.add(PolicyKind::SprintCon, &rack.summary, &rack.metrics);
                }
                sim.trips += run.pdu_trip_periods.iter().sum::<u64>() as f64
                    + run.feeder_trip_periods as f64;
                reference = Some((run.digest, run.rack_digests.clone()));
            }
            Some((floor, rack_digests)) => {
                if run.digest != *floor || run.rack_digests != *rack_digests {
                    failed.push(("floor".into(), "determinism".into()));
                }
            }
        }
        for (what, check) in &failed {
            out.fail(format!("rep{k}/{what}"), check);
        }
        // A floor-level failure fails every rack of the floor.
        out.failed += if failed.is_empty() { 0 } else { racks };
        t.setup.push(setup);
        t.chunks.push(vec![span]);
        true
    });
    if let Some(e) = error {
        return Err(e);
    }
    t.end_to_end(&mut out)?;
    out.metrics.extend(sim.end_to_end());
    let Some((floor, rack_digests)) = reference.filter(|_| o.trace) else {
        return Ok(out);
    };

    // One untraced run on the persistent pool, then the traced replay.
    let workers = max_workers();
    let s = build_floor(&dc)?;
    let t0 = Instant::now();
    let pooled = guarded(|| s.run(ExecConfig::jobs(workers)));
    let pooled_s = t0.elapsed().as_secs_f64();
    out.attempted += racks;
    match pooled {
        Ok(run) if run.digest != floor => {
            out.fail(format!("workers{workers}/floor"), "determinism");
            out.failed += racks;
        }
        Ok(_) => {}
        Err(p) => {
            out.panicked(&format!("workers{workers}"), racks, p);
            return Ok(out);
        }
    }

    let mut acc = LayerAcc::default();
    let (traced, traced_span, _) = host::measure(host::slowdown(), || {
        guarded(|| traced::floor_run(&dc, &mut acc))
    });
    acc.finish(traced_span.wall_s * 1e9);
    out.attempted += racks;
    match traced {
        Ok(Ok(d)) => {
            let mut bad = 0;
            for (i, (got, want)) in d.racks.iter().zip(&rack_digests).enumerate() {
                if got != want {
                    out.fail(format!("traced/rack{i}"), "traced_digest");
                    bad += 1;
                }
            }
            for msg in &d.overspent_rounds {
                out.fail("traced/market", format!("market_overspend ({msg})"));
            }
            if d.floor != floor {
                out.fail("traced/floor", "traced_digest");
            }
            if d.floor != floor || !d.overspent_rounds.is_empty() {
                bad = racks;
            }
            out.failed += bad;
        }
        Ok(Err(e)) => return Err(e),
        Err(p) => {
            out.panicked("traced", racks, p);
            return Ok(out);
        }
    }
    finish_layers(&mut out, &mut acc, &t, pooled_s, traced_span, &sim);
    Ok(out)
}
