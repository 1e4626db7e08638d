//! The parallel execution layer: one order-preserving scoped map,
//! [`par_map`], and the [`Campaign`] of scenario × policy runs that
//! fans out through it with deterministic, input-ordered results.
//!
//! [`par_map`] is the only place `simkit` spawns threads. Campaigns map
//! their entries through it, and the datacenter engine maps its rack
//! shards through it once per market epoch.
//!
//! ## Determinism contract
//!
//! A simulation run is a pure function of its [`Scenario`] (every RNG is
//! seeded from `Scenario::seed`), so executing runs concurrently cannot
//! change their outputs, and results are returned in **input order**,
//! never completion order. [`Campaign::run_with`] is therefore
//! bit-identical to [`Campaign::run_sequential`] for everything a run
//! computes: recorder samples, events and summaries. [`run_digest`]
//! hashes exactly those (the plant), so whether a collector was
//! installed never changes a digest. CI enforces the contract by
//! comparing digests of a sequential and a parallel pass
//! (`bench_engine --check`, `tests/parallel.rs`).
//!
//! ## Telemetry is opt-in
//!
//! An untraced run ([`ExecConfig`]'s default, and [`run_policy`](crate::run_policy))
//! installs no collector and returns an empty [`RunOutput::metrics`].
//! [`ExecConfig::with_telemetry`] installs one thread-scoped
//! [`telemetry::Collector`] per run (per rack on the floor). [`par_map`]
//! workers are fresh threads that inherit no thread-locals, so metrics
//! cannot bleed across concurrently executing runs, and the snapshots
//! are as deterministic as the plant, except wall-clock span histograms
//! (names ending in `.ns`). `tests/telemetry.rs` pins that contract
//! directly, since the digest no longer covers it. A collector costs
//! about a tenth of a SprintCon tick (four spans and a name lookup per
//! metric update, ≈0.8 of ≈7.4 µs on a 2-vCPU Xeon VM), which is why it
//! is off unless asked for.
//!
//! ## Worker count
//!
//! [`ExecConfig`] picks the worker count: `default()` uses every
//! available core (each run is an independent, cache-friendly
//! simulation; hyperthread-level oversubscription buys nothing), and
//! `jobs(1)`/`sequential()` degenerate to plain iteration on the calling
//! thread with no thread spawned.

use crate::experiment::{run_instrumented, PolicyKind, PolicyOverrides, RunOutput};
use crate::metrics::RunSummary;
use crate::scenario::Scenario;

/// How a campaign or a datacenter run is executed: on how many worker
/// threads, and whether each run collects telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecConfig {
    /// Requested worker count; `0` = one worker per available core.
    jobs: usize,
    /// Install a telemetry collector per run (per rack on the floor).
    telemetry: bool,
}

impl ExecConfig {
    /// One worker per available core (the default).
    pub fn parallel() -> Self {
        ExecConfig::default()
    }

    /// Run on the calling thread, spawning nothing.
    pub fn sequential() -> Self {
        ExecConfig::jobs(1)
    }

    /// Exactly `n` workers (`0` = one per core).
    pub fn jobs(n: usize) -> Self {
        ExecConfig {
            jobs: n,
            ..ExecConfig::default()
        }
    }

    /// Collect telemetry: every run (every floor rack) gets its own
    /// collector, and its [`RunOutput::metrics`] holds the snapshot.
    /// Off by default; digests are the same either way.
    ///
    /// ```
    /// use powersim::units::Seconds;
    /// use simkit::{Campaign, ExecConfig, PolicyKind, Scenario};
    ///
    /// let mut sc = Scenario::paper_default(7);
    /// sc.duration = Seconds(10.0); // doctest-sized
    /// let mut c = Campaign::new();
    /// c.add(sc, PolicyKind::SprintCon);
    /// let plain = c.run_sequential().remove(0);
    /// let traced = c.run_with(ExecConfig::sequential().with_telemetry()).remove(0);
    /// assert!(plain.output.metrics.is_empty());
    /// assert_eq!(traced.output.metrics.counter("qp_solve_total"), 10);
    /// assert_eq!(plain.digest(), traced.digest());
    /// ```
    pub fn with_telemetry(self) -> Self {
        ExecConfig {
            telemetry: true,
            ..self
        }
    }

    /// Does this config collect telemetry?
    pub(crate) fn telemetry(&self) -> bool {
        self.telemetry
    }

    /// The worker count this config resolves to on this host.
    pub fn resolved_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

/// Order-preserving scoped map: `f` applied to every item, results in
/// input order.
///
/// The items are split into at most `width` contiguous chunks, each
/// mapped on its own `std::thread::scope` thread, so `f` may borrow from
/// the caller and mutate its item in place. With `width ≤ 1` (or fewer
/// than two items) it is plain iteration on the calling thread. Workers
/// are fresh threads and inherit no thread-locals. A worker panic is
/// re-raised on the caller with its original payload.
pub fn par_map<T, R, F>(items: &mut [T], width: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let n = items.len();
    let width = width.min(n);
    if width <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks_mut(n.div_ceil(width))
            .map(|part| scope.spawn(move || part.iter_mut().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(n);
        for worker in workers {
            match worker.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// One scheduled run of a [`Campaign`].
#[derive(Debug, Clone)]
pub struct CampaignEntry {
    /// Display label (defaults to `"<policy>@seed<seed>"`).
    pub label: String,
    pub scenario: Scenario,
    pub kind: PolicyKind,
    pub overrides: PolicyOverrides,
}

/// One finished run: the entry's identity plus everything it produced.
#[derive(Debug)]
pub struct CampaignResult {
    pub label: String,
    pub kind: PolicyKind,
    /// Seed of the scenario that ran (sweep bookkeeping).
    pub seed: u64,
    pub output: RunOutput,
}

impl CampaignResult {
    pub fn summary(&self) -> &RunSummary {
        &self.output.summary
    }

    /// Order-insensitive determinism digest of this run — see
    /// [`run_digest`].
    pub fn digest(&self) -> u64 {
        run_digest(&self.output)
    }
}

/// A list of scenario × policy runs executed together through
/// [`par_map`], results returned in the order the runs were added.
///
/// ```
/// use powersim::units::Seconds;
/// use simkit::{Campaign, ExecConfig, PolicyKind, Scenario};
///
/// let mut sc = Scenario::paper_default(7);
/// sc.duration = Seconds(30.0); // doctest-sized
/// let results = Campaign::new()
///     .add(sc.clone(), PolicyKind::SprintCon)
///     .add(sc, PolicyKind::Sgct)
///     .run_with(ExecConfig::jobs(2));
/// assert_eq!(results[0].kind, PolicyKind::SprintCon);
/// assert_eq!(results[1].kind, PolicyKind::Sgct);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    entries: Vec<CampaignEntry>,
}

impl Campaign {
    pub fn new() -> Self {
        Campaign::default()
    }

    /// Schedule one run with paper-default policy configuration.
    pub fn add(&mut self, scenario: Scenario, kind: PolicyKind) -> &mut Self {
        let label = format!("{}@seed{}", kind.name(), scenario.seed);
        self.add_with(label, scenario, kind, PolicyOverrides::default())
    }

    /// Schedule one run with an explicit label and policy overrides.
    pub fn add_with(
        &mut self,
        label: impl Into<String>,
        scenario: Scenario,
        kind: PolicyKind,
        overrides: PolicyOverrides,
    ) -> &mut Self {
        self.entries.push(CampaignEntry {
            label: label.into(),
            scenario,
            kind,
            overrides,
        });
        self
    }

    /// Schedule every §VII policy over `scenario`, in
    /// [`PolicyKind::ALL`] order.
    pub fn add_all_policies(&mut self, scenario: Scenario) -> &mut Self {
        for kind in PolicyKind::ALL {
            self.add(scenario.clone(), kind);
        }
        self
    }

    /// Schedule the full cross product `scenarios × kinds`,
    /// scenario-major.
    pub fn add_grid(
        &mut self,
        scenarios: impl IntoIterator<Item = Scenario>,
        kinds: &[PolicyKind],
    ) -> &mut Self {
        for sc in scenarios {
            for &kind in kinds {
                self.add(sc.clone(), kind);
            }
        }
        self
    }

    pub fn entries(&self) -> &[CampaignEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Execute on the calling thread, one run at a time.
    pub fn run_sequential(&self) -> Vec<CampaignResult> {
        self.run_with(ExecConfig::sequential())
    }

    /// Execute every scheduled run on `exec`'s workers; results in input
    /// order, bit-identical to [`Campaign::run_sequential`] (see the
    /// module docs for the contract).
    pub fn run_with(&self, exec: ExecConfig) -> Vec<CampaignResult> {
        let mut entries: Vec<&CampaignEntry> = self.entries.iter().collect();
        par_map(&mut entries, exec.resolved_jobs(), |e| CampaignResult {
            label: e.label.clone(),
            kind: e.kind,
            seed: e.scenario.seed,
            output: run_instrumented(&e.scenario, e.kind, &e.overrides, exec.telemetry),
        })
    }
}

/// 64-bit FNV-1a determinism digest of the plant side of a run: its
/// recorder samples and events, and the §VII summary. Telemetry is not
/// hashed, so a run digests the same with or without a collector, and
/// adding a metric never moves a digest.
///
/// Two runs of the same scenario/policy — sequential or parallel, on any
/// thread, traced or not — must produce equal digests; `bench_engine
/// --check` and `tests/parallel.rs` enforce this.
///
/// Composed from [`digest_sample`] (once per sample, in order) followed
/// by [`digest_run_tail`]. A streaming recorder keeps no samples but
/// folds each one at push time, so the digest starts from that fold
/// ([`Recorder::stream_digest`](crate::recorder::Recorder::stream_digest))
/// and is the same as if the samples had been kept.
pub fn run_digest(out: &RunOutput) -> u64 {
    let mut h = out.recorder.stream_digest().unwrap_or_else(|| {
        let mut h = DigestBuilder::new();
        for s in out.recorder.samples() {
            digest_sample(&mut h, s);
        }
        h
    });
    digest_run_tail(&mut h, out.recorder.events(), &out.summary, &out.metrics);
    h.finish()
}

/// Fold one recorder [`Sample`](crate::recorder::Sample) into `h`: the
/// per-sample section of [`run_digest`], which a streaming recorder
/// applies at push time instead of keeping the sample.
pub fn digest_sample(h: &mut DigestBuilder, s: &crate::recorder::Sample) {
    h.f64(s.t.0);
    h.f64(s.p_total.0);
    h.f64(s.p_measured.0);
    h.f64(s.p_server.0);
    h.f64(s.p_fan.0);
    h.f64(s.cb_power.0);
    h.f64(s.ups_power.0);
    h.f64(s.shortfall.0);
    h.bool(s.tripped);
    h.bool(s.breaker_closed);
    h.f64(s.breaker_margin);
    h.f64(s.ups_soc);
    h.opt_f64(s.p_cb_target.map(|w| w.0));
    h.opt_f64(s.p_batch_target.map(|w| w.0));
    h.f64(s.mean_freq_interactive);
    h.f64(s.mean_freq_batch);
    h.f64(s.interactive_backlog);
    // Open-loop queue observation: contributes bytes only when
    // present, so closed-loop runs keep their pre-redesign digests
    // bit-exactly (no None marker is hashed).
    if let Some(q) = s.queue {
        h.f64(q.depth);
        h.f64(q.p50_s);
        h.f64(q.p95_s);
        h.f64(q.p99_s);
        h.f64(q.arrived);
        h.f64(q.completed);
        h.f64(q.dropped);
    }
    h.str(&s.mode_label.to_string());
}

/// Fold everything [`run_digest`] hashes *after* the samples: the event
/// log and the §VII summary. Call after the last [`digest_sample`].
///
/// `_metrics` is not hashed. The parameter stays only because the
/// benchmark's traced floor replay calls this four-argument form; its
/// removal is queued with that caller.
pub fn digest_run_tail(
    h: &mut DigestBuilder,
    events: &[(powersim::units::Seconds, crate::recorder::SimEvent)],
    summary: &RunSummary,
    _metrics: &telemetry::MetricsSnapshot,
) {
    for (t, e) in events {
        h.f64(t.0);
        h.str(&format!("{e:?}"));
    }
    let s = summary;
    h.str(&s.policy);
    h.f64(s.avg_freq_interactive);
    h.f64(s.avg_freq_batch);
    h.u64(s.trips as u64);
    h.bool(s.shutdown);
    h.opt_f64(s.shutdown_at.map(|t| t.0));
    h.f64(s.ups_energy_wh);
    h.f64(s.dod);
    h.f64(s.max_dod);
    h.u64(s.deadlines_met as u64);
    h.u64(s.deadlines_total as u64);
    h.f64(s.normalized_time_use);
    h.f64(s.service_ratio);
    h.f64(s.cb_energy_wh);
    h.u64(s.grid_violations);
    // Same conditional-hash rule as Sample.queue above.
    if let Some(t) = s.open_loop {
        h.f64(t.p50_s);
        h.f64(t.p95_s);
        h.f64(t.p99_s);
        h.f64(t.max_s);
        h.f64(t.arrived);
        h.f64(t.completed);
        h.f64(t.dropped);
        h.f64(t.drop_fraction);
    }
}

/// Order-sensitive FNV-1a combiner for composite digests.
///
/// The datacenter engine folds per-rack [`run_digest`] values plus the
/// market-round grants and aggregate breaker outcomes into one
/// deterministic digest; anything else that needs to hash structured
/// results with the same bit-exact f64 semantics can reuse it.
///
/// `Clone` snapshots the accumulator state, which is how the streaming
/// recorder hands its incremental sample fold to the finalizer while
/// remaining usable itself.
#[derive(Debug, Clone)]
pub struct DigestBuilder(Fnv);

impl Default for DigestBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestBuilder {
    pub fn new() -> Self {
        DigestBuilder(Fnv::new())
    }

    pub fn u64(&mut self, v: u64) {
        self.0.u64(v);
    }

    /// Hash the exact bit pattern of `v` (distinguishes `-0.0`/`0.0`,
    /// NaN payloads — matching [`run_digest`]'s semantics).
    pub fn f64(&mut self, v: f64) {
        self.0.f64(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.0.bool(v);
    }

    /// Hash `Some(v)`/`None` with an explicit presence marker byte
    /// (matching [`run_digest`]'s treatment of optional targets).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        self.0.opt_f64(v);
    }

    pub fn str(&mut self, s: &str) {
        self.0.str(s);
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Minimal FNV-1a accumulator (no std `Hasher` detour: f64 hashing must
/// be explicit about bit patterns).
#[derive(Debug, Clone)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.bytes(&[1]);
                self.f64(v);
            }
            None => self.bytes(&[0]),
        }
    }

    fn bool(&mut self, v: bool) {
        self.bytes(&[v as u8]);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]); // delimiter: "ab","c" != "a","bc"
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_policy;
    use powersim::units::Seconds;

    fn quick_scenario(seed: u64) -> Scenario {
        let mut sc = Scenario::paper_default(seed);
        sc.duration = Seconds(20.0);
        sc
    }

    #[test]
    fn campaign_runs_in_input_order_with_auto_labels() {
        let mut c = Campaign::new();
        c.add(quick_scenario(1), PolicyKind::Sgct);
        c.add(quick_scenario(2), PolicyKind::SprintCon);
        let results = c.run_with(ExecConfig::jobs(2));
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].label, "SGCT@seed1");
        assert_eq!(results[1].label, "SprintCon@seed2");
        assert_eq!(results[0].seed, 1);
        assert_eq!(results[1].kind, PolicyKind::SprintCon);
    }

    #[test]
    fn parallel_digests_match_sequential() {
        let mut c = Campaign::new();
        c.add_all_policies(quick_scenario(5));
        let par = c.run_with(ExecConfig::jobs(4));
        let seq = c.run_sequential();
        assert_eq!(par.len(), PolicyKind::ALL.len());
        for ((p, s), kind) in par.iter().zip(&seq).zip(PolicyKind::ALL) {
            assert_eq!(p.summary().policy, kind.name(), "not in ALL order");
            assert_eq!(p.digest(), s.digest(), "{} diverged", p.label);
        }
    }

    #[test]
    fn digest_distinguishes_different_runs() {
        let a = run_policy(&quick_scenario(5), PolicyKind::SprintCon);
        let b = run_policy(&quick_scenario(6), PolicyKind::SprintCon);
        assert_ne!(run_digest(&a), run_digest(&b));
        // And is reproducible for the same run.
        let a2 = run_policy(&quick_scenario(5), PolicyKind::SprintCon);
        assert_eq!(run_digest(&a), run_digest(&a2));
    }

    #[test]
    fn grid_is_scenario_major() {
        let kinds = [PolicyKind::SprintCon, PolicyKind::Sgct];
        let mut c = Campaign::new();
        c.add_grid([quick_scenario(1), quick_scenario(2)], &kinds);
        let labels: Vec<&str> = c.entries().iter().map(|e| e.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "SprintCon@seed1",
                "SGCT@seed1",
                "SprintCon@seed2",
                "SGCT@seed2"
            ]
        );
    }

    #[test]
    fn exec_config_resolves_widths() {
        assert_eq!(ExecConfig::sequential().resolved_jobs(), 1);
        assert_eq!(ExecConfig::jobs(3).resolved_jobs(), 3);
        assert!(ExecConfig::parallel().resolved_jobs() >= 1);
    }

    #[test]
    fn par_map_preserves_order_and_maps_every_item_once() {
        for width in [2, 3, 4, 23] {
            let mut items: Vec<u64> = (0..23).collect();
            let out = par_map(&mut items, width, |p| {
                *p += 1;
                *p * 7
            });
            assert_eq!(out, (1..24).map(|p| p * 7).collect::<Vec<_>>());
            assert_eq!(items, (1..24).collect::<Vec<_>>(), "width {width}");
        }
    }

    #[test]
    fn par_map_handles_empty_single_and_more_workers_than_items() {
        assert!(par_map(&mut Vec::<u64>::new(), 4, |p| *p).is_empty());
        assert_eq!(par_map(&mut [5u64], 4, |p| *p + 1), [6]);
        assert_eq!(par_map(&mut [1u64, 2, 3], 8, |p| *p * 2), [2, 4, 6]);
    }

    #[test]
    fn par_map_width_one_runs_on_the_caller_and_workers_start_clean() {
        use std::cell::Cell;
        thread_local!(static MARK: Cell<u32> = const { Cell::new(0) });
        MARK.with(|m| m.set(7));
        let caller = std::thread::current().id();
        let probe = |_: &mut ()| (MARK.with(Cell::get), std::thread::current().id());
        let seq = par_map(&mut [(); 4], 1, probe);
        assert!(seq.iter().all(|&(m, id)| m == 7 && id == caller));
        let par = par_map(&mut [(); 4], 4, probe);
        assert!(
            par.iter().all(|&(m, id)| m == 0 && id != caller),
            "workers must be fresh threads without the caller's thread-locals"
        );
    }

    #[test]
    fn par_map_reraises_a_worker_panic_on_the_caller() {
        let mut items: Vec<u64> = (0..8).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&mut items, 4, |p| {
                assert_ne!(*p, 5, "item five fails");
                *p
            })
        }));
        let payload = caught.expect_err("the worker panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("assert! payloads are formatted strings");
        assert!(msg.contains("item five fails"), "payload: {msg}");
    }
}
