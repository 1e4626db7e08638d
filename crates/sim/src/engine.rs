//! The discrete-time rack simulation.
//!
//! One [`RackSim`] owns the whole plant of Fig. 4 — servers, cooling
//! fans, circuit breaker, UPS — plus the workloads, and advances it one
//! control period at a time under a [`Policy`]. The policy sees only
//! what a real controller could measure (noisy total power, utilizations,
//! breaker margin, SoC) — except where a baseline is explicitly granted
//! oracle access (§VI-B).
//!
//! Causality per tick:
//!
//! 1. the policy decides from the *previous* tick's measurements
//!    (one-period measurement delay, as in the paper's control loops);
//! 2. frequency commands are applied (quantized by the rack's DVFS
//!    ladder);
//! 3. workloads execute: the interactive tier turns demand into
//!    utilization/queueing, batch jobs advance;
//! 4. plant power is evaluated in one batched pass over the rack's SoA
//!    slabs (servers + fans) and measured;
//! 5. the feed serves the demand (UPS discharge target from the policy,
//!    remainder through the breaker) — trips and brownouts happen here;
//! 6. a brownout shuts the rack down for good (Fig. 5's ending).
//!
//! The hot loop is allocation-free: interactive frequencies and loads go
//! through reused scratch buffers, role blocks are written through
//! contiguous [`powersim::rack::RoleViewMut`] slices, and the power pass
//! is `Rack::update_server_powers` over the slabs.

use crate::mode::ModeLabel;
use crate::policy::{FreqCommand, Policy, PolicyCommand, SimView};
use crate::recorder::{Recorder, Sample};
use crate::scenario::{Scenario, ScenarioError};
use powersim::breaker::{BreakerState, CircuitBreaker};
use powersim::cpu::CoreRole;
use powersim::fan::FanModel;
use powersim::faults::{ActiveFaults, FaultInjector};
use powersim::grid::GridInjector;
use powersim::rack::{PowerMonitor, Rack};
use powersim::topology::PowerFeed;
use powersim::units::{NormFreq, Seconds, Watts};
use powersim::ups::UpsBattery;
use workloads::batch::BatchJob;
use workloads::interactive::{InteractiveLoad, InteractiveTier};
use workloads::open_loop::{
    OpenLoopLoad, OpenLoopTier, QueueObservation, TailSummary, WorkloadSource,
};
use workloads::trace::Trace;

/// Busy batch cores register near-full utilization on the performance
/// counters (stall cycles count as busy for OS-level accounting).
const BATCH_BUSY_UTIL: f64 = 0.95;

/// The interactive tier behind the typed [`WorkloadSource`]: the
/// closed-loop utilization model or the open-loop request queue.
#[derive(Debug, Clone)]
pub enum TierState {
    /// Closed-loop utilization trace ([`WorkloadSource::UtilTrace`]).
    Util(InteractiveTier),
    /// Open-loop request queueing ([`WorkloadSource::OpenLoop`]).
    OpenLoop(OpenLoopTier),
}

impl TierState {
    /// Number of servers the tier covers.
    pub fn num_servers(&self) -> usize {
        match self {
            TierState::Util(t) => t.weights.len(),
            TierState::OpenLoop(t) => t.num_servers(),
        }
    }

    /// The normalized demand trace driving the tier.
    pub fn demand(&self) -> &Trace {
        match self {
            TierState::Util(t) => &t.demand,
            TierState::OpenLoop(t) => &t.demand,
        }
    }

    /// Mutable demand access — tests and the CLI splice in custom traces.
    pub fn demand_mut(&mut self) -> &mut Trace {
        match self {
            TierState::Util(t) => &mut t.demand,
            TierState::OpenLoop(t) => &mut t.demand,
        }
    }

    /// Fraction of offered interactive work actually served.
    pub fn service_ratio(&self) -> f64 {
        match self {
            TierState::Util(t) => t.service_ratio(),
            TierState::OpenLoop(t) => t.service_ratio(),
        }
    }

    /// Mean queued interactive work per core, seconds at peak service
    /// rate (the closed-loop backlog, or the open-loop queue converted
    /// through the service time) — keeps QoS analytics comparable
    /// across sources.
    pub fn mean_backlog(&self) -> f64 {
        match self {
            TierState::Util(t) => t.mean_backlog(),
            TierState::OpenLoop(t) => t.queued_seconds_per_core(),
        }
    }

    /// This tick's queue observation (open loop only).
    pub fn queue(&self) -> Option<QueueObservation> {
        match self {
            TierState::Util(_) => None,
            TierState::OpenLoop(t) => Some(t.last_tick()),
        }
    }

    /// Whole-run tail summary (open loop only).
    pub fn tail_summary(&self) -> Option<TailSummary> {
        match self {
            TierState::Util(_) => None,
            TierState::OpenLoop(t) => Some(t.tail_summary()),
        }
    }
}

/// The complete simulated plant plus workloads.
pub struct RackSim {
    pub rack: Rack,
    pub feed: PowerFeed,
    pub fan: FanModel,
    pub monitor: PowerMonitor,
    pub tier: TierState,
    /// One job per batch core, rack order (server-major).
    pub jobs: Vec<BatchJob>,
    /// Per-server power state; a rack-level brownout clears all of them.
    powered: Vec<bool>,
    /// Permanent outage flag (post-brownout, Fig. 5).
    shutdown: bool,
    now: Seconds,
    dt: Seconds,
    /// Stale measurement fed to the policy (one-period delay).
    last_measured: Watts,
    last_fan: Watts,
    max_rack_power: Watts,
    /// Previous tick's mode label (event-log edge detection); `None`
    /// until the first tick.
    last_mode: Option<ModeLabel>,
    /// Previous tick's breaker state (reclose detection).
    last_breaker_closed: bool,
    /// Injected-fault replay state (inert for an empty plan).
    faults: FaultInjector,
    /// Grid-event replay state (inert for an empty plan).
    grid: GridInjector,
    /// The spec'd inverter limit, restored when a current-limit fault ends.
    ups_max_discharge_nominal: Watts,
    /// Was any crash fault active last tick (power-state resync edge)?
    crash_was_active: bool,
    /// Post-deadline periods above an active curtailment cap.
    grid_violations: u64,
    /// Step the plant through the scalar per-core reference path instead
    /// of the batched slab pass (digest-equivalence tests only).
    reference_stepping: bool,
    /// Scratch: per-server mean interactive frequency (reused per tick).
    scratch_inter_freqs: Vec<NormFreq>,
    /// Scratch: per-server interactive loads (reused per tick).
    scratch_loads: Vec<InteractiveLoad>,
    /// Scratch: per-server open-loop loads (reused per tick).
    scratch_ol_loads: Vec<OpenLoopLoad>,
    /// Stale queue observation fed to the policy (one-period delay,
    /// like `last_measured`); `None` on the closed-loop path.
    last_queue: Option<QueueObservation>,
}

impl RackSim {
    /// Validate `scenario` and assemble the full plant from it — rack,
    /// feed, fan, monitor, interactive tier, batch jobs, fault injector.
    ///
    /// This replaces the old seven-argument positional constructor: every
    /// component is derived from the one scenario description, so call
    /// sites cannot wire mismatched plants.
    pub fn from_scenario(scenario: &Scenario) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        let rack = scenario.plant().rack().map_err(ScenarioError::Plant)?;
        let tier = match &scenario.workload {
            WorkloadSource::UtilTrace(dm) => {
                // Same stream position the pre-redesign engine used:
                // the demand generator consumes the bare seed.
                let demand = dm.generate(scenario.seed);
                TierState::Util(InteractiveTier::new(demand, scenario.num_servers))
            }
            WorkloadSource::OpenLoop { arrivals, service } => {
                TierState::OpenLoop(OpenLoopTier::new(
                    arrivals,
                    service,
                    scenario.num_servers,
                    scenario.interactive_cores_per_server,
                    scenario.seed,
                ))
            }
        };
        let feed = PowerFeed::new(
            CircuitBreaker::new(scenario.breaker),
            UpsBattery::full(scenario.ups),
        );
        // Seed offsets keep every noise stream independent: wiki = seed,
        // fan = seed+1, monitor = seed+2, faults = seed+3, grid = seed+4
        // (dc_engine reserves seed+5 for its feeder-level grid injector).
        let fan = FanModel::paper_default(scenario.seed.wrapping_add(1));
        let monitor = PowerMonitor::new(
            scenario.seed.wrapping_add(2),
            scenario.disturbances.monitor_rel_sigma,
            scenario.disturbances.monitor_abs_sigma,
        );
        let jobs = scenario.build_jobs();
        let faults = FaultInjector::new(
            scenario.disturbances.faults.clone(),
            scenario.seed.wrapping_add(3),
        );
        let grid = GridInjector::new(scenario.grid.clone(), scenario.seed.wrapping_add(4));

        let n = rack.num_servers();
        // Invariants: the tier and job list were built from the same
        // scenario two lines up, so the sizes cannot disagree.
        assert_eq!(tier.num_servers(), n, "tier must cover every server");
        assert_eq!(
            jobs.len(),
            rack.count_role(CoreRole::Batch),
            "one job per batch core"
        );
        let max_rack_power = rack.max_power();
        let initial = rack.power();
        let ups_max_discharge_nominal = feed.ups.spec.max_discharge;
        Ok(RackSim {
            feed,
            powered: vec![true; n],
            shutdown: false,
            now: Seconds::ZERO,
            dt: scenario.dt,
            last_measured: initial,
            last_fan: Watts::ZERO,
            rack,
            fan,
            monitor,
            tier,
            jobs,
            max_rack_power,
            last_mode: None,
            last_breaker_closed: true,
            faults,
            grid,
            ups_max_discharge_nominal,
            crash_was_active: false,
            grid_violations: 0,
            reference_stepping: false,
            scratch_inter_freqs: Vec::with_capacity(n),
            scratch_loads: Vec::with_capacity(n),
            scratch_ol_loads: Vec::with_capacity(n),
            last_queue: None,
        })
    }

    pub fn now(&self) -> Seconds {
        self.now
    }

    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    pub fn powered(&self) -> &[bool] {
        &self.powered
    }

    /// Control periods so far that drew more than an active
    /// curtailment's cap through the breaker after its response
    /// deadline (see [`RunSummary::grid_violations`](crate::RunSummary)).
    pub(crate) fn grid_violations(&self) -> u64 {
        self.grid_violations
    }

    /// Route plant power through the scalar per-core reference pass
    /// instead of the batched slab pass. The two are bit-identical by
    /// construction; property tests flip this to prove it on whole-run
    /// digests. Not a hot path.
    pub fn set_reference_stepping(&mut self, on: bool) {
        self.reference_stepping = on;
    }

    /// Mean frequency over cores of `role`, counting shut-down servers as
    /// zero — the convention behind Fig. 5(b)/Fig. 7's averages.
    pub fn effective_mean_freq(&self, role: CoreRole) -> f64 {
        let v = self.rack.role(role);
        if v.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for (s, row) in v.freqs.chunks_exact(v.per_server()).enumerate() {
            let on = self.powered[s];
            for &f in row {
                sum += if on { f } else { 0.0 };
            }
        }
        sum / v.len() as f64
    }

    /// Apply a frequency command through the (possibly faulty) DVFS
    /// actuator. A non-finite command holds the core's current frequency
    /// — real firmware rejects garbage rather than programming it.
    fn apply_freqs(&mut self, cmd: &FreqCommand, af: &ActiveFaults) {
        let dt = self.dt;
        let lag_alpha = af.actuator_lag.map(|tau| dt.0 / (dt.0 + tau.0));
        let quant = af.actuator_quantize;
        // Every caller writes the shaped value through the ladder's
        // `quantize`, which clamps it into `[min, max]`.
        let shape = move |cur: f64, want: f64| -> f64 {
            let mut f = if want.is_finite() { want } else { cur };
            if let Some(step) = quant {
                if step > 0.0 {
                    f = (f / step).round() * step;
                }
            }
            if let Some(a) = lag_alpha {
                f = cur + (f - cur) * a;
            }
            f
        };
        let faulty = af.any_actuator();
        match cmd {
            FreqCommand::RoleBased { interactive, batch } => {
                let mut iv = self.rack.role_mut(CoreRole::Interactive);
                if !faulty {
                    // A non-finite request holds every lane.
                    iv.fill_freq(*interactive);
                } else {
                    for lane in 0..iv.len() {
                        let cur = iv.freqs[lane];
                        iv.set_freq(lane, NormFreq(shape(cur, interactive.0)));
                    }
                }
                let mut bv = self.rack.role_mut(CoreRole::Batch);
                assert_eq!(bv.len(), batch.len(), "one frequency per batch core");
                if !faulty {
                    // Healthy actuator: one vectorized pass over the batch
                    // lane slab (non-finite lanes hold, as below).
                    bv.set_freqs(batch);
                } else {
                    for (lane, &f) in batch.iter().enumerate() {
                        let cur = bv.freqs[lane];
                        bv.set_freq(lane, NormFreq(shape(cur, f)));
                    }
                }
            }
            // Healthy actuator: one vectorized pass per role block
            // (non-finite lanes hold, as above).
            FreqCommand::AllCores(freqs) if !faulty => self.rack.set_all_freqs(freqs),
            FreqCommand::AllCores(freqs) => {
                let per_server = self.rack.cores_per_server();
                assert_eq!(
                    freqs.len(),
                    self.rack.num_servers() * per_server,
                    "one frequency per core"
                );
                for (idx, &f) in freqs.iter().enumerate() {
                    let id = powersim::rack::CoreId {
                        server: idx / per_server,
                        core: idx % per_server,
                    };
                    let cur = self.rack.freq(id).0;
                    self.rack.set_freq(id, NormFreq(shape(cur, f.0)));
                }
            }
        }
    }

    /// Apply this tick's plant-side faults: UPS capacity fade and current
    /// limits, breaker thermal perturbation, server crash windows. Inert
    /// (no state writes) when nothing is active.
    fn apply_plant_faults(&mut self, af: &ActiveFaults) {
        if let Some(fraction) = af.ups_capacity_fade {
            self.feed.ups.apply_capacity_fade(fraction);
        }
        let desired_limit = match af.ups_current_limit {
            Some(limit) => limit.min(self.ups_max_discharge_nominal),
            None => self.ups_max_discharge_nominal,
        };
        if self.feed.ups.spec.max_discharge != desired_limit {
            self.feed.ups.spec.max_discharge = desired_limit;
        }
        if let Some(delta) = af.breaker_heat_delta {
            if let BreakerState::Closed { heat } = &mut self.feed.breaker.state {
                *heat = (*heat + delta * self.feed.breaker.spec.trip_heat).max(0.0);
            }
        }
        let crash_now = !af.crashed_servers.is_empty();
        if (crash_now || self.crash_was_active) && !self.shutdown {
            for s in 0..self.powered.len() {
                self.powered[s] = !af.crashed_servers.contains(&s);
            }
        }
        self.crash_was_active = crash_now;
    }

    /// Advance one control period under `policy`, appending to `rec`.
    pub fn step(&mut self, policy: &mut dyn Policy, rec: &mut Recorder) {
        let _tick = telemetry::span("sim_tick");
        let dt = self.dt;
        // 0. Resolve this tick's injected faults (a no-op for an empty
        // plan) and apply the plant-side ones.
        let af = self.faults.advance(self.now, dt, self.last_measured);
        if af.any() && telemetry::enabled() {
            for label in af.labels() {
                telemetry::counter_add(&format!("fault_active.{label}"), 1);
            }
        }
        self.apply_plant_faults(&af);
        // Resolve this tick's grid signals (curtailment / price /
        // regulation) — zero RNG draws and a nominal `ActiveGrid` for an
        // empty plan, so grid-free runs stay bit-identical.
        let ag = self.grid.advance(self.now, dt);
        if telemetry::enabled() {
            if ag.curtail_onset {
                telemetry::counter_add("grid.curtail_events", 1);
            }
            if ag.price_onset {
                telemetry::counter_add("grid.price_events", 1);
            }
            if ag.reg_onset {
                telemetry::counter_add("grid.reg_events", 1);
            }
        }

        // 1. Policy decision on stale measurements.
        let view = SimView {
            now: self.now,
            dt,
            p_total_measured: self.last_measured,
            rack: &self.rack,
            jobs: &self.jobs,
            breaker_margin: self.feed.breaker.trip_margin(),
            breaker_closed: self.feed.breaker.is_closed(),
            ups_soc: self.feed.ups.soc_fraction(),
            fan_power: self.last_fan,
            shutdown: self.shutdown,
            queue: self.last_queue,
            grid: ag,
        };
        let command: PolicyCommand = policy.control(&view);

        // 2. Actuate (no effect once shut down; hardware is off).
        if !self.shutdown {
            self.apply_freqs(&command.freqs, &af);
        }

        // 3. Workloads execute, one role block at a time.
        self.rack
            .interactive_freqs_into(&mut self.scratch_inter_freqs);
        let ipc = self.rack.interactive_cores_per_server();
        match &mut self.tier {
            TierState::Util(tier) => {
                tier.step_into(
                    self.now,
                    dt,
                    &self.scratch_inter_freqs,
                    &self.powered,
                    &mut self.scratch_loads,
                );
                if ipc > 0 {
                    let iv = self.rack.role_mut(CoreRole::Interactive);
                    for (row, load) in iv.utils.chunks_exact_mut(ipc).zip(&self.scratch_loads) {
                        // Raw write: the tier already produced an in-range value,
                        // matching the pre-rework direct core-field store.
                        row.fill(load.util.0);
                    }
                }
            }
            TierState::OpenLoop(tier) => {
                tier.step_into(
                    self.now,
                    dt,
                    &self.scratch_inter_freqs,
                    &self.powered,
                    &mut self.scratch_ol_loads,
                );
                if ipc > 0 {
                    let iv = self.rack.role_mut(CoreRole::Interactive);
                    for (row, load) in iv.utils.chunks_exact_mut(ipc).zip(&self.scratch_ol_loads) {
                        row.fill(load.util.0);
                    }
                }
            }
        }
        let bpc = self.rack.batch_cores_per_server();
        if bpc > 0 {
            let bv = self.rack.role_mut(CoreRole::Batch);
            debug_assert_eq!(bv.len(), self.jobs.len());
            let rows = bv
                .freqs
                .chunks_exact(bpc)
                .zip(bv.utils.chunks_exact_mut(bpc));
            let mut jobs = self.jobs.iter_mut();
            for (s, (frow, urow)) in rows.enumerate() {
                let on = self.powered[s];
                for (j, (&fq, u)) in frow.iter().zip(urow.iter_mut()).enumerate() {
                    let job = jobs.next().expect("one job per batch lane");
                    let was_done = job.is_done();
                    let f = if on { fq } else { 0.0 };
                    job.step(f, dt);
                    if !was_done && job.is_done() {
                        rec.push_event(
                            Seconds(self.now.0 + dt.0),
                            crate::recorder::SimEvent::JobCompleted { core: s * bpc + j },
                        );
                    }
                    let busy = on && (!job.is_done() || job.repeat);
                    *u = if busy { BATCH_BUSY_UTIL } else { 0.0 };
                }
            }
        }

        // 4. Plant power: one batched pass over the slabs (crashed or
        // shut-down servers draw nothing), refreshing the per-server
        // power slab for the thermal model.
        let server_power = if self.reference_stepping {
            self.rack.power_reference_masked(&self.powered)
        } else {
            self.rack.update_server_powers(Some(&self.powered))
        };
        self.rack.step_thermal(dt);
        let fan_power = if self.shutdown {
            Watts::ZERO
        } else {
            self.fan
                .step(server_power.0 / self.max_rack_power.0.max(1.0), dt)
        };
        let p_true = server_power + fan_power;
        // The monitor always draws its noise sample (the sensor hardware
        // keeps running) — faults corrupt what it *reports*.
        let p_measured = self
            .faults
            .corrupt_measurement(self.monitor.measure(p_true), &af);

        // 5. Serve the demand. The feed rejects a non-finite discharge
        // target (a confused controller must not crash the plant model).
        let ups_target = if command.ups_target.is_finite() {
            command.ups_target
        } else {
            Watts::ZERO
        };
        let outcome = self.feed.step(p_true, ups_target, dt);

        // Curtailment compliance is judged on grid-side draw (breaker
        // power — UPS bridging is legitimate demand response): once the
        // latched response deadline has passed, every period still above
        // the cap is a violation.
        if let (Some(cap), Some(deadline)) = (ag.curtail_cap, ag.curtail_deadline) {
            if self.now.0 >= deadline.0 && outcome.cb_power.0 > cap.0 {
                self.grid_violations += 1;
            }
        }

        // 6. Brownout ⇒ permanent shutdown (servers lose power and the
        // paper's scenario has no restart procedure).
        let browned_out = outcome.shortfall.0 > 1.0;
        if browned_out && !self.shutdown {
            self.shutdown = true;
            for p in self.powered.iter_mut() {
                *p = false;
            }
        }

        // Event log: edges only.
        {
            use crate::recorder::SimEvent;
            let t = Seconds(self.now.0 + dt.0);
            if outcome.tripped {
                rec.push_event(t, SimEvent::BreakerTripped);
            }
            let closed = self.feed.breaker.is_closed();
            if closed && !self.last_breaker_closed && !outcome.tripped {
                rec.push_event(t, SimEvent::BreakerReclosed);
            }
            self.last_breaker_closed = closed;
            if browned_out {
                rec.push_event(t, SimEvent::Brownout);
            }
            if self.last_mode != Some(command.mode_label) {
                rec.push_event(t, SimEvent::ModeChange(command.mode_label));
                self.last_mode = Some(command.mode_label);
            }
        }

        // Per-period plant telemetry: worst-case breaker headroom over
        // the run, and the share of demand the UPS carried this period.
        telemetry::gauge_track_min("breaker_margin_min", 1.0 - self.feed.breaker.trip_margin());
        if p_true.0 > 0.0 {
            telemetry::histogram_observe("ups_discharge_duty", outcome.ups_power.0 / p_true.0);
        }

        self.now += dt;
        self.last_measured = p_measured;
        self.last_fan = fan_power;
        // Queue depth / tail quantiles reach the policy with the same
        // one-period staleness as the power measurement, and reach the
        // recorder as plain sample data (absent on the closed loop, so
        // closed-loop digests hash no queue bytes).
        let queue = self.tier.queue();
        self.last_queue = queue;
        if let Some(tail) = self.tier.tail_summary() {
            rec.set_tail(tail);
        }

        rec.push(Sample {
            t: self.now,
            p_total: p_true,
            p_measured,
            p_server: server_power,
            p_fan: fan_power,
            cb_power: outcome.cb_power,
            ups_power: outcome.ups_power,
            shortfall: outcome.shortfall,
            tripped: outcome.tripped,
            breaker_closed: self.feed.breaker.is_closed(),
            breaker_margin: self.feed.breaker.trip_margin(),
            ups_soc: self.feed.ups.soc_fraction(),
            p_cb_target: command.p_cb_target,
            p_batch_target: command.p_batch_target,
            mean_freq_interactive: self.effective_mean_freq(CoreRole::Interactive),
            mean_freq_batch: self.effective_mean_freq(CoreRole::Batch),
            interactive_backlog: self.tier.mean_backlog(),
            queue,
            mode_label: command.mode_label,
        });
    }

    /// Run for `duration` under `policy`; returns the recording.
    pub fn run(&mut self, policy: &mut dyn Policy, duration: Seconds) -> Recorder {
        let steps = (duration.0 / self.dt.0).round() as usize;
        let mut rec = Recorder::with_capacity(steps);
        for _ in 0..steps {
            self.step(policy, &mut rec);
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests_support::FixedPolicy;
    use crate::scenario::Scenario;

    fn sim() -> RackSim {
        Scenario::paper_default(42).build()
    }

    #[test]
    fn fixed_policy_runs_and_records() {
        let mut s = sim();
        let mut p = FixedPolicy::new(NormFreq::PEAK, 0.5, Watts::ZERO);
        let rec = s.run(&mut p, Seconds(60.0));
        assert_eq!(rec.len(), 60);
        // Power within the physical envelope (plus fans).
        for smp in rec.samples() {
            assert!(smp.p_total.0 > 2000.0 && smp.p_total.0 < 5000.0);
            assert_eq!(smp.shortfall, Watts::ZERO);
        }
        assert!(!s.is_shutdown());
    }

    #[test]
    fn peak_everything_without_ups_trips_the_breaker() {
        let mut s = sim();
        // Everything at peak: ~4.3+ kW through a 3.2 kW breaker.
        let mut p = FixedPolicy::new(NormFreq::PEAK, 1.0, Watts::ZERO);
        let rec = s.run(&mut p, Seconds(300.0));
        assert!(
            rec.samples().iter().any(|s| s.tripped),
            "sustained 1.3× overload must trip"
        );
        // After the trip the breaker carries nothing.
        let after = rec
            .samples()
            .iter()
            .skip_while(|s| !s.tripped)
            .skip(1)
            .take(10);
        for smp in after {
            assert_eq!(smp.cb_power, Watts::ZERO);
            assert!(smp.ups_power.0 > 0.0, "UPS must carry the rack");
        }
    }

    #[test]
    fn ups_exhaustion_after_trip_causes_permanent_shutdown() {
        let mut s = sim();
        let mut p = FixedPolicy::new(NormFreq::PEAK, 1.0, Watts::ZERO);
        let rec = s.run(&mut p, Seconds::minutes(15.0));
        assert!(s.is_shutdown(), "UPS cannot carry 4+ kW for 12+ minutes");
        // Frequencies report as zero once down.
        let last = rec.samples().last().unwrap();
        assert_eq!(last.mean_freq_interactive, 0.0);
        assert_eq!(last.mean_freq_batch, 0.0);
        assert_eq!(last.p_total, Watts::ZERO);
        // And batch jobs stopped progressing.
        let before: Vec<f64> = s.jobs.iter().map(|j| j.progress()).collect();
        let mut p2 = FixedPolicy::new(NormFreq::PEAK, 1.0, Watts::ZERO);
        s.step(&mut p2, &mut Recorder::with_capacity(1));
        for (a, b) in before.iter().zip(s.jobs.iter().map(|j| j.progress())) {
            assert_eq!(*a, b);
        }
    }

    #[test]
    fn ups_discharge_keeps_breaker_at_rated() {
        let mut s = sim();
        // Deadbeat UPS support like SprintCon's law, via a closure-free
        // fixed policy: target enough discharge to cover everything over
        // 3.2 kW at peak batch.
        let mut p = FixedPolicy::new(NormFreq::PEAK, 1.0, Watts(1400.0));
        let rec = s.run(&mut p, Seconds(120.0));
        for smp in rec.samples() {
            assert!(!smp.tripped, "UPS support must prevent the trip");
            // A *fixed* (non-feedback) discharge leaves the CB near — but
            // safely around — rated; trips require sustained overload.
            assert!(smp.cb_power.0 < 3450.0, "cb={}", smp.cb_power);
        }
        assert!(s.feed.breaker.trip_margin() < 0.5);
    }

    #[test]
    fn actuation_holds_and_reaches_a_ladder_above_one() {
        use powersim::faults::{FaultKind, FaultPlan};
        let mut sc = Scenario::paper_default(42);
        sc.server.freq_scale.max = NormFreq(1.2);
        let lanes = |s: &RackSim| s.rack.state().freq.clone();
        let mut s = sc.build();
        let mut rec = Recorder::with_capacity(4);
        let mut p = FixedPolicy::new(NormFreq(1.2), 1.2, Watts(1500.0));
        s.step(&mut p, &mut rec);
        assert!(lanes(&s).iter().all(|&f| f == 1.2), "{:?}", lanes(&s));
        // A non-finite command holds every lane, even above 1.0 and even
        // off the ladder (as ideal actuation can leave it).
        s.rack.set_freq_unquantized(
            powersim::rack::CoreId { server: 0, core: 0 },
            NormFreq(1.13),
        );
        let before = lanes(&s);
        p.interactive = NormFreq(f64::NAN);
        p.batch = f64::NAN;
        s.step(&mut p, &mut rec);
        assert_eq!(lanes(&s), before);
        // A lagging actuator approaches a 1.2 command instead of stopping
        // at 1.0.
        sc.disturbances.faults = FaultPlan::none().with_event(
            Seconds(0.0),
            Seconds(600.0),
            FaultKind::ActuatorLag { tau: Seconds(1.0) },
        );
        let mut s = sc.build();
        let mut p = FixedPolicy::new(NormFreq(1.2), 1.2, Watts(1500.0));
        for _ in 0..4 {
            s.step(&mut p, &mut rec);
        }
        assert!(lanes(&s).iter().all(|&f| f > 1.0), "{:?}", lanes(&s));
    }

    #[test]
    fn batch_jobs_progress_with_frequency() {
        let mut s = sim();
        let mut p = FixedPolicy::new(NormFreq::PEAK, 0.6, Watts(500.0));
        s.run(&mut p, Seconds(120.0));
        for j in &s.jobs {
            assert!(j.progress() > 0.0, "job {} made no progress", j.name);
        }
    }

    #[test]
    fn event_log_captures_the_fig5_sequence() {
        use crate::recorder::SimEvent;
        let mut s = sim();
        let mut p = FixedPolicy::new(NormFreq::PEAK, 1.0, Watts::ZERO);
        let rec = s.run(&mut p, Seconds::minutes(15.0));
        let kinds: Vec<&SimEvent> = rec.events().iter().map(|(_, e)| e).collect();
        // The uncontrolled sequence: trip → reclose → … → brownout.
        assert!(kinds.contains(&&SimEvent::BreakerTripped));
        assert!(kinds.contains(&&SimEvent::BreakerReclosed));
        assert!(kinds.contains(&&SimEvent::Brownout));
        // Order: the first trip precedes the brownout.
        let t_trip = rec
            .events_where(|e| matches!(e, SimEvent::BreakerTripped))
            .next()
            .unwrap()
            .0;
        let t_down = rec
            .events_where(|e| matches!(e, SimEvent::Brownout))
            .next()
            .unwrap()
            .0;
        assert!(t_trip.0 < t_down.0);
        // The fixed policy emits exactly one mode label.
        let modes: Vec<_> = rec
            .events_where(|e| matches!(e, SimEvent::ModeChange(_)))
            .collect();
        assert_eq!(modes.len(), 1);
    }

    #[test]
    fn job_completions_are_logged_once_per_core() {
        use crate::recorder::SimEvent;
        let mut s = sim();
        // Fast batch: jobs complete well inside the horizon.
        let mut p = FixedPolicy::new(NormFreq::PEAK, 1.0, Watts(1500.0));
        let rec = s.run(&mut p, Seconds::minutes(12.0));
        let completions = rec
            .events_where(|e| matches!(e, SimEvent::JobCompleted { .. }))
            .count();
        assert_eq!(completions, 64, "one first-completion per batch core");
    }

    #[test]
    fn interactive_utilization_reflects_demand() {
        let mut s = sim();
        let mut p = FixedPolicy::new(NormFreq::PEAK, 0.5, Watts(500.0));
        s.run(&mut p, Seconds(60.0));
        let u = s.rack.mean_role_util(CoreRole::Interactive).unwrap();
        assert!(u.0 > 0.3 && u.0 <= 1.0, "u={u}");
    }

    #[test]
    fn die_temps_track_load() {
        let mut s = sim();
        let ambient = s.rack.thermal().ambient_c;
        let mut p = FixedPolicy::new(NormFreq::PEAK, 1.0, Watts(1400.0));
        s.run(&mut p, Seconds(180.0));
        // Near-peak power through the RC model: well above ambient,
        // below the throttle point's physical ceiling.
        let t = s.rack.max_die_temp();
        assert!(t > ambient + 30.0, "t={t}");
        assert!(t < s.rack.thermal().steady_temp(320.0), "t={t}");
    }
}
