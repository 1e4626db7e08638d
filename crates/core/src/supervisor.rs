//! The sprint supervisor: the top-level SprintCon object (Fig. 4).
//!
//! Owns the power load allocator and the two controllers, watches the
//! breaker and the energy storage, and handles the escalation ladder of
//! §IV-C:
//!
//! * breaker close to tripping → stop overloading it; the UPS takes over
//!   the excess load while the breaker recovers;
//! * energy storage running out → `P_cb` becomes the power target for
//!   *all* workloads (interactive cores get throttled too, a simple
//!   power-bidding fallback in the spirit of \[2\]);
//! * both → sprinting ends; the rack is driven back under the rated
//!   breaker capacity with no UPS support.

use crate::allocator::{PowerLoadAllocator, SPRINT_ENTRY_MARGIN};
use crate::config::{ConfigError, SprintConConfig};
use crate::server_controller::ServerPowerController;
use crate::ups_controller::UpsPowerController;
use powersim::grid::ActiveGrid;
use powersim::units::{NormFreq, Seconds, Utilization, Watts};
use workloads::batch::BatchJob;

/// UPS deadbeat undershoot on the curtailment cap while in
/// [`SprintMode::GridCurtail`]: compliance is judged on grid-side draw,
/// so the supervisor holds the breaker a few σ of monitor noise below
/// the cap rather than exactly on it.
const GRID_CB_MARGIN: f64 = 0.97;

/// Watts of the curtailment budget reserved against fan draw and model
/// error when triaging batch frequencies under a curtailment cap.
const GRID_TRIAGE_GUARD_W: f64 = 100.0;

/// Request-p99 bar above which the interactive tier is considered hot
/// during a curtailment: the queue is already stretching sojourn times,
/// so the cut must come from batch triage, not interactive throttling.
/// Held at half the tightest (100 ms) latency SLO so throttling backs
/// off well before the tail budget is spent.
const GRID_QUEUE_P99_GUARD_S: f64 = 0.05;

/// Supervisor operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SprintMode {
    /// Normal sprinting: CB on schedule, UPS covering the gap,
    /// interactive at peak, batch MPC-controlled.
    Sprinting,
    /// Breaker near its trip budget: overload stopped, UPS carries the
    /// excess until the breaker cools.
    CbProtect,
    /// UPS nearly empty: every workload is throttled into `P_cb`.
    UpsConserve,
    /// Both protections exhausted: sprint over, rack held under the
    /// rated capacity.
    Ended,
    /// An active grid curtailment: forced un-sprint with the rack driven
    /// under the curtailed cap (deadline-aware batch triage, interactive
    /// protected while the request queue is hot).
    GridCurtail,
}

impl SprintMode {
    /// Canonical short label, shared by traces, telemetry and the
    /// simulator's mode records.
    pub fn label(&self) -> &'static str {
        match self {
            SprintMode::Sprinting => "sprint",
            SprintMode::CbProtect => "cb-protect",
            SprintMode::UpsConserve => "ups-conserve",
            SprintMode::Ended => "ended",
            SprintMode::GridCurtail => "grid-curtail",
        }
    }
}

impl std::fmt::Display for SprintMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Open-loop request-queue measurement for one control period: what a
/// serving front end's load balancer would report. Plain data, no
/// telemetry — policies can be ablated on tail latency without
/// perturbing run digests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueMeasurement {
    /// Mean queue depth per server, requests.
    pub depth: f64,
    /// p99 request sojourn time over the period, seconds.
    pub p99_s: f64,
    /// Requests dropped per second over the period.
    pub drop_rate: f64,
}

/// Measurements handed to the supervisor each control period.
#[derive(Debug, Clone)]
pub struct SprintConInputs<'a> {
    /// Measured total rack power (power monitor).
    pub p_total: Watts,
    /// Per-server mean interactive-core utilization.
    pub interactive_util: &'a [Utilization],
    /// Current per-batch-core frequencies (actuator state).
    pub batch_freqs: &'a [f64],
    /// Batch jobs, ordered like the batch cores.
    pub jobs: &'a [BatchJob],
    /// Breaker thermal margin in `[0, 1]`.
    pub breaker_margin: f64,
    /// Breaker conducting?
    pub breaker_closed: bool,
    /// UPS state of charge fraction in `[0, 1]`.
    pub ups_soc: f64,
    /// One-period-stale open-loop queue measurement; `None` on the
    /// closed-loop utilization-trace path.
    pub queue: Option<QueueMeasurement>,
    /// Grid signals active this period ([`ActiveGrid::default`] — no
    /// curtailment, multiplier 1, no regulation — is bit-transparent).
    pub grid: ActiveGrid,
}

/// Commands returned to the plant each control period.
#[derive(Debug, Clone)]
pub struct SprintConOutputs {
    /// Frequency command per batch core.
    pub batch_freqs: Vec<f64>,
    /// Frequency command for every interactive core.
    pub interactive_freq: NormFreq,
    /// UPS discharge command.
    pub ups_discharge: Watts,
    /// Current breaker power target (`None` for uncontrolled sprints).
    pub p_cb_target: Option<Watts>,
    /// Current batch power budget.
    pub p_batch_target: Watts,
    pub mode: SprintMode,
}

/// The complete SprintCon control system.
#[derive(Debug, Clone)]
pub struct SprintCon {
    pub cfg: SprintConConfig,
    allocator: PowerLoadAllocator,
    server_ctrl: ServerPowerController,
    ups_ctrl: UpsPowerController,
    mode: SprintMode,
    now: Seconds,
    /// Interactive throttle state used in conservation modes.
    inter_freq: NormFreq,
    // --- degradation-ladder state (sensor-fault tolerance) ---
    /// Last reading that passed the plausibility checks.
    last_good_p_total: Option<Watts>,
    /// Previous raw reading (stuck-sensor detection).
    last_raw_p_total: Option<Watts>,
    /// Consecutive bit-identical raw readings beyond the first.
    repeat_run: u32,
    /// How long the supervisor has been without a trustworthy reading.
    stale_for: Seconds,
    /// Was the sensor considered faulty last period (guard-band edge)?
    sensor_degraded: bool,
    /// Breaker-power ceiling granted by the datacenter-level headroom
    /// market (`rated + grant`); `None` — the single-rack default —
    /// leaves every target untouched. See [`Self::apply_feeder_grant`].
    feeder_cap: Option<Watts>,
    /// Grid signals observed at the top of the current period; the
    /// default (no signals) leaves every code path bit-identical.
    active_grid: ActiveGrid,
}

impl SprintCon {
    /// Validate `cfg` and build the full control system.
    pub fn try_new(cfg: SprintConConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let server_ctrl = ServerPowerController::new(&cfg);
        let allocator = PowerLoadAllocator::new(&cfg, server_ctrl.batch_models().to_vec());
        Ok(SprintCon {
            allocator,
            server_ctrl,
            ups_ctrl: UpsPowerController::new(0.0),
            mode: SprintMode::Sprinting,
            now: Seconds::ZERO,
            inter_freq: NormFreq::PEAK,
            cfg,
            last_good_p_total: None,
            last_raw_p_total: None,
            repeat_run: 0,
            stale_for: Seconds::ZERO,
            sensor_degraded: false,
            feeder_cap: None,
            active_grid: ActiveGrid::default(),
        })
    }

    /// Build the control system, panicking on an invalid config; code
    /// taking configuration from outside should prefer [`Self::try_new`].
    pub fn new(cfg: SprintConConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid SprintCon config: {e}"))
    }

    pub fn mode(&self) -> SprintMode {
        self.mode
    }

    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Access the server controller (model queries, tests, benches).
    pub fn server_controller(&self) -> &ServerPowerController {
        &self.server_ctrl
    }

    // --- datacenter headroom market (two-level §IV-C generalization) ---
    //
    // These methods emit no telemetry: market rounds run on the driving
    // thread at supervisor boundaries, outside every per-rack collector
    // scope, so anything emitted here would not reach a rack's snapshot.

    /// Watts of overload headroom this rack wants from the shared tree:
    /// the full overload swing (`overloaded − rated`) whenever the
    /// sprint is still live. The request stays at the full swing during
    /// recovery phases too — the schedule can re-enter overload mid-
    /// epoch, and a grant is a *ceiling*, not a commitment to draw.
    pub fn headroom_request(&self) -> Watts {
        if self.mode == SprintMode::Ended {
            Watts::ZERO
        } else {
            Watts(self.cfg.overloaded().0 - self.cfg.rated().0)
        }
    }

    /// Deterministic urgency of [`Self::headroom_request`], derived
    /// purely from allocator state: baseline 1, plus 1 while the
    /// schedule is actually overloading, plus the batch-budget pressure
    /// (how much of the feasible batch range the allocator is asking
    /// for).
    pub fn headroom_priority(&self) -> f64 {
        let targets = self.allocator.targets();
        let (lo, hi) = self.allocator.p_batch_bounds();
        let span = (hi.0 - lo.0).max(1.0);
        let pressure = ((targets.p_batch.0 - lo.0) / span).clamp(0.0, 1.0);
        1.0 + pressure + if targets.overloading { 1.0 } else { 0.0 }
    }

    /// Install the market's answer: a grant of `g` headroom watts caps
    /// every breaker-power target at `rated + g` until the next round;
    /// `None` removes the cap (the single-rack default — with no cap
    /// installed, [`Self::step`] is bit-identical to the pre-datacenter
    /// supervisor). An ample grant (`g ≥ overloaded − rated`) is also
    /// bit-transparent, because `min(p_cb, cap)` returns `p_cb` exactly.
    pub fn apply_feeder_grant(&mut self, grant: Option<Watts>) {
        self.feeder_cap = grant.map(|g| {
            assert!(g.0 >= 0.0 && g.is_finite(), "invalid headroom grant");
            Watts(self.cfg.rated().0 + g.0)
        });
    }

    /// The currently installed breaker-power ceiling, if any.
    pub fn feeder_cap(&self) -> Option<Watts> {
        self.feeder_cap
    }

    /// Apply the grid nudge, the market ceiling and any curtailment cap
    /// to a breaker-power target. With no regulation delta, no feeder
    /// cap and no curtailment this is the exact identity — the grid
    /// layer is bit-transparent when no signal is active.
    fn cap_p_cb(&self, p_cb: Watts) -> Watts {
        // Frequency-regulation dispatches nudge the effective budget
        // symmetrically before any ceiling is applied.
        let shifted = match self.active_grid.reg_delta {
            Some(d) => Watts((p_cb.0 + d.0).max(0.0)),
            None => p_cb,
        };
        let capped = match self.feeder_cap {
            Some(cap) => Watts(shifted.0.min(cap.0)),
            None => shifted,
        };
        match self.active_grid.curtail_cap {
            Some(cap) => Watts(capped.0.min(cap.0)),
            None => capped,
        }
    }

    /// Deadline-aware batch triage under a curtailment cap: start every
    /// batch core at the DVFS floor, then grant frequency in ascending
    /// job-deadline order while the marginal model watts still fit what
    /// the cap leaves after the interactive estimate and a guard band.
    /// Nearest-deadline batches are drained first; relaxed jobs ride out
    /// the curtailment at the floor. Returns the per-core commands and
    /// the model watts the plan spends.
    fn triage_batch(
        &self,
        cap: Watts,
        p_inter: Watts,
        inputs: &SprintConInputs<'_>,
    ) -> (Vec<f64>, Watts) {
        let fmin = self.cfg.plant.server.freq_scale.min;
        let fmax = self.cfg.plant.server.freq_scale.max.0;
        let bpc = self.cfg.plant.batch_cores_per_server() as f64;
        let models = self.server_ctrl.batch_models();
        let n = self.server_ctrl.num_channels();
        let mut freqs = vec![fmin.0; n];
        let p_floor: f64 = models.iter().map(|m| m.predict(fmin).0).sum();
        let mut left = (cap.0 - p_inter.0 - GRID_TRIAGE_GUARD_W - p_floor).max(0.0);
        let mut spent = p_floor;
        // Nearest deadline first; the core index breaks ties so the plan
        // is deterministic.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            inputs.jobs[a]
                .deadline
                .0
                .total_cmp(&inputs.jobs[b].deadline.0)
                .then(a.cmp(&b))
        });
        for i in order {
            if left <= 0.0 {
                break;
            }
            let job = &inputs.jobs[i];
            let f_want = match job.required_rate(self.now) {
                Some(r) if r <= 0.0 => fmin.0,
                None => fmax,
                Some(r) => job.model.freq_for_rate(r.min(1.0)).unwrap_or(fmax),
            }
            .clamp(fmin.0, fmax);
            if f_want <= fmin.0 {
                continue;
            }
            let k = models[i / self.cfg.plant.batch_cores_per_server()].k;
            if k <= 0.0 {
                freqs[i] = f_want;
                continue;
            }
            // Raising one core by Δf raises its server's mean batch
            // frequency by Δf / cores, hence model watts by k·Δf / cores.
            let marginal = k * (f_want - fmin.0) / bpc;
            let granted = marginal.min(left);
            freqs[i] = (fmin.0 + granted * bpc / k).min(f_want);
            left -= granted;
            spent += granted;
        }
        (freqs, Watts(spent))
    }

    /// Degradation-ladder rungs 1–2: classify the raw measurement and
    /// replace it when the sensor misbehaves — hold the last good reading
    /// within the staleness deadline, then fall back to `p_model_est`
    /// (interactive model + batch model, the best open-loop estimate).
    /// Returns the value the controllers should consume and whether the
    /// sensor is currently considered faulty.
    fn sanitize_p_total(&mut self, raw: Watts, dt: Seconds, p_model_est: Watts) -> (Watts, bool) {
        let fault: Option<&'static str> = if !raw.is_finite() {
            Some("dropout")
        } else {
            if self.last_raw_p_total == Some(raw) {
                self.repeat_run += 1;
            } else {
                self.repeat_run = 0;
                self.last_raw_p_total = Some(raw);
            }
            if self.repeat_run >= self.cfg.stuck_sensor_periods {
                Some("stuck_sensor")
            } else if raw.0 > 2.0 * self.cfg.overloaded().0 {
                // Twice the overloaded rack power: no legitimate reading
                // of the plant comes close.
                Some("spike_rejected")
            } else {
                None
            }
        };
        match fault {
            None => {
                self.last_good_p_total = Some(raw);
                self.stale_for = Seconds::ZERO;
                (raw, false)
            }
            Some(kind) => {
                self.stale_for += dt;
                telemetry::counter_add("degraded.measurement_hold", 1);
                if telemetry::enabled() {
                    telemetry::counter_add(&format!("degraded.{kind}"), 1);
                }
                let held = if self.stale_for.0 <= self.cfg.measurement_hold_max.0 {
                    self.last_good_p_total
                } else {
                    None
                };
                let value = match held {
                    Some(v) => v,
                    None => {
                        // Past the staleness deadline (or faulty from the
                        // very first period): the model estimate is the
                        // only feedback left. It misses the fan draw,
                        // which the widened guard band absorbs.
                        telemetry::counter_add("degraded.stale_fallback", 1);
                        p_model_est
                    }
                };
                (value, true)
            }
        }
    }

    fn update_mode(&mut self, inputs: &SprintConInputs<'_>, sensor_faulty: bool) {
        // Rung 4: sustained blind operation — no trustworthy reading for
        // longer than the blind bound. End the sprint rather than keep
        // overloading a breaker nobody is watching.
        if self.stale_for.0 > self.cfg.blind_sprint_end.0 && self.mode != SprintMode::Ended {
            telemetry::counter_add("degraded.sprint_ended_blind", 1);
            self.mode = SprintMode::Ended;
            return;
        }
        // Rung 2 (guard band): while the sensor is faulty, stop
        // overloading earlier — held/estimated feedback deserves less
        // trust near the trip budget.
        let stop = if sensor_faulty {
            self.cfg.trip_margin_stop - self.cfg.guard_band_widen
        } else {
            self.cfg.trip_margin_stop
        };
        let cb_stressed = !inputs.breaker_closed || inputs.breaker_margin >= stop;
        let ups_low = inputs.ups_soc <= self.cfg.soc_reserve;
        let curtailing = inputs.grid.curtail_cap.is_some();
        self.mode = match (self.mode, cb_stressed, ups_low) {
            (SprintMode::Ended, _, _) => SprintMode::Ended,
            (_, true, true) => SprintMode::Ended,
            // A live curtailment outranks the ordinary protections: the
            // rack is driven under the curtailed cap, which also rests
            // the breaker and spares the UPS. The two escalations above
            // stay terminal.
            _ if curtailing => SprintMode::GridCurtail,
            (_, true, false) => SprintMode::CbProtect,
            (_, false, true) => SprintMode::UpsConserve,
            (SprintMode::CbProtect, false, false) => SprintMode::Sprinting,
            (m, false, false) => {
                if m == SprintMode::UpsConserve {
                    // The UPS does not recharge mid-sprint; leaving
                    // conservation requires SoC above the reserve, which
                    // the guard above already established.
                    SprintMode::Sprinting
                } else {
                    SprintMode::Sprinting
                }
            }
        };
    }

    /// One control period (`dt` = `cfg.control_period`).
    pub fn step(&mut self, dt: Seconds, inputs: SprintConInputs<'_>) -> SprintConOutputs {
        assert_eq!(
            inputs.batch_freqs.len(),
            self.server_ctrl.num_channels(),
            "one frequency per batch core"
        );
        assert_eq!(inputs.jobs.len(), self.server_ctrl.num_channels());
        self.now += dt;
        self.active_grid = inputs.grid;

        // Price spikes raise the sprint-entry bar: the breaker must be
        // proportionally cooler before the schedule re-enters overload,
        // so sprinting on expensive energy needs a stronger case. At the
        // nominal multiplier (1.0) this writes the default bar back —
        // bit-identical to the pre-grid supervisor.
        self.allocator
            .set_sprint_entry_margin(SPRINT_ENTRY_MARGIN / inputs.grid.price_multiplier.max(1.0));

        // Sanitize the power measurement first: everything downstream —
        // allocator bias, MPC feedback, UPS deadbeat law — consumes the
        // sanitized value. On a healthy sensor it is bit-identical to the
        // raw reading.
        let p_inter = self.server_ctrl.interactive_power(inputs.interactive_util);
        let predicted = self
            .server_ctrl
            .model_predicted_batch_power(inputs.batch_freqs);
        let p_model_est = Watts(p_inter.0 + predicted.0);
        let (p_use, sensor_faulty) = self.sanitize_p_total(inputs.p_total, dt, p_model_est);
        if sensor_faulty && !self.sensor_degraded {
            telemetry::counter_add("degraded.guard_band_widened", 1);
        }
        self.sensor_degraded = sensor_faulty;

        // Feed the allocator its per-period interactive power estimate
        // and the feedback-vs-model bias, then advance its schedule.
        self.allocator.observe_interactive_power(p_inter);
        let p_fb = self
            .server_ctrl
            .feedback_power(p_use, inputs.interactive_util);
        self.allocator.observe_feedback_bias(p_fb, predicted);
        self.allocator
            .advance(self.now, dt, inputs.breaker_margin, inputs.jobs);

        let prev_mode = self.mode;
        self.update_mode(&inputs, sensor_faulty);
        if self.mode != prev_mode {
            if telemetry::enabled() {
                telemetry::counter_add("supervisor_mode_transitions", 1);
                telemetry::counter_add(
                    &format!(
                        "supervisor_transition.{}->{}",
                        prev_mode.label(),
                        self.mode.label()
                    ),
                    1,
                );
                telemetry::event(
                    "supervisor.mode_change",
                    &[
                        ("from", prev_mode.label().into()),
                        ("to", self.mode.label().into()),
                        ("t", self.now.0.into()),
                    ],
                );
            }
            self.ups_ctrl.reset();
            if matches!(
                self.mode,
                SprintMode::CbProtect | SprintMode::Ended | SprintMode::GridCurtail
            ) {
                // §IV-C: stop overloading a stressed breaker; a grid
                // curtailment is a forced un-sprint for the same reason.
                self.allocator.force_recovery();
            }
            if self.mode == SprintMode::GridCurtail && telemetry::enabled() {
                telemetry::counter_add("grid.forced_unsprint", 1);
            }
        }

        // Refresh progress weights every period (cheap) — the paper does
        // it whenever the allocator republishes; doing it here only
        // improves balance.
        self.server_ctrl.update_weights(self.now, inputs.jobs);

        let targets = self.allocator.targets();
        match self.mode {
            SprintMode::Sprinting | SprintMode::CbProtect => {
                // In CbProtect the allocator is already forced into
                // recovery, so targets.p_cb is the rated capacity.
                let p_cb = targets.p_cb.map(|p| self.cap_p_cb(p));
                let p_batch = targets.p_batch;
                let decision = self.server_ctrl.control(
                    p_use,
                    inputs.interactive_util,
                    p_batch,
                    inputs.batch_freqs,
                );
                let margin = if targets.overloading {
                    self.cfg.cb_target_margin
                } else {
                    self.cfg.cb_recovery_margin
                };
                let ups = match p_cb {
                    Some(target) => self.ups_ctrl.control(p_use, target * margin),
                    None => Watts::ZERO,
                };
                self.inter_freq = NormFreq::PEAK;
                SprintConOutputs {
                    batch_freqs: decision.freqs,
                    interactive_freq: NormFreq::PEAK,
                    ups_discharge: ups,
                    p_cb_target: p_cb,
                    p_batch_target: p_batch,
                    mode: self.mode,
                }
            }
            SprintMode::GridCurtail => {
                // Compliance target: the tightest active curtailment cap
                // (min-chained with the market ceiling and any regulation
                // nudge), never above the rated capacity — a curtailment
                // is a forced un-sprint.
                let cap = self.cap_p_cb(self.cfg.rated());
                // Deadline-aware batch triage: nearest-deadline jobs keep
                // running fast inside what the cap leaves over, everyone
                // else drops toward the DVFS floor.
                let (batch_freqs, p_batch_spent) = self.triage_batch(cap, p_inter, &inputs);
                // Interactive: while the request queue is hot (PR 7
                // measurement), the p99 protection outranks the energy
                // cut — interactive stays at peak and the UPS bridges the
                // gap, which is legitimate demand response. Once the
                // queue drains, throttle proportionally into the cap.
                let queue_hot = inputs
                    .queue
                    .is_some_and(|q| q.p99_s > GRID_QUEUE_P99_GUARD_S);
                if queue_hot {
                    self.inter_freq = NormFreq::PEAK;
                } else {
                    let fmin = self.cfg.plant.server.freq_scale.min;
                    let p_inter_est = p_inter.0.max(1.0);
                    let excess = p_use.0 - cap.0;
                    let scale = 1.0 - excess / p_inter_est;
                    let f_new = (self.inter_freq.0 * scale.clamp(0.5, 1.05)).clamp(fmin.0, 1.0);
                    self.inter_freq = NormFreq(f_new);
                }
                // Deadbeat the breaker a few σ of monitor noise under the
                // cap; the UPS absorbs the descent transient and any
                // queue-protection residual until the throttles bite.
                let ups = self.ups_ctrl.control(p_use, cap * GRID_CB_MARGIN);
                SprintConOutputs {
                    batch_freqs,
                    interactive_freq: self.inter_freq,
                    ups_discharge: ups,
                    p_cb_target: Some(cap),
                    p_batch_target: p_batch_spent,
                    mode: self.mode,
                }
            }
            SprintMode::UpsConserve | SprintMode::Ended => {
                // Budget for the whole rack: P_cb while conserving the
                // UPS; the plain rated capacity once the sprint is over.
                let budget = if self.mode == SprintMode::UpsConserve {
                    self.cap_p_cb(targets.p_cb.unwrap_or(self.cfg.rated()))
                } else {
                    self.cfg.rated()
                };
                // Batch cores drop to the DVFS floor; interactive cores
                // are throttled proportionally until the measured total
                // fits the budget (feedback iterates every period).
                let fmin = self.cfg.plant.server.freq_scale.min;
                let batch_freqs = vec![fmin.0; self.server_ctrl.num_channels()];
                let p_inter_est = p_inter.0.max(1.0);
                let excess = p_use.0 - budget.0;
                let scale = 1.0 - excess / p_inter_est;
                let f_new = (self.inter_freq.0 * scale.clamp(0.5, 1.05)).clamp(fmin.0, 1.0);
                self.inter_freq = NormFreq(f_new);
                // A residual trickle of UPS discharge covers what the
                // throttle has not yet absorbed (the battery clamps it
                // once truly empty).
                let ups = self.ups_ctrl.control(p_use, budget);
                SprintConOutputs {
                    batch_freqs,
                    interactive_freq: self.inter_freq,
                    ups_discharge: ups,
                    p_cb_target: Some(budget),
                    p_batch_target: Watts(0.0),
                    mode: self.mode,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::plant::PlantError;
    use workloads::batch::MAX_CONTROL_WEIGHT;
    use workloads::progress_model::ProgressModel;

    fn cfg() -> SprintConConfig {
        SprintConConfig::paper_default()
    }

    fn jobs(n: usize) -> Vec<BatchJob> {
        (0..n)
            .map(|i| {
                BatchJob::new(
                    format!("j{i}"),
                    ProgressModel::new(0.2),
                    400.0,
                    Seconds(900.0),
                )
            })
            .collect()
    }

    fn step_once(sc: &mut SprintCon, margin: f64, closed: bool, soc: f64) -> SprintConOutputs {
        let js = jobs(sc.server_controller().num_channels());
        step_with(sc, margin, closed, soc, &js)
    }

    /// One period at 4.2 kW, with every core at 0.6, over the jobs `js`.
    fn step_with(
        sc: &mut SprintCon,
        margin: f64,
        closed: bool,
        soc: f64,
        js: &[BatchJob],
    ) -> SprintConOutputs {
        let utils = vec![Utilization(0.6); sc.cfg.plant.num_servers];
        let freqs = vec![0.6; js.len()];
        sc.step(
            Seconds(1.0),
            SprintConInputs {
                p_total: Watts(4200.0),
                interactive_util: &utils,
                batch_freqs: &freqs,
                jobs: js,
                breaker_margin: margin,
                breaker_closed: closed,
                ups_soc: soc,
                queue: None,
                grid: ActiveGrid::default(),
            },
        )
    }

    #[test]
    fn try_new_rejects_configs_the_controller_cannot_build() {
        // Each of these passes every other check, and would panic while
        // the server controller fits its models or builds its MPC and PID.
        let mut no_batch = cfg();
        no_batch.plant.interactive_cores_per_server = no_batch.plant.server.num_cores;
        let err = SprintCon::try_new(no_batch).err();
        assert!(matches!(
            err,
            Some(ConfigError::Plant(PlantError::NoBatchCores {
                cores_per_server: 8,
                interactive: 8
            }))
        ));
        assert!(err.unwrap().to_string().contains("no batch core"));
        for util in [0.0, f64::NAN, -0.5, 1.5] {
            let mut c = cfg();
            c.assumed_batch_util = util;
            assert!(
                matches!(
                    SprintCon::try_new(c).err(),
                    Some(ConfigError::InvalidAssumedBatchUtil(_))
                ),
                "{util}"
            );
        }
        // MPC settings the controller cannot build or solve with; an
        // r_scale of 1e308 overflows the penalty diagonal of a weight,
        // and the largest r_scale the diagonal allows overflows the
        // linear term on a ladder that peaks at 2.
        type Break = fn(&mut SprintConConfig);
        let mpc_cases: [(&str, Break); 8] = [
            ("lc > lp", |c| c.mpc.lc = c.mpc.lp + 1),
            ("q = 0", |c| c.mpc.q = 0.0),
            ("q = ∞", |c| c.mpc.q = f64::INFINITY),
            ("tau_r = NaN", |c| c.mpc.tau_r = f64::NAN),
            ("r_scale = −1", |c| c.mpc.r_scale = -1.0),
            ("r_scale = 0", |c| c.mpc.r_scale = 0.0),
            ("r_scale = 1e308", |c| c.mpc.r_scale = 1e308),
            ("fmax = 2", |c| {
                c.mpc.r_scale = f64::MAX / (2.0 * MAX_CONTROL_WEIGHT);
                c.plant.server.freq_scale.max = NormFreq(2.0);
            }),
        ];
        for (case, break_it) in mpc_cases {
            let mut c = cfg();
            break_it(&mut c);
            let err = SprintCon::try_new(c).err();
            assert!(
                matches!(err, Some(ConfigError::InvalidMpc(_))),
                "{case}: {err:?}"
            );
            assert!(err.unwrap().to_string().starts_with("MPC config invalid"));
        }
        for period in [0.0, f64::NAN, f64::INFINITY] {
            let mut c = cfg();
            c.control_period = Seconds(period);
            assert!(matches!(
                SprintCon::try_new(c).err(),
                Some(ConfigError::NonPositiveControlPeriod(_))
            ));
        }
    }

    /// The largest `r_scale` that `validate` accepts runs a control
    /// period with every job overdue, so with every weight at the cap,
    /// on the paper ladder and on one that peaks at 2, whose penalty
    /// linear term `−2·r_scale·weight·fmax` is the larger of the two.
    #[test]
    fn the_largest_accepted_r_scale_runs_with_every_weight_at_the_cap() {
        for fmax in [1.0, 2.0] {
            let with = |r_scale: f64| {
                let mut c = cfg();
                c.plant.server.freq_scale.max = NormFreq(fmax);
                c.mpc.r_scale = r_scale;
                c
            };
            let accepts = |r_scale: f64| with(r_scale).validate().is_ok();
            // `validate`'s bound lies within a few ulps of where
            // 2·r_scale·MAX_CONTROL_WEIGHT·fmax overflows.
            let overflow = f64::MAX / (2.0 * MAX_CONTROL_WEIGHT * fmax);
            let ulps = |i: i64| f64::from_bits(overflow.to_bits().wrapping_add_signed(i));
            assert!(
                accepts(ulps(-8)) && !accepts(ulps(8)),
                "fmax {fmax}: the accepted r_scale does not end at the overflow"
            );
            let r_scale = (-8..8).map(ulps).take_while(|&r| accepts(r)).last();
            let r_scale = r_scale.expect("the window starts accepted");
            let mut sc = SprintCon::try_new(with(r_scale)).expect("an accepted config builds");
            let n = sc.server_controller().num_channels();
            let overdue: Vec<BatchJob> = (0..n)
                .map(|i| {
                    BatchJob::new(
                        format!("j{i}"),
                        ProgressModel::new(0.2),
                        400.0,
                        Seconds(0.5),
                    )
                })
                .collect();
            let out = step_with(&mut sc, 0.1, true, 1.0, &overdue);
            assert!(overdue
                .iter()
                .all(|j| j.control_weight(sc.now) == MAX_CONTROL_WEIGHT));
            assert_eq!(out.mode, SprintMode::Sprinting, "fmax {fmax}");
            assert!(out.batch_freqs.iter().all(|f| f.is_finite()), "fmax {fmax}");
        }
    }

    #[test]
    fn nominal_step_sprints_at_peak_interactive() {
        let mut sc = SprintCon::new(cfg());
        let out = step_once(&mut sc, 0.1, true, 1.0);
        assert_eq!(out.mode, SprintMode::Sprinting);
        assert_eq!(out.interactive_freq, NormFreq::PEAK);
        assert_eq!(out.p_cb_target, Some(Watts(4000.0)));
        // UPS covers the measured excess over P_cb × the 0.99 cooling
        // margin: 4200 − 3960 = 240 W.
        assert!((out.ups_discharge.0 - 240.0).abs() < 1e-9);
        assert_eq!(out.batch_freqs.len(), 64);
        for f in &out.batch_freqs {
            assert!((0.2..=1.0).contains(f));
        }
    }

    #[test]
    fn hot_breaker_triggers_cb_protect() {
        let mut sc = SprintCon::new(cfg());
        let out = step_once(&mut sc, 0.97, true, 1.0);
        assert_eq!(out.mode, SprintMode::CbProtect);
        // Overload stopped: target back at rated; UPS covers the rest
        // (against rated × recovery margin: 4200 − 3200×0.98 = 1064 W).
        assert_eq!(out.p_cb_target, Some(Watts(3200.0)));
        assert!((out.ups_discharge.0 - 1064.0).abs() < 1e-9);
        // Interactive stays at peak — CbProtect spends UPS, not latency.
        assert_eq!(out.interactive_freq, NormFreq::PEAK);
        // Recovers once the breaker cools.
        let out2 = step_once(&mut sc, 0.01, true, 1.0);
        assert_eq!(out2.mode, SprintMode::Sprinting);
    }

    #[test]
    fn open_breaker_counts_as_stressed() {
        let mut sc = SprintCon::new(cfg());
        let out = step_once(&mut sc, 0.0, false, 1.0);
        assert_eq!(out.mode, SprintMode::CbProtect);
    }

    #[test]
    fn low_soc_triggers_conservation_and_throttles_interactive() {
        let mut sc = SprintCon::new(cfg());
        let mut out = step_once(&mut sc, 0.1, true, 0.02);
        assert_eq!(out.mode, SprintMode::UpsConserve);
        // Batch at the floor.
        for f in &out.batch_freqs {
            assert!((f - 0.2).abs() < 1e-12);
        }
        // Interactive throttles below peak within a few periods (total
        // 4.2 kW > budget 4.0 kW).
        for _ in 0..5 {
            out = step_once(&mut sc, 0.1, true, 0.02);
        }
        assert!(out.interactive_freq.0 < 1.0, "f={}", out.interactive_freq.0);
    }

    #[test]
    fn both_exhausted_ends_the_sprint_permanently() {
        let mut sc = SprintCon::new(cfg());
        let out = step_once(&mut sc, 0.99, true, 0.01);
        assert_eq!(out.mode, SprintMode::Ended);
        assert_eq!(out.p_cb_target, Some(Watts(3200.0)));
        // Ended is terminal even if conditions improve.
        let out2 = step_once(&mut sc, 0.0, true, 1.0);
        assert_eq!(out2.mode, SprintMode::Ended);
    }

    #[test]
    fn mode_change_resets_ups_filter() {
        let c = cfg();
        c.validate().expect("paper default is valid");
        let mut sc = SprintCon::new(c);
        sc.ups_ctrl = UpsPowerController::new(0.8);
        // Build up filter state while sprinting.
        step_once(&mut sc, 0.1, true, 1.0);
        assert!(sc.ups_ctrl.last_command().0 > 0.0);
        // Transition to CbProtect resets it (then recomputes).
        let out = step_once(&mut sc, 0.97, true, 1.0);
        assert_eq!(out.mode, SprintMode::CbProtect);
        assert!((out.ups_discharge.0 - 1064.0).abs() < 1e-9);
    }

    #[test]
    fn time_advances_with_steps() {
        let mut sc = SprintCon::new(cfg());
        for _ in 0..10 {
            step_once(&mut sc, 0.1, true, 1.0);
        }
        assert_eq!(sc.now(), Seconds(10.0));
    }

    #[test]
    fn feeder_grant_caps_the_breaker_target() {
        let mut sc = SprintCon::new(cfg());
        // 300 W of granted headroom: the overload target drops from
        // 4000 W to rated + 300 = 3500 W, and the UPS covers the rest.
        sc.apply_feeder_grant(Some(Watts(300.0)));
        assert_eq!(sc.feeder_cap(), Some(Watts(3500.0)));
        let out = step_once(&mut sc, 0.1, true, 1.0);
        assert_eq!(out.mode, SprintMode::Sprinting);
        assert_eq!(out.p_cb_target, Some(Watts(3500.0)));
        assert!((out.ups_discharge.0 - (4200.0 - 3500.0 * 0.99)).abs() < 1e-9);
    }

    #[test]
    fn ample_or_absent_grant_is_bit_transparent() {
        // The single-rack equivalence contract: no cap, a full-swing
        // grant, and a generous grant all reproduce the uncapped
        // commands bit for bit.
        let mut base = SprintCon::new(cfg());
        let o_base = step_once(&mut base, 0.1, true, 1.0);
        for grant in [Some(Watts(800.0)), Some(Watts(5000.0)), None] {
            let mut sc = SprintCon::new(cfg());
            sc.apply_feeder_grant(grant);
            let out = step_once(&mut sc, 0.1, true, 1.0);
            assert_eq!(out.p_cb_target, o_base.p_cb_target, "{grant:?}");
            assert_eq!(
                out.ups_discharge.0.to_bits(),
                o_base.ups_discharge.0.to_bits(),
                "{grant:?}"
            );
            assert_eq!(out.batch_freqs, o_base.batch_freqs, "{grant:?}");
        }
    }

    #[test]
    fn headroom_request_is_the_overload_swing_until_the_sprint_ends() {
        let mut sc = SprintCon::new(cfg());
        assert_eq!(sc.headroom_request(), Watts(800.0));
        assert!(sc.headroom_priority() >= 1.0);
        // Recovery phases keep requesting (the grant is a ceiling, and
        // the schedule can re-enter overload before the next round).
        step_once(&mut sc, 0.97, true, 1.0);
        assert_eq!(sc.mode(), SprintMode::CbProtect);
        assert_eq!(sc.headroom_request(), Watts(800.0));
        // Ended is terminal: nothing to bid for.
        step_once(&mut sc, 0.99, true, 0.01);
        assert_eq!(sc.mode(), SprintMode::Ended);
        assert_eq!(sc.headroom_request(), Watts::ZERO);
    }

    #[test]
    fn zero_grant_pins_the_rack_at_rated() {
        let mut sc = SprintCon::new(cfg());
        sc.apply_feeder_grant(Some(Watts::ZERO));
        let out = step_once(&mut sc, 0.1, true, 1.0);
        assert_eq!(out.p_cb_target, Some(Watts(3200.0)));
    }

    /// Like `step_once`, but with an arbitrary power-monitor reading.
    fn step_with_p(
        sc: &mut SprintCon,
        p_total: Watts,
        margin: f64,
        closed: bool,
        soc: f64,
    ) -> SprintConOutputs {
        let n = sc.server_controller().num_channels();
        let utils = vec![Utilization(0.6); sc.cfg.plant.num_servers];
        let freqs = vec![0.6; n];
        let js = jobs(n);
        sc.step(
            Seconds(1.0),
            SprintConInputs {
                p_total,
                interactive_util: &utils,
                batch_freqs: &freqs,
                jobs: &js,
                breaker_margin: margin,
                breaker_closed: closed,
                ups_soc: soc,
                queue: None,
                grid: ActiveGrid::default(),
            },
        )
    }

    #[test]
    fn dropout_holds_last_good_then_ends_the_sprint_blind() {
        let mut sc = SprintCon::new(cfg());
        let healthy = step_with_p(&mut sc, Watts(4200.0), 0.1, true, 1.0);
        assert!((healthy.ups_discharge.0 - 240.0).abs() < 1e-9);
        // First dropout period: the held reading reproduces the healthy
        // command exactly (rung 1).
        let held = step_with_p(&mut sc, Watts(f64::NAN), 0.1, true, 1.0);
        assert_eq!(held.mode, SprintMode::Sprinting);
        assert!((held.ups_discharge.0 - 240.0).abs() < 1e-9);
        // Sustained blindness: past `blind_sprint_end` (30 s) the
        // supervisor ends the sprint rather than overload unwatched
        // (rung 4). Every output stays finite throughout.
        let mut ended_at = None;
        for i in 2..45 {
            let out = step_with_p(&mut sc, Watts(f64::NAN), 0.1, true, 1.0);
            assert!(out.ups_discharge.is_finite());
            assert!(out.batch_freqs.iter().all(|f| f.is_finite()));
            if out.mode == SprintMode::Ended {
                ended_at = Some(i);
                break;
            }
        }
        let ended_at = ended_at.expect("blind sprint must end");
        assert!(
            (31..=32).contains(&ended_at),
            "ended after {ended_at} blind periods, expected ~31"
        );
    }

    #[test]
    fn guard_band_widens_while_the_sensor_is_faulty() {
        // Margin 0.85 is safe with a healthy sensor (stop = 0.95)…
        let mut sc = SprintCon::new(cfg());
        let out = step_with_p(&mut sc, Watts(4200.0), 0.85, true, 1.0);
        assert_eq!(out.mode, SprintMode::Sprinting);
        // …but inside the widened band (0.95 − 0.15 = 0.80) during a
        // dropout: the supervisor stops overloading early (rung 2).
        let out = step_with_p(&mut sc, Watts(f64::NAN), 0.85, true, 1.0);
        assert_eq!(out.mode, SprintMode::CbProtect);
        // Sensor back, breaker cooled: normal operation resumes.
        let out = step_with_p(&mut sc, Watts(4210.0), 0.1, true, 1.0);
        assert_eq!(out.mode, SprintMode::Sprinting);
    }

    #[test]
    fn implausible_spikes_are_rejected_not_acted_on() {
        let mut sc = SprintCon::new(cfg());
        let healthy = step_with_p(&mut sc, Watts(4200.0), 0.1, true, 1.0);
        // A 25 kW reading (above twice the overloaded power) would demand a
        // huge UPS discharge; instead the held value keeps the command
        // where the healthy one was.
        let spiked = step_with_p(&mut sc, Watts(25_000.0), 0.1, true, 1.0);
        assert_eq!(spiked.mode, SprintMode::Sprinting);
        assert!(
            (spiked.ups_discharge.0 - healthy.ups_discharge.0).abs() < 1e-9,
            "spike leaked into the UPS command: {} vs {}",
            spiked.ups_discharge,
            healthy.ups_discharge
        );
    }

    #[test]
    fn stuck_sensor_is_flagged_after_a_repeat_run() {
        // Bit-identical readings are fine for `stuck_sensor_periods`
        // periods, then treated as a fault: with margin 0.85 the widened
        // guard band flips the mode even though the reading never moves.
        let mut sc = SprintCon::new(cfg());
        for _ in 0..5 {
            let out = step_with_p(&mut sc, Watts(4200.0), 0.85, true, 1.0);
            assert_eq!(out.mode, SprintMode::Sprinting);
        }
        let out = step_with_p(&mut sc, Watts(4200.0), 0.85, true, 1.0);
        assert_eq!(out.mode, SprintMode::CbProtect);
        // A changing reading clears the run immediately.
        let out = step_with_p(&mut sc, Watts(4205.0), 0.01, true, 1.0);
        assert_eq!(out.mode, SprintMode::Sprinting);
    }

    // --- grid-responsive mode (curtailment / price / regulation) ---

    /// Like `step_once`, but with explicit grid signals and queue state.
    fn step_grid(
        sc: &mut SprintCon,
        grid: ActiveGrid,
        queue: Option<QueueMeasurement>,
    ) -> SprintConOutputs {
        let n = sc.server_controller().num_channels();
        let utils = vec![Utilization(0.6); sc.cfg.plant.num_servers];
        let freqs = vec![0.6; n];
        let js = jobs(n);
        sc.step(
            Seconds(1.0),
            SprintConInputs {
                p_total: Watts(4200.0),
                interactive_util: &utils,
                batch_freqs: &freqs,
                jobs: &js,
                breaker_margin: 0.1,
                breaker_closed: true,
                ups_soc: 1.0,
                queue,
                grid,
            },
        )
    }

    fn curtail(cap: f64) -> ActiveGrid {
        ActiveGrid {
            curtail_cap: Some(Watts(cap)),
            curtail_deadline: Some(Seconds(30.0)),
            ..ActiveGrid::default()
        }
    }

    #[test]
    fn curtailment_forces_grid_curtail_and_caps_the_target() {
        let mut sc = SprintCon::new(cfg());
        let out = step_grid(&mut sc, curtail(3000.0), None);
        assert_eq!(out.mode, SprintMode::GridCurtail);
        assert_eq!(out.p_cb_target, Some(Watts(3000.0)));
        // The UPS deadbeats the breaker under the cap with margin.
        assert!((out.ups_discharge.0 - (4200.0 - 3000.0 * GRID_CB_MARGIN)).abs() < 1e-9);
        // Clearing the curtailment resumes the sprint.
        let out2 = step_grid(&mut sc, ActiveGrid::default(), None);
        assert_eq!(out2.mode, SprintMode::Sprinting);
    }

    #[test]
    fn curtailment_never_raises_the_target_above_rated() {
        // A cap above rated is still a forced un-sprint: the rack drops
        // to rated, not to the (looser) cap.
        let mut sc = SprintCon::new(cfg());
        let out = step_grid(&mut sc, curtail(3600.0), None);
        assert_eq!(out.mode, SprintMode::GridCurtail);
        assert_eq!(out.p_cb_target, Some(Watts(3200.0)));
    }

    #[test]
    fn hot_queue_keeps_interactive_at_peak_during_curtailment() {
        let hot = QueueMeasurement {
            depth: 40.0,
            p99_s: 0.6,
            drop_rate: 0.0,
        };
        let mut sc = SprintCon::new(cfg());
        for _ in 0..5 {
            let out = step_grid(&mut sc, curtail(3000.0), Some(hot));
            assert_eq!(out.interactive_freq, NormFreq::PEAK);
        }
        // With the queue drained the throttle engages within a few
        // periods (4.2 kW measured vs a 3.0 kW cap).
        let cool = QueueMeasurement {
            depth: 0.1,
            p99_s: 0.01,
            drop_rate: 0.0,
        };
        let mut out = step_grid(&mut sc, curtail(3000.0), Some(cool));
        for _ in 0..5 {
            out = step_grid(&mut sc, curtail(3000.0), Some(cool));
        }
        assert!(out.interactive_freq.0 < 1.0, "f={}", out.interactive_freq.0);
    }

    #[test]
    fn triage_drains_nearest_deadline_batches_first() {
        let mut sc = SprintCon::new(cfg());
        let n = sc.server_controller().num_channels();
        // Light interactive load (~1.3 kW est.) leaves headroom under the
        // 3 kW cap beyond the batch floor; at util 0.6 the cap is fully
        // consumed and every core pins to fmin.
        let utils = vec![Utilization(0.05); sc.cfg.plant.num_servers];
        let freqs = vec![0.6; n];
        // Half the cores carry urgent work (short deadline, lots left),
        // half are relaxed — under a tight cap only the urgent half may
        // rise above the floor.
        let js: Vec<BatchJob> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    BatchJob::new(
                        format!("urgent{i}"),
                        ProgressModel::new(0.2),
                        150.0,
                        Seconds(200.0),
                    )
                } else {
                    BatchJob::new(
                        format!("relaxed{i}"),
                        ProgressModel::new(0.2),
                        10.0,
                        Seconds(36000.0),
                    )
                }
            })
            .collect();
        let out = sc.step(
            Seconds(1.0),
            SprintConInputs {
                p_total: Watts(4200.0),
                interactive_util: &utils,
                batch_freqs: &freqs,
                jobs: &js,
                breaker_margin: 0.1,
                breaker_closed: true,
                ups_soc: 1.0,
                queue: None,
                grid: curtail(3000.0),
            },
        );
        assert_eq!(out.mode, SprintMode::GridCurtail);
        let fmin = sc.cfg.plant.server.freq_scale.min.0;
        let urgent_above: usize = out
            .batch_freqs
            .iter()
            .step_by(2)
            .filter(|f| **f > fmin + 1e-9)
            .count();
        assert!(urgent_above > 0, "urgent jobs must get frequency grants");
        for (i, f) in out.batch_freqs.iter().enumerate() {
            if i % 2 == 1 {
                assert!(
                    (*f - fmin).abs() < 1e-9,
                    "relaxed core {i} must stay at the floor, got {f}"
                );
            }
        }
        assert!(out.p_batch_target.0 > 0.0);
    }

    #[test]
    fn regulation_delta_nudges_p_cb_symmetrically() {
        // Regulation-down: 200 W out of the overload target.
        let down = ActiveGrid {
            reg_delta: Some(Watts(-200.0)),
            ..ActiveGrid::default()
        };
        let mut sc = SprintCon::new(cfg());
        let out = step_grid(&mut sc, down, None);
        assert_eq!(out.mode, SprintMode::Sprinting);
        assert_eq!(out.p_cb_target, Some(Watts(3800.0)));
        // Regulation-up is the mirror image.
        let up = ActiveGrid {
            reg_delta: Some(Watts(200.0)),
            ..ActiveGrid::default()
        };
        let mut sc = SprintCon::new(cfg());
        let out = step_grid(&mut sc, up, None);
        assert_eq!(out.p_cb_target, Some(Watts(4200.0)));
    }

    #[test]
    fn transient_grid_signals_leave_no_residue() {
        // A curtailment that comes and goes must leave the supervisor in
        // the same mode with the cap chain and entry bar reset when the
        // signal clears. The one deliberate carry-over is the CB schedule:
        // the forced un-sprint pushed it into its recovery phase (exactly
        // like CbProtect does), so the target is rated, not overloaded.
        let mut touched = SprintCon::new(cfg());
        step_grid(&mut touched, curtail(3000.0), None);
        let spike = ActiveGrid {
            price_multiplier: 4.0,
            ..ActiveGrid::default()
        };
        step_grid(&mut touched, spike, None);
        let after = step_grid(&mut touched, ActiveGrid::default(), None);
        assert_eq!(after.mode, SprintMode::Sprinting);
        assert_eq!(after.p_cb_target, Some(Watts(3200.0)));
        assert_eq!(touched.feeder_cap(), None);
    }
}
