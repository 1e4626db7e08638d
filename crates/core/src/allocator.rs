//! The power load allocator (§IV-A/B): decides, ahead of the fast
//! controllers, (1) the breaker power target `P_cb` via the overload
//! schedule, and (2) the batch power budget `P_batch`.

use crate::config::SprintConConfig;
use powersim::server::LinearServerModel;
use powersim::units::{NormFreq, Seconds, Watts};
use workloads::batch::BatchJob;
use workloads::trace::SlidingWindow;

/// Shape of the CB overload schedule, chosen from `T_burst` (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Burst under a minute: no need to constrain the sprinting power;
    /// the breaker tolerates a short excursion on its own curve.
    Unconstrained,
    /// Burst of a few minutes: overload continuously for the whole burst
    /// to maximize the additional energy.
    Constant,
    /// Long burst (15 min +): alternate overload and recovery so the
    /// breaker can cool and sprinting can continue indefinitely.
    Periodic,
}

impl ScheduleKind {
    /// The paper's selection rule.
    pub fn for_burst(t_burst: Seconds) -> Self {
        if t_burst.0 < 60.0 {
            ScheduleKind::Unconstrained
        } else if t_burst.0 <= 600.0 {
            ScheduleKind::Constant
        } else {
            ScheduleKind::Periodic
        }
    }
}

/// Default breaker-margin bar for re-entering an overload phase: the
/// breaker must have cooled to under this fraction of its trip budget.
/// The supervisor lowers the bar (divides by the grid price multiplier)
/// while energy is expensive, so sprints wait for a cooler breaker.
pub const SPRINT_ENTRY_MARGIN: f64 = 0.05;

/// Phase of the periodic schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CbPhase {
    Overload { remaining: Seconds },
    Recover { remaining: Seconds },
}

/// Stateful CB-target scheduler.
#[derive(Debug, Clone)]
pub struct CbScheduler {
    pub kind: ScheduleKind,
    rated: Watts,
    overloaded: Watts,
    on: Seconds,
    off: Seconds,
    t_burst: Seconds,
    elapsed: Seconds,
    phase: CbPhase,
    /// Breaker-margin bar for starting a new overload phase.
    entry_margin: f64,
}

impl CbScheduler {
    pub fn new(cfg: &SprintConConfig) -> Self {
        let kind = ScheduleKind::for_burst(cfg.t_burst);
        CbScheduler {
            kind,
            rated: cfg.rated(),
            overloaded: cfg.overloaded(),
            on: cfg.overload_duration,
            off: cfg.recovery_duration,
            t_burst: cfg.t_burst,
            elapsed: Seconds::ZERO,
            phase: CbPhase::Overload {
                remaining: cfg.overload_duration,
            },
            entry_margin: SPRINT_ENTRY_MARGIN,
        }
    }

    /// Set the breaker-margin bar for re-entering overload (the
    /// supervisor's price-spike hook). Writing the default back is a
    /// same-value store — bit-transparent at the nominal price.
    pub fn set_entry_margin(&mut self, margin: f64) {
        self.entry_margin = margin;
    }

    /// Whether the schedule is currently in the overload state.
    pub fn is_overloading(&self) -> bool {
        match self.kind {
            ScheduleKind::Unconstrained => true,
            ScheduleKind::Constant => self.elapsed.0 < self.t_burst.0,
            ScheduleKind::Periodic => matches!(self.phase, CbPhase::Overload { .. }),
        }
    }

    /// Current `P_cb` target; `None` when unconstrained (the paper does
    /// not control short sprints).
    pub fn p_cb(&self) -> Option<Watts> {
        match self.kind {
            ScheduleKind::Unconstrained => None,
            ScheduleKind::Constant => Some(if self.is_overloading() {
                self.overloaded
            } else {
                self.rated
            }),
            ScheduleKind::Periodic => Some(match self.phase {
                CbPhase::Overload { .. } => self.overloaded,
                CbPhase::Recover { .. } => self.rated,
            }),
        }
    }

    /// Advance by `dt`. `breaker_margin` is the fraction of the trip
    /// budget consumed; entering a new overload phase is deferred until
    /// the breaker has cooled (margin near zero), which keeps the
    /// schedule safe even when the supervisor shortened an earlier
    /// recovery.
    pub fn advance(&mut self, dt: Seconds, breaker_margin: f64) {
        self.elapsed += dt;
        if self.kind != ScheduleKind::Periodic {
            return;
        }
        match self.phase {
            CbPhase::Overload { remaining } => {
                let left = Seconds(remaining.0 - dt.0);
                if left.0 <= 0.0 {
                    self.phase = CbPhase::Recover {
                        remaining: self.off,
                    };
                } else {
                    self.phase = CbPhase::Overload { remaining: left };
                }
            }
            CbPhase::Recover { remaining } => {
                let left = Seconds(remaining.0 - dt.0);
                if left.0 <= 0.0 && breaker_margin < self.entry_margin {
                    self.phase = CbPhase::Overload { remaining: self.on };
                } else {
                    // Hold in recovery until both the timer and the
                    // breaker's thermal state allow another overload.
                    self.phase = CbPhase::Recover {
                        remaining: left.max(Seconds::ZERO),
                    };
                }
            }
        }
    }

    /// Force the schedule into recovery (supervisor action when the
    /// breaker is close to tripping, §IV-C).
    ///
    /// * Periodic: jump to a fresh recovery phase.
    /// * Constant: the burst's overload budget is spent — truncate it
    ///   (without this, the supervisor's protect/resume oscillation
    ///   ratchets the thermal accumulator up to a trip, because one
    ///   period of recovery cools less than one period of overload
    ///   heats).
    /// * Unconstrained: nothing to do; short sprints ride the raw curve.
    pub fn force_recovery(&mut self) {
        match self.kind {
            ScheduleKind::Periodic => {
                self.phase = CbPhase::Recover {
                    remaining: self.off,
                };
            }
            ScheduleKind::Constant => {
                self.t_burst = self.elapsed;
            }
            ScheduleKind::Unconstrained => {}
        }
    }

    /// How much of the next `horizon` seconds the schedule will spend in
    /// the overload state (projecting the current phase forward). The
    /// allocator uses this to bank batch progress into the overload
    /// windows that actually exist before a deadline.
    pub fn overload_time_within(&self, horizon: Seconds) -> Seconds {
        if horizon.0 <= 0.0 {
            return Seconds::ZERO;
        }
        match self.kind {
            ScheduleKind::Unconstrained => return horizon,
            ScheduleKind::Constant => {
                let left = (self.t_burst.0 - self.elapsed.0).max(0.0);
                return Seconds(horizon.0.min(left));
            }
            ScheduleKind::Periodic => {}
        }
        let mut remaining = horizon.0;
        let mut overload = 0.0;
        let (mut in_overload, mut phase_left) = match self.phase {
            CbPhase::Overload { remaining } => (true, remaining.0),
            CbPhase::Recover { remaining } => (false, remaining.0),
        };
        while remaining > 0.0 {
            let take = remaining.min(phase_left.max(0.0));
            if in_overload {
                overload += take;
            }
            remaining -= take;
            in_overload = !in_overload;
            phase_left = if in_overload { self.on.0 } else { self.off.0 };
        }
        Seconds(overload)
    }
}

/// The allocator's published targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocatorTargets {
    /// Breaker power target; `None` = uncontrolled short sprint.
    pub p_cb: Option<Watts>,
    /// Batch power budget for the server power controller.
    pub p_batch: Watts,
    /// The schedule is currently overloading the breaker.
    pub overloading: bool,
}

/// The power load allocator.
#[derive(Debug, Clone)]
pub struct PowerLoadAllocator {
    scheduler: CbScheduler,
    /// Per-server linear batch power models (Eq. (2)).
    batch_models: Vec<LinearServerModel>,
    batch_cores_per_server: usize,
    /// Recent interactive-power headroom deficits
    /// (`p_inter − (P_cb − P_batch)`), one sample per control period.
    deficit_window: SlidingWindow,
    /// Smoothed interactive power estimate.
    p_inter_est: f64,
    /// Smoothed bias between the controller's feedback power (Eq. (6),
    /// which absorbs fan power and model error) and what the linear
    /// batch models predict for the actual frequencies. The deadline
    /// floors add it so "power budget" and "delivered batch power" talk
    /// about the same watts.
    fb_bias: f64,
    /// Factor-2 multiplicative trim on the headroom split.
    trim: f64,
    /// Deadline power floors from factor 1, per CB phase: the allocator
    /// banks batch progress into overload windows so that recovery
    /// windows can run batch at the DVFS floor (exploiting the CB
    /// tolerance to execute batch in time, §I challenge 3 / Fig. 7a).
    deadline_floor_overload: Watts,
    deadline_floor_recovery: Watts,
    p_batch_min: Watts,
    p_batch_max: Watts,
    fmin: NormFreq,
    fmax: NormFreq,
    next_update: Seconds,
    period: Seconds,
    inter_pressure_high: f64,
    inter_pressure_low: f64,
    trim_step: f64,
    deadline_margin: f64,
    /// Most recent published `P_batch`.
    p_batch: Watts,
}

impl PowerLoadAllocator {
    pub fn new(cfg: &SprintConConfig, batch_models: Vec<LinearServerModel>) -> Self {
        assert_eq!(batch_models.len(), cfg.plant.num_servers);
        let fmin = cfg.plant.server.freq_scale.min;
        let fmax = cfg.plant.server.freq_scale.max;
        let p_min: f64 = batch_models.iter().map(|m| m.predict(fmin).0).sum();
        let p_max: f64 = batch_models.iter().map(|m| m.predict(fmax).0).sum();
        let window_len = (cfg.allocator_period.0 / cfg.control_period.0)
            .round()
            .max(1.0) as usize;
        let scheduler = CbScheduler::new(cfg);
        PowerLoadAllocator {
            scheduler,
            batch_models,
            batch_cores_per_server: cfg.plant.batch_cores_per_server(),
            deficit_window: SlidingWindow::new(window_len),
            p_inter_est: 0.0,
            fb_bias: 0.0,
            trim: 1.0,
            deadline_floor_overload: Watts(p_min),
            deadline_floor_recovery: Watts(p_min),
            p_batch_min: Watts(p_min),
            p_batch_max: Watts(p_max),
            fmin,
            fmax,
            next_update: Seconds::ZERO,
            period: cfg.allocator_period,
            inter_pressure_high: cfg.inter_pressure_high,
            inter_pressure_low: cfg.inter_pressure_low,
            trim_step: cfg.p_batch_trim_step,
            deadline_margin: cfg.deadline_margin,
            p_batch: Watts(p_min),
        }
    }

    /// The deadline power floors (factor 1, §IV-B), per CB phase.
    ///
    /// For each job, the progress model gives the *cycle-average* rate it
    /// needs (`r* = remaining work / remaining time`). The allocator
    /// first tries to satisfy `r*` by running fast only during overload
    /// windows (recovery at the DVFS floor); only if even peak overload
    /// frequency cannot bank enough progress does the recovery floor
    /// rise. For non-periodic schedules both floors collapse to the
    /// single-phase frequency `freq_for_rate(r*)`.
    fn compute_deadline_floors(&self, now: Seconds, jobs: &[BatchJob]) -> (Watts, Watts) {
        assert_eq!(
            jobs.len(),
            self.batch_models.len() * self.batch_cores_per_server,
            "one job per batch core"
        );
        // Per-server frequency affordable from the *overload-phase* CB
        // headroom alone — banking beyond it would draw the UPS, which
        // the floor must not demand unless the deadline truly requires it.
        let n = self.batch_models.len() as f64;
        let headroom_over = ((self.scheduler.overloaded.0 - self.p_inter_est) / n).max(0.0);
        let mut total_over = 0.0;
        let mut total_rec = 0.0;
        for (s, model) in self.batch_models.iter().enumerate() {
            let f_head = model
                .freq_for_power(Watts(headroom_over))
                .0
                .clamp(self.fmin.0, self.fmax.0);
            let slice =
                &jobs[s * self.batch_cores_per_server..(s + 1) * self.batch_cores_per_server];
            let mut fsum_over = 0.0;
            let mut fsum_rec = 0.0;
            for job in slice {
                let horizon = Seconds(job.deadline.0 - now.0);
                let (f_over, f_rec) = match job.required_rate(now) {
                    Some(r) if r <= 0.0 => (self.fmin.0, self.fmin.0),
                    None => (self.fmax.0, self.fmax.0),
                    Some(r_star) => self.plan_job_floor(job, r_star, horizon, f_head),
                };
                fsum_over += f_over;
                fsum_rec += f_rec;
            }
            let m = slice.len() as f64;
            total_over += model.predict(NormFreq(fsum_over / m)).0;
            total_rec += model.predict(NormFreq(fsum_rec / m)).0;
        }
        // The floors are targets for the *feedback* power (Eq. (6)),
        // which runs higher than the model by the observed bias (fans,
        // model error); compensate so the batch cores actually reach the
        // planned frequencies. Cap: bias correction never exceeds the
        // model maximum by more than the bias itself.
        let bias = self.fb_bias.max(0.0);
        (
            Watts((total_over * self.deadline_margin + bias).min(self.p_batch_max.0 + bias)),
            Watts((total_rec * self.deadline_margin + bias).min(self.p_batch_max.0 + bias)),
        )
    }

    /// Floor frequencies `(f_over, f_rec)` for one job needing
    /// cycle-average rate `r_star` over the remaining `horizon`:
    ///
    /// 1. run during the overload windows that actually exist before the
    ///    deadline (projected from the schedule), capped at the headroom
    ///    frequency `f_head`, with recovery at the DVFS floor;
    /// 2. if that cannot bank enough progress, raise the recovery floor;
    /// 3. if even recovery at peak is short, exceed the overload headroom
    ///    (UPS-backed — the deadline outranks energy efficiency).
    fn plan_job_floor(
        &self,
        job: &BatchJob,
        r_star: f64,
        horizon: Seconds,
        f_head: f64,
    ) -> (f64, f64) {
        let t = horizon.0.max(1e-9);
        let t_on = self.scheduler.overload_time_within(horizon).0.min(t);
        let t_off = t - t_on;
        let model = &job.model;
        let rate_min = model.rate(self.fmin.0);
        let clampf = |f: f64| f.clamp(self.fmin.0, self.fmax.0);
        if t_on <= 1e-9 {
            // No overload window before the deadline: recovery does it all.
            let f = model.freq_for_rate(r_star.min(1.0)).unwrap_or(self.fmax.0);
            return (self.fmin.0, clampf(f));
        }
        if t_off <= 1e-9 {
            let f = model.freq_for_rate(r_star.min(1.0)).unwrap_or(self.fmax.0);
            return (clampf(f), self.fmin.0);
        }
        // Step 1: overload windows (up to the headroom freq) + recovery
        // at the DVFS floor.
        let best_banked = (t_on * model.rate(f_head) + t_off * rate_min) / t;
        if best_banked >= r_star {
            let need_over = (t * r_star - t_off * rate_min) / t_on;
            let f = model
                .freq_for_rate(need_over.clamp(0.0, 1.0))
                .unwrap_or(f_head);
            return (clampf(f), self.fmin.0);
        }
        // Step 2: recovery contributes, overload pinned at headroom.
        let need_rec = (t * r_star - t_on * model.rate(f_head)) / t_off;
        if need_rec <= 1.0 {
            let f_rec = model
                .freq_for_rate(need_rec.clamp(0.0, 1.0))
                .unwrap_or(self.fmax.0);
            return (clampf(f_head), clampf(f_rec));
        }
        // Step 3: deadline outranks headroom — overload beyond f_head.
        let rate_max = model.rate(self.fmax.0);
        let need_over = (t * r_star - t_off * rate_max) / t_on;
        let f_over = model
            .freq_for_rate(need_over.clamp(0.0, 1.0))
            .unwrap_or(self.fmax.0);
        (clampf(f_over), self.fmax.0)
    }

    /// Per-control-period observation of the interactive power estimate
    /// (from Eq. (5)); feeds the factor-2 window.
    pub fn observe_interactive_power(&mut self, p_inter: Watts) {
        let p_cb = self.scheduler.p_cb().unwrap_or(Watts(f64::INFINITY));
        let headroom = p_cb.0 - self.p_batch.0;
        self.deficit_window.push(p_inter.0 - headroom);
        // Exponential smoothing for the headroom split (robust to the
        // second-scale wobble the window is meant to judge).
        let alpha = 0.05;
        self.p_inter_est = if self.p_inter_est == 0.0 {
            p_inter.0
        } else {
            (1.0 - alpha) * self.p_inter_est + alpha * p_inter.0
        };
    }

    /// Per-control-period observation of the feedback-vs-model offset:
    /// `p_fb` is the Eq. (6) feedback the server controller tracks,
    /// `model_predicted` is Σᵢ Kᵢ·fᵢ + Cᵢ at the *actual* frequencies.
    pub fn observe_feedback_bias(&mut self, p_fb: Watts, model_predicted: Watts) {
        let sample = p_fb.0 - model_predicted.0;
        let alpha = 0.05;
        self.fb_bias = (1.0 - alpha) * self.fb_bias + alpha * sample;
    }

    /// Advance time; runs the slow (30 s) re-allocation when due, and
    /// re-evaluates `P_batch` against the current CB phase every call so
    /// the budget steps with the overload schedule (Fig. 7a).
    pub fn advance(&mut self, now: Seconds, dt: Seconds, breaker_margin: f64, jobs: &[BatchJob]) {
        self.scheduler.advance(dt, breaker_margin);
        if now.0 >= self.next_update.0 {
            self.next_update = Seconds(now.0 + self.period.0);
            telemetry::counter_add("allocator_updates", 1);
            // Factor 1: deadline pressure, phase-aware.
            let (over, rec) = self.compute_deadline_floors(now, jobs);
            self.deadline_floor_overload = over;
            self.deadline_floor_recovery = rec;
            // Factor 2: interactive utilization of the CB headroom.
            if self.deficit_window.is_full() {
                let frac = self.deficit_window.fraction_above(0.0);
                let trim_before = self.trim;
                if frac > self.inter_pressure_high {
                    self.trim *= 1.0 - self.trim_step;
                } else if frac < self.inter_pressure_low {
                    self.trim *= 1.0 + self.trim_step;
                }
                self.trim = self.trim.clamp(0.3, 1.5);
                if self.trim != trim_before {
                    telemetry::counter_add("allocator_pbatch_adjustments", 1);
                }
                telemetry::gauge_set("allocator_trim", self.trim);
            }
        }
        self.p_batch = self.evaluate_p_batch();
        telemetry::gauge_set("allocator_p_batch_w", self.p_batch.0);
    }

    fn evaluate_p_batch(&self) -> Watts {
        let p_cb = match self.scheduler.p_cb() {
            Some(p) => p,
            // Unconstrained sprint: batch may use everything.
            None => return self.p_batch_max,
        };
        let headroom = ((p_cb.0 - self.p_inter_est) * self.trim).max(0.0);
        let floor = if self.scheduler.is_overloading() {
            self.deadline_floor_overload
        } else {
            self.deadline_floor_recovery
        };
        // Upper clamp includes the feedback bias: the budget is expressed
        // in Eq. (6) feedback watts, which sit above the model by `bias`.
        let hi = self.p_batch_max.0 + self.fb_bias.max(0.0);
        Watts(headroom.max(floor.0).clamp(self.p_batch_min.0, hi))
    }

    /// Current targets for the two controllers.
    pub fn targets(&self) -> AllocatorTargets {
        AllocatorTargets {
            p_cb: self.scheduler.p_cb(),
            p_batch: self.p_batch,
            overloading: self.scheduler.is_overloading(),
        }
    }

    /// Supervisor escalation: breaker close to tripping (§IV-C).
    pub fn force_recovery(&mut self) {
        self.scheduler.force_recovery();
        self.p_batch = self.evaluate_p_batch();
    }

    /// Forward the sprint-entry bar to the CB scheduler (the
    /// supervisor's price-spike hook).
    pub fn set_sprint_entry_margin(&mut self, margin: f64) {
        self.scheduler.set_entry_margin(margin);
    }

    pub fn p_batch_bounds(&self) -> (Watts, Watts) {
        (self.p_batch_min, self.p_batch_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::server::LinearServerModel;
    use workloads::progress_model::ProgressModel;

    fn cfg() -> SprintConConfig {
        SprintConConfig::paper_default()
    }

    fn models(c: &SprintConConfig) -> Vec<LinearServerModel> {
        (0..c.plant.num_servers)
            .map(|_| LinearServerModel { k: 60.0, c: 78.0 })
            .collect()
    }

    fn jobs(c: &SprintConConfig, deadline: Seconds, work: f64) -> Vec<BatchJob> {
        (0..c.plant.num_servers * c.plant.batch_cores_per_server())
            .map(|i| BatchJob::new(format!("j{i}"), ProgressModel::new(0.2), work, deadline))
            .collect()
    }

    #[test]
    fn schedule_kind_selection_follows_the_paper() {
        assert_eq!(
            ScheduleKind::for_burst(Seconds(30.0)),
            ScheduleKind::Unconstrained
        );
        assert_eq!(
            ScheduleKind::for_burst(Seconds(300.0)),
            ScheduleKind::Constant
        );
        assert_eq!(
            ScheduleKind::for_burst(Seconds(600.0)),
            ScheduleKind::Constant
        );
        assert_eq!(
            ScheduleKind::for_burst(Seconds::minutes(15.0)),
            ScheduleKind::Periodic
        );
    }

    #[test]
    fn periodic_schedule_alternates_on_time() {
        let c = cfg();
        let mut s = CbScheduler::new(&c);
        // 150 s of overload at 4.0 kW...
        for _ in 0..150 {
            assert_eq!(s.p_cb(), Some(Watts(4000.0)), "t<150 must overload");
            s.advance(Seconds(1.0), 0.0);
        }
        // ...then 300 s of recovery at 3.2 kW...
        for _ in 0..300 {
            assert_eq!(s.p_cb(), Some(Watts(3200.0)));
            s.advance(Seconds(1.0), 0.0);
        }
        // ...then overload again.
        assert_eq!(s.p_cb(), Some(Watts(4000.0)));
    }

    #[test]
    fn recovery_extends_while_breaker_is_hot() {
        let c = cfg();
        let mut s = CbScheduler::new(&c);
        for _ in 0..150 {
            s.advance(Seconds(1.0), 0.0);
        }
        // Recovery elapses but the breaker stays hot: no new overload.
        for _ in 0..400 {
            s.advance(Seconds(1.0), 0.5);
            assert_eq!(s.p_cb(), Some(Watts(3200.0)));
        }
        // Once cold, the next overload begins.
        s.advance(Seconds(1.0), 0.01);
        assert_eq!(s.p_cb(), Some(Watts(4000.0)));
    }

    #[test]
    fn raised_entry_bar_defers_the_next_overload() {
        let c = cfg();
        let mut s = CbScheduler::new(&c);
        for _ in 0..150 {
            s.advance(Seconds(1.0), 0.0);
        }
        // A 4× price spike lowers the bar to 0.0125: a margin of 0.03 —
        // good enough at the nominal price — no longer re-enters.
        s.set_entry_margin(SPRINT_ENTRY_MARGIN / 4.0);
        for _ in 0..400 {
            s.advance(Seconds(1.0), 0.03);
            assert_eq!(s.p_cb(), Some(Watts(3200.0)));
        }
        // Price back to nominal: 0.03 clears the default 0.05 bar.
        s.set_entry_margin(SPRINT_ENTRY_MARGIN);
        s.advance(Seconds(1.0), 0.03);
        assert_eq!(s.p_cb(), Some(Watts(4000.0)));
    }

    #[test]
    fn constant_schedule_holds_then_releases() {
        let mut c = cfg();
        c.t_burst = Seconds(300.0);
        let mut s = CbScheduler::new(&c);
        for _ in 0..300 {
            assert_eq!(s.p_cb(), Some(Watts(4000.0)));
            s.advance(Seconds(1.0), 0.0);
        }
        assert_eq!(s.p_cb(), Some(Watts(3200.0)));
        assert!(!s.is_overloading());
    }

    #[test]
    fn force_recovery_truncates_a_constant_burst() {
        let mut c = cfg();
        c.t_burst = Seconds(300.0);
        let mut s = CbScheduler::new(&c);
        for _ in 0..100 {
            s.advance(Seconds(1.0), 0.0);
        }
        assert!(s.is_overloading());
        // Supervisor escalation mid-burst: the overload must END, not
        // merely pause (a pause would ratchet the breaker to a trip).
        s.force_recovery();
        assert!(!s.is_overloading());
        assert_eq!(s.p_cb(), Some(Watts(3200.0)));
        for _ in 0..300 {
            s.advance(Seconds(1.0), 0.0);
            assert!(!s.is_overloading(), "truncation must be permanent");
        }
        // And the planner sees no overload time left.
        assert_eq!(s.overload_time_within(Seconds(500.0)), Seconds(0.0));
    }

    #[test]
    fn unconstrained_schedule_has_no_target() {
        let mut c = cfg();
        c.t_burst = Seconds(30.0);
        let s = CbScheduler::new(&c);
        assert_eq!(s.p_cb(), None);
        assert!(s.is_overloading());
    }

    #[test]
    fn p_batch_tracks_cb_phase() {
        let c = cfg();
        let mut a = PowerLoadAllocator::new(&c, models(&c));
        // Relaxed deadlines so the headroom term (not the deadline floor)
        // decides P_batch.
        let js = jobs(&c, Seconds(36000.0), 10.0);
        // Feed a steady interactive power of 2.0 kW (stop short of the
        // 150 s phase boundary).
        for k in 0..145 {
            a.observe_interactive_power(Watts(2000.0));
            a.advance(Seconds(k as f64), Seconds(1.0), 0.0, &js);
        }
        let during_overload = a.p_batch;
        assert!(a.targets().overloading);
        // Cross into recovery.
        for k in 145..200 {
            a.observe_interactive_power(Watts(2000.0));
            a.advance(Seconds(k as f64), Seconds(1.0), 0.0, &js);
        }
        assert!(!a.targets().overloading);
        let during_recovery = a.p_batch;
        // The 800 W of extra CB headroom during overload flows to batch.
        assert!(
            during_overload.0 > during_recovery.0 + 300.0,
            "overload={during_overload} recovery={during_recovery}"
        );
    }

    #[test]
    fn deadline_pressure_raises_the_floor() {
        let c = cfg();
        let mut a = PowerLoadAllocator::new(&c, models(&c));
        // Jobs that need ~peak frequency to make their deadline.
        let tight = jobs(&c, Seconds(600.0), 580.0);
        // Give the allocator a huge interactive estimate so headroom ≈ 0.
        for _ in 0..35 {
            a.observe_interactive_power(Watts(4000.0));
        }
        a.advance(Seconds(0.0), Seconds(1.0), 0.0, &tight);
        // Despite zero headroom, the deadline floor forces a high budget:
        // required f ≈ 0.97 → p ≈ 16 × (60·0.97 + 78) ≈ 2.2 kW.
        assert!(
            a.p_batch.0 > 2000.0,
            "deadline floor must dominate: {}",
            a.p_batch
        );
    }

    #[test]
    fn relaxed_deadlines_keep_the_floor_low() {
        let c = cfg();
        let mut a = PowerLoadAllocator::new(&c, models(&c));
        // Tiny jobs with far deadlines need only the DVFS floor.
        let relaxed = jobs(&c, Seconds(36000.0), 10.0);
        for _ in 0..35 {
            a.observe_interactive_power(Watts(3900.0));
        }
        a.advance(Seconds(0.0), Seconds(1.0), 0.0, &relaxed);
        // Headroom ≈ 0 and no deadline pressure → near the minimum
        // (within the deadline_margin safety factor of it).
        let (pmin, _) = a.p_batch_bounds();
        assert!(
            a.p_batch.0 < pmin.0 * (c.deadline_margin + 0.03),
            "p_batch={} pmin={}",
            a.p_batch,
            pmin
        );
    }

    #[test]
    fn factor2_trims_when_interactive_needs_the_headroom() {
        let c = cfg();
        let mut a = PowerLoadAllocator::new(&c, models(&c));
        let js = jobs(&c, Seconds(36000.0), 10.0);
        // Moderate interactive level first so p_batch settles mid-range.
        let mut now = 0.0;
        for _ in 0..40 {
            a.observe_interactive_power(Watts(2000.0));
            a.advance(Seconds(now), Seconds(1.0), 0.0, &js);
            now += 1.0;
        }
        let before = a.p_batch;
        // Now interactive consistently exceeds P_cb − P_batch: deficits
        // positive nearly always → trim shrinks over allocator updates.
        for _ in 0..120 {
            a.observe_interactive_power(Watts(3950.0));
            a.advance(Seconds(now), Seconds(1.0), 0.0, &js);
            now += 1.0;
        }
        assert!(
            a.trim < 1.0,
            "trim must shrink under sustained pressure: {}",
            a.trim
        );
        let _ = before; // p_batch also responds through p_inter_est
    }

    #[test]
    fn p_batch_always_within_bounds() {
        let c = cfg();
        let mut a = PowerLoadAllocator::new(&c, models(&c));
        let js = jobs(&c, Seconds(600.0), 590.0);
        let (pmin, pmax) = a.p_batch_bounds();
        let mut now = 0.0;
        for k in 0..1000 {
            let p_inter = 1500.0 + 2500.0 * ((k as f64) * 0.11).sin().abs();
            a.observe_interactive_power(Watts(p_inter));
            a.advance(Seconds(now), Seconds(1.0), 0.0, &js);
            now += 1.0;
            assert!(a.p_batch.0 >= pmin.0 - 1e-9 && a.p_batch.0 <= pmax.0 + 1e-9);
        }
    }
}
