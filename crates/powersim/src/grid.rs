//! Deterministic grid-event injection: signals that arrive from
//! *outside* the floor.
//!
//! A datacenter's breaker budget is not a static property of the rack —
//! the utility curtails demand-response participants, real-time prices
//! spike, and frequency-regulation markets dispatch symmetric power
//! nudges. A [`GridPlan`] describes such signals — as a schedule of
//! [`GridEvent`]s and/or stochastic on/off processes — and a
//! [`GridInjector`] replays them tick by tick inside the simulation
//! loop, seed-reproducibly. The module deliberately mirrors
//! [`crate::faults`]: faults are what the *plant* does to the
//! controller, grid events are what the *world* does to the budget.
//!
//! Two invariants matter:
//!
//! * **Determinism.** All randomness comes from one dedicated
//!   [`NoiseSource`] owned by the injector, so the same seed and the
//!   same plan replay bit-identically and never perturb the plant's own
//!   noise streams (monitor, fan, workload, faults).
//! * **Zero drift when empty.** An empty plan consumes no random
//!   numbers and applies no transformations: a simulation built with
//!   [`GridPlan::none`] is bit-identical to one built before this
//!   module existed.
//!
//! **Compliance semantics.** A curtailment event carries a cap and a
//! deadline *offset*: from the event's onset the operator has
//! `deadline_s` seconds to bring grid-side draw (breaker power, not
//! total load — UPS bridging is legitimate demand response) under
//! `cap_w`. The injector latches the absolute deadline at onset and
//! publishes it in [`ActiveGrid::curtail_deadline`]; the engine counts
//! every post-deadline tick spent above the cap into the run summary's
//! `grid_violations`.

use crate::noise::NoiseSource;
use crate::units::{Seconds, Watts};

/// One class of grid signal. Parameters describe the signal's
/// *severity*; its timing comes from the enclosing [`GridEvent`] or
/// [`StochasticGridEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GridEventKind {
    /// Demand-response curtailment: bring grid-side draw under `cap_w`
    /// within `deadline_s` seconds of onset and hold it there for the
    /// rest of the event window.
    Curtailment { cap_w: Watts, deadline_s: Seconds },
    /// Real-time price spike: energy costs `multiplier`× nominal while
    /// active. Raises the sprint-entry bar — sprinting on expensive
    /// energy must clear a higher value threshold.
    PriceSpike { multiplier: f64 },
    /// Frequency-regulation dispatch: nudge the effective breaker
    /// budget by `delta_w` (symmetric — positive regulation-down head
    /// room is a negative delta) for `duration_s` seconds from onset,
    /// clipped to the event window.
    FreqRegulation { delta_w: Watts, duration_s: Seconds },
}

impl GridEventKind {
    /// Stable telemetry / reporting label for the event class.
    pub fn label(&self) -> &'static str {
        match self {
            GridEventKind::Curtailment { .. } => "curtailment",
            GridEventKind::PriceSpike { .. } => "price_spike",
            GridEventKind::FreqRegulation { .. } => "freq_regulation",
        }
    }
}

/// A scheduled grid event: `kind` is active on
/// `start <= t < start + duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridEvent {
    pub start: Seconds,
    pub duration: Seconds,
    pub kind: GridEventKind,
}

impl GridEvent {
    pub fn new(start: Seconds, duration: Seconds, kind: GridEventKind) -> Self {
        GridEvent {
            start,
            duration,
            kind,
        }
    }

    fn active_at(&self, t: Seconds) -> bool {
        t.0 >= self.start.0 && t.0 < self.start.0 + self.duration.0
    }
}

/// A stochastic on/off grid-signal process (a two-state Markov chain in
/// continuous time): while inactive the signal starts with probability
/// `start_rate`·dt per tick; once started it stays active for an
/// exponentially distributed time with mean `mean_duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticGridEvent {
    pub kind: GridEventKind,
    /// Activations per second while inactive.
    pub start_rate: f64,
    pub mean_duration: Seconds,
}

/// The grid-signal schedule for one run: deterministic events plus
/// stochastic processes. Cheap to clone; owned RNG state lives in the
/// per-run [`GridInjector`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GridPlan {
    pub events: Vec<GridEvent>,
    pub stochastic: Vec<StochasticGridEvent>,
}

/// Why a [`GridPlan`] failed validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GridPlanError {
    /// "curtailment cap must be positive and finite".
    InvalidCurtailCap(f64),
    /// "curtailment deadline must be finite and non-negative".
    InvalidCurtailDeadline(f64),
    /// "price multiplier must be finite and ≥ 1".
    InvalidPriceMultiplier(f64),
    /// "regulation delta must be finite".
    InvalidRegulationDelta(f64),
    /// "regulation duration must be positive and finite".
    InvalidRegulationDuration(f64),
    /// "stochastic start rate must be positive and finite".
    InvalidStartRate(f64),
    /// "stochastic mean duration must be positive and finite".
    InvalidMeanDuration(f64),
}

impl std::fmt::Display for GridPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridPlanError::InvalidCurtailCap(v) => {
                write!(f, "curtailment cap must be positive and finite, got {v}")
            }
            GridPlanError::InvalidCurtailDeadline(v) => {
                write!(
                    f,
                    "curtailment deadline must be finite and non-negative, got {v}"
                )
            }
            GridPlanError::InvalidPriceMultiplier(v) => {
                write!(f, "price multiplier must be finite and >= 1, got {v}")
            }
            GridPlanError::InvalidRegulationDelta(v) => {
                write!(f, "regulation delta must be finite, got {v}")
            }
            GridPlanError::InvalidRegulationDuration(v) => {
                write!(
                    f,
                    "regulation duration must be positive and finite, got {v}"
                )
            }
            GridPlanError::InvalidStartRate(v) => {
                write!(
                    f,
                    "stochastic start rate must be positive and finite, got {v}"
                )
            }
            GridPlanError::InvalidMeanDuration(v) => {
                write!(
                    f,
                    "stochastic mean duration must be positive and finite, got {v}"
                )
            }
        }
    }
}

impl std::error::Error for GridPlanError {}

fn validate_kind(kind: &GridEventKind) -> Result<(), GridPlanError> {
    match *kind {
        GridEventKind::Curtailment { cap_w, deadline_s } => {
            if !(cap_w.0 > 0.0 && cap_w.0.is_finite()) {
                return Err(GridPlanError::InvalidCurtailCap(cap_w.0));
            }
            if !(deadline_s.0 >= 0.0 && deadline_s.0.is_finite()) {
                return Err(GridPlanError::InvalidCurtailDeadline(deadline_s.0));
            }
        }
        GridEventKind::PriceSpike { multiplier } => {
            if !(multiplier >= 1.0 && multiplier.is_finite()) {
                return Err(GridPlanError::InvalidPriceMultiplier(multiplier));
            }
        }
        GridEventKind::FreqRegulation {
            delta_w,
            duration_s,
        } => {
            if !delta_w.0.is_finite() {
                return Err(GridPlanError::InvalidRegulationDelta(delta_w.0));
            }
            if !(duration_s.0 > 0.0 && duration_s.0.is_finite()) {
                return Err(GridPlanError::InvalidRegulationDuration(duration_s.0));
            }
        }
    }
    Ok(())
}

impl GridPlan {
    /// No grid signals (the nominal scenario).
    pub fn none() -> Self {
        GridPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.stochastic.is_empty()
    }

    /// Add a scheduled grid-event window.
    pub fn with_event(mut self, start: Seconds, duration: Seconds, kind: GridEventKind) -> Self {
        self.events.push(GridEvent::new(start, duration, kind));
        self
    }

    /// Add a stochastic on/off grid-signal process.
    pub fn with_stochastic(mut self, event: StochasticGridEvent) -> Self {
        self.stochastic.push(event);
        self
    }

    /// A single demand-response curtailment window: from `start`, draw
    /// must be under `cap_w` within `deadline_s` and stay there for
    /// `duration`.
    ///
    /// A cap below the rack's idle draw cannot be met from the grid, and
    /// is accepted rather than rejected, because a short curtailment is
    /// survivable: the UPS bridges the gap as far as its charge and
    /// discharge rating allow, and every period whose grid-side draw
    /// stays above the cap after the deadline counts as a compliance
    /// violation (`RunSummary::grid_violations` in the simulator), which
    /// is every period once the UPS runs dry. On the paper rack over a
    /// 600 s run (seed 7, never below ≈2.9 kW), a window from t = 60 s
    /// with a 30 s deadline costs 8 violations at a 1,500 W cap; at
    /// 100 W it drains the UPS to 100% depth of discharge and costs 233.
    /// The state of charge stays within [0, 1] and nothing panics.
    pub fn curtailment(
        start: Seconds,
        duration: Seconds,
        cap_w: Watts,
        deadline_s: Seconds,
    ) -> Self {
        GridPlan::none().with_event(
            start,
            duration,
            GridEventKind::Curtailment { cap_w, deadline_s },
        )
    }

    /// Check every event's parameters; [`crate::grid::GridInjector`]
    /// replays only validated plans (the scenario builder calls this).
    pub fn validate(&self) -> Result<(), GridPlanError> {
        for ev in &self.events {
            validate_kind(&ev.kind)?;
        }
        for sf in &self.stochastic {
            validate_kind(&sf.kind)?;
            if !(sf.start_rate > 0.0 && sf.start_rate.is_finite()) {
                return Err(GridPlanError::InvalidStartRate(sf.start_rate));
            }
            if !(sf.mean_duration.0 > 0.0 && sf.mean_duration.0.is_finite()) {
                return Err(GridPlanError::InvalidMeanDuration(sf.mean_duration.0));
            }
        }
        Ok(())
    }
}

/// Everything the controller needs to know about the grid signals
/// active this tick. Onset flags (`*_onset`) are true exactly once, at
/// the tick the signal starts — the engine turns them into per-class
/// telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveGrid {
    /// Tightest active curtailment cap on grid-side draw.
    pub curtail_cap: Option<Watts>,
    /// Earliest absolute compliance deadline (onset + `deadline_s`,
    /// latched at onset) among the active curtailments.
    pub curtail_deadline: Option<Seconds>,
    /// Largest active price multiplier; `1.0` when no spike is active.
    pub price_multiplier: f64,
    /// Sum of active regulation deltas on the effective breaker budget.
    pub reg_delta: Option<Watts>,
    /// A curtailment started this tick.
    pub curtail_onset: bool,
    /// A price spike started this tick.
    pub price_onset: bool,
    /// A regulation dispatch started this tick.
    pub reg_onset: bool,
}

impl Default for ActiveGrid {
    fn default() -> Self {
        ActiveGrid {
            curtail_cap: None,
            curtail_deadline: None,
            price_multiplier: 1.0,
            reg_delta: None,
            curtail_onset: false,
            price_onset: false,
            reg_onset: false,
        }
    }
}

impl ActiveGrid {
    pub fn any(&self) -> bool {
        self.curtail_cap.is_some() || self.price_multiplier != 1.0 || self.reg_delta.is_some()
    }

    /// Telemetry labels of every signal class active this tick.
    pub fn labels(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.curtail_cap.is_some() {
            out.push("curtailment");
        }
        if self.price_multiplier != 1.0 {
            out.push("price_spike");
        }
        if self.reg_delta.is_some() {
            out.push("freq_regulation");
        }
        out
    }

    /// `deadline` is the absolute compliance deadline for a curtailment
    /// (latched by the injector at onset); unused for the other kinds.
    fn merge(&mut self, kind: GridEventKind, onset: bool, deadline: Seconds) {
        match kind {
            GridEventKind::Curtailment { cap_w, .. } => {
                self.curtail_onset |= onset;
                let cur = self.curtail_cap.map_or(f64::INFINITY, |w| w.0);
                self.curtail_cap = Some(Watts(cur.min(cap_w.0)));
                let cur_dl = self.curtail_deadline.map_or(f64::INFINITY, |s| s.0);
                self.curtail_deadline = Some(Seconds(cur_dl.min(deadline.0)));
            }
            GridEventKind::PriceSpike { multiplier } => {
                self.price_onset |= onset;
                self.price_multiplier = self.price_multiplier.max(multiplier);
            }
            GridEventKind::FreqRegulation { delta_w, .. } => {
                self.reg_onset |= onset;
                let cur = self.reg_delta.map_or(0.0, |w| w.0);
                self.reg_delta = Some(Watts(cur + delta_w.0));
            }
        }
    }
}

/// Per-run replay state for a [`GridPlan`]. Owned by the simulation;
/// advanced once per tick *before* the controller observes the world.
#[derive(Debug, Clone)]
pub struct GridInjector {
    plan: GridPlan,
    noise: NoiseSource,
    /// Was each scheduled event active last tick (onset-edge detection)?
    event_was_active: Vec<bool>,
    /// Onset time per scheduled event, latched at the onset edge
    /// (curtailment deadlines and regulation holds are onset-relative).
    event_onset: Vec<Seconds>,
    /// Remaining active time per stochastic process (`None` = inactive).
    stoch_remaining: Vec<Option<Seconds>>,
    /// Was each stochastic process active last tick?
    stoch_was_active: Vec<bool>,
    /// Onset time per stochastic process, latched at the onset edge.
    stoch_onset: Vec<Seconds>,
}

impl GridInjector {
    /// `seed` must be dedicated to grid injection (the scenario builder
    /// derives it from the scenario seed with a fixed offset).
    pub fn new(plan: GridPlan, seed: u64) -> Self {
        let n_events = plan.events.len();
        let n_stoch = plan.stochastic.len();
        GridInjector {
            plan,
            noise: NoiseSource::new(seed),
            event_was_active: vec![false; n_events],
            event_onset: vec![Seconds(0.0); n_events],
            stoch_remaining: vec![None; n_stoch],
            stoch_was_active: vec![false; n_stoch],
            stoch_onset: vec![Seconds(0.0); n_stoch],
        }
    }

    pub fn plan(&self) -> &GridPlan {
        &self.plan
    }

    /// A frequency-regulation dispatch holds from onset for its
    /// `duration_s`, clipped to the enclosing active window.
    fn reg_hold_expired(kind: GridEventKind, onset_t: Seconds, now: Seconds) -> bool {
        match kind {
            GridEventKind::FreqRegulation { duration_s, .. } => now.0 >= onset_t.0 + duration_s.0,
            _ => false,
        }
    }

    /// Advance one tick and resolve the set of active grid signals.
    pub fn advance(&mut self, now: Seconds, dt: Seconds) -> ActiveGrid {
        let mut active = ActiveGrid::default();
        if self.plan.is_empty() {
            // Fast path: no RNG draws, no state churn, zero drift.
            return active;
        }

        // Scheduled events.
        for i in 0..self.plan.events.len() {
            let ev = self.plan.events[i];
            let is_active = ev.active_at(now);
            let onset = is_active && !self.event_was_active[i];
            self.event_was_active[i] = is_active;
            if onset {
                self.event_onset[i] = now;
            }
            if is_active && !Self::reg_hold_expired(ev.kind, self.event_onset[i], now) {
                let deadline = Seconds(self.event_onset[i].0 + curtail_offset(ev.kind));
                active.merge(ev.kind, onset, deadline);
            }
        }

        // Stochastic processes. Each inactive process draws exactly one
        // uniform per tick (the Bernoulli start trial) and one more at
        // activation (the exponential duration), keeping the stream
        // aligned regardless of what other processes do.
        for i in 0..self.plan.stochastic.len() {
            let sf = self.plan.stochastic[i];
            let state = &mut self.stoch_remaining[i];
            match state {
                Some(remaining) => {
                    remaining.0 -= dt.0;
                    if remaining.0 <= 0.0 {
                        *state = None;
                    }
                }
                None => {
                    let u = self.noise.uniform();
                    if u < sf.start_rate * dt.0 {
                        // Exponential duration, at least one full tick.
                        let draw = self.noise.uniform().max(f64::MIN_POSITIVE);
                        let len = (-draw.ln() * sf.mean_duration.0).max(dt.0);
                        *state = Some(Seconds(len));
                    }
                }
            }
            let is_active = self.stoch_remaining[i].is_some();
            let onset = is_active && !self.stoch_was_active[i];
            self.stoch_was_active[i] = is_active;
            if onset {
                self.stoch_onset[i] = now;
            }
            if is_active && !Self::reg_hold_expired(sf.kind, self.stoch_onset[i], now) {
                let deadline = Seconds(self.stoch_onset[i].0 + curtail_offset(sf.kind));
                active.merge(sf.kind, onset, deadline);
            }
        }

        active
    }
}

/// The deadline offset a curtailment grants; zero for other kinds
/// (whose merged deadline value is never read).
fn curtail_offset(kind: GridEventKind) -> f64 {
    match kind {
        GridEventKind::Curtailment { deadline_s, .. } => deadline_s.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let mut inj = GridInjector::new(GridPlan::none(), 7);
        for k in 0..100 {
            let ag = inj.advance(Seconds(k as f64), Seconds(1.0));
            assert!(!ag.any());
            assert_eq!(ag, ActiveGrid::default());
        }
        // The injector's RNG was never touched: a fresh source produces
        // the same next value.
        assert_eq!(inj.noise.uniform(), NoiseSource::new(7).uniform());
    }

    #[test]
    fn default_active_grid_is_nominal() {
        let ag = ActiveGrid::default();
        assert_eq!(ag.price_multiplier, 1.0);
        assert!(!ag.any());
        assert!(ag.labels().is_empty());
    }

    #[test]
    fn scheduled_event_windows_are_half_open() {
        let plan = GridPlan::curtailment(Seconds(10.0), Seconds(5.0), Watts(3000.0), Seconds(2.0));
        let mut inj = GridInjector::new(plan, 1);
        for k in 0..30 {
            let t = Seconds(k as f64);
            let ag = inj.advance(t, Seconds(1.0));
            let expect = (10.0..15.0).contains(&t.0);
            assert_eq!(ag.curtail_cap.is_some(), expect, "t={k}");
        }
    }

    #[test]
    fn onset_edges_fire_once_per_class() {
        let plan = GridPlan::none()
            .with_event(
                Seconds(5.0),
                Seconds(10.0),
                GridEventKind::Curtailment {
                    cap_w: Watts(3000.0),
                    deadline_s: Seconds(4.0),
                },
            )
            .with_event(
                Seconds(8.0),
                Seconds(6.0),
                GridEventKind::PriceSpike { multiplier: 3.0 },
            );
        let mut inj = GridInjector::new(plan, 1);
        let (mut curtail_edges, mut price_edges) = (0, 0);
        for k in 0..30 {
            let ag = inj.advance(Seconds(k as f64), Seconds(1.0));
            if ag.curtail_onset {
                curtail_edges += 1;
                assert_eq!(k, 5);
            }
            if ag.price_onset {
                price_edges += 1;
                assert_eq!(k, 8);
            }
        }
        assert_eq!((curtail_edges, price_edges), (1, 1));
    }

    #[test]
    fn curtail_deadline_is_latched_absolute_at_onset() {
        let plan = GridPlan::curtailment(Seconds(20.0), Seconds(30.0), Watts(2800.0), Seconds(7.0));
        let mut inj = GridInjector::new(plan, 1);
        for k in 0..60 {
            let ag = inj.advance(Seconds(k as f64), Seconds(1.0));
            if let Some(dl) = ag.curtail_deadline {
                assert_eq!(dl, Seconds(27.0), "t={k}");
            }
        }
    }

    #[test]
    fn overlapping_curtailments_merge_tightest_cap_and_earliest_deadline() {
        let plan = GridPlan::none()
            .with_event(
                Seconds(0.0),
                Seconds(20.0),
                GridEventKind::Curtailment {
                    cap_w: Watts(3000.0),
                    deadline_s: Seconds(2.0),
                },
            )
            .with_event(
                Seconds(5.0),
                Seconds(20.0),
                GridEventKind::Curtailment {
                    cap_w: Watts(2500.0),
                    deadline_s: Seconds(30.0),
                },
            );
        let mut inj = GridInjector::new(plan, 1);
        let mut at_10 = None;
        for k in 0..12 {
            at_10 = Some(inj.advance(Seconds(k as f64), Seconds(1.0)));
        }
        let ag = at_10.unwrap();
        assert_eq!(ag.curtail_cap, Some(Watts(2500.0)));
        // Deadline 0+2 beats 5+30.
        assert_eq!(ag.curtail_deadline, Some(Seconds(2.0)));
    }

    #[test]
    fn price_spikes_take_the_max_multiplier() {
        let plan = GridPlan::none()
            .with_event(
                Seconds(0.0),
                Seconds(10.0),
                GridEventKind::PriceSpike { multiplier: 2.0 },
            )
            .with_event(
                Seconds(0.0),
                Seconds(10.0),
                GridEventKind::PriceSpike { multiplier: 5.0 },
            );
        let mut inj = GridInjector::new(plan, 1);
        let ag = inj.advance(Seconds(0.0), Seconds(1.0));
        assert_eq!(ag.price_multiplier, 5.0);
        assert_eq!(ag.labels(), vec!["price_spike"]);
    }

    #[test]
    fn regulation_hold_expires_before_the_event_window() {
        let plan = GridPlan::none().with_event(
            Seconds(10.0),
            Seconds(20.0),
            GridEventKind::FreqRegulation {
                delta_w: Watts(-150.0),
                duration_s: Seconds(5.0),
            },
        );
        let mut inj = GridInjector::new(plan, 1);
        for k in 0..40 {
            let t = Seconds(k as f64);
            let ag = inj.advance(t, Seconds(1.0));
            let expect = (10.0..15.0).contains(&t.0);
            assert_eq!(ag.reg_delta.is_some(), expect, "t={k}");
            if expect {
                assert_eq!(ag.reg_delta, Some(Watts(-150.0)));
            }
        }
    }

    #[test]
    fn regulation_deltas_sum_across_overlaps() {
        let reg = |w: f64| GridEventKind::FreqRegulation {
            delta_w: Watts(w),
            duration_s: Seconds(10.0),
        };
        let plan = GridPlan::none()
            .with_event(Seconds(0.0), Seconds(10.0), reg(100.0))
            .with_event(Seconds(0.0), Seconds(10.0), reg(-40.0));
        let mut inj = GridInjector::new(plan, 1);
        let ag = inj.advance(Seconds(0.0), Seconds(1.0));
        assert_eq!(ag.reg_delta, Some(Watts(60.0)));
    }

    #[test]
    fn stochastic_spikes_hit_the_requested_duty_roughly() {
        // duty = rate·mean / (1 + rate·mean); target 0.2 with mean 8 s.
        let plan = GridPlan::none().with_stochastic(StochasticGridEvent {
            kind: GridEventKind::PriceSpike { multiplier: 2.0 },
            start_rate: 0.2 / (0.8 * 8.0),
            mean_duration: Seconds(8.0),
        });
        let mut inj = GridInjector::new(plan, 99);
        let ticks = 20_000;
        let mut active = 0;
        for k in 0..ticks {
            let ag = inj.advance(Seconds(k as f64), Seconds(1.0));
            if ag.price_multiplier > 1.0 {
                active += 1;
            }
        }
        let duty = active as f64 / ticks as f64;
        assert!(
            (0.12..0.30).contains(&duty),
            "duty {duty} far from requested 0.2"
        );
    }

    #[test]
    fn stochastic_replay_is_deterministic() {
        let plan = GridPlan::none().with_stochastic(StochasticGridEvent {
            kind: GridEventKind::Curtailment {
                cap_w: Watts(3000.0),
                deadline_s: Seconds(10.0),
            },
            start_rate: 0.02,
            mean_duration: Seconds(20.0),
        });
        let mut a = GridInjector::new(plan.clone(), 42);
        let mut b = GridInjector::new(plan, 42);
        for k in 0..5_000 {
            let t = Seconds(k as f64);
            assert_eq!(a.advance(t, Seconds(1.0)), b.advance(t, Seconds(1.0)));
        }
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        let bad_cap = GridPlan::curtailment(Seconds(0.0), Seconds(1.0), Watts(0.0), Seconds(1.0));
        assert!(matches!(
            bad_cap.validate(),
            Err(GridPlanError::InvalidCurtailCap(_))
        ));
        let bad_mult = GridPlan::none().with_event(
            Seconds(0.0),
            Seconds(1.0),
            GridEventKind::PriceSpike { multiplier: 0.5 },
        );
        assert!(matches!(
            bad_mult.validate(),
            Err(GridPlanError::InvalidPriceMultiplier(_))
        ));
        let bad_reg = GridPlan::none().with_event(
            Seconds(0.0),
            Seconds(1.0),
            GridEventKind::FreqRegulation {
                delta_w: Watts(f64::NAN),
                duration_s: Seconds(5.0),
            },
        );
        assert!(matches!(
            bad_reg.validate(),
            Err(GridPlanError::InvalidRegulationDelta(_))
        ));
        let bad_rate = GridPlan::none().with_stochastic(StochasticGridEvent {
            kind: GridEventKind::PriceSpike { multiplier: 2.0 },
            start_rate: 0.0,
            mean_duration: Seconds(5.0),
        });
        assert!(matches!(
            bad_rate.validate(),
            Err(GridPlanError::InvalidStartRate(_))
        ));
        assert!(GridPlan::none().validate().is_ok());
        assert!(
            GridPlan::curtailment(Seconds(0.0), Seconds(1.0), Watts(3000.0), Seconds(0.0))
                .validate()
                .is_ok()
        );
    }

    #[test]
    fn error_messages_name_the_offending_value() {
        let err = GridPlan::none()
            .with_event(
                Seconds(0.0),
                Seconds(1.0),
                GridEventKind::PriceSpike { multiplier: 0.5 },
            )
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("0.5"));
    }
}
