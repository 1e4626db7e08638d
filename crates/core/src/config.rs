//! SprintCon configuration: every knob of §IV–§VI in one place.

use powersim::breaker::BreakerSpec;
use powersim::server::ServerSpec;
use powersim::units::{Seconds, Watts};
use powersim::ups::UpsSpec;
use sprint_control::mpc::MpcConfig;
use workloads::batch::MAX_CONTROL_WEIGHT;

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct SprintConConfig {
    /// Servers behind the breaker (§VI-A: 16).
    pub num_servers: usize,
    /// Interactive cores per server (§VI-A mixed placement: 4 of 8).
    pub interactive_cores_per_server: usize,
    /// Server hardware description.
    pub server: ServerSpec,
    /// Circuit breaker protecting the rack.
    pub breaker: BreakerSpec,
    /// UPS energy storage.
    pub ups: UpsSpec,

    // --- CB overload schedule (§IV-A) ---
    /// Overload degree during the overload state (1.25).
    pub overload_degree: f64,
    /// Planned overload-state duration (150 s).
    pub overload_duration: Seconds,
    /// Planned recovery-state duration (≤ 300 s).
    pub recovery_duration: Seconds,
    /// Fraction of the breaker's trip budget the schedule may consume
    /// before the supervisor forces recovery (safety margin under the
    /// curve of Fig. 2).
    pub trip_margin_stop: f64,
    /// Expected workload-burst duration `T_burst`; picks the schedule
    /// shape (§IV-A: <1 min → unconstrained, 5–10 min → constant
    /// overload, longer → periodic).
    pub t_burst: Seconds,

    // --- control timing (§IV-B, §V-C) ---
    /// Server & UPS power-controller period (1 s).
    pub control_period: Seconds,
    /// Power-load-allocator period (30 s ≫ controller settling time).
    pub allocator_period: Seconds,

    // --- server power controller (§V-B) ---
    /// The MPC's horizons and weights; it samples at `control_period`.
    pub mpc: MpcConfig,
    /// Assumed batch-core utilization when fitting the linear model, in
    /// (0, 1].
    pub assumed_batch_util: f64,

    // --- power load allocator (§IV-B) ---
    /// Factor-2 upper threshold: if interactive power exceeds
    /// `P_cb − P_batch` more than this fraction of the time, shrink
    /// `P_batch` ("more than 90% of the time").
    pub inter_pressure_high: f64,
    /// Factor-2 lower threshold: below it, grow `P_batch`.
    pub inter_pressure_low: f64,
    /// Multiplicative trim step applied by factor 2.
    pub p_batch_trim_step: f64,
    /// Safety multiplier on the deadline power floor.
    pub deadline_margin: f64,

    // --- UPS power controller (§IV-C) ---
    /// The UPS controller holds the breaker at `P_cb × this factor`
    /// during *overload* windows: slightly below the target, so
    /// measurement noise and the one-period actuation delay cannot push
    /// the thermal accumulator past the planned trip budget.
    pub cb_target_margin: f64,
    /// Margin during *recovery* windows. Deeper than the overload margin:
    /// every second the noisy breaker spends above rated is a second of
    /// heating instead of cooling, and a slow recovery delays the next
    /// overload window past what the allocator's deadline-banking plan
    /// assumed (§V-C timing contract).
    pub cb_recovery_margin: f64,

    // --- supervisor (§IV-C) ---
    /// UPS state-of-charge fraction below which the supervisor enters
    /// energy-conservation mode.
    pub soc_reserve: f64,

    // --- degraded-mode operation (sensor-fault tolerance) ---
    /// How long the supervisor may hold the last good power reading when
    /// the monitor misbehaves before switching to a model-based estimate.
    pub measurement_hold_max: Seconds,
    /// Subtracted from `trip_margin_stop` while the power sensor is
    /// faulty: with degraded feedback the supervisor stops overloading
    /// the breaker earlier.
    pub guard_band_widen: f64,
    /// Consecutive bit-identical readings (beyond the first) after which
    /// the sensor is declared stuck. Gaussian monitor noise makes exact
    /// repeats vanishingly rare on a healthy sensor.
    pub stuck_sensor_periods: u32,
    /// Readings above this are physically implausible for the plant and
    /// rejected as sensor spikes.
    pub spike_reject_above: Watts,
    /// Sustained blind operation bound: if no trustworthy reading has
    /// arrived for this long, the sprint is ended outright.
    pub blind_sprint_end: Seconds,
}

/// Why a [`SprintConConfig`] failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    NoServers,
    /// Interactive cores must leave at least one batch core per server.
    TooManyInteractiveCores {
        interactive: usize,
        cores: usize,
    },
    /// The DVFS ladder must span a finite range: `min < max`.
    InvalidFreqScale {
        min: f64,
        max: f64,
    },
    /// The batch model's calibration utilization must lie in (0, 1].
    InvalidAssumedBatchUtil(f64),
    /// "overload degree must exceed 1".
    NonOverloadDegree(f64),
    NonPositiveScheduleDurations,
    InvalidTripMarginStop(f64),
    NonPositiveControlPeriod(f64),
    /// "allocator must run much slower than the controller (§V-C)".
    AllocatorTooFast {
        allocator_period: Seconds,
        control_period: Seconds,
    },
    InvalidPressureBand {
        low: f64,
        high: f64,
    },
    InvalidTrimStep(f64),
    InvalidDeadlineMargin(f64),
    InvalidCbTargetMargin(f64),
    InvalidCbRecoveryMargin {
        recovery: f64,
        target: f64,
    },
    InvalidSocReserve(f64),
    /// "planned overload duration exceeds the trip curve".
    OverloadBeyondTripCurve {
        planned: Seconds,
        trip: Seconds,
    },
    InvalidDegradedMode(&'static str),
    /// The MPC configuration fails [`MpcConfig::validate`], or its
    /// `r_scale` overflows the penalty diagonal of a job weight at
    /// [`MAX_CONTROL_WEIGHT`].
    InvalidMpc(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoServers => write!(f, "at least one server is required"),
            ConfigError::TooManyInteractiveCores { interactive, cores } => write!(
                f,
                "{interactive} interactive cores leave no batch core on a {cores}-core server"
            ),
            ConfigError::InvalidFreqScale { min, max } => {
                write!(
                    f,
                    "frequency ladder must satisfy min < max, both finite, got {min}..{max}"
                )
            }
            ConfigError::InvalidAssumedBatchUtil(u) => {
                write!(f, "assumed batch utilization must be in (0, 1], got {u}")
            }
            ConfigError::NonOverloadDegree(d) => {
                write!(f, "overload degree must exceed 1, got {d}")
            }
            ConfigError::NonPositiveScheduleDurations => {
                write!(f, "overload/recovery durations must be positive")
            }
            ConfigError::InvalidTripMarginStop(m) => {
                write!(f, "trip_margin_stop must be in [0, 1], got {m}")
            }
            ConfigError::NonPositiveControlPeriod(p) => {
                write!(f, "control period must be positive and finite, got {p}")
            }
            ConfigError::AllocatorTooFast {
                allocator_period,
                control_period,
            } => write!(
                f,
                "allocator must run much slower than the controller (§V-C): \
                 allocator period {allocator_period} vs control period {control_period}"
            ),
            ConfigError::InvalidPressureBand { low, high } => {
                write!(
                    f,
                    "pressure thresholds must satisfy 0 ≤ low < high ≤ 1, got {low}/{high}"
                )
            }
            ConfigError::InvalidTrimStep(s) => {
                write!(f, "p_batch trim step must be in (0, 1), got {s}")
            }
            ConfigError::InvalidDeadlineMargin(m) => {
                write!(f, "deadline margin must be ≥ 1, got {m}")
            }
            ConfigError::InvalidCbTargetMargin(m) => {
                write!(
                    f,
                    "cb target margin must be a small undershoot in [0.9, 1], got {m}"
                )
            }
            ConfigError::InvalidCbRecoveryMargin { recovery, target } => write!(
                f,
                "recovery margin must undershoot at least as deeply: {recovery} vs {target}"
            ),
            ConfigError::InvalidSocReserve(r) => {
                write!(f, "soc reserve must be in [0, 0.5), got {r}")
            }
            ConfigError::OverloadBeyondTripCurve { planned, trip } => write!(
                f,
                "planned overload duration exceeds the trip curve: {planned} > {trip}"
            ),
            ConfigError::InvalidDegradedMode(what) => {
                write!(f, "degraded-mode config invalid: {what}")
            }
            ConfigError::InvalidMpc(what) => write!(f, "MPC config invalid: {what}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl SprintConConfig {
    /// The paper's evaluation setup (§VI-A), end to end.
    pub fn paper_default() -> Self {
        SprintConConfig {
            num_servers: 16,
            interactive_cores_per_server: 4,
            server: ServerSpec::paper_default(),
            breaker: BreakerSpec::paper_default(),
            ups: UpsSpec::paper_default(),
            overload_degree: 1.25,
            overload_duration: Seconds(150.0),
            recovery_duration: Seconds(300.0),
            trip_margin_stop: 0.95,
            t_burst: Seconds::minutes(15.0),
            control_period: Seconds(1.0),
            allocator_period: Seconds(30.0),
            mpc: MpcConfig::paper_default(),
            assumed_batch_util: 0.95,
            inter_pressure_high: 0.9,
            inter_pressure_low: 0.4,
            p_batch_trim_step: 0.1,
            deadline_margin: 1.12,
            cb_target_margin: 0.99,
            cb_recovery_margin: 0.98,
            soc_reserve: 0.03,
            measurement_hold_max: Seconds(5.0),
            guard_band_widen: 0.15,
            stuck_sensor_periods: 5,
            // Twice the overloaded rack power: no legitimate reading of
            // the §VI-A plant (≲ 5 kW) ever comes close.
            spike_reject_above: Watts(8000.0),
            blind_sprint_end: Seconds(30.0),
        }
    }

    /// Batch cores per server.
    pub fn batch_cores_per_server(&self) -> usize {
        self.server.num_cores - self.interactive_cores_per_server
    }

    /// Total batch cores on the rack.
    pub fn total_batch_cores(&self) -> usize {
        self.num_servers * self.batch_cores_per_server()
    }

    /// Rated breaker power.
    pub fn rated(&self) -> Watts {
        self.breaker.rated
    }

    /// Breaker power during the overload state.
    pub fn overloaded(&self) -> Watts {
        Watts(self.breaker.rated.0 * self.overload_degree)
    }

    /// Check every structural constraint; [`crate::SprintCon::try_new`]
    /// calls this once at construction.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_servers == 0 {
            return Err(ConfigError::NoServers);
        }
        if self.interactive_cores_per_server >= self.server.num_cores {
            return Err(ConfigError::TooManyInteractiveCores {
                interactive: self.interactive_cores_per_server,
                cores: self.server.num_cores,
            });
        }
        let ladder = self.server.freq_scale;
        if !(ladder.min.0 < ladder.max.0 && ladder.min.0.is_finite() && ladder.max.0.is_finite()) {
            return Err(ConfigError::InvalidFreqScale {
                min: ladder.min.0,
                max: ladder.max.0,
            });
        }
        if !(self.assumed_batch_util > 0.0 && self.assumed_batch_util <= 1.0) {
            return Err(ConfigError::InvalidAssumedBatchUtil(
                self.assumed_batch_util,
            ));
        }
        if self.overload_degree <= 1.0 {
            return Err(ConfigError::NonOverloadDegree(self.overload_degree));
        }
        if !(self.overload_duration.0 > 0.0 && self.recovery_duration.0 > 0.0) {
            return Err(ConfigError::NonPositiveScheduleDurations);
        }
        if !(0.0..=1.0).contains(&self.trip_margin_stop) {
            return Err(ConfigError::InvalidTripMarginStop(self.trip_margin_stop));
        }
        if !(self.control_period.0 > 0.0 && self.control_period.0.is_finite()) {
            return Err(ConfigError::NonPositiveControlPeriod(self.control_period.0));
        }
        self.mpc.validate().map_err(ConfigError::InvalidMpc)?;
        // Every weight the supervisor sets is at most MAX_CONTROL_WEIGHT,
        // and the MPC's penalty diagonal is 2·r_scale·weight.
        if !(2.0 * self.mpc.r_scale * MAX_CONTROL_WEIGHT).is_finite() {
            return Err(ConfigError::InvalidMpc(
                "2·r_scale·MAX_CONTROL_WEIGHT must be finite",
            ));
        }
        if self.allocator_period.0 < 10.0 * self.control_period.0 {
            return Err(ConfigError::AllocatorTooFast {
                allocator_period: self.allocator_period,
                control_period: self.control_period,
            });
        }
        if !(0.0..1.0).contains(&self.inter_pressure_low)
            || self.inter_pressure_low >= self.inter_pressure_high
            || self.inter_pressure_high > 1.0
        {
            return Err(ConfigError::InvalidPressureBand {
                low: self.inter_pressure_low,
                high: self.inter_pressure_high,
            });
        }
        if !(self.p_batch_trim_step > 0.0 && self.p_batch_trim_step < 1.0) {
            return Err(ConfigError::InvalidTrimStep(self.p_batch_trim_step));
        }
        if self.deadline_margin < 1.0 {
            return Err(ConfigError::InvalidDeadlineMargin(self.deadline_margin));
        }
        if !(0.9..=1.0).contains(&self.cb_target_margin) {
            return Err(ConfigError::InvalidCbTargetMargin(self.cb_target_margin));
        }
        if !(0.9..=1.0).contains(&self.cb_recovery_margin)
            || self.cb_recovery_margin > self.cb_target_margin
        {
            return Err(ConfigError::InvalidCbRecoveryMargin {
                recovery: self.cb_recovery_margin,
                target: self.cb_target_margin,
            });
        }
        if !(0.0..0.5).contains(&self.soc_reserve) {
            return Err(ConfigError::InvalidSocReserve(self.soc_reserve));
        }
        // The planned overload must stay under the trip curve with margin.
        let trip = self.breaker.trip_time(self.overload_degree);
        if self.overload_duration.0 > trip.0 {
            return Err(ConfigError::OverloadBeyondTripCurve {
                planned: self.overload_duration,
                trip,
            });
        }
        // Degraded-mode ladder: each rung must engage after the previous.
        if !(self.measurement_hold_max.0 >= 0.0 && self.measurement_hold_max.0.is_finite()) {
            return Err(ConfigError::InvalidDegradedMode(
                "measurement_hold_max must be finite and non-negative",
            ));
        }
        if self.blind_sprint_end.0 < self.measurement_hold_max.0 {
            return Err(ConfigError::InvalidDegradedMode(
                "blind_sprint_end must not precede measurement_hold_max",
            ));
        }
        if !(0.0..=self.trip_margin_stop).contains(&self.guard_band_widen) {
            return Err(ConfigError::InvalidDegradedMode(
                "guard_band_widen must be in [0, trip_margin_stop]",
            ));
        }
        if self.stuck_sensor_periods < 2 {
            return Err(ConfigError::InvalidDegradedMode(
                "stuck_sensor_periods must be at least 2",
            ));
        }
        if self.spike_reject_above.0 <= self.overloaded().0 {
            return Err(ConfigError::InvalidDegradedMode(
                "spike_reject_above must exceed the planned overloaded power",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_consistent() {
        let c = SprintConConfig::paper_default();
        c.validate().expect("paper default must validate");
        assert_eq!(c.total_batch_cores(), 64);
        assert_eq!(c.num_servers * c.interactive_cores_per_server, 64);
        assert_eq!(c.rated(), Watts(3200.0));
        assert_eq!(c.overloaded(), Watts(4000.0));
    }

    #[test]
    fn rejects_fast_allocator() {
        let mut c = SprintConConfig::paper_default();
        c.allocator_period = Seconds(2.0);
        let err = c.validate().unwrap_err();
        assert!(matches!(err, ConfigError::AllocatorTooFast { .. }));
        assert!(err.to_string().contains("allocator must run much slower"));
    }

    #[test]
    fn rejects_overload_beyond_trip_curve() {
        let mut c = SprintConConfig::paper_default();
        c.overload_duration = Seconds(151.0);
        let err = c.validate().unwrap_err();
        assert!(matches!(err, ConfigError::OverloadBeyondTripCurve { .. }));
        assert!(err.to_string().contains("exceeds the trip curve"));
    }

    #[test]
    fn rejects_non_overload() {
        let mut c = SprintConConfig::paper_default();
        c.overload_degree = 1.0;
        let err = c.validate().unwrap_err();
        assert!(matches!(err, ConfigError::NonOverloadDegree(_)));
        assert!(err.to_string().contains("overload degree"));
    }

    #[test]
    fn rejects_inverted_degradation_ladder() {
        let mut c = SprintConConfig::paper_default();
        c.blind_sprint_end = Seconds(1.0); // < measurement_hold_max
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::InvalidDegradedMode(_)
        ));
        let mut c = SprintConConfig::paper_default();
        c.spike_reject_above = Watts(3000.0); // below overloaded power
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::InvalidDegradedMode(_)
        ));
    }
}
