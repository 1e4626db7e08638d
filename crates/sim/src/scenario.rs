//! Scenario description and builder: assembles the paper's evaluation
//! setup (§VI-A) — 16 servers, 3.2 kW breaker, 400 Wh UPS, Wikipedia-like
//! interactive burst, SPEC-like batch jobs with minute-scale deadlines —
//! into a ready [`RackSim`].
//!
//! Construction goes through [`ScenarioBuilder`], which validates the
//! parameters at [`ScenarioBuilder::build`] and returns a typed
//! [`ScenarioError`] instead of panicking mid-run. The canonical §VI-A
//! setup stays a one-liner: [`Scenario::paper_default`].

use crate::engine::RackSim;
use powersim::breaker::BreakerSpec;
use powersim::faults::FaultPlan;
use powersim::grid::{GridPlan, GridPlanError};
use powersim::plant::{PlantError, PlantSpec};
use powersim::server::ServerSpec;
use powersim::units::Seconds;
use powersim::ups::UpsSpec;
use workloads::batch::BatchJob;
use workloads::open_loop::{WorkloadError, WorkloadSource};
use workloads::spec_profiles::paper_batch_mix;

/// Everything that disturbs the closed loop from outside the controller:
/// measurement noise plus the injected fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Disturbances {
    /// Power-monitor relative noise (σ as a fraction of the reading).
    pub monitor_rel_sigma: f64,
    /// Power-monitor absolute noise floor (σ in watts).
    pub monitor_abs_sigma: f64,
    /// Injected faults (sensor/actuator/storage/breaker/server).
    pub faults: FaultPlan,
}

impl Disturbances {
    /// The paper's nominal monitoring noise, no faults.
    pub fn paper_default() -> Self {
        Disturbances {
            monitor_rel_sigma: 0.005,
            monitor_abs_sigma: 5.0,
            faults: FaultPlan::none(),
        }
    }

    /// A perfectly clean loop: noiseless monitor, no faults.
    pub fn none() -> Self {
        Disturbances {
            monitor_rel_sigma: 0.0,
            monitor_abs_sigma: 0.0,
            faults: FaultPlan::none(),
        }
    }
}

/// Why a scenario failed validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// `dt` must be positive and finite.
    NonPositiveDt(f64),
    /// `duration` must be positive and finite.
    NonPositiveDuration(f64),
    /// `duration` rounds to zero control periods of `dt`, so the run
    /// would do nothing.
    DurationBelowOnePeriod { duration: Seconds, dt: Seconds },
    /// The batch deadline must be positive and finite.
    InvalidDeadline(f64),
    /// The batch deadline cannot exceed the run duration.
    DeadlineBeyondDuration {
        deadline: Seconds,
        duration: Seconds,
    },
    /// The plant fails [`PlantSpec::validate`].
    Plant(PlantError),
    /// Job scaling must be positive and finite.
    InvalidJobScale(f64),
    /// Monitor noise parameters must be finite and non-negative.
    InvalidMonitorNoise { rel: f64, abs: f64 },
    /// The workload source failed its own validation.
    Workload(WorkloadError),
    /// The grid-event plan failed its own validation.
    Grid(GridPlanError),
}

impl From<WorkloadError> for ScenarioError {
    fn from(e: WorkloadError) -> Self {
        ScenarioError::Workload(e)
    }
}

impl From<GridPlanError> for ScenarioError {
    fn from(e: GridPlanError) -> Self {
        ScenarioError::Grid(e)
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NonPositiveDt(dt) => {
                write!(f, "control period dt must be positive and finite, got {dt}")
            }
            ScenarioError::NonPositiveDuration(d) => {
                write!(f, "run duration must be positive and finite, got {d}")
            }
            ScenarioError::DurationBelowOnePeriod { duration, dt } => write!(
                f,
                "run duration {duration} rounds to zero control periods of {dt}"
            ),
            ScenarioError::InvalidDeadline(d) => {
                write!(f, "batch deadline must be positive and finite, got {d}")
            }
            ScenarioError::DeadlineBeyondDuration { deadline, duration } => write!(
                f,
                "batch deadline {deadline} exceeds run duration {duration}"
            ),
            ScenarioError::Plant(e) => write!(f, "plant: {e}"),
            ScenarioError::InvalidJobScale(s) => {
                write!(f, "job_scale must be positive and finite, got {s}")
            }
            ScenarioError::InvalidMonitorNoise { rel, abs } => write!(
                f,
                "monitor noise sigmas must be finite and non-negative, got rel={rel} abs={abs}"
            ),
            ScenarioError::Workload(e) => write!(f, "workload source: {e}"),
            ScenarioError::Grid(e) => write!(f, "grid plan: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A fully-parameterized experiment scenario.
///
/// Fields are public for cheap tweaking between runs (sweeps mutate
/// `duration`, `seed`, …); validation happens when a simulation is
/// assembled ([`Scenario::try_build`]) or explicitly via
/// [`Scenario::validate`].
#[derive(Debug, Clone)]
pub struct Scenario {
    pub seed: u64,
    /// Run length (the paper's sprinting process: 15 minutes).
    pub duration: Seconds,
    /// Control/simulation period.
    pub dt: Seconds,
    /// Batch deadline (9/12/15 minutes in §VII-D).
    pub deadline: Seconds,
    /// Scale applied to each benchmark's nominal (peak-frequency) runtime
    /// when sizing its work. The workload is *fixed* across the deadline
    /// sweep — only the deadline moves, as in §VII-D — so tight deadlines
    /// force high frequencies and loose ones allow throttling.
    pub job_scale: f64,
    /// What drives the interactive tier: the closed-loop utilization
    /// trace ([`WorkloadSource::UtilTrace`], today's behavior) or the
    /// open-loop request-queueing model ([`WorkloadSource::OpenLoop`]).
    pub workload: WorkloadSource,
    /// Plant description, one field per [`PlantSpec`] field; read it
    /// whole through [`Scenario::plant`].
    pub server: ServerSpec,
    pub num_servers: usize,
    pub interactive_cores_per_server: usize,
    pub breaker: BreakerSpec,
    pub ups: UpsSpec,
    /// Measurement noise and injected faults.
    pub disturbances: Disturbances,
    /// Grid events (curtailment / price spikes / frequency regulation)
    /// replayed against the run; [`GridPlan::none`] leaves the loop
    /// bit-identical to a grid-unaware build.
    pub grid: GridPlan,
    /// Batch jobs restart on completion (continuous processing), vs
    /// one-shot jobs with deadlines.
    pub repeat_jobs: bool,
}

impl Scenario {
    /// Start from the §VI-A paper defaults and customize from there.
    pub fn builder(seed: u64) -> ScenarioBuilder {
        ScenarioBuilder::new(seed)
    }

    /// The §VI-A evaluation scenario with a 12-minute batch deadline.
    pub fn paper_default(seed: u64) -> Self {
        // Invariant: the builder's defaults are the paper's §VI-A values,
        // which satisfy every validation rule.
        Scenario::builder(seed)
            .build()
            .expect("paper-default scenario is valid by construction")
    }

    /// Same scenario with a different deadline (Fig. 8 sweep).
    pub fn with_deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = deadline;
        self
    }

    /// The plant this scenario runs, as one value: the rack is built
    /// from it, and every policy is built for it.
    pub fn plant(&self) -> PlantSpec {
        PlantSpec {
            server: self.server.clone(),
            num_servers: self.num_servers,
            interactive_cores_per_server: self.interactive_cores_per_server,
            breaker: self.breaker,
            ups: self.ups,
        }
    }

    /// Check every structural constraint; [`ScenarioBuilder::build`] and
    /// [`Scenario::try_build`] call this.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if !(self.dt.0 > 0.0 && self.dt.0.is_finite()) {
            return Err(ScenarioError::NonPositiveDt(self.dt.0));
        }
        if !(self.duration.0 > 0.0 && self.duration.0.is_finite()) {
            return Err(ScenarioError::NonPositiveDuration(self.duration.0));
        }
        // The engines run `(duration / dt).round()` periods.
        if (self.duration.0 / self.dt.0).round() < 1.0 {
            return Err(ScenarioError::DurationBelowOnePeriod {
                duration: self.duration,
                dt: self.dt,
            });
        }
        if !(self.deadline.0 > 0.0 && self.deadline.0.is_finite()) {
            return Err(ScenarioError::InvalidDeadline(self.deadline.0));
        }
        self.plant().validate().map_err(ScenarioError::Plant)?;
        if !(self.job_scale > 0.0 && self.job_scale.is_finite()) {
            return Err(ScenarioError::InvalidJobScale(self.job_scale));
        }
        let (rel, abs) = (
            self.disturbances.monitor_rel_sigma,
            self.disturbances.monitor_abs_sigma,
        );
        if !(rel.is_finite() && abs.is_finite() && rel >= 0.0 && abs >= 0.0) {
            return Err(ScenarioError::InvalidMonitorNoise { rel, abs });
        }
        self.workload.validate()?;
        self.grid.validate()?;
        Ok(())
    }

    /// Build the batch jobs (rack batch-core order: server-major).
    pub fn build_jobs(&self) -> Vec<BatchJob> {
        let mix = paper_batch_mix(self.num_servers, self.plant().batch_cores_per_server());
        let mut jobs = Vec::new();
        for server_profiles in mix {
            for profile in server_profiles {
                let model = profile.progress_model();
                let work = profile.nominal_runtime_s * self.job_scale;
                let mut job = BatchJob::new(profile.name, model, work, self.deadline);
                if self.repeat_jobs {
                    job = job.repeating();
                }
                jobs.push(job);
            }
        }
        jobs
    }

    /// Validate and assemble the simulation.
    pub fn try_build(&self) -> Result<RackSim, ScenarioError> {
        RackSim::from_scenario(self)
    }

    /// Assemble the simulation, panicking on an invalid scenario.
    ///
    /// Sweeps and figure binaries that start from [`Scenario::paper_default`]
    /// use this; code taking scenario parameters from outside should
    /// prefer [`Scenario::try_build`].
    pub fn build(&self) -> RackSim {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }
}

/// Builder for [`Scenario`], seeded with the paper's §VI-A defaults.
///
/// ```
/// use powersim::units::Seconds;
/// use simkit::Scenario;
///
/// let scenario = Scenario::builder(7)
///     .duration(Seconds::minutes(6.0))
///     .deadline(Seconds::minutes(5.0))
///     .build()
///     .expect("valid scenario");
/// assert_eq!(scenario.num_servers, 16);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    inner: Scenario,
}

impl ScenarioBuilder {
    /// Paper defaults (§VI-A) under the given seed.
    pub fn new(seed: u64) -> Self {
        let plant = PlantSpec::paper_default();
        ScenarioBuilder {
            inner: Scenario {
                seed,
                duration: Seconds::minutes(15.0),
                dt: Seconds(1.0),
                deadline: Seconds::minutes(12.0),
                job_scale: 0.9,
                workload: WorkloadSource::paper_default(),
                server: plant.server,
                num_servers: plant.num_servers,
                interactive_cores_per_server: plant.interactive_cores_per_server,
                breaker: plant.breaker,
                ups: plant.ups,
                disturbances: Disturbances::paper_default(),
                grid: GridPlan::none(),
                // §VI-A: "the batch workloads are processed repeatedly and
                // continuously ... until the workload is run for 15 minutes".
                repeat_jobs: true,
            },
        }
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    pub fn duration(mut self, duration: Seconds) -> Self {
        self.inner.duration = duration;
        self
    }

    pub fn dt(mut self, dt: Seconds) -> Self {
        self.inner.dt = dt;
        self
    }

    pub fn deadline(mut self, deadline: Seconds) -> Self {
        self.inner.deadline = deadline;
        self
    }

    pub fn job_scale(mut self, scale: f64) -> Self {
        self.inner.job_scale = scale;
        self
    }

    /// Set the workload source driving the interactive tier.
    pub fn workload(mut self, workload: WorkloadSource) -> Self {
        self.inner.workload = workload;
        self
    }

    pub fn server(mut self, server: ServerSpec) -> Self {
        self.inner.server = server;
        self
    }

    pub fn num_servers(mut self, n: usize) -> Self {
        self.inner.num_servers = n;
        self
    }

    pub fn interactive_cores_per_server(mut self, n: usize) -> Self {
        self.inner.interactive_cores_per_server = n;
        self
    }

    pub fn breaker(mut self, breaker: BreakerSpec) -> Self {
        self.inner.breaker = breaker;
        self
    }

    pub fn ups(mut self, ups: UpsSpec) -> Self {
        self.inner.ups = ups;
        self
    }

    /// Set just the monitor-noise sigmas, keeping the fault plan.
    pub fn monitor_noise(mut self, rel_sigma: f64, abs_sigma: f64) -> Self {
        self.inner.disturbances.monitor_rel_sigma = rel_sigma;
        self.inner.disturbances.monitor_abs_sigma = abs_sigma;
        self
    }

    /// Set the injected fault schedule, keeping the noise sigmas.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.inner.disturbances.faults = plan;
        self
    }

    /// Set the grid-event schedule (curtailment / price / regulation).
    pub fn grid(mut self, plan: GridPlan) -> Self {
        self.inner.grid = plan;
        self
    }

    pub fn repeat_jobs(mut self, repeat: bool) -> Self {
        self.inner.repeat_jobs = repeat;
        self
    }

    /// Validate and return the scenario.
    ///
    /// On top of [`Scenario::validate`], the builder also rejects a
    /// deadline beyond the run: a freshly-assembled scenario whose jobs
    /// can never be judged is a configuration mistake. (Hand-mutated
    /// scenarios may still shorten `duration` for quick runs without
    /// touching the deadline — common in tests — so `validate` itself
    /// leaves that combination alone.)
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        if self.inner.deadline.0 > self.inner.duration.0 {
            return Err(ScenarioError::DeadlineBeyondDuration {
                deadline: self.inner.deadline,
                duration: self.inner.duration,
            });
        }
        self.inner.validate()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::cpu::CoreRole;

    #[test]
    fn paper_scenario_builds_the_documented_plant() {
        let s = Scenario::paper_default(1);
        let sim = s.build();
        assert_eq!(sim.rack.num_servers(), 16);
        assert_eq!(sim.rack.count_role(CoreRole::Interactive), 64);
        assert_eq!(sim.rack.count_role(CoreRole::Batch), 64);
        assert_eq!(sim.jobs.len(), 64);
        assert_eq!(sim.feed.breaker.spec.rated.0, 3200.0);
        assert_eq!(sim.feed.ups.spec.capacity.0, 400.0);
    }

    #[test]
    fn jobs_follow_the_benchmark_mix() {
        let s = Scenario::paper_default(1);
        let jobs = s.build_jobs();
        // Server 0 runs CINT, server 1 CFP (§VI-A placement).
        assert_eq!(jobs[0].name, "400.perlbench");
        assert_eq!(jobs[3].name, "429.mcf");
        assert_eq!(jobs[4].name, "433.milc");
        // All share the deadline.
        assert!(jobs.iter().all(|j| j.deadline == Seconds(720.0)));
    }

    #[test]
    fn job_sizing_is_feasible_but_tight() {
        let s = Scenario::paper_default(1).with_deadline(Seconds::minutes(9.0));
        for j in s.build_jobs() {
            // Even the 9-minute deadline is meetable at peak frequency...
            assert!(
                j.total_work <= s.deadline.0,
                "{} infeasible even at peak",
                j.name
            );
            // ...but no job can idle: all need a substantial frequency.
            let needed = j.required_rate(Seconds::ZERO).unwrap();
            assert!(needed > 0.5, "{}: deadline not 'relatively tight'", j.name);
        }
    }

    #[test]
    fn deadline_sweep_keeps_the_workload_fixed() {
        // §VII-D varies only the deadline; the batch work is constant.
        let base = Scenario::paper_default(1);
        let short = base.clone().with_deadline(Seconds::minutes(9.0));
        let w_base: f64 = base.build_jobs().iter().map(|j| j.total_work).sum();
        let w_short: f64 = short.build_jobs().iter().map(|j| j.total_work).sum();
        assert_eq!(w_base, w_short);
    }

    #[test]
    fn determinism_same_seed_same_sim() {
        let a = Scenario::paper_default(9).build();
        let b = Scenario::paper_default(9).build();
        assert_eq!(a.tier.demand(), b.tier.demand());
        assert_eq!(a.rack, b.rack);
    }

    #[test]
    fn builder_rejects_deadline_beyond_duration() {
        let err = Scenario::builder(1)
            .duration(Seconds::minutes(10.0))
            .deadline(Seconds::minutes(12.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::DeadlineBeyondDuration { .. }));
    }

    #[test]
    fn builder_rejects_degenerate_plants() {
        assert!(matches!(
            Scenario::builder(1).dt(Seconds(0.0)).build().unwrap_err(),
            ScenarioError::NonPositiveDt(_)
        ));
        // `PlantSpec::validate` checks each plant constraint; a broken
        // ladder, which only SprintCon's config used to catch, included.
        let mut server = ServerSpec::paper_default();
        server.freq_scale.max = server.freq_scale.min;
        let err = Scenario::builder(1).server(server).build().unwrap_err();
        assert!(
            matches!(
                err,
                ScenarioError::Plant(PlantError::InvalidFreqScale { .. })
            ),
            "{err}"
        );
        assert!(
            err.to_string().starts_with("plant: frequency ladder"),
            "{err}"
        );
        assert!(matches!(
            Scenario::builder(1).job_scale(0.0).build().unwrap_err(),
            ScenarioError::InvalidJobScale(_)
        ));
        assert!(matches!(
            Scenario::builder(1)
                .monitor_noise(f64::NAN, 5.0)
                .build()
                .unwrap_err(),
            ScenarioError::InvalidMonitorNoise { .. }
        ));
    }

    #[test]
    fn builder_rejects_invalid_grid_plans() {
        use powersim::grid::GridEventKind;
        let bad = GridPlan::none().with_event(
            Seconds(10.0),
            Seconds(30.0),
            GridEventKind::PriceSpike { multiplier: 0.5 },
        );
        let err = Scenario::builder(1).grid(bad).build().unwrap_err();
        assert!(matches!(err, ScenarioError::Grid(_)));
        assert!(err.to_string().contains("grid plan"), "{err}");
    }

    #[test]
    fn validate_rejects_non_finite_and_non_positive_deadlines() {
        for d in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            let sc = Scenario::paper_default(1).with_deadline(Seconds(d));
            let err = sc.validate().unwrap_err();
            assert!(
                matches!(err, ScenarioError::InvalidDeadline(v) if v.to_bits() == d.to_bits()),
                "deadline {d}: {err:?}"
            );
            assert!(err.to_string().contains("deadline"), "{err}");
        }
    }

    #[test]
    fn try_build_surfaces_errors_from_mutated_scenarios() {
        let mut sc = Scenario::paper_default(1);
        sc.duration = Seconds(-1.0);
        let err = sc.try_build().err().expect("negative duration must fail");
        assert!(matches!(err, ScenarioError::NonPositiveDuration(_)));
        // Errors render a human-readable message.
        assert!(err.to_string().contains("duration"));
    }

    #[test]
    fn durations_below_half_a_period_are_rejected() {
        let mut sc = Scenario::paper_default(1);
        sc.duration = Seconds(0.4);
        let err = sc.validate().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::DurationBelowOnePeriod {
                duration: Seconds(0.4),
                dt: Seconds(1.0),
            }
        );
        assert!(err.to_string().contains("zero control periods"), "{err}");
        // 0.6 s rounds to one period, and runs it.
        sc.duration = Seconds(0.6);
        let out = crate::run_policy(&sc, crate::PolicyKind::SprintCon);
        assert_eq!(out.recorder.len(), 1);
    }

    #[test]
    fn errors_display_their_parameters() {
        let e = ScenarioError::DeadlineBeyondDuration {
            deadline: Seconds(900.0),
            duration: Seconds(600.0),
        };
        let msg = e.to_string();
        assert!(msg.contains("deadline"), "{msg}");
    }
}
