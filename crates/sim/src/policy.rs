//! The policy interface between the simulation engine and the control
//! systems under test, plus the adapters for SprintCon and the SGCT
//! family.

use crate::mode::ModeLabel;
use powersim::grid::ActiveGrid;
use powersim::rack::Rack;
use powersim::units::{NormFreq, Seconds, Utilization, Watts};
use workloads::batch::BatchJob;
use workloads::open_loop::QueueObservation;

/// Everything a policy may observe at the start of a control period.
pub struct SimView<'a> {
    pub now: Seconds,
    pub dt: Seconds,
    /// Noisy, one-period-stale power-monitor reading.
    pub p_total_measured: Watts,
    /// The rack — policies read utilizations/frequencies from it; the
    /// idealized baselines additionally use it as a power oracle.
    pub rack: &'a Rack,
    /// Batch jobs in rack batch-core order.
    pub jobs: &'a [BatchJob],
    pub breaker_margin: f64,
    pub breaker_closed: bool,
    pub ups_soc: f64,
    /// Fan power of the previous period (granted to ideal baselines).
    pub fan_power: Watts,
    /// The rack suffered a permanent brownout.
    pub shutdown: bool,
    /// One-period-stale open-loop queue observation (depth, tick
    /// latency quantiles, drop counts); `None` on the closed-loop path.
    pub queue: Option<QueueObservation>,
    /// This tick's merged grid signals (nominal when no plan is active).
    pub grid: ActiveGrid,
}

impl<'a> SimView<'a> {
    /// Per-server mean interactive utilization (what Eq. (5) consumes),
    /// written into a caller-owned buffer — policies keep a scratch `Vec`
    /// so the control loop stays allocation-free.
    pub fn interactive_utils_into(&self, out: &mut Vec<Utilization>) {
        self.rack.interactive_utils_into(out);
    }

    /// Current per-batch-core frequencies, rack order — a zero-copy
    /// borrow of the rack's contiguous batch lane slab.
    pub fn batch_freqs(&self) -> &'a [f64] {
        self.rack.role(powersim::cpu::CoreRole::Batch).freqs
    }
}

/// Frequency actuation for one period.
pub enum FreqCommand {
    /// Interactive cores get one frequency; batch cores are individually
    /// driven (SprintCon's shape).
    RoleBased {
        interactive: NormFreq,
        batch: Vec<f64>,
    },
    /// Every core individually (the SGCT family's shape).
    AllCores(Vec<NormFreq>),
}

/// A policy's output for one control period.
pub struct PolicyCommand {
    pub freqs: FreqCommand,
    pub ups_target: Watts,
    /// Published breaker budget, for recording/plotting (Fig. 5/6).
    pub p_cb_target: Option<Watts>,
    /// Published batch budget (SprintCon only).
    pub p_batch_target: Option<Watts>,
    /// The policy's internal mode, for traces and event-log edges.
    pub mode_label: ModeLabel,
}

/// A control policy under test.
pub trait Policy {
    fn name(&self) -> &'static str;
    fn control(&mut self, view: &SimView<'_>) -> PolicyCommand;
}

// ---------------------------------------------------------------------
// SprintCon adapter
// ---------------------------------------------------------------------

/// [`sprintcon::SprintCon`] driving the rack.
pub struct SprintConPolicy {
    ctl: sprintcon::SprintCon,
    /// Reused per-period buffer for the per-server utilization vector.
    utils_scratch: Vec<Utilization>,
}

impl SprintConPolicy {
    pub fn new(cfg: sprintcon::SprintConConfig) -> Self {
        SprintConPolicy {
            ctl: sprintcon::SprintCon::new(cfg),
            utils_scratch: Vec::new(),
        }
    }

    pub fn paper_default() -> Self {
        Self::new(sprintcon::SprintConConfig::paper_default())
    }

    pub fn inner(&self) -> &sprintcon::SprintCon {
        &self.ctl
    }

    /// Mutable access to the wrapped control system — the datacenter
    /// engine uses this to install headroom-market grants between
    /// epochs ([`sprintcon::SprintCon::apply_feeder_grant`]).
    pub fn inner_mut(&mut self) -> &mut sprintcon::SprintCon {
        &mut self.ctl
    }
}

impl Policy for SprintConPolicy {
    fn name(&self) -> &'static str {
        "SprintCon"
    }

    fn control(&mut self, view: &SimView<'_>) -> PolicyCommand {
        view.interactive_utils_into(&mut self.utils_scratch);
        let batch_freqs = view.batch_freqs();
        let out = self.ctl.step(
            view.dt,
            sprintcon::SprintConInputs {
                p_total: view.p_total_measured,
                interactive_util: &self.utils_scratch,
                batch_freqs,
                jobs: view.jobs,
                breaker_margin: view.breaker_margin,
                breaker_closed: view.breaker_closed,
                ups_soc: view.ups_soc,
                queue: view.queue.map(|q| sprintcon::QueueMeasurement {
                    depth: q.depth,
                    p99_s: q.p99_s,
                    drop_rate: if view.dt.0 > 0.0 {
                        q.dropped / view.dt.0
                    } else {
                        0.0
                    },
                }),
                grid: view.grid,
            },
        );
        PolicyCommand {
            freqs: FreqCommand::RoleBased {
                interactive: out.interactive_freq,
                batch: out.batch_freqs,
            },
            ups_target: out.ups_discharge,
            p_cb_target: out.p_cb_target,
            p_batch_target: Some(out.p_batch_target),
            mode_label: ModeLabel::from(out.mode),
        }
    }
}

// ---------------------------------------------------------------------
// SGCT adapters
// ---------------------------------------------------------------------

/// An SGCT-family baseline driving the rack.
pub struct SgctSimPolicy {
    policy: baselines::SgctPolicy,
    name: &'static str,
}

impl SgctSimPolicy {
    /// Build from an explicit configuration; [`crate::PolicyKind::build_for`]
    /// writes the run's plant into it.
    pub fn with_config(cfg: baselines::SgctConfig) -> Self {
        let name = match cfg.variant {
            baselines::SgctVariant::Uncontrolled => "SGCT",
            baselines::SgctVariant::V1Ideal => "SGCT-V1",
            baselines::SgctVariant::V2InteractivePriority => "SGCT-V2",
        };
        SgctSimPolicy {
            policy: baselines::SgctPolicy::new(cfg),
            name,
        }
    }
}

impl Policy for SgctSimPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn control(&mut self, view: &SimView<'_>) -> PolicyCommand {
        let cmd = self
            .policy
            .step(view.dt, view.rack, view.p_total_measured, view.fan_power);
        PolicyCommand {
            freqs: FreqCommand::AllCores(cmd.freqs),
            ups_target: cmd.ups_target,
            p_cb_target: Some(if cmd.overloading {
                self.policy.cfg.sprint_budget()
            } else {
                self.policy.cfg.plant.breaker.rated
            }),
            p_batch_target: None,
            mode_label: if cmd.overloading {
                ModeLabel::Overload
            } else {
                ModeLabel::Recover
            },
        }
    }
}

// ---------------------------------------------------------------------
// Test support
// ---------------------------------------------------------------------

/// Trivial policies used by engine tests and ablations.
pub mod tests_support {
    use super::*;

    /// Holds interactive at one frequency, batch at another, with a
    /// constant UPS discharge target.
    pub struct FixedPolicy {
        pub interactive: NormFreq,
        pub batch: f64,
        pub ups: Watts,
    }

    impl FixedPolicy {
        pub fn new(interactive: NormFreq, batch: f64, ups: Watts) -> Self {
            FixedPolicy {
                interactive,
                batch,
                ups,
            }
        }
    }

    impl Policy for FixedPolicy {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn control(&mut self, view: &SimView<'_>) -> PolicyCommand {
            let n = view.jobs.len();
            PolicyCommand {
                freqs: FreqCommand::RoleBased {
                    interactive: self.interactive,
                    batch: vec![self.batch; n],
                },
                ups_target: self.ups,
                p_cb_target: None,
                p_batch_target: None,
                mode_label: ModeLabel::Fixed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn sprintcon_policy_emits_valid_commands() {
        let mut sim = Scenario::paper_default(7).build();
        let mut p = SprintConPolicy::paper_default();
        let rec = sim.run(&mut p, Seconds(30.0));
        assert_eq!(p.name(), "SprintCon");
        let last = rec.samples().last().unwrap();
        assert_eq!(last.p_cb_target, Some(Watts(4000.0)));
        assert!(last.p_batch_target.is_some());
        assert_eq!(last.mean_freq_interactive, 1.0);
    }

    #[test]
    fn every_kind_builds_the_adapter_it_names() {
        for kind in crate::PolicyKind::ALL {
            assert_eq!(kind.build_with(&Default::default()).name(), kind.name());
        }
    }

    #[test]
    fn sgct_policy_runs_in_the_engine() {
        let mut sim = Scenario::paper_default(7).build();
        let mut p = crate::PolicyKind::SgctV1.build_with(&Default::default());
        let rec = sim.run(p.as_mut(), Seconds(30.0));
        let last = rec.samples().last().unwrap();
        // Overload phase at the start: budget 4 kW; the ideal variant
        // only shaves the plan-vs-plant residual with the UPS.
        assert_eq!(last.p_cb_target, Some(Watts(4000.0)));
        assert!(last.ups_power.0 < 500.0, "ups={}", last.ups_power);
        assert!(last.cb_power.0 > 3500.0, "cb={}", last.cb_power);
    }
}
