//! Experiment harness: the §VII policies and the single-run body.
//!
//! [`run_policy`] runs one policy over one scenario with paper defaults;
//! [`crate::exec::Campaign`] runs many, with per-run overrides, in
//! parallel, and with telemetry when its [`crate::ExecConfig`] asks for
//! it. Both go through one internal body that runs the simulation and
//! returns a [`RunOutput`] carrying the recording, the §VII summary, and
//! the run's metric snapshot: empty unless the run was traced, in which
//! case the body installed a per-run, thread-scoped
//! [`telemetry::Collector`] around it.

use crate::metrics::RunSummary;
use crate::policy::{Policy, SgctSimPolicy, SprintConPolicy};
use crate::recorder::Recorder;
use crate::scenario::Scenario;
use std::sync::Arc;
use telemetry::{Collector, MetricsSnapshot};

/// The four policies of §VII, in the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    SprintCon,
    Sgct,
    SgctV1,
    SgctV2,
}

/// Configuration overrides applied when instantiating a policy, replacing
/// the former hard-coded `paper_default()` calls. `None` fields keep the
/// paper defaults.
#[derive(Debug, Clone, Default)]
pub struct PolicyOverrides {
    /// Configuration for SprintCon runs.
    pub sprintcon: Option<sprintcon::SprintConConfig>,
    /// Configuration for the SGCT family. The `variant` field is forced
    /// to match the [`PolicyKind`] being built, so one override serves
    /// all three variants.
    pub sgct: Option<baselines::SgctConfig>,
}

impl PolicyKind {
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::SprintCon,
        PolicyKind::Sgct,
        PolicyKind::SgctV1,
        PolicyKind::SgctV2,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::SprintCon => "SprintCon",
            PolicyKind::Sgct => "SGCT",
            PolicyKind::SgctV1 => "SGCT-V1",
            PolicyKind::SgctV2 => "SGCT-V2",
        }
    }

    /// Instantiate a fresh policy with the paper's configuration.
    pub fn build(&self) -> Box<dyn Policy> {
        self.build_with(&PolicyOverrides::default())
    }

    /// Instantiate a fresh policy, taking configuration from `overrides`
    /// where provided.
    pub fn build_with(&self, overrides: &PolicyOverrides) -> Box<dyn Policy> {
        match self {
            PolicyKind::SprintCon => {
                let cfg = overrides
                    .sprintcon
                    .clone()
                    .unwrap_or_else(sprintcon::SprintConConfig::paper_default);
                Box::new(SprintConPolicy::new(cfg))
            }
            PolicyKind::Sgct | PolicyKind::SgctV1 | PolicyKind::SgctV2 => {
                let variant = match self {
                    PolicyKind::Sgct => baselines::SgctVariant::Uncontrolled,
                    PolicyKind::SgctV1 => baselines::SgctVariant::V1Ideal,
                    PolicyKind::SgctV2 => baselines::SgctVariant::V2InteractivePriority,
                    PolicyKind::SprintCon => unreachable!(),
                };
                let cfg = match &overrides.sgct {
                    Some(c) => {
                        let mut c = c.clone();
                        c.variant = variant;
                        c
                    }
                    None => baselines::SgctConfig::paper_default(variant),
                };
                Box::new(SgctSimPolicy::with_config(cfg))
            }
        }
    }
}

/// Everything one policy run produces.
#[derive(Debug)]
pub struct RunOutput {
    /// The full per-period recording.
    pub recorder: Recorder,
    /// The §VII summary row.
    pub summary: RunSummary,
    /// Telemetry captured during the run (control-loop counters, solver
    /// iteration histograms, plant gauges), deterministically
    /// name-sorted. Empty unless the run was traced
    /// ([`crate::ExecConfig::with_telemetry`]).
    pub metrics: MetricsSnapshot,
}

/// Run `f` under a fresh thread-scoped collector when `on`, and return
/// its result with the collector's snapshot (empty when not).
fn traced<R>(on: bool, f: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
    if !on {
        return (f(), MetricsSnapshot::default());
    }
    let collector = Arc::new(Collector::null());
    let out = telemetry::with_collector(Arc::clone(&collector), f);
    collector.flush();
    (out, collector.snapshot())
}

/// The single run body behind [`run_policy`] and every campaign entry:
/// build, run, summarize, under a per-run collector when `telemetry`.
pub(crate) fn run_instrumented(
    scenario: &Scenario,
    kind: PolicyKind,
    overrides: &PolicyOverrides,
    telemetry: bool,
) -> RunOutput {
    let ((recorder, summary), metrics) = traced(telemetry, || {
        let mut sim = scenario.build();
        let mut policy = kind.build_with(overrides);
        let recorder = sim.run(policy.as_mut(), scenario.duration);
        let summary = RunSummary::from_run(kind.name(), &sim, &recorder);
        (recorder, summary)
    });
    RunOutput {
        recorder,
        summary,
        metrics,
    }
}

/// Run one policy over one scenario end to end with paper defaults and
/// no telemetry. A [`crate::exec::Campaign`] runs with overrides, in
/// parallel or traced.
pub fn run_policy(scenario: &Scenario, kind: PolicyKind) -> RunOutput {
    run_instrumented(scenario, kind, &PolicyOverrides::default(), false)
}

/// Fold the per-run metric snapshots of `runs` into one aggregate, in
/// input order (deterministic — see [`MetricsSnapshot::merge`]).
pub fn aggregate_metrics<'a>(runs: impl IntoIterator<Item = &'a RunOutput>) -> MetricsSnapshot {
    let mut agg = MetricsSnapshot::default();
    for run in runs {
        agg.merge(&run.metrics);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Campaign, ExecConfig};
    use powersim::units::Seconds;

    #[test]
    fn run_policy_produces_full_recording() {
        let mut sc = Scenario::paper_default(11);
        sc.duration = Seconds(60.0); // keep the unit test quick
        let out = run_policy(&sc, PolicyKind::SgctV1);
        assert_eq!(out.recorder.len(), 60);
        assert_eq!(out.summary.policy, "SGCT-V1");
    }

    #[test]
    fn traced_runs_attach_control_loop_metrics() {
        let mut sc = Scenario::paper_default(11);
        sc.duration = Seconds(30.0);
        assert!(run_policy(&sc, PolicyKind::SprintCon).metrics.is_empty());
        let out = Campaign::new()
            .add(sc, PolicyKind::SprintCon)
            .run_with(ExecConfig::sequential().with_telemetry())
            .remove(0)
            .output;
        // One MPC/QP solve per control period.
        assert_eq!(out.metrics.counter("qp_solve_total"), 30);
        assert_eq!(out.metrics.histogram("mpc_solve_iters").unwrap().count, 30);
        assert_eq!(out.metrics.histogram("sim_tick.ns").unwrap().count, 30);
        // The plant gauges are present and sane.
        let headroom = out.metrics.gauge("breaker_margin_min").unwrap();
        assert!((0.0..=1.0).contains(&headroom), "headroom={headroom}");
        assert!(out.metrics.histogram("ups_discharge_duty").is_some());
        // And nothing leaks into a fresh global/scoped-free context.
        assert!(telemetry::snapshot().is_none());
    }

    #[test]
    fn build_with_forces_the_variant_and_honors_overrides() {
        // An SGCT override configured for the wrong variant still builds
        // the kind that was asked for.
        let overrides = PolicyOverrides {
            sgct: Some(baselines::SgctConfig::paper_default(
                baselines::SgctVariant::Uncontrolled,
            )),
            ..Default::default()
        };
        let p = PolicyKind::SgctV1.build_with(&overrides);
        assert_eq!(p.name(), "SGCT-V1");

        // A SprintCon override with a short burst flips the schedule to
        // Unconstrained, observable as p_cb_target = None.
        let mut cfg = sprintcon::SprintConConfig::paper_default();
        cfg.t_burst = Seconds(30.0);
        let overrides = PolicyOverrides {
            sprintcon: Some(cfg),
            ..Default::default()
        };
        let mut sc = Scenario::paper_default(3);
        sc.duration = Seconds(10.0);
        let out = Campaign::new()
            .add_with("short burst", sc.clone(), PolicyKind::SprintCon, overrides)
            .run_sequential()
            .remove(0)
            .output;
        assert_eq!(out.recorder.samples().last().unwrap().p_cb_target, None);
        let base = run_policy(&sc, PolicyKind::SprintCon);
        assert!(base
            .recorder
            .samples()
            .last()
            .unwrap()
            .p_cb_target
            .is_some());
    }

    #[test]
    fn campaign_metrics_are_isolated_and_aggregate_deterministically() {
        let mut sc = Scenario::paper_default(5);
        sc.duration = Seconds(20.0);
        let mut c = Campaign::new();
        for seed in [1, 2, 3] {
            sc.seed = seed;
            c.add(sc.clone(), PolicyKind::SprintCon);
        }
        let outputs = |exec: ExecConfig| -> Vec<RunOutput> {
            c.run_with(exec.with_telemetry())
                .into_iter()
                .map(|r| r.output)
                .collect()
        };
        let runs_a = outputs(ExecConfig::jobs(3));
        let runs_b = outputs(ExecConfig::jobs(2));
        for out in &runs_a {
            // Per-run isolation: each run sees exactly its own 20 solves,
            // no matter which worker thread it executed on.
            assert_eq!(out.metrics.counter("qp_solve_total"), 20);
        }
        let mut agg_a = aggregate_metrics(&runs_a);
        let mut agg_b = aggregate_metrics(&runs_b);
        assert_eq!(agg_a.counter("qp_solve_total"), 60);
        // Wall-clock span histograms (`*.ns`) legitimately vary between
        // runs; everything else must aggregate identically.
        agg_a.histograms.retain(|(k, _)| !k.ends_with(".ns"));
        agg_b.histograms.retain(|(k, _)| !k.ends_with(".ns"));
        assert_eq!(agg_a, agg_b, "aggregation must be deterministic");
    }
}
