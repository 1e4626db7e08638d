//! The SGCT baseline family (§VI-B).
//!
//! All three variants run the sprinting game with the Cooperative
//! Threshold solution of \[2\] on the same overload schedule (150 s
//! overload / 300 s recovery, shared with SprintCon). They differ in
//! model knowledge and ranking:
//!
//! | variant | power model           | ranking            | trips CB? |
//! |---------|-----------------------|--------------------|-----------|
//! | SGCT    | open-loop linear est. | utilization        | yes (Fig. 5) |
//! | SGCT-V1 | ideal plant oracle    | utilization        | never     |
//! | SGCT-V2 | ideal plant oracle    | interactive first  | never     |
//!
//! Power routing follows \[2\]: sprint power comes from overloading the CB
//! while the schedule allows, and from the UPS *in turn* during CB
//! recovery — the total sprint budget stays constant (the nearly-flat
//! total power of Fig. 6(b)(c)).

use crate::estimate::{CalibratedRackEstimator, EstimateProbe, OracleProbe, ProbeBuffers};
use crate::game::{cooperative_threshold, CoreRanking, SprintRanking};
use powersim::plant::PlantSpec;
use powersim::rack::Rack;
use powersim::units::{NormFreq, Seconds, Watts};

/// Which baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SgctVariant {
    /// Uncontrolled SGCT: open-loop estimates, trips breakers.
    Uncontrolled,
    /// Idealized: exact plant power, never trips.
    V1Ideal,
    /// Idealized + interactive-priority ranking.
    V2InteractivePriority,
}

/// Baseline configuration.
#[derive(Debug, Clone)]
pub struct SgctConfig {
    pub variant: SgctVariant,
    /// The plant the baseline runs: it budgets against `plant.breaker`,
    /// and the uncontrolled variant calibrates its estimator from
    /// `plant.server`.
    pub plant: PlantSpec,
    /// Overload degree (sprint budget = rated × degree).
    pub overload_degree: f64,
    /// Overload / recovery phase lengths (same as \[2\] / SprintCon).
    pub overload_duration: Seconds,
    pub recovery_duration: Seconds,
    /// Frequency of non-sprinting cores.
    pub f_nom: NormFreq,
    /// Safety factor the *ideal* variants apply to the sprint budget so
    /// the breaker operates just inside the Fig. 2 curve rather than
    /// exactly on it (the \[2\] operating point is specified as safe).
    pub ideal_safety: f64,
    /// During recovery the ideal variants route the UPS so the breaker
    /// carries `rated × this margin`: without it, measurement noise keeps
    /// the breaker dithering around rated and it never cools, defeating
    /// the "never trips" property the paper grants these baselines.
    pub ideal_recovery_margin: f64,
}

impl SgctConfig {
    /// Paper-default configuration for a variant.
    pub fn paper_default(variant: SgctVariant) -> Self {
        SgctConfig {
            variant,
            plant: PlantSpec::paper_default(),
            overload_degree: 1.25,
            overload_duration: Seconds(150.0),
            recovery_duration: Seconds(300.0),
            f_nom: NormFreq(0.7),
            ideal_safety: 0.995,
            ideal_recovery_margin: 0.99,
        }
    }

    /// The constant total sprint budget.
    pub fn sprint_budget(&self) -> Watts {
        Watts(self.plant.breaker.rated.0 * self.overload_degree)
    }
}

/// What the baseline tells the plant to do this epoch.
#[derive(Debug, Clone)]
pub struct SgctCommand {
    /// Frequency per core, rack order (server-major).
    pub freqs: Vec<NormFreq>,
    /// UPS discharge target.
    pub ups_target: Watts,
    /// The baseline believes it is in a CB-overload phase.
    pub overloading: bool,
    /// Cores granted a sprint this epoch.
    pub sprinted: usize,
}

/// A stateful SGCT policy.
#[derive(Debug, Clone)]
pub struct SgctPolicy {
    pub cfg: SgctConfig,
    /// DVFS-aware (but fan/concavity-blind) estimator for the
    /// uncontrolled variant, calibrated from the plant's server.
    estimator: CalibratedRackEstimator,
    /// Time into the current overload/recovery cycle.
    phase_clock: Seconds,
    /// Ranking and probe storage reused across epochs: a steady-state
    /// step allocates only the frequency vector it returns.
    ranking: CoreRanking,
    probe: ProbeBuffers,
}

impl SgctPolicy {
    pub fn new(cfg: SgctConfig) -> Self {
        assert!(cfg.overload_degree > 1.0);
        SgctPolicy {
            estimator: CalibratedRackEstimator::from_spec(&cfg.plant.server),
            cfg,
            phase_clock: Seconds::ZERO,
            ranking: CoreRanking::default(),
            probe: ProbeBuffers::default(),
        }
    }

    /// The planned (open-loop!) schedule: SGCT alternates overload and
    /// recovery on timers, with no feedback from the breaker state.
    pub fn planned_overloading(&self) -> bool {
        let cycle = self.cfg.overload_duration.0 + self.cfg.recovery_duration.0;
        let t = self.phase_clock.0 % cycle;
        t < self.cfg.overload_duration.0
    }

    /// One decision epoch.
    ///
    /// * `p_total_measured` — power-monitor reading used for the UPS
    ///   routing decision;
    /// * `p_overhead` — rack power *outside* the servers (cooling fans).
    ///   The clairvoyant V1/V2 variants subtract it from their budget —
    ///   that is part of what makes them "ideal". Uncontrolled SGCT has
    ///   no model of it and ignores it, which (together with the concave
    ///   non-CPU power its linear model misses) is why its actual CB
    ///   power rides above the budget and trips the breaker (Fig. 5).
    pub fn step(
        &mut self,
        dt: Seconds,
        rack: &Rack,
        p_total_measured: Watts,
        p_overhead: Watts,
    ) -> SgctCommand {
        let overloading = self.planned_overloading();
        self.phase_clock += dt;

        let ranking = match self.cfg.variant {
            SgctVariant::V2InteractivePriority => SprintRanking::InteractiveFirst,
            _ => SprintRanking::ByUtilization,
        };
        let budget = match self.cfg.variant {
            SgctVariant::Uncontrolled => self.cfg.sprint_budget(),
            SgctVariant::V1Ideal | SgctVariant::V2InteractivePriority => {
                Watts((self.cfg.sprint_budget().0 * self.cfg.ideal_safety - p_overhead.0).max(0.0))
            }
        };
        let ranked = self.ranking.rank(rack, ranking);
        let assignment = match self.cfg.variant {
            SgctVariant::Uncontrolled => {
                let mut probe = EstimateProbe::new(self.estimator, rack, &mut self.probe);
                cooperative_threshold(rack, ranked, self.cfg.f_nom, budget, false, &mut probe)
            }
            SgctVariant::V1Ideal | SgctVariant::V2InteractivePriority => {
                let mut probe = OracleProbe::new(rack, &mut self.probe);
                cooperative_threshold(rack, ranked, self.cfg.f_nom, budget, true, &mut probe)
            }
        };

        // Power routing: overload phase → CB is the only sprint source;
        // recovery phase → CB at (just under) rated, UPS supplies the
        // excess. The ideal variants hold the breaker a hair below rated
        // so it actually cools; uncontrolled SGCT routes sloppily against
        // its raw rating.
        let rated = self.cfg.plant.breaker.rated.0;
        let recovery_cb = match self.cfg.variant {
            SgctVariant::Uncontrolled => rated,
            _ => rated * self.cfg.ideal_recovery_margin,
        };
        let ups_target = if overloading {
            match self.cfg.variant {
                // Uncontrolled SGCT: the CB is the only knob at the
                // beginning (Fig. 5) — whatever the plant draws, it takes.
                SgctVariant::Uncontrolled => Watts::ZERO,
                // Ideal variants keep the CB *exactly* at the target: the
                // UPS shaves the residual between plan and plant (demand
                // drift within the period), which is what "ideally manage
                // the power consumption" buys them.
                _ => Watts((p_total_measured.0 - budget.0).max(0.0)),
            }
        } else {
            Watts((p_total_measured.0 - recovery_cb).max(0.0))
        };
        SgctCommand {
            freqs: assignment.freqs,
            ups_target,
            overloading,
            sprinted: assignment.sprinted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::oracle_power;
    use crate::game::rank_cores;
    use powersim::cpu::CoreRole;
    use powersim::rack::CoreId;
    use powersim::units::Utilization;

    fn rack() -> Rack {
        let mut rk = PlantSpec::paper_default().rack().expect("valid rack");
        for id in rk.cores_with_role(CoreRole::Interactive) {
            rk.set_util(id, Utilization(0.65));
        }
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(0.97));
        }
        rk
    }

    #[test]
    fn schedule_alternates_on_timers_without_feedback() {
        let mut p = SgctPolicy::new(SgctConfig::paper_default(SgctVariant::Uncontrolled));
        let rk = rack();
        let mut phases = Vec::new();
        for _ in 0..900 {
            let cmd = p.step(Seconds(1.0), &rk, Watts(4000.0), Watts::ZERO);
            phases.push(cmd.overloading);
        }
        // 150 on, 300 off, repeating.
        assert!(phases[..150].iter().all(|&o| o));
        assert!(phases[150..450].iter().all(|&o| !o));
        assert!(phases[450..600].iter().all(|&o| o));
    }

    #[test]
    fn uncontrolled_variant_overshoots_its_budget_on_the_real_plant() {
        // The Fig. 5 mechanism: SGCT believes it hit 4.0 kW through the
        // breaker, but the breaker actually carries server power it
        // mis-modelled *plus* the cooling fans it does not model at all.
        let mut p = SgctPolicy::new(SgctConfig::paper_default(SgctVariant::Uncontrolled));
        let rk = rack();
        let cmd = p.step(Seconds(1.0), &rk, Watts(4000.0), Watts::ZERO);
        let believed = p.estimator.estimate(&rk, &cmd.freqs);
        let truth = oracle_power(&rk, &cmd.freqs);
        assert!(believed.0 <= p.cfg.sprint_budget().0 + 1e-9);
        // Fan power at this load (hot day, near-saturated rack).
        let mut fan = powersim::fan::FanModel::constant_ambient(40.0, 160.0, 25.0, 27.0);
        let fan_w = fan.step(truth.0 / 4800.0, Seconds(1.0));
        let cb_load = truth.0 + fan_w.0; // no UPS during SGCT overload
        assert!(
            cb_load > p.cfg.sprint_budget().0 * 1.015,
            "cb_load={cb_load} budget={}",
            p.cfg.sprint_budget()
        );
        // ...which overloads the 3.2 kW breaker beyond the planned 1.25
        // and therefore trips before the planned 150 s window ends.
        let spec = powersim::breaker::BreakerSpec::paper_default();
        let trip = spec.trip_time(cb_load / 3200.0);
        assert!(
            trip.0 < 150.0,
            "overload {:.3} must trip inside the window, trip={trip}",
            cb_load / 3200.0
        );
    }

    #[test]
    fn ideal_variant_lands_exactly_on_its_safe_budget() {
        let mut p = SgctPolicy::new(SgctConfig::paper_default(SgctVariant::V1Ideal));
        let rk = rack();
        let cmd = p.step(Seconds(1.0), &rk, Watts(4000.0), Watts::ZERO);
        let truth = oracle_power(&rk, &cmd.freqs);
        let expect = 4000.0 * p.cfg.ideal_safety;
        assert!(
            (truth.0 - expect).abs() < 1.0,
            "ideal variant must hit {expect} exactly, got {truth}"
        );
        // And that operating point sits strictly inside the trip curve
        // for the full planned overload window.
        let spec = powersim::breaker::BreakerSpec::paper_default();
        assert!(spec.trip_time(expect / 3200.0).0 > 150.0);
    }

    #[test]
    fn v1_sprints_batch_v2_sprints_interactive() {
        let rk = rack();
        let mut v1 = SgctPolicy::new(SgctConfig::paper_default(SgctVariant::V1Ideal));
        let mut v2 = SgctPolicy::new(SgctConfig::paper_default(
            SgctVariant::V2InteractivePriority,
        ));
        let c1 = v1.step(Seconds(1.0), &rk, Watts(4000.0), Watts::ZERO);
        let c2 = v2.step(Seconds(1.0), &rk, Watts(4000.0), Watts::ZERO);
        let mean = |cmd: &SgctCommand, role: CoreRole| -> f64 {
            let ids = rk.cores_with_role(role);
            ids.iter()
                .map(|id| cmd.freqs[id.server * 8 + id.core].0)
                .sum::<f64>()
                / ids.len() as f64
        };
        // V1: batch outranks interactive (higher utilization).
        assert!(mean(&c1, CoreRole::Batch) > mean(&c1, CoreRole::Interactive) + 0.1);
        // V2: interactive sprints first.
        assert!(mean(&c2, CoreRole::Interactive) > mean(&c2, CoreRole::Batch) + 0.1);
        // Both spend the same total budget.
        let p1 = oracle_power(&rk, &c1.freqs).0;
        let p2 = oracle_power(&rk, &c2.freqs).0;
        assert!((p1 - p2).abs() < 2.0, "p1={p1} p2={p2}");
    }

    #[test]
    fn ups_covers_excess_only_during_recovery() {
        let mut p = SgctPolicy::new(SgctConfig::paper_default(SgctVariant::V1Ideal));
        let rk = rack();
        // Overload phase: the ideal variant only shaves the residual
        // above its safe budget (4000 measured − 3980 target = 20 W).
        let c = p.step(Seconds(1.0), &rk, Watts(4000.0), Watts::ZERO);
        assert!(c.overloading);
        assert!((c.ups_target.0 - 20.0).abs() < 1e-9, "ups={}", c.ups_target);
        // The *uncontrolled* variant takes whatever the breaker gives.
        let mut u = SgctPolicy::new(SgctConfig::paper_default(SgctVariant::Uncontrolled));
        let cu = u.step(Seconds(1.0), &rk, Watts(4200.0), Watts::ZERO);
        assert!(cu.overloading);
        assert_eq!(cu.ups_target, Watts::ZERO);
        // Jump into recovery.
        for _ in 0..150 {
            p.step(Seconds(1.0), &rk, Watts(4000.0), Watts::ZERO);
        }
        let c = p.step(Seconds(1.0), &rk, Watts(4000.0), Watts::ZERO);
        assert!(!c.overloading);
        // 4000 − 3200×0.99 = 832 (the ideal variants leave the breaker a
        // cooling margin during recovery).
        assert!(
            (c.ups_target.0 - 832.0).abs() < 1e-9,
            "ups={}",
            c.ups_target
        );
    }

    #[test]
    fn nan_utilization_ranks_last_and_does_not_panic() {
        // A corrupt monitor lane: the core has no measurable demand.
        let mut rk = rack();
        let bad = CoreId { server: 3, core: 6 };
        rk.set_util(bad, Utilization(f64::NAN));
        let ranked = rank_cores(&rk, SprintRanking::ByUtilization);
        assert_eq!(ranked.len(), 128);
        assert_eq!(ranked.last(), Some(&bad));
        let mut sorted = ranked.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 128, "every core ranked exactly once");
        // Every finite core keeps its order.
        let clean = rank_cores(&rack(), SprintRanking::ByUtilization);
        let without: Vec<CoreId> = clean.into_iter().filter(|id| *id != bad).collect();
        assert_eq!(&ranked[..127], &without[..]);
        for variant in [
            SgctVariant::Uncontrolled,
            SgctVariant::V1Ideal,
            SgctVariant::V2InteractivePriority,
        ] {
            let mut p = SgctPolicy::new(SgctConfig::paper_default(variant));
            let cmd = p.step(Seconds(1.0), &rk, Watts(4000.0), Watts::ZERO);
            assert_eq!(cmd.freqs.len(), 128);
        }
    }

    #[test]
    fn light_load_does_not_spend_the_whole_budget() {
        // "unless the workloads do not need so much power" — idle-ish
        // interactive cores: everyone sprints and power stays below 4 kW.
        let mut rk = rack();
        for id in rk.cores_with_role(CoreRole::Interactive) {
            rk.set_util(id, Utilization(0.1));
        }
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(0.3));
        }
        let mut p = SgctPolicy::new(SgctConfig::paper_default(SgctVariant::V1Ideal));
        let cmd = p.step(Seconds(1.0), &rk, Watts(3000.0), Watts::ZERO);
        assert_eq!(cmd.sprinted, 128);
        assert!(oracle_power(&rk, &cmd.freqs).0 < 4000.0);
    }
}
