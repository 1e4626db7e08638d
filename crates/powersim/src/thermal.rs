//! Processor thermal model — the physics that originally defined
//! computational sprinting \[1\], \[4\].
//!
//! Sprinting exists because a chip can dissipate far more power than its
//! *sustained* thermal design point for as long as its thermal mass is
//! absorbing the heat. The classic lumped RC model captures it:
//!
//! ```text
//! C·dT/dt = P − (T − T_amb)/R
//! ```
//!
//! with thermal capacitance `C` (J/°C), resistance to ambient `R`
//! (°C/W). Sprinting at power `P_sprint` heats the die toward
//! `T_amb + R·P_sprint`; if that exceeds the throttle limit, the sprint
//! must end when `T` reaches it — giving the sprint-duration /
//! cool-down-duration pair behind Fig. 3's ~18-second period. The rack
//! experiments of the paper are breaker-limited rather than
//! thermally-limited, but the model completes the substrate and lets the
//! Fig. 3 harness derive its duty cycle from physics.

use crate::units::Seconds;

/// Lumped RC thermal model of one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Thermal capacitance, J/°C.
    pub capacitance: f64,
    /// Thermal resistance junction→ambient, °C/W.
    pub resistance: f64,
    /// Ambient temperature, °C.
    pub ambient_c: f64,
    /// Junction temperature at which the chip must throttle, °C.
    pub throttle_c: f64,
    /// Current junction temperature, °C.
    temp_c: f64,
}

impl ThermalModel {
    /// A mobile-class sprinting chip in the spirit of \[1\]/\[4\]: small
    /// thermal mass, tight limit — sustains ~10 W but sprints at 50 W for
    /// a handful of seconds.
    pub fn sprint_testbed() -> Self {
        ThermalModel::new(6.0, 5.0, 25.0, 85.0)
    }

    /// A server-class part: big heatsink, high sustained power.
    pub fn server_class() -> Self {
        ThermalModel::new(60.0, 0.45, 25.0, 95.0)
    }

    pub fn new(capacitance: f64, resistance: f64, ambient_c: f64, throttle_c: f64) -> Self {
        assert!(capacitance > 0.0 && resistance > 0.0);
        assert!(throttle_c > ambient_c, "throttle limit must exceed ambient");
        ThermalModel {
            capacitance,
            resistance,
            ambient_c,
            throttle_c,
            temp_c: ambient_c,
        }
    }

    pub fn temperature_c(&self) -> f64 {
        self.temp_c
    }

    /// Is the chip at/over its throttle limit?
    pub fn throttled(&self) -> bool {
        self.temp_c >= self.throttle_c - 1e-9
    }

    /// Thermal time constant `τ = R·C`, seconds.
    pub fn tau(&self) -> Seconds {
        Seconds(self.resistance * self.capacitance)
    }

    /// Steady-state temperature at constant power `p` watts.
    pub fn steady_temp(&self, p: f64) -> f64 {
        self.ambient_c + self.resistance * p
    }

    /// The maximum power sustainable forever without throttling (TDP).
    pub fn sustainable_power(&self) -> f64 {
        (self.throttle_c - self.ambient_c) / self.resistance
    }

    /// Advance by `dt` while dissipating `p` watts (exact exponential
    /// integration of the RC dynamics — stable for any `dt`).
    pub fn step(&mut self, p: f64, dt: Seconds) -> f64 {
        assert!(dt.0 > 0.0 && p >= 0.0);
        let target = self.steady_temp(p);
        let a = (-dt.0 / self.tau().0).exp();
        self.temp_c = target + (self.temp_c - target) * a;
        self.temp_c
    }

    /// How long the chip can sprint at `p_sprint` starting from its
    /// current temperature before hitting the throttle limit.
    /// `None` if `p_sprint` is sustainable (never throttles).
    pub fn sprint_budget(&self, p_sprint: f64) -> Option<Seconds> {
        let target = self.steady_temp(p_sprint);
        if target <= self.throttle_c {
            return None;
        }
        if self.temp_c >= self.throttle_c {
            return Some(Seconds::ZERO);
        }
        // T(t) = target + (T0 − target)·e^(−t/τ) = throttle  ⇒
        // t = τ·ln((target − T0)/(target − throttle))
        let t = self.tau().0 * ((target - self.temp_c) / (target - self.throttle_c)).ln();
        Some(Seconds(t))
    }
}

/// Derive the steady periodic-sprint duty cycle for a chip: sprint at
/// `p_sprint` from the restart temperature (`throttle − restart_margin_c`)
/// up to the throttle limit, then rest at `p_rest` until the die cools
/// back to the restart temperature. Returns `(sprint_s, rest_s)`.
///
/// This is where Fig. 3's ~18-second period comes from: the \[4\]-class
/// testbed re-sprints as soon as the die has shed a fixed amount of
/// heat, it does not wait for a full cooldown.
pub fn periodic_sprint_duty(
    model: &ThermalModel,
    p_sprint: f64,
    p_rest: f64,
    restart_margin_c: f64,
) -> (f64, f64) {
    assert!(restart_margin_c > 0.0);
    let tau = model.tau().0;
    let t_hi = model.throttle_c;
    let t_restart = t_hi - restart_margin_c;
    let hot_ss = model.steady_temp(p_sprint);
    assert!(
        hot_ss > t_hi,
        "sprint power must be unsustainable for a periodic cycle"
    );
    let rest_ss = model.steady_temp(p_rest);
    assert!(
        rest_ss < t_restart,
        "rest power must cool below the restart temperature"
    );
    let sprint = tau * ((hot_ss - t_restart) / (hot_ss - t_hi)).ln();
    let rest = tau * ((t_hi - rest_ss) / (t_restart - rest_ss)).ln();
    (sprint, rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_and_tdp() {
        let m = ThermalModel::sprint_testbed();
        // τ = 30 s; TDP = 60/5 = 12 W.
        assert!((m.tau().0 - 30.0).abs() < 1e-12);
        assert!((m.sustainable_power() - 12.0).abs() < 1e-12);
        assert!((m.steady_temp(10.0) - 75.0).abs() < 1e-12);
    }

    #[test]
    fn exact_integration_matches_closed_form() {
        let mut m = ThermalModel::sprint_testbed();
        m.step(50.0, Seconds(10.0));
        // T = 275 + (25−275)e^(−1/3).
        let expect = 275.0 - 250.0 * (-1.0f64 / 3.0).exp();
        assert!((m.temperature_c() - expect).abs() < 1e-9);
        // Step size independence: 10 × 1 s equals 1 × 10 s.
        let mut m2 = ThermalModel::sprint_testbed();
        for _ in 0..10 {
            m2.step(50.0, Seconds(1.0));
        }
        assert!((m2.temperature_c() - m.temperature_c()).abs() < 1e-9);
    }

    #[test]
    fn sprint_budget_consistency() {
        let m = ThermalModel::sprint_testbed();
        let budget = m.sprint_budget(50.0).expect("50 W unsustainable");
        // Simulate: the limit must be hit at the predicted time ± a step.
        let mut sim = m;
        let dt = 0.01;
        let mut t = 0.0;
        while !sim.throttled() {
            sim.step(50.0, Seconds(dt));
            t += dt;
            assert!(t < budget.0 + 1.0);
        }
        assert!(
            (t - budget.0).abs() < 0.05,
            "hit at {t} vs predicted {}",
            budget.0
        );
    }

    #[test]
    fn sustainable_power_never_throttles() {
        let mut m = ThermalModel::sprint_testbed();
        assert!(m.sprint_budget(11.0).is_none());
        for _ in 0..10_000 {
            m.step(11.0, Seconds(1.0));
        }
        assert!(!m.throttled());
    }

    #[test]
    fn hot_chip_has_zero_budget() {
        let mut m = ThermalModel::sprint_testbed();
        m.step(50.0, Seconds(1e6)); // cook it to steady state (clamped by test only)
        assert!(m.throttled());
        assert_eq!(m.sprint_budget(50.0), Some(Seconds::ZERO));
    }

    #[test]
    fn duty_cycle_matches_the_fig3_period() {
        // The [4]-class testbed: ~50 W sprints over a ~12 W TDP chip with
        // a 20 °C restart band reproduce Fig. 3's ~18 s period.
        let (sprint, rest) = periodic_sprint_duty(&ThermalModel::sprint_testbed(), 50.0, 2.0, 20.0);
        let period = sprint + rest;
        assert!(sprint > 1.0 && sprint < 10.0, "sprint={sprint}");
        assert!((14.0..24.0).contains(&period), "period={period}");
    }

    #[test]
    fn duty_cycle_is_self_consistent() {
        // Simulating the derived schedule really oscillates between the
        // restart temperature and the throttle limit.
        let m = ThermalModel::sprint_testbed();
        let (sprint, rest) = periodic_sprint_duty(&m, 50.0, 2.0, 20.0);
        let mut sim = m;
        // Enter the cycle: heat from ambient to throttle once.
        let warmup = sim.sprint_budget(50.0).unwrap();
        sim.step(50.0, warmup);
        for _ in 0..10 {
            sim.step(2.0, Seconds(rest));
            assert!(
                (sim.temperature_c() - (m.throttle_c - 20.0)).abs() < 0.5,
                "restart temp {}",
                sim.temperature_c()
            );
            sim.step(50.0, Seconds(sprint));
            assert!(
                (sim.temperature_c() - m.throttle_c).abs() < 0.5,
                "peak temp {}",
                sim.temperature_c()
            );
        }
    }

    #[test]
    fn server_class_sustains_much_more() {
        let m = ThermalModel::server_class();
        assert!(m.sustainable_power() > 150.0);
        // And a 1.2× excursion lasts minutes, not seconds.
        let budget = m.sprint_budget(m.sustainable_power() * 1.2).unwrap();
        assert!(budget.0 > 20.0);
    }

    #[test]
    #[should_panic(expected = "throttle limit must exceed ambient")]
    fn rejects_inverted_limits() {
        ThermalModel::new(1.0, 1.0, 50.0, 40.0);
    }
}
