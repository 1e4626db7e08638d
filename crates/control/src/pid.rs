//! Discrete PID controller with anti-windup.
//!
//! Not part of SprintCon proper — the paper chooses MPC for the server
//! power controller — but ablation A1 (MPC vs PID, in `simkit::paper`)
//! needs a credible classical alternative to quantify that choice, and the
//! UPS power controller's deadbeat law is easiest to sanity-check against
//! a PI loop.

/// PID gains and limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    pub kp: f64,
    pub ki: f64,
    pub kd: f64,
    /// Output clamp (also bounds the integrator via back-calculation).
    pub out_min: f64,
    pub out_max: f64,
    /// Control period, seconds.
    pub period: f64,
}

/// A discrete PID controller.
#[derive(Debug, Clone)]
pub struct Pid {
    pub cfg: PidConfig,
    integral: f64,
    last_error: Option<f64>,
}

impl Pid {
    pub fn new(cfg: PidConfig) -> Self {
        assert!(cfg.period > 0.0, "PID period must be positive");
        assert!(cfg.out_min <= cfg.out_max);
        Pid {
            cfg,
            integral: 0.0,
            last_error: None,
        }
    }

    /// Reset dynamic state (integrator, derivative history).
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
    }

    /// One control period: returns the clamped output for the given
    /// set point and measurement.
    pub fn step(&mut self, set_point: f64, measurement: f64) -> f64 {
        let e = set_point - measurement;
        let dt = self.cfg.period;
        let d = match self.last_error {
            Some(prev) => (e - prev) / dt,
            None => 0.0,
        };
        self.last_error = Some(e);
        let tentative_i = self.integral + e * dt;
        let raw = self.cfg.kp * e + self.cfg.ki * tentative_i + self.cfg.kd * d;
        let clamped = raw.clamp(self.cfg.out_min, self.cfg.out_max);
        // Conditional integration anti-windup: only integrate when not
        // pushing further into saturation.
        let saturated_high = raw > self.cfg.out_max && e > 0.0;
        let saturated_low = raw < self.cfg.out_min && e < 0.0;
        if !saturated_high && !saturated_low {
            self.integral = tentative_i;
        }
        clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid() -> Pid {
        // Plant gain in these tests is 60 W per unit output; the discrete
        // proportional loop needs kp·gain < 1.
        Pid::new(PidConfig {
            kp: 0.005,
            ki: 0.01,
            kd: 0.0,
            out_min: 0.2,
            out_max: 1.0,
            period: 1.0,
        })
    }

    /// First-order plant: power = gain·u + base.
    fn closed_loop(mut pid: Pid, gain: f64, base: f64, target: f64, steps: usize) -> Vec<f64> {
        let mut u = 0.6;
        let mut hist = Vec::new();
        for _ in 0..steps {
            let p = gain * u + base;
            hist.push(p);
            u = pid.step(target, p);
        }
        hist
    }

    #[test]
    fn converges_on_static_plant() {
        let hist = closed_loop(pid(), 60.0, 10.0, 50.0, 200);
        let p = *hist.last().unwrap();
        assert!((p - 50.0).abs() < 0.5, "final={p}");
    }

    #[test]
    fn integrator_removes_steady_state_error() {
        // Proportional-only would leave an offset; PI must not.
        let mut cfg = pid().cfg;
        cfg.kp = 0.001;
        let hist = closed_loop(Pid::new(cfg), 60.0, 10.0, 45.0, 2_000);
        assert!((hist.last().unwrap() - 45.0).abs() < 0.2);
    }

    #[test]
    fn output_always_clamped() {
        let mut p = pid();
        for target in [-1e6, 0.0, 1e6] {
            let u = p.step(target, 50.0);
            assert!((0.2..=1.0).contains(&u), "u={u}");
        }
    }

    #[test]
    fn anti_windup_recovers_quickly() {
        let mut p = pid();
        // Saturate high for a long time.
        for _ in 0..500 {
            p.step(1e5, 0.0);
        }
        // Set point swings low: without anti-windup the integrator would
        // take hundreds of steps to unwind; with it, the output drops to
        // the floor within a few steps.
        let mut steps_to_floor = 0;
        for k in 1..=50 {
            let u = p.step(-1e5, 0.0);
            if u <= 0.2 + 1e-9 {
                steps_to_floor = k;
                break;
            }
        }
        assert!(
            (1..=5).contains(&steps_to_floor),
            "took {steps_to_floor} steps"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut p = pid();
        for _ in 0..100 {
            p.step(100.0, 0.0);
        }
        p.reset();
        let fresh = pid().step(10.0, 0.0);
        assert!((p.step(10.0, 0.0) - fresh).abs() < 1e-12);
    }

    #[test]
    fn derivative_term_reacts_to_error_slope() {
        let mut cfg = pid().cfg;
        cfg.kp = 0.0;
        cfg.ki = 0.0;
        cfg.kd = 1.0;
        cfg.out_min = -10.0;
        cfg.out_max = 10.0;
        let mut p = Pid::new(cfg);
        p.step(0.0, 0.0); // establish history at e = 0
        let u = p.step(0.0, -3.0); // error jumps to +3 → de/dt = 3
        assert!((u - 3.0).abs() < 1e-12);
    }
}
