//! The UPS power controller (§IV-C): each control period it sets the UPS
//! discharge so the breaker carries exactly `P_cb`.
//!
//! The law is deadbeat — `p_ups = max(0, p_total − P_cb)` — because the
//! duty-cycled discharge circuit of \[24\] actuates within the period and
//! the controlled quantity (`p_cb = p_total − p_ups`) responds
//! instantaneously. An optional first-order filter suppresses
//! measurement-noise chatter in the duty command without breaking the
//! safety direction (filtering is applied only *downward*; increases in
//! required discharge pass through immediately so the breaker is never
//! left overloaded waiting for a filter).

use powersim::units::Watts;
use sprint_control::kalman::Kalman1d;

/// UPS discharge controller.
#[derive(Debug, Clone)]
pub struct UpsPowerController {
    /// Smoothing factor in `[0, 1)` applied when the discharge target
    /// *decreases* (0 = no smoothing).
    pub release_smoothing: f64,
    /// Optional Kalman smoothing of the power measurement before the
    /// deadbeat law. Off by default (the paper's controller is raw
    /// deadbeat); ablation A5 (`simkit::paper`) quantifies the trade:
    /// less duty-cycle chatter vs a one-filter-lag exposure of the
    /// breaker to fast rises.
    filter: Option<Kalman1d>,
    last: Watts,
}

impl UpsPowerController {
    pub fn new(release_smoothing: f64) -> Self {
        assert!((0.0..1.0).contains(&release_smoothing));
        UpsPowerController {
            release_smoothing,
            filter: None,
            last: Watts::ZERO,
        }
    }

    /// Enable measurement filtering with process variance `q` and
    /// measurement variance `r` (see [`Kalman1d`]).
    pub fn with_filter(mut self, q: f64, r: f64) -> Self {
        self.filter = Some(Kalman1d::new(q, r));
        self
    }

    /// Compute the discharge command from the measured rack power and the
    /// current breaker target.
    pub fn control(&mut self, p_total: Watts, p_cb_target: Watts) -> Watts {
        let p_used = match self.filter.as_mut() {
            Some(f) => Watts(f.update(p_total.0)),
            None => p_total,
        };
        let needed = Watts((p_used.0 - p_cb_target.0).max(0.0));
        let cmd = if needed.0 >= self.last.0 {
            // More discharge needed: act immediately (power safety).
            needed
        } else {
            // Less needed: release gradually to avoid duty chatter.
            Watts(self.release_smoothing * self.last.0 + (1.0 - self.release_smoothing) * needed.0)
        };
        self.last = cmd;
        telemetry::gauge_set("ups_discharge_cmd_w", cmd.0);
        cmd
    }

    /// Reset the filter state (mode changes).
    pub fn reset(&mut self) {
        self.last = Watts::ZERO;
        if let Some(f) = self.filter.as_mut() {
            f.reset();
        }
    }

    pub fn last_command(&self) -> Watts {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_exactly_the_excess_over_p_cb() {
        let mut c = UpsPowerController::new(0.0);
        assert_eq!(c.control(Watts(4300.0), Watts(4000.0)), Watts(300.0));
        assert_eq!(c.control(Watts(3900.0), Watts(4000.0)), Watts::ZERO);
        assert_eq!(c.control(Watts(5000.0), Watts(3200.0)), Watts(1800.0));
    }

    #[test]
    fn increases_are_never_filtered() {
        let mut c = UpsPowerController::new(0.9);
        c.control(Watts(4100.0), Watts(4000.0)); // 100 W
                                                 // Demand jumps: the full 900 W must flow immediately.
        assert_eq!(c.control(Watts(4900.0), Watts(4000.0)), Watts(900.0));
    }

    #[test]
    fn decreases_release_smoothly() {
        let mut c = UpsPowerController::new(0.5);
        c.control(Watts(5000.0), Watts(4000.0)); // 1000 W
        let step1 = c.control(Watts(4000.0), Watts(4000.0));
        // Needed dropped to 0; filtered halfway.
        assert!((step1.0 - 500.0).abs() < 1e-9);
        let step2 = c.control(Watts(4000.0), Watts(4000.0));
        assert!((step2.0 - 250.0).abs() < 1e-9);
    }

    #[test]
    fn breaker_never_sees_more_than_target_with_unfiltered_controller() {
        // Invariant behind Fig. 6(a): cb = total − ups ≤ P_cb whenever
        // total ≥ P_cb.
        let mut c = UpsPowerController::new(0.0);
        for k in 0..1000 {
            let p_total = Watts(3000.0 + 1500.0 * ((k as f64) * 0.37).sin().abs());
            let target = Watts(if k % 450 < 150 { 4000.0 } else { 3200.0 });
            let ups = c.control(p_total, target);
            let cb = p_total.0 - ups.0;
            assert!(cb <= target.0 + 1e-9, "cb={cb} target={target}");
        }
    }

    #[test]
    fn kalman_filter_suppresses_measurement_chatter() {
        // Same noisy measurement stream through both controllers: the
        // filtered one issues far fewer distinct duty changes.
        let mut raw = UpsPowerController::new(0.0);
        let mut filt = UpsPowerController::new(0.0).with_filter(4.0, 900.0);
        let mut seed = 17u64;
        let mut noise = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            ((seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 120.0
        };
        let target = Watts(3200.0);
        let mut raw_moves = 0.0;
        let mut filt_moves = 0.0;
        let (mut last_r, mut last_f) = (0.0, 0.0);
        for _ in 0..500 {
            let p = Watts(3500.0 + noise());
            let r = raw.control(p, target).0;
            let f = filt.control(p, target).0;
            raw_moves += (r - last_r).abs();
            filt_moves += (f - last_f).abs();
            last_r = r;
            last_f = f;
        }
        assert!(
            filt_moves < raw_moves * 0.3,
            "filtered duty travel {filt_moves:.0} vs raw {raw_moves:.0}"
        );
        // And the filtered command still covers the true excess.
        assert!((last_f - 300.0).abs() < 60.0, "last_f={last_f}");
    }

    #[test]
    fn filter_reset_clears_its_state() {
        let mut c = UpsPowerController::new(0.0).with_filter(1.0, 400.0);
        for _ in 0..50 {
            c.control(Watts(5000.0), Watts(3200.0));
        }
        c.reset();
        // First post-reset sample is adopted directly (diffuse prior).
        let out = c.control(Watts(3300.0), Watts(3200.0));
        assert!((out.0 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_filter_memory() {
        let mut c = UpsPowerController::new(0.9);
        c.control(Watts(5000.0), Watts(3200.0));
        c.reset();
        assert_eq!(c.last_command(), Watts::ZERO);
        // After reset a zero-demand step yields exactly zero.
        assert_eq!(c.control(Watts(3000.0), Watts(3200.0)), Watts::ZERO);
    }
}
