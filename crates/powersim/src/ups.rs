//! UPS energy-storage model: battery state of charge, discharge limits,
//! and the duty-cycled discharge circuit of \[24\] that the UPS power
//! controller actuates.
//!
//! The paper sizes the UPS to carry the maximum rack power for 5 minutes
//! (400 Wh for the 4.8 kW rack, §VI-A). Depth of discharge (DoD) is the
//! cost-efficiency metric of §VII-D: deeper discharges shorten LFP battery
//! life (see [`crate::battery_life`]).

use crate::units::{Seconds, WattHours, Watts};

/// Static UPS parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpsSpec {
    /// Usable energy capacity.
    pub capacity: WattHours,
    /// Maximum instantaneous discharge power the inverter can deliver.
    pub max_discharge: Watts,
    /// Round-trip-half efficiency of discharge: cells must supply
    /// `delivered / efficiency`.
    pub discharge_efficiency: f64,
    /// Duty-ratio quantization of the discharge circuit of \[24\]
    /// (e.g. 0.01 ≙ the switch network realizes multiples of 1%).
    pub duty_step: f64,
}

impl UpsSpec {
    /// The paper's UPS: 400 Wh, able to carry the whole 4.8 kW rack,
    /// 95% discharge efficiency, 1% duty steps.
    pub fn paper_default() -> Self {
        UpsSpec {
            capacity: WattHours(400.0),
            max_discharge: Watts(4800.0),
            discharge_efficiency: 0.95,
            duty_step: 0.01,
        }
    }
}

/// A stateful UPS battery.
#[derive(Debug, Clone, PartialEq)]
pub struct UpsBattery {
    pub spec: UpsSpec,
    /// Current stored energy.
    soc: WattHours,
    /// Total energy drawn from the cells over the battery's life here
    /// (includes efficiency losses).
    pub total_cell_energy_out: WattHours,
    /// Deepest depth-of-discharge reached, in `[0, 1]`.
    pub max_dod: f64,
}

impl UpsBattery {
    /// A fully-charged battery.
    pub fn full(spec: UpsSpec) -> Self {
        UpsBattery {
            soc: spec.capacity,
            spec,
            total_cell_energy_out: WattHours::ZERO,
            max_dod: 0.0,
        }
    }

    pub fn soc(&self) -> WattHours {
        self.soc
    }

    /// State of charge as a fraction of capacity.
    pub fn soc_fraction(&self) -> f64 {
        (self.soc / self.spec.capacity).clamp(0.0, 1.0)
    }

    /// Depth of discharge: `1 − soc/capacity`.
    pub fn depth_of_discharge(&self) -> f64 {
        1.0 - self.soc_fraction()
    }

    pub fn is_empty(&self) -> bool {
        self.soc.0 <= 1e-9
    }

    /// Discharge: deliver up to `requested` for `dt`; returns the power
    /// actually delivered, limited by the inverter rating and remaining
    /// energy. Updates SoC, throughput, and max-DoD bookkeeping.
    pub fn discharge(&mut self, requested: Watts, dt: Seconds) -> Watts {
        assert!(dt.0 > 0.0);
        if requested.0 <= 0.0 || self.is_empty() {
            return Watts::ZERO;
        }
        let want = requested.min(self.spec.max_discharge);
        // Power deliverable from the energy left in this step.
        let cell_energy_avail = self.soc;
        let max_by_energy = Watts(
            cell_energy_avail.0 * crate::units::SECONDS_PER_HOUR / dt.0
                * self.spec.discharge_efficiency,
        );
        let delivered = want.min(max_by_energy);
        let cell_energy = Watts(delivered.0 / self.spec.discharge_efficiency).over(dt);
        self.soc = WattHours((self.soc.0 - cell_energy.0).max(0.0));
        self.total_cell_energy_out += cell_energy;
        self.max_dod = self.max_dod.max(self.depth_of_discharge());
        delivered
    }

    /// Permanently lose `fraction` of the current capacity (cell fade,
    /// injected by the fault model). Stored energy is clamped to the new
    /// capacity; DoD bookkeeping continues against the faded capacity.
    pub fn apply_capacity_fade(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fade fraction must be in [0, 1]: {fraction}"
        );
        self.spec.capacity = WattHours(self.spec.capacity.0 * (1.0 - fraction));
        self.soc = self.soc.min(self.spec.capacity);
        self.max_dod = self.max_dod.max(self.depth_of_discharge());
    }

    /// Recharge at `power` for `dt` with the given charge efficiency
    /// (energy into cells = power × dt × efficiency), clamped at capacity.
    pub fn recharge(&mut self, power: Watts, dt: Seconds, efficiency: f64) {
        assert!(dt.0 > 0.0 && (0.0..=1.0).contains(&efficiency));
        if power.0 <= 0.0 {
            return;
        }
        let into = Watts(power.0 * efficiency).over(dt);
        self.soc = (self.soc + into).min(self.spec.capacity);
    }
}

/// The duty-cycled discharge circuit of \[24\]: the controller commands a
/// duty ratio and the UPS carries that fraction of the total load.
///
/// The circuit can only realize duty ratios in multiples of
/// [`UpsSpec::duty_step`] — a real actuation-quantization error the UPS
/// power controller must tolerate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycleDischarger {
    pub duty_step: f64,
}

impl DutyCycleDischarger {
    pub fn new(duty_step: f64) -> Self {
        assert!((0.0..1.0).contains(&duty_step));
        DutyCycleDischarger { duty_step }
    }

    /// Quantize the duty ratio that realizes `target` discharge out of
    /// `p_total`, and return the discharge power the circuit will actually
    /// draw from the battery side.
    pub fn realize(&self, target: Watts, p_total: Watts) -> Watts {
        if p_total.0 <= 0.0 || target.0 <= 0.0 {
            return Watts::ZERO;
        }
        let duty = (target / p_total).clamp(0.0, 1.0);
        let q = if self.duty_step > 0.0 {
            (duty / self.duty_step).round() * self.duty_step
        } else {
            duty
        };
        Watts(p_total.0 * q.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn battery() -> UpsBattery {
        UpsBattery::full(UpsSpec::paper_default())
    }

    #[test]
    fn discharge_accounting() {
        let mut b = battery();
        let delivered = b.discharge(Watts(1900.0), Seconds(60.0));
        assert_eq!(delivered, Watts(1900.0));
        // Cells supplied 1900/0.95 = 2000 W for 1 min = 33.33 Wh.
        let expect_drop = 2000.0 / 60.0;
        assert!((b.soc().0 - (400.0 - expect_drop)).abs() < 1e-9);
        assert!((b.depth_of_discharge() - expect_drop / 400.0).abs() < 1e-9);
        assert!((b.max_dod - b.depth_of_discharge()).abs() < 1e-12);
    }

    #[test]
    fn discharge_limited_by_inverter() {
        let mut b = battery();
        let delivered = b.discharge(Watts(10_000.0), Seconds(1.0));
        assert_eq!(delivered, Watts(4800.0));
    }

    #[test]
    fn discharge_limited_by_energy() {
        let mut b = battery();
        // Drain nearly everything.
        while !b.is_empty() {
            b.discharge(Watts(4800.0), Seconds(10.0));
        }
        assert!(b.is_empty());
        assert_eq!(b.discharge(Watts(100.0), Seconds(1.0)), Watts::ZERO);
        assert!((b.max_dod - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_final_step_delivers_partial_power() {
        let mut b = battery();
        // Ask for more energy than remains in one long step: the model
        // delivers the average power the remaining energy supports.
        let delivered = b.discharge(Watts(4800.0), Seconds(3600.0));
        // 400 Wh × 0.95 over one hour = 380 W average.
        assert!((delivered.0 - 380.0).abs() < 1e-9);
        assert!(b.is_empty());
    }

    #[test]
    fn energy_conservation_over_random_schedule() {
        let mut b = battery();
        let mut delivered_wh = 0.0;
        let powers = [300.0, 1200.0, 0.0, 2500.0, 4800.0, 700.0];
        for (i, &p) in powers.iter().cycle().take(600).enumerate() {
            let dt = Seconds(1.0 + (i % 3) as f64);
            let d = b.discharge(Watts(p), dt);
            delivered_wh += d.over(dt).0;
        }
        let cell_out = b.total_cell_energy_out.0;
        // delivered = cells × efficiency, and cells ≤ capacity.
        assert!((delivered_wh - cell_out * 0.95).abs() < 1e-6);
        assert!(cell_out <= 400.0 + 1e-9);
        assert!((400.0 - b.soc().0 - cell_out).abs() < 1e-6);
    }

    #[test]
    fn recharge_clamps_at_capacity() {
        let mut b = battery();
        b.discharge(Watts(4800.0), Seconds(60.0));
        b.recharge(Watts(100_000.0), Seconds(3600.0), 0.9);
        assert!((b.soc().0 - 400.0).abs() < 1e-9);
        // max_dod is a high-water mark; recharging does not erase it.
        assert!(b.max_dod > 0.0);
    }

    #[test]
    fn duty_cycle_quantization() {
        let d = DutyCycleDischarger::new(0.01);
        // 37.2% of 3 kW requested → rounds to 37%.
        let got = d.realize(Watts(1116.0), Watts(3000.0));
        assert!((got.0 - 1110.0).abs() < 1e-9);
        // Zero cases.
        assert_eq!(d.realize(Watts(0.0), Watts(3000.0)), Watts::ZERO);
        assert_eq!(d.realize(Watts(100.0), Watts(0.0)), Watts::ZERO);
        // Target above total clamps to 100% duty.
        assert_eq!(d.realize(Watts(9000.0), Watts(3000.0)), Watts(3000.0));
    }

    #[test]
    fn duty_cycle_error_bounded_by_step() {
        let d = DutyCycleDischarger::new(0.01);
        let total = Watts(4123.0);
        for i in 0..200 {
            let target = Watts(i as f64 * 20.0);
            let got = d.realize(target, total);
            let capped = target.min(total);
            assert!(
                (got.0 - capped.0).abs() <= total.0 * 0.005 + 1e-9,
                "quantization error beyond half a duty step"
            );
        }
    }
}
