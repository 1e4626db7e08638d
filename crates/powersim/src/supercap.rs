//! Hybrid energy storage: battery + supercapacitor.
//!
//! The paper's UPS actuation cites Zheng/Ma/Wang's hybrid design \[24\]:
//! a supercapacitor absorbs the fast, shallow power fluctuation while the
//! battery supplies the slow component. For an LFP pack this matters
//! economically — every watt-second the supercap absorbs is cycling the
//! battery does not see (see [`crate::battery_life`]). This module models
//! that split so ablation A4 (`simkit::paper`) can quantify it for
//! SprintCon's UPS controller.
//!
//! The supercap is modelled as a small, high-power, lossy-ish buffer with
//! its own state of charge; the [`HybridStorage::discharge`] policy sends
//! the high-frequency component (demand above a slow EWMA of itself) to
//! the supercap when it has charge, and the rest to the battery. During
//! lulls (demand below the EWMA) the battery recharges the supercap at a
//! bounded rate, keeping it ready for the next swing.

use crate::units::{Seconds, WattHours, Watts, SECONDS_PER_HOUR};
use crate::ups::UpsBattery;

/// Supercapacitor bank parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupercapSpec {
    /// Usable energy (supercaps store little — tens of watt-hours).
    pub capacity: WattHours,
    /// Maximum charge/discharge power (supercaps are power-dense).
    pub max_power: Watts,
    /// Round-trip-half efficiency of a discharge.
    pub efficiency: f64,
}

impl SupercapSpec {
    /// A rack-scale bank: 20 Wh, 4.8 kW, 98% efficient.
    pub fn paper_default() -> Self {
        SupercapSpec {
            capacity: WattHours(20.0),
            max_power: Watts(4800.0),
            efficiency: 0.98,
        }
    }
}

/// A stateful supercapacitor bank.
#[derive(Debug, Clone, PartialEq)]
pub struct Supercap {
    pub spec: SupercapSpec,
    soc: WattHours,
    /// Total energy the cap has delivered (cycling it is ~free).
    pub total_out: WattHours,
}

impl Supercap {
    pub fn full(spec: SupercapSpec) -> Self {
        Supercap {
            soc: spec.capacity,
            spec,
            total_out: WattHours::ZERO,
        }
    }

    pub fn soc_fraction(&self) -> f64 {
        (self.soc / self.spec.capacity).clamp(0.0, 1.0)
    }

    /// Deliver up to `requested` for `dt`; returns actual power.
    pub fn discharge(&mut self, requested: Watts, dt: Seconds) -> Watts {
        if requested.0 <= 0.0 || self.soc.0 <= 1e-12 {
            return Watts::ZERO;
        }
        let want = requested.min(self.spec.max_power);
        let max_by_energy = Watts(self.soc.0 * SECONDS_PER_HOUR / dt.0 * self.spec.efficiency);
        let delivered = want.min(max_by_energy);
        let drawn = Watts(delivered.0 / self.spec.efficiency).over(dt);
        self.soc = WattHours((self.soc.0 - drawn.0).max(0.0));
        self.total_out += drawn;
        delivered
    }

    /// Absorb up to `offered` charging power; returns what was taken.
    pub fn charge(&mut self, offered: Watts, dt: Seconds) -> Watts {
        if offered.0 <= 0.0 {
            return Watts::ZERO;
        }
        let room = WattHours(self.spec.capacity.0 - self.soc.0);
        if room.0 <= 1e-12 {
            return Watts::ZERO;
        }
        let want = offered.min(self.spec.max_power);
        let max_by_room = Watts(room.0 * SECONDS_PER_HOUR / dt.0 / self.spec.efficiency);
        let taken = want.min(max_by_room);
        self.soc =
            (self.soc + Watts(taken.0 * self.spec.efficiency).over(dt)).min(self.spec.capacity);
        taken
    }
}

/// Battery + supercap behind one discharge command.
#[derive(Debug, Clone)]
pub struct HybridStorage {
    pub battery: UpsBattery,
    pub cap: Supercap,
    /// EWMA time constant separating "slow" from "fast" demand, seconds.
    pub split_tau: f64,
    /// Battery power reserved for recharging the cap during lulls.
    pub recharge_power: Watts,
    slow_estimate: f64,
}

/// One step's source breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridOutcome {
    pub delivered: Watts,
    pub from_battery: Watts,
    pub from_cap: Watts,
    /// Battery power diverted into the cap this step.
    pub cap_recharge: Watts,
}

impl HybridStorage {
    pub fn new(battery: UpsBattery, cap: Supercap) -> Self {
        HybridStorage {
            battery,
            cap,
            split_tau: 30.0,
            recharge_power: Watts(200.0),
            slow_estimate: 0.0,
        }
    }

    /// The slow component the battery is asked to follow.
    pub fn slow_estimate(&self) -> Watts {
        Watts(self.slow_estimate)
    }

    /// Serve a discharge demand, splitting slow → battery, fast → cap.
    pub fn discharge(&mut self, demand: Watts, dt: Seconds) -> HybridOutcome {
        assert!(dt.0 > 0.0 && demand.0 >= 0.0);
        // EWMA tracks the slow component of the demand itself.
        let alpha = 1.0 - (-dt.0 / self.split_tau.max(1e-9)).exp();
        self.slow_estimate += alpha * (demand.0 - self.slow_estimate);

        let slow = self.slow_estimate.min(demand.0).max(0.0);
        let fast = demand.0 - slow;
        // Battery covers the slow part; cap covers the fast part; each
        // backstops the other when depleted/limited.
        let mut from_battery = self.battery.discharge(Watts(slow), dt);
        let mut from_cap = self.cap.discharge(Watts(fast), dt);
        let shortfall = demand.0 - from_battery.0 - from_cap.0;
        if shortfall > 1e-9 {
            let extra_b = self.battery.discharge(Watts(shortfall), dt);
            from_battery += extra_b;
            let rest = shortfall - extra_b.0;
            if rest > 1e-9 {
                from_cap += self.cap.discharge(Watts(rest), dt);
            }
        }
        // During lulls, trickle battery energy into the cap.
        let mut cap_recharge = Watts::ZERO;
        if demand.0 < self.slow_estimate * 0.8 && self.cap.soc_fraction() < 0.95 {
            let offered = self.recharge_power;
            let drawn = self.battery.discharge(offered, dt);
            cap_recharge = self.cap.charge(drawn, dt);
            // Losses between battery and cap are accounted inside each
            // model; any unabsorbed remainder is simply not drawn again.
        }
        HybridOutcome {
            delivered: from_battery + from_cap,
            from_battery,
            from_cap,
            cap_recharge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ups::UpsSpec;

    fn hybrid() -> HybridStorage {
        HybridStorage::new(
            UpsBattery::full(UpsSpec::paper_default()),
            Supercap::full(SupercapSpec::paper_default()),
        )
    }

    #[test]
    fn supercap_round_trip() {
        let mut c = Supercap::full(SupercapSpec::paper_default());
        let out = c.discharge(Watts(2400.0), Seconds(10.0));
        assert_eq!(out, Watts(2400.0));
        // 2400 W for 10 s = 6.67 Wh delivered → 6.8 Wh drawn at 98%.
        assert!((c.soc_fraction() - (20.0 - 6.8027) / 20.0).abs() < 1e-3);
        let taken = c.charge(Watts(2400.0), Seconds(10.0));
        assert!(taken.0 > 0.0);
        assert!(c.soc_fraction() > 0.95);
    }

    #[test]
    fn supercap_limits() {
        let mut c = Supercap::full(SupercapSpec::paper_default());
        // Power limit.
        assert_eq!(c.discharge(Watts(10_000.0), Seconds(1.0)), Watts(4800.0));
        // Energy limit: drain everything.
        while c.soc_fraction() > 0.0 {
            if c.discharge(Watts(4800.0), Seconds(5.0)).0 == 0.0 {
                break;
            }
        }
        assert_eq!(c.discharge(Watts(100.0), Seconds(1.0)), Watts::ZERO);
        // Can't overcharge.
        let mut full = Supercap::full(SupercapSpec::paper_default());
        assert_eq!(full.charge(Watts(1000.0), Seconds(1.0)), Watts::ZERO);
    }

    #[test]
    fn fast_swings_hit_the_cap_not_the_battery() {
        let mut h = hybrid();
        // Settle the EWMA at 500 W.
        for _ in 0..300 {
            h.discharge(Watts(500.0), Seconds(1.0));
        }
        let bat_before = h.battery.total_cell_energy_out;
        let cap_before = h.cap.total_out;
        // A 30-second 1.5 kW spike: ~1 kW of it is "fast".
        let mut cap_served = 0.0;
        for _ in 0..30 {
            let out = h.discharge(Watts(1500.0), Seconds(1.0));
            assert!((out.delivered.0 - 1500.0).abs() < 1e-6);
            cap_served += out.from_cap.0;
        }
        let bat_delta = (h.battery.total_cell_energy_out - bat_before).0;
        let cap_delta = (h.cap.total_out - cap_before).0;
        assert!(cap_served > 0.0, "cap must serve the fast component");
        assert!(
            cap_delta > bat_delta * 0.4,
            "spike energy should land mostly outside the battery: cap {cap_delta:.2} vs bat {bat_delta:.2}"
        );
    }

    #[test]
    fn cap_recharges_during_lulls() {
        let mut h = hybrid();
        for _ in 0..120 {
            h.discharge(Watts(800.0), Seconds(1.0));
        }
        // Big spike drains the cap...
        for _ in 0..60 {
            h.discharge(Watts(2500.0), Seconds(1.0));
        }
        let low = h.cap.soc_fraction();
        // ...then a deep lull refills it from the battery.
        for _ in 0..600 {
            h.discharge(Watts(100.0), Seconds(1.0));
        }
        assert!(
            h.cap.soc_fraction() > low + 0.2,
            "cap must recover: {low:.2} -> {:.2}",
            h.cap.soc_fraction()
        );
    }

    #[test]
    fn hybrid_never_over_delivers() {
        let mut h = hybrid();
        for k in 0..500 {
            let d = 300.0 + 2200.0 * ((k as f64) * 0.23).sin().abs();
            let out = h.discharge(Watts(d), Seconds(1.0));
            assert!(out.delivered.0 <= d + 1e-9);
            assert!((out.delivered.0 - out.from_battery.0 - out.from_cap.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hybrid_reduces_battery_throughput_on_fluctuating_demand() {
        // The [24] claim this module exists for: same fluctuating demand,
        // with and without the cap — the battery sees less energy with it.
        let demand = |k: usize| 600.0 + 500.0 * ((k as f64) * 0.5).sin().max(0.0);
        let mut plain = UpsBattery::full(UpsSpec::paper_default());
        let mut h = hybrid();
        for k in 0..600 {
            plain.discharge(Watts(demand(k)), Seconds(1.0));
            h.discharge(Watts(demand(k)), Seconds(1.0));
        }
        let plain_bat = plain.total_cell_energy_out.0;
        let hybrid_bat = h.battery.total_cell_energy_out.0;
        assert!(
            hybrid_bat < plain_bat,
            "hybrid battery throughput {hybrid_bat:.1} must beat plain {plain_bat:.1}"
        );
        // And the *depth* of battery discharge is shallower too.
        assert!(h.battery.max_dod <= plain.max_dod + 1e-9);
    }
}
