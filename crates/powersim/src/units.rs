//! Strongly-typed physical units used throughout the power-infrastructure
//! models.
//!
//! All models run in `f64`; these newtypes exist to prevent unit confusion
//! at crate boundaries (watts vs watt-hours vs normalized frequency is the
//! classic source of silent power-model bugs). Arithmetic is implemented
//! only where it is physically meaningful: e.g. `Watts * Seconds` yields
//! energy, `WattHours / Watts` yields time, and adding `Watts` to
//! `WattHours` does not compile.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

/// Electrical energy in watt-hours.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct WattHours(pub f64);

/// Time duration in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(pub f64);

/// Processor core frequency normalized to the peak frequency of the
/// platform, i.e. `1.0` is the peak (2.0 GHz in the paper's testbed) and
/// `0.2` is the floor (400 MHz).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct NormFreq(pub f64);

/// CPU core utilization in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Utilization(pub f64);

pub const SECONDS_PER_HOUR: f64 = 3600.0;

impl Watts {
    pub const ZERO: Watts = Watts(0.0);

    /// Energy delivered when this power is sustained for `dt`.
    pub fn over(self, dt: Seconds) -> WattHours {
        WattHours(self.0 * dt.0 / SECONDS_PER_HOUR)
    }

    pub fn max(self, other: Watts) -> Watts {
        Watts(self.0.max(other.0))
    }

    pub fn min(self, other: Watts) -> Watts {
        Watts(self.0.min(other.0))
    }

    pub fn clamp(self, lo: Watts, hi: Watts) -> Watts {
        Watts(self.0.clamp(lo.0, hi.0))
    }

    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl WattHours {
    pub const ZERO: WattHours = WattHours(0.0);

    pub fn max(self, other: WattHours) -> WattHours {
        WattHours(self.0.max(other.0))
    }

    pub fn min(self, other: WattHours) -> WattHours {
        WattHours(self.0.min(other.0))
    }
}

impl Seconds {
    pub const ZERO: Seconds = Seconds(0.0);

    pub fn minutes(m: f64) -> Seconds {
        Seconds(m * 60.0)
    }

    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }
}

impl NormFreq {
    /// The paper's DVFS floor: 400 MHz on a 2.0 GHz part.
    pub const FLOOR: NormFreq = NormFreq(0.2);
    /// Peak frequency.
    pub const PEAK: NormFreq = NormFreq(1.0);

    pub fn clamp(self, lo: NormFreq, hi: NormFreq) -> NormFreq {
        NormFreq(self.0.clamp(lo.0, hi.0))
    }
}

impl Utilization {
    pub const IDLE: Utilization = Utilization(0.0);
    pub const FULL: Utilization = Utilization(1.0);

    /// Clamp into the physically valid `[0, 1]` range.
    pub fn saturate(self) -> Utilization {
        Utilization(self.0.clamp(0.0, 1.0))
    }
}

macro_rules! impl_linear_ops {
    ($t:ident) => {
        impl Add for $t {
            type Output = $t;
            fn add(self, rhs: $t) -> $t {
                $t(self.0 + rhs.0)
            }
        }
        impl Sub for $t {
            type Output = $t;
            fn sub(self, rhs: $t) -> $t {
                $t(self.0 - rhs.0)
            }
        }
        impl AddAssign for $t {
            fn add_assign(&mut self, rhs: $t) {
                self.0 += rhs.0;
            }
        }
        impl SubAssign for $t {
            fn sub_assign(&mut self, rhs: $t) {
                self.0 -= rhs.0;
            }
        }
        impl Mul<f64> for $t {
            type Output = $t;
            fn mul(self, rhs: f64) -> $t {
                $t(self.0 * rhs)
            }
        }
        impl Mul<$t> for f64 {
            type Output = $t;
            fn mul(self, rhs: $t) -> $t {
                $t(self * rhs.0)
            }
        }
        impl Div<f64> for $t {
            type Output = $t;
            fn div(self, rhs: f64) -> $t {
                $t(self.0 / rhs)
            }
        }
        impl Div<$t> for $t {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $t) -> f64 {
                self.0 / rhs.0
            }
        }
        impl Neg for $t {
            type Output = $t;
            fn neg(self) -> $t {
                $t(-self.0)
            }
        }
        impl Sum for $t {
            fn sum<I: Iterator<Item = $t>>(iter: I) -> $t {
                $t(iter.map(|v| v.0).sum())
            }
        }
    };
}

impl_linear_ops!(Watts);
impl_linear_ops!(WattHours);
impl_linear_ops!(Seconds);
impl_linear_ops!(NormFreq);
impl_linear_ops!(Utilization);

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1000.0 {
            write!(f, "{:.3} kW", self.0 / 1000.0)
        } else {
            write!(f, "{:.1} W", self.0)
        }
    }
}

impl fmt::Display for WattHours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} Wh", self.0)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 60.0 {
            write!(f, "{:.1} min", self.0 / 60.0)
        } else {
            write!(f, "{:.1} s", self.0)
        }
    }
}

impl fmt::Display for NormFreq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}f", self.0)
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}%", self.0 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        // 300 W for half an hour is 150 Wh.
        let e = Watts(300.0).over(Seconds(1800.0));
        assert!((e.0 - 150.0).abs() < 1e-12);
    }

    #[test]
    fn linear_ops() {
        assert_eq!(Watts(3.0) + Watts(4.0), Watts(7.0));
        assert_eq!(Watts(3.0) - Watts(4.0), Watts(-1.0));
        assert_eq!(Watts(3.0) * 2.0, Watts(6.0));
        assert_eq!(2.0 * Watts(3.0), Watts(6.0));
        assert_eq!(Watts(6.0) / 2.0, Watts(3.0));
        assert!((Watts(6.0) / Watts(3.0) - 2.0).abs() < 1e-15);
        assert_eq!(-Watts(2.0), Watts(-2.0));
        let mut w = Watts(1.0);
        w += Watts(2.0);
        w -= Watts(0.5);
        assert_eq!(w, Watts(2.5));
    }

    #[test]
    fn sums() {
        let total: Watts = [Watts(1.0), Watts(2.0), Watts(3.5)].into_iter().sum();
        assert_eq!(total, Watts(6.5));
    }

    #[test]
    fn clamps_and_saturation() {
        assert_eq!(Watts(5.0).clamp(Watts(0.0), Watts(3.0)), Watts(3.0));
        assert_eq!(
            NormFreq(1.5).clamp(NormFreq::FLOOR, NormFreq::PEAK),
            NormFreq::PEAK
        );
        assert_eq!(Utilization(1.7).saturate(), Utilization::FULL);
        assert_eq!(Utilization(-0.3).saturate(), Utilization::IDLE);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Watts(3200.0)), "3.200 kW");
        assert_eq!(format!("{}", Watts(150.0)), "150.0 W");
        assert_eq!(format!("{}", Seconds(90.0)), "1.5 min");
        assert_eq!(format!("{}", Seconds(30.0)), "30.0 s");
        assert_eq!(format!("{}", WattHours(400.0)), "400.0 Wh");
        assert_eq!(format!("{}", Utilization(0.75)), "75%");
    }

    #[test]
    fn minutes_helpers() {
        assert_eq!(Seconds::minutes(15.0).0, 900.0);
        assert!((Seconds(450.0).as_minutes() - 7.5).abs() < 1e-12);
    }
}
