//! Figs. 1–3, the paper's motivation: per-watt speedup falls as
//! frequency rises (Fig. 1), a 1.25× overload trips the breaker after
//! 150 s (Fig. 2), and thermally limited sprints repeat every ~18 s
//! (Fig. 3). None of them simulates a rack.

use super::{Rows, Table};
use powersim::breaker::BreakerSpec;
use powersim::cpu::CorePowerLaw;
use powersim::rack::server_power;
use powersim::server::ServerSpec;
use powersim::thermal::{periodic_sprint_duty, ThermalModel};
use powersim::units::{NormFreq, Utilization};
use workloads::spec_profiles::sprint_six;

/// Fig. 1: per-watt speedup against frequency for the six sprinting
/// workloads of \[4\]. Speedup and active power are both relative to the
/// 400 MHz floor; the falling curve comes from non-CPU bottlenecks (the
/// progress model's memory-bound share) and the superlinear power law.
pub(super) fn fig1(rows: &mut Rows<'_>) -> Table {
    let law = CorePowerLaw {
        peak_active_watts: 12.19, // the paper-default server's core law
        cubic_fraction: 0.7,
        idle_watts: 0.0,
    };
    let f0 = 0.2;
    let profiles = sprint_six();
    let p_ref = law.active_power(NormFreq(f0), Utilization::FULL);
    let data: Vec<Vec<f64>> = (0..=16)
        .map(|i| {
            let f = 0.2 + 0.05 * i as f64;
            let p_rel = law.active_power(NormFreq(f), Utilization::FULL) / p_ref;
            let per_watt = profiles
                .iter()
                .map(|p| p.progress_model().speedup(f0, f) / p_rel);
            std::iter::once(f).chain(per_watt).collect()
        })
        .collect();
    let (first, last) = (&data[0][1..], &data[data.len() - 1][1..]);
    let falling = first.iter().zip(last).filter(|(a, b)| b < a).count();
    let (lo, hi) = min_max(last);
    rows.check(
        "every workload's per-watt speedup at f = 1.0 is below its value at f = 0.2",
        "decreases with frequency",
        format!("{falling} of {} fall, to {lo:.2}-{hi:.2}", first.len()),
        falling == first.len(),
    );
    let header = std::iter::once("freq")
        .chain(profiles.iter().map(|p| p.name))
        .collect::<Vec<_>>()
        .join(",");
    rows.table("fig1_perwatt_speedup.csv", header, data)
}

/// The Fig. 2 overload degrees.
const OVERLOADS: [f64; 16] = [
    1.01, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.4, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0,
];

/// Fig. 2: the paper breaker's trip time against overload (the Bulletin
/// 1489-A shape), calibrated on \[2\]'s operating point.
pub(super) fn fig2(rows: &mut Rows<'_>) -> Table {
    let spec = BreakerSpec::paper_default();
    let trip = |o: f64| spec.trip_time(o).0;
    let data: Vec<Vec<f64>> = OVERLOADS.iter().map(|&o| vec![o, trip(o)]).collect();
    let t = trip(1.25);
    rows.check(
        "a 1.25x overload trips after 150 s, within 1e-6 s",
        "150 s at 1.25x",
        format!("{t:.6} s"),
        (t - 150.0).abs() < 1e-6,
    );
    rows.check(
        "trip time falls strictly over the 16 overloads 1.01x-6x",
        "decreasing",
        format!("{:.1} s -> {:.1} s", trip(1.01), trip(6.0)),
        data.windows(2).all(|w| w[1][1] < w[0][1]),
    );
    let (d_low, d_high) = (trip(1.05) - trip(1.25), trip(3.0) - trip(6.0));
    rows.check(
        "its drop from 1.05x to 1.25x exceeds 50x its drop from 3x to 6x",
        "nonlinear",
        format!("{d_low:.1} s vs {d_high:.1} s"),
        d_low > 50.0 * d_high,
    );
    let recovery = spec.recovery_time_from(spec.trip_heat).0;
    rows.report(
        "recovery from the trip threshold",
        "<= 300 s",
        format!("{recovery:.1} s"),
    );
    rows.table("fig2_trip_curve.csv", "overload,trip_time_s", data)
}

/// Fig. 3: periodic sprinting on one server over 120 s. The duty cycle
/// comes from the thermal physics: the \[4\]-class chip (lumped RC, ~12 W
/// sustainable, 50 W sprints) sprints until its die reaches the throttle
/// limit and rests until it cools through a 20 °C restart band. The
/// schedule then drives the paper server's power law, drawing the wave
/// the breaker and UPS must ride.
pub(super) fn fig3(rows: &mut Rows<'_>) -> Table {
    let chip = ThermalModel::sprint_testbed();
    let (sprint_s, rest_s) = periodic_sprint_duty(&chip, 50.0, 2.0, 20.0);
    let period_s = sprint_s + rest_s;
    let spec = ServerSpec::paper_default();
    let utils = vec![0.9; spec.num_cores];
    let data: Vec<Vec<f64>> = (0..120)
        .map(|t| {
            let f = if (t as f64) % period_s < sprint_s {
                NormFreq::PEAK
            } else {
                NormFreq(0.3)
            };
            let freqs = vec![spec.freq_scale.quantize(f).0; spec.num_cores];
            let p = server_power(
                &spec,
                [(&freqs[..4], &utils[..4]), (&freqs[4..], &utils[4..])],
            );
            vec![t as f64, f.0, p]
        })
        .collect();
    let power: Vec<f64> = data.iter().map(|r| r[2]).collect();
    let (lo, hi) = min_max(&power);
    rows.check(
        "a sprint raises server power above 1.3x its rest level",
        "two-level power wave",
        format!("{hi:.0} W vs {lo:.0} W"),
        hi > lo * 1.3,
    );
    let mid = 0.5 * (hi + lo);
    let edges = power
        .windows(2)
        .filter(|w| w[0] < mid && w[1] >= mid)
        .count();
    let expect = 120.0 / period_s;
    rows.check(
        "its sprints in 120 s number 120 s / period within 1.5",
        "periodic",
        format!("{edges} vs {expect:.1}"),
        (edges as f64 - expect).abs() <= 1.5,
    );
    rows.check(
        "the thermal duty cycle's period lies in 14-24 s",
        "about 18 s",
        format!("{period_s:.1} s"),
        (14.0..24.0).contains(&period_s),
    );
    rows.report(
        "sprint + rest of that cycle (50 W sprints)",
        "-",
        format!(
            "{sprint_s:.1} s + {rest_s:.1} s (chip sustains {:.1} W)",
            chip.sustainable_power()
        ),
    );
    rows.table("fig3_periodic_sprint.csv", "t_s,freq,power_w", data)
}

/// The smallest and largest of `xs`.
fn min_max(xs: &[f64]) -> (f64, f64) {
    let lo = xs.iter().copied().fold(f64::MAX, f64::min);
    let hi = xs.iter().copied().fold(f64::MIN, f64::max);
    (lo, hi)
}
