//! E3 — Fig. 3: an example of periodic computational sprinting with a
//! period of about 18 seconds (\[4\]'s testbed behavior).
//!
//! The duty cycle is *derived from the thermal physics*: the \[4\]-class
//! chip model (lumped RC, ~12 W sustainable, 50 W sprints) sprints until
//! its die hits the throttle limit and rests until it cools through a
//! 20 °C restart band — which lands on the paper's ~18-second period.
//! The same schedule is then replayed on the rack server's power model
//! to draw the power wave the breaker/UPS pair must ride through.

use powersim::rack::server_power;
use powersim::server::ServerSpec;
use powersim::thermal::{periodic_sprint_duty, ThermalModel};
use powersim::units::NormFreq;
use simkit::ascii_plot::line_chart;
use sprintcon_bench::{banner, write_csv};

fn main() {
    banner("Fig. 3 — periodic sprinting example (~18 s period)");
    let chip = ThermalModel::sprint_testbed();
    let (sprint_s, rest_s) = periodic_sprint_duty(&chip, 50.0, 2.0, 20.0);
    let period_s = sprint_s + rest_s;
    println!(
        "thermal duty cycle: sprint {sprint_s:.1} s + rest {rest_s:.1} s = {period_s:.1} s period \
         (chip TDP {:.1} W, sprint 50 W)",
        chip.sustainable_power()
    );
    let spec = ServerSpec::paper_default();
    let utils = vec![0.9; spec.num_cores];
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for t in 0..120 {
        let phase = (t as f64) % period_s;
        let f = if phase < sprint_s {
            NormFreq::PEAK
        } else {
            NormFreq(0.3)
        };
        let freqs = vec![spec.freq_scale.quantize(f).0; spec.num_cores];
        let p = server_power(
            &spec,
            [(&freqs[..4], &utils[..4]), (&freqs[4..], &utils[4..])],
        );
        rows.push(vec![t as f64, f.0, p]);
        series.push(p);
    }
    println!(
        "{}",
        line_chart("server power (W) over 120 s", &series, 72, 10)
    );
    let path = write_csv("fig3_periodic_sprint.csv", "t_s,freq,power_w", &rows);
    println!("csv: {}", path.display());

    // Shape checks: a clean two-level power wave with ~18 s period.
    let hi = series.iter().cloned().fold(f64::MIN, f64::max);
    let lo = series.iter().cloned().fold(f64::MAX, f64::min);
    assert!(hi > lo * 1.3, "sprint must visibly raise power");
    // Count rising edges: 120 s / 18 s ≈ 6-7 sprints.
    let mid = 0.5 * (hi + lo);
    let edges = series
        .windows(2)
        .filter(|w| w[0] < mid && w[1] >= mid)
        .count();
    let expect = 120.0 / period_s;
    println!("sprints in 120 s: {edges} (thermal model predicts ~{expect:.1})");
    assert!((edges as f64 - expect).abs() <= 1.5);
    // Fig. 3's headline number: a period of *about 18 seconds*.
    assert!((14.0..24.0).contains(&period_s), "period={period_s}");
}
