//! How SprintCon trades batch speed for stored energy as the deadline
//! moves — the §VII-D experiment as an interactive exploration.
//!
//! Sweeps the batch deadline from "barely feasible" to "relaxed" and
//! shows how the allocator's deadline floor reshapes the run: tighter
//! deadlines push batch cores faster (more UPS discharge), looser ones
//! let the DVFS floor and the free CB-overload headroom do the work.
//!
//! ```text
//! cargo run --release --example deadline_tuning
//! ```

use powersim::units::Seconds;
use simkit::{Campaign, ExecConfig, PolicyKind, Scenario};

fn main() {
    let deadlines_min = [8.0, 9.0, 10.0, 12.0, 15.0];
    println!("SprintCon under a deadline sweep (same fixed batch workload):\n");
    println!(
        "{:>9} {:>11} {:>9} {:>8} {:>9} {:>7}",
        "deadline", "deadlines", "t_use", "f_batch", "UPS Wh", "DoD"
    );

    let mut campaign = Campaign::new();
    for d in deadlines_min {
        let scenario = Scenario::paper_default(2019).with_deadline(Seconds::minutes(d));
        campaign.add(scenario, PolicyKind::SprintCon);
    }
    let rows: Vec<_> = deadlines_min
        .into_iter()
        .zip(campaign.run_with(ExecConfig::parallel()))
        .map(|(d, run)| (d, run.output.summary))
        .collect();

    for (d, s) in &rows {
        println!(
            "{:>8}m {:>7}/{:<3} {:>9.3} {:>8.2} {:>9.1} {:>6.1}%",
            d,
            s.deadlines_met,
            s.deadlines_total,
            s.normalized_time_use,
            s.avg_freq_batch,
            s.ups_energy_wh,
            s.dod * 100.0
        );
    }

    // The monotone trade the allocator implements: a tighter deadline
    // never uses less UPS energy than a looser one.
    for w in rows.windows(2) {
        let (d0, s0) = &w[0];
        let (d1, s1) = &w[1];
        assert!(
            s0.ups_energy_wh >= s1.ups_energy_wh - 3.0,
            "deadline {d0}m should need at least as much storage as {d1}m"
        );
    }
    println!("\ntighter deadline -> faster batch -> more stored energy spent, and vice versa.");
    println!("(the 8-minute case is near the feasibility edge: watch t_use approach 1.0)");
}
