//! The paper's headline scenario end to end: a 15-minute workload burst
//! handled by SprintCon vs the SGCT baselines, with terminal charts.
//!
//! ```text
//! cargo run --release --example long_sprint
//! ```

use simkit::ascii_plot::multi_chart;
use simkit::{summary_table, Campaign, ExecConfig, Scenario};

fn main() {
    let scenario = Scenario::paper_default(2019);
    println!(
        "15-minute sprint: {} servers, {} rated breaker (overload 1.25x/150s), {} UPS\n",
        scenario.num_servers, scenario.breaker.rated, scenario.ups.capacity
    );

    let results = Campaign::new()
        .add_all_policies(scenario)
        .run_with(ExecConfig::parallel());

    // Power behaviour, one chart per policy (Fig. 6 at a glance).
    for run in &results {
        let (rec, summary) = (&run.output.recorder, run.summary());
        let cb: Vec<f64> = rec.samples().iter().map(|s| s.cb_power.0).collect();
        let total: Vec<f64> = rec.samples().iter().map(|s| s.p_total.0).collect();
        println!(
            "{}",
            multi_chart(
                &format!(
                    "{} — trips {} / UPS {:.0} Wh",
                    summary.policy, summary.trips, summary.ups_energy_wh
                ),
                &[("CB", &cb), ("Total", &total)],
                72,
                9,
            )
        );
    }

    let summaries: Vec<_> = results.iter().map(|r| r.summary().clone()).collect();
    println!("{}", summary_table(&summaries));

    let sprintcon = &summaries[0];
    for other in &summaries[1..] {
        println!(
            "SprintCon vs {:<8}: {:+5.1}% computing capacity, {:+5.1}% less stored energy",
            other.policy,
            sprintcon.interactive_capacity_gain_over(other) * 100.0,
            (1.0 - sprintcon.ups_energy_wh / other.ups_energy_wh) * 100.0,
        );
    }
}
