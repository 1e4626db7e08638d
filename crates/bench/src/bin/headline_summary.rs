//! E9 — the headline comparison (abstract, §VII-C/D): run the full
//! 15-minute sprinting process under all four policies and report the
//! computing-capacity improvement and the energy-storage savings.
//!
//! Paper values: SprintCon improves interactive computing capacity by
//! 6–56% over the SGCT family, uses up to 87% less stored energy, and is
//! the only policy that neither trips the breaker nor drains the UPS.

use simkit::{summary_table, Campaign, Scenario};
use sprintcon_bench::{banner, EngineArgs};

fn main() {
    let args = EngineArgs::parse();
    let scenario = Scenario::paper_default(2019);
    banner("Headline: 15-minute sprint, 12-minute batch deadline");
    let results = Campaign::new()
        .add_all_policies(scenario)
        .run_with(args.exec);
    let summaries: Vec<_> = results.iter().map(|r| r.summary().clone()).collect();
    println!("{}", summary_table(&summaries));

    let sprintcon = &summaries[0];
    banner("Derived headline numbers (paper: 6-56% capacity, <=87% less storage)");
    for s in &summaries[1..] {
        let gain = sprintcon.interactive_capacity_gain_over(s) * 100.0;
        let storage = if s.ups_energy_wh > 0.0 {
            (1.0 - sprintcon.ups_energy_wh / s.ups_energy_wh) * 100.0
        } else {
            0.0
        };
        println!(
            "vs {:<8}: computing capacity {gain:+6.1}%   energy-storage demand {storage:+6.1}% less",
            s.policy
        );
    }
    println!(
        "\nSprintCon trips: {}   SGCT trips: {}   SprintCon shutdown: {}   SGCT shutdown: {:?}",
        summaries[0].trips, summaries[1].trips, summaries[0].shutdown, summaries[1].shutdown_at
    );
}
