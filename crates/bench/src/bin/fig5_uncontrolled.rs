//! E4 — Fig. 5: uncontrolled computational sprinting (SGCT).
//!
//! Paper narrative: SGCT does not rigorously control the sprinting power
//! to its budget, trips the circuit breaker within the first overload
//! window, then runs the entire rack off the UPS; the battery runs out a
//! few minutes later, and with the breaker still recovering the servers
//! lose power entirely — frequencies drop to zero (Fig. 5(b); average
//! frequency 0.64 interactive / 0.71 batch over the window).

use simkit::ascii_plot::multi_chart;
use simkit::{Campaign, PolicyKind, Scenario};
use sprintcon_bench::{banner, write_csv, EngineArgs};

fn main() {
    let args = EngineArgs::parse();
    banner("Fig. 5 — uncontrolled sprinting (SGCT): power and frequency curves");
    let scenario = Scenario::paper_default(2019);
    let mut runs = Campaign::new()
        .add(scenario, PolicyKind::Sgct)
        .run_with(args.exec);
    let run = runs.remove(0).output;
    let (rec, summary) = (&run.recorder, &run.summary);

    let cb: Vec<f64> = rec.samples().iter().map(|s| s.cb_power.0).collect();
    let total: Vec<f64> = rec.samples().iter().map(|s| s.p_total.0).collect();
    let ups: Vec<f64> = rec.samples().iter().map(|s| s.ups_power.0).collect();
    let budget: Vec<f64> = rec
        .samples()
        .iter()
        .map(|s| s.p_cb_target.map_or(0.0, |w| w.0))
        .collect();
    println!(
        "{}",
        multi_chart(
            "Fig.5(a) power (W)",
            &[
                ("CB actual", &cb),
                ("Total", &total),
                ("UPS", &ups),
                ("CB budget", &budget)
            ],
            76,
            12,
        )
    );
    let fi: Vec<f64> = rec
        .samples()
        .iter()
        .map(|s| s.mean_freq_interactive)
        .collect();
    let fb: Vec<f64> = rec.samples().iter().map(|s| s.mean_freq_batch).collect();
    println!(
        "{}",
        multi_chart(
            "Fig.5(b) normalized frequency",
            &[("Interactive", &fi), ("Batch", &fb)],
            76,
            10,
        )
    );

    let rows: Vec<Vec<f64>> = rec
        .samples()
        .iter()
        .map(|s| {
            vec![
                s.t.0,
                s.p_total.0,
                s.cb_power.0,
                s.ups_power.0,
                s.p_cb_target.map_or(f64::NAN, |w| w.0),
                s.mean_freq_interactive,
                s.mean_freq_batch,
                s.ups_soc,
            ]
        })
        .collect();
    let path = write_csv(
        "fig5_uncontrolled.csv",
        "t_s,p_total_w,cb_w,ups_w,cb_budget_w,freq_interactive,freq_batch,ups_soc",
        &rows,
    );
    println!("csv: {}", path.display());

    println!(
        "\ntrips: {}   UPS exhausted/shutdown at: {:?}   avg freq interactive {:.2} batch {:.2}",
        summary.trips, summary.shutdown_at, summary.avg_freq_interactive, summary.avg_freq_batch
    );
    println!("paper: trips in ~150 s; UPS out after the 11th minute; avg 0.64 / 0.71");

    // The paper's qualitative structure, asserted.
    assert!(summary.trips >= 1, "SGCT must trip the breaker");
    let first_trip = rec.samples().iter().position(|s| s.tripped).unwrap();
    assert!(first_trip <= 150, "trips inside the first overload window");
    assert!(summary.shutdown, "UPS exhaustion must shut the rack down");
    let down = summary.shutdown_at.unwrap();
    assert!(
        (8.0..=13.0).contains(&down.as_minutes()),
        "shutdown around the paper's 11th minute, got {down}"
    );
    // Frequencies are zero after the shutdown.
    let last = rec.samples().last().unwrap();
    assert_eq!(last.mean_freq_interactive, 0.0);
    assert_eq!(last.mean_freq_batch, 0.0);
}
