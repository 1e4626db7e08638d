//! A4 — ablation: plain battery vs the hybrid battery + supercapacitor
//! of \[24\] behind SprintCon's UPS discharge commands.
//!
//! SprintCon's UPS power controller emits a fluctuating discharge demand
//! (it covers exactly the gap between the wandering total power and the
//! breaker target). A supercapacitor absorbs the fast component of that
//! demand, cutting the LFP battery's energy throughput and depth of
//! discharge — which §VII-D turns directly into replacement costs.

use powersim::battery_life::LfpCycleLife;
use powersim::supercap::{HybridStorage, Supercap, SupercapSpec};
use powersim::units::{Seconds, Watts};
use powersim::ups::{UpsBattery, UpsSpec};
use simkit::{Campaign, PolicyKind, Scenario};
use sprintcon_bench::{banner, write_csv, EngineArgs};

fn main() {
    let args = EngineArgs::parse();
    banner("Ablation A4 — plain battery vs hybrid battery+supercap storage");
    // Record the UPS discharge demand SprintCon actually produced over
    // the 15-minute run...
    let scenario = Scenario::paper_default(2019);
    let mut runs = Campaign::new()
        .add(scenario, PolicyKind::SprintCon)
        .run_with(args.exec);
    let run = runs.remove(0).output;
    let demand: Vec<f64> = run
        .recorder
        .samples()
        .iter()
        .map(|s| s.ups_power.0)
        .collect();

    // ...and replay it into both storage configurations.
    let mut plain = UpsBattery::full(UpsSpec::paper_default());
    let mut hybrid = HybridStorage::new(
        UpsBattery::full(UpsSpec::paper_default()),
        Supercap::full(SupercapSpec::paper_default()),
    );
    for &d in &demand {
        plain.discharge(Watts(d), Seconds(1.0));
        hybrid.discharge(Watts(d), Seconds(1.0));
    }

    let plain_throughput = plain.total_cell_energy_out.0;
    let hyb_bat = hybrid.battery.total_cell_energy_out.0;
    let hyb_cap = hybrid.cap.total_out.0;
    println!("{:<22} {:>14} {:>10}", "storage", "battery Wh", "max DoD");
    println!(
        "{:<22} {:>14.1} {:>9.1}%",
        "battery only",
        plain_throughput,
        plain.max_dod * 100.0
    );
    println!(
        "{:<22} {:>14.1} {:>9.1}%   (+{:.1} Wh through the supercap)",
        "battery + supercap",
        hyb_bat,
        hybrid.battery.max_dod * 100.0,
        hyb_cap
    );

    let life = LfpCycleLife::paper_default();
    let c_plain = life.cycles_at(plain.max_dod.max(0.01));
    let c_hyb = life.cycles_at(hybrid.battery.max_dod.max(0.01));
    println!(
        "\nLFP cycle life at that DoD: {:.0} (plain) vs {:.0} (hybrid) cycles",
        c_plain, c_hyb
    );

    write_csv(
        "ablation_hybrid_storage.csv",
        "config,battery_wh,max_dod,cycles",
        &[
            vec![0.0, plain_throughput, plain.max_dod, c_plain],
            vec![1.0, hyb_bat, hybrid.battery.max_dod, c_hyb],
        ],
    );

    assert!(
        hyb_bat < plain_throughput,
        "the supercap must offload battery throughput"
    );
    assert!(hybrid.battery.max_dod <= plain.max_dod + 1e-9);
    assert!(c_hyb >= c_plain);
    println!("\nthe fast half of SprintCon's UPS duty belongs on a supercap.");
}
