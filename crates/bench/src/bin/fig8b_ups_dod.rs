//! E8 — Fig. 8(b): total discharge of UPS battery capacity (depth of
//! discharge) over the 15-minute sprint, vs batch deadline.
//!
//! Paper values at the 12-minute deadline: SprintCon ≈ 17% DoD vs ≈ 31%
//! for SGCT-V1/V2 and far more for SGCT — the battery-lifetime argument
//! of §VII-D (LFP cycle life: >40 000 cycles at 17% vs <10 000 at 31%;
//! at 10 sprints/day that is "no replacement for 10 years" vs "3-4
//! replacements").

use powersim::battery_life::LfpCycleLife;
use powersim::units::Seconds;
use simkit::{Campaign, PolicyKind, Scenario};
use sprintcon_bench::{banner, write_csv, EngineArgs};

fn main() {
    let args = EngineArgs::parse();
    banner("Fig. 8(b) — UPS depth of discharge vs batch deadline");
    let deadlines = [9.0, 12.0, 15.0];
    let cases: Vec<(f64, PolicyKind)> = deadlines
        .iter()
        .flat_map(|&d| PolicyKind::ALL.iter().map(move |&k| (d, k)))
        .collect();
    let runs = Campaign::new()
        .add_grid(
            deadlines.map(|d| Scenario::paper_default(2019).with_deadline(Seconds::minutes(d))),
            &PolicyKind::ALL,
        )
        .run_with(args.exec);
    let results: Vec<(f64, PolicyKind, simkit::RunSummary)> = cases
        .iter()
        .zip(runs)
        .map(|(&(d, kind), run)| (d, kind, run.output.summary))
        .collect();

    println!(
        "{:>9} {:>10} {:>8} {:>10}",
        "deadline", "policy", "DoD", "ups_Wh"
    );
    let mut rows = Vec::new();
    for (d, kind, s) in &results {
        println!(
            "{:>8}m {:>10} {:>7.1}% {:>10.1}",
            d,
            kind.name(),
            s.dod * 100.0,
            s.ups_energy_wh
        );
        rows.push(vec![
            *d,
            PolicyKind::ALL.iter().position(|k| k == kind).unwrap() as f64,
            s.dod,
            s.ups_energy_wh,
        ]);
    }
    let path = write_csv(
        "fig8b_ups_dod.csv",
        "deadline_min,policy_idx,dod,ups_wh",
        &rows,
    );
    println!("\ncsv: {}", path.display());

    let dod_of = |d: f64, k: PolicyKind| {
        results
            .iter()
            .find(|(dd, kk, _)| *dd == d && *kk == k)
            .unwrap()
            .2
            .dod
    };
    // The Fig. 8(b) ordering at every deadline: SprintCon discharges far
    // less than the ideal baselines, which discharge far less than SGCT.
    for &d in &deadlines {
        let sc = dod_of(d, PolicyKind::SprintCon);
        let v1 = dod_of(d, PolicyKind::SgctV1);
        let v2 = dod_of(d, PolicyKind::SgctV2);
        let sg = dod_of(d, PolicyKind::Sgct);
        assert!(
            sc < v1 * 0.75,
            "deadline {d}m: SprintCon {sc:.2} vs V1 {v1:.2}"
        );
        assert!(
            sc < v2 * 0.75,
            "deadline {d}m: SprintCon {sc:.2} vs V2 {v2:.2}"
        );
        assert!(sg > v1 && sg > v2, "SGCT discharges the most");
    }

    banner("§VII-D battery-lifetime consequence (12-minute deadline)");
    let life = LfpCycleLife::paper_default();
    for kind in [
        PolicyKind::SprintCon,
        PolicyKind::SgctV1,
        PolicyKind::SgctV2,
    ] {
        let dod = dod_of(12.0, kind).max(0.01);
        let cycles = life.cycles_at(dod);
        let years = life.service_years(dod, 10.0);
        let repl = life.replacements_over(dod, 10.0, 10.0);
        println!(
            "{:<10} DoD {:>5.1}% -> {:>9.0} cycles -> {:>4.1} years/pack, {} replacements in 10 y",
            kind.name(),
            dod * 100.0,
            cycles,
            years,
            repl
        );
    }
    let sc_repl = life.replacements_over(dod_of(12.0, PolicyKind::SprintCon).max(0.01), 10.0, 10.0);
    let v1_repl = life.replacements_over(dod_of(12.0, PolicyKind::SgctV1), 10.0, 10.0);
    assert!(
        sc_repl < v1_repl,
        "SprintCon must need fewer battery replacements"
    );
}
