//! The paper's evaluation (§VII), checked end to end: the paper
//! campaign (`simkit::paper`) runs once per test binary, and each
//! figure's test checks that figure's rows of the claims table, which
//! `paper_figures` prints. The remaining tests run other scenarios: a
//! scaled and a derated rack, two seeds, and a short V1 run for energy
//! conservation.

use powersim::breaker::BreakerSpec;
use powersim::units::{Seconds, WattHours, Watts};
use powersim::ups::UpsSpec;
use simkit::paper::{Claim, Figure, PaperCampaign};
use simkit::{run_policy, ExecConfig, PolicyKind, Scenario};
use std::sync::OnceLock;

fn claims() -> &'static [Claim] {
    static CLAIMS: OnceLock<Vec<Claim>> = OnceLock::new();
    CLAIMS.get_or_init(|| PaperCampaign::run(ExecConfig::sequential()).claims())
}

/// Every checked row of `figure` holds, and there is at least one.
fn assert_claims_hold(figure: Figure) {
    let rows: Vec<&Claim> = claims().iter().filter(|c| c.figure == figure).collect();
    assert!(
        rows.iter().any(|c| c.holds.is_some()),
        "{figure:?} has no checked claim"
    );
    let failed: Vec<&&Claim> = rows.iter().filter(|c| c.failed()).collect();
    assert!(failed.is_empty(), "{figure:?}: failed claims {failed:#?}");
}

#[test]
fn fig5_uncontrolled_sprinting_trips_and_dies() {
    assert_claims_hold(Figure::Fig5);
}

#[test]
fn fig6_sprintcon_rides_its_budget_and_nothing_trips() {
    assert_claims_hold(Figure::Fig6);
}

#[test]
fn fig7_frequency_orderings_and_phase_step() {
    assert_claims_hold(Figure::Fig7);
}

#[test]
fn fig8a_sprintcon_uses_most_of_each_deadline() {
    assert_claims_hold(Figure::Fig8a);
}

#[test]
fn fig8b_sprintcon_discharges_least() {
    assert_claims_hold(Figure::Fig8b);
}

/// The headline on two plants other than the paper rack, each policy
/// built by `run_policy` from the scenario alone:
/// * a scaled rack (8 servers, proportionally scaled breaker and UPS),
///   full 15 minutes: SprintCon meets every deadline on less stored
///   energy than either ideal baseline;
/// * the paper rack behind a breaker derated to 80% (2,560 W), 300 s.
///
/// On both, SprintCon and the ideal baselines never trip (§VI-B), and
/// uncontrolled SGCT does (Fig. 5).
#[test]
fn scaled_rack_headline_ordering() {
    let breaker =
        |rated| BreakerSpec::calibrated(Watts(rated), 1.25, Seconds(150.0), Seconds(300.0));
    let scaled = Scenario::builder(2019)
        .num_servers(8)
        .breaker(breaker(1600.0))
        .ups(UpsSpec {
            capacity: WattHours(200.0),
            max_discharge: Watts(2400.0),
            ..UpsSpec::paper_default()
        })
        .build()
        .expect("scaled rack is a valid scenario");
    let derated = Scenario::builder(7)
        .duration(Seconds(300.0))
        .deadline(Seconds(240.0))
        .breaker(breaker(2560.0))
        .build()
        .expect("derated rack is a valid scenario");
    for (rack, scenario) in [("scaled", &scaled), ("derated", &derated)] {
        let [sprintcon, sgct, v1, v2] = PolicyKind::ALL.map(|k| run_policy(scenario, k).summary);
        assert_eq!(sprintcon.trips, 0, "{rack}: SprintCon tripped");
        assert_eq!(
            (v1.trips, v2.trips),
            (0, 0),
            "{rack}: an ideal baseline tripped"
        );
        assert!(sgct.trips > 0, "{rack}: uncontrolled SGCT did not trip");
        assert!(
            (sprintcon.avg_freq_interactive - 1.0).abs() < 1e-9,
            "{rack}"
        );
        if rack == "scaled" {
            assert_eq!(sprintcon.deadlines_met, sprintcon.deadlines_total);
            assert!(
                sprintcon.max_dod < v1.max_dod.min(v2.max_dod) && sprintcon.dod < 0.5,
                "SprintCon max DoD {} vs V1 {} / V2 {}",
                sprintcon.max_dod,
                v1.max_dod,
                v2.max_dod
            );
        }
    }
}

/// Determinism across the whole stack: identical seeds give identical
/// runs, different seeds differ.
#[test]
fn end_to_end_determinism() {
    let mut scenario = Scenario::paper_default(5);
    scenario.duration = Seconds(90.0);
    let run_a = run_policy(&scenario, PolicyKind::SgctV1);
    let run_b = run_policy(&scenario, PolicyKind::SgctV1);
    let (rec_a, sum_a) = (&run_a.recorder, &run_a.summary);
    let (rec_b, sum_b) = (&run_b.recorder, &run_b.summary);
    assert_eq!(rec_a.len(), rec_b.len());
    for (a, b) in rec_a.samples().iter().zip(rec_b.samples()) {
        assert_eq!(a.p_total, b.p_total);
        assert_eq!(a.cb_power, b.cb_power);
    }
    assert_eq!(sum_a.ups_energy_wh, sum_b.ups_energy_wh);
    let mut other = scenario.clone();
    other.seed = 6;
    let rec_c = run_policy(&other, PolicyKind::SgctV1).recorder;
    assert!(rec_a
        .samples()
        .iter()
        .zip(rec_c.samples())
        .any(|(a, c)| a.p_total != c.p_total));
}

/// Energy conservation across the feed for a whole run: energy delivered
/// to the rack equals CB energy plus UPS energy; UPS energy matches the
/// battery's internal accounting (within discharge efficiency).
#[test]
fn run_level_energy_conservation() {
    let mut scenario = Scenario::paper_default(11);
    scenario.duration = Seconds::minutes(3.0);
    let mut sim = scenario.build();
    let mut policy = PolicyKind::SgctV1
        .build_for(&scenario.plant(), &Default::default())
        .expect("the paper knobs drive the paper plant");
    let rec = sim.run(policy.as_mut(), scenario.duration);
    let dt = Seconds(1.0);
    let served: f64 = rec
        .samples()
        .iter()
        .map(|s| (s.cb_power + s.ups_power).over(dt).0)
        .collect::<Vec<f64>>()
        .iter()
        .sum();
    let demanded: f64 = rec
        .samples()
        .iter()
        .map(|s| s.p_total.over(dt).0 - s.shortfall.over(dt).0)
        .sum();
    assert!(
        (served - demanded).abs() < 1.0,
        "served {served} vs demanded {demanded}"
    );
    let cells = sim.feed.ups.total_cell_energy_out.0;
    let delivered = rec.ups_energy_wh();
    assert!((delivered - cells * sim.feed.ups.spec.discharge_efficiency).abs() < 0.5);
}
