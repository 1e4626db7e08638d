//! Grid-responsive scenario layer gates: the curtailment / price /
//! regulation subsystem must be invisible when unused and deterministic,
//! compliant, and fault-tolerant when active.
//!
//! * An **empty plan is bit-transparent**: wiring `GridPlan::none()`
//!   explicitly through the scenario builder reproduces every committed
//!   golden digest — the grid injector draws no RNG on the inactive
//!   path. (That it emits no telemetry either is pinned in
//!   `tests/telemetry.rs`.)
//! * **Active plans are deterministic**: campaigns mixing grid events
//!   with fault injection are bit-identical across worker counts.
//! * **Curtailment is complied with**: under SprintCon, grid-side draw
//!   (breaker power) is at or under the curtailed cap before the
//!   response deadline and stays there, with zero breaker trips.
//! * **Grid events compose with faults**: concurrent fault and grid
//!   plans produce finite, replayable trajectories.

mod golden;

use golden::{busy_grid_plan, golden_fault_plan, run_traced};
use powersim::units::{Seconds, Watts};
use simkit::exec::run_digest;
use simkit::experiment::{run_policy, PolicyKind};
use simkit::{Campaign, ExecConfig, GridPlan, Scenario};

/// The golden cases and digests come from the shared table; the one
/// thing this test adds is the explicitly threaded empty plan, so that
/// builder call stays here on purpose rather than in the table.
#[test]
fn explicit_empty_grid_plan_reproduces_every_golden_digest() {
    for case in golden::CASES {
        let sc = case
            .builder()
            .grid(GridPlan::none())
            .build()
            .expect("golden scenario is valid");
        let got = run_digest(&run_policy(&sc, case.kind));
        assert_eq!(
            got, case.digest,
            "{}: digest 0x{got:016x} != golden 0x{:016x} — \
             an inactive grid plan must be bit-transparent",
            case.label, case.digest
        );
    }
}

#[test]
fn active_grid_campaigns_are_bit_identical_across_workers() {
    let gridded = Scenario::builder(13)
        .duration(Seconds(240.0))
        .deadline(Seconds(200.0))
        .grid(busy_grid_plan())
        .build()
        .expect("grid scenario is valid");
    let both = Scenario::builder(17)
        .duration(Seconds(240.0))
        .deadline(Seconds(200.0))
        .grid(busy_grid_plan())
        .faults(golden_fault_plan())
        .build()
        .expect("grid+fault scenario is valid");
    let mut c = Campaign::new();
    c.add(gridded.clone(), PolicyKind::SprintCon)
        .add(gridded, PolicyKind::Sgct)
        .add(both.clone(), PolicyKind::SprintCon)
        .add(both, PolicyKind::SgctV2);
    let seq = c.run_sequential();
    for jobs in [2usize, 4] {
        let par = c.run_with(ExecConfig::jobs(jobs));
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(
                p.digest(),
                s.digest(),
                "{jobs} jobs: {} diverged under an active grid plan",
                p.label
            );
        }
    }
}

#[test]
fn sprintcon_complies_with_curtailment_before_the_deadline() {
    // Curtail to 3 kW at t=60 with a 30 s response deadline: from t=90
    // until the event clears at t=180, grid-side draw must be at or
    // under the cap, with zero breaker trips anywhere in the run.
    let sc = Scenario::builder(42)
        .duration(Seconds(240.0))
        .deadline(Seconds(200.0))
        .grid(GridPlan::curtailment(
            Seconds(60.0),
            Seconds(120.0),
            Watts(3000.0),
            Seconds(30.0),
        ))
        .build()
        .expect("curtailment scenario is valid");
    let out = run_traced(&sc, PolicyKind::SprintCon);
    let mut post_deadline = 0;
    for s in out.recorder.samples() {
        assert!(!s.tripped, "t={}: breaker tripped during curtailment", s.t);
        // Samples are stamped at period end; the tick starting at `now`
        // lands at t = now + dt.
        if s.t.0 > 90.0 + 1.0 && s.t.0 <= 180.0 {
            post_deadline += 1;
            assert!(
                s.cb_power.0 <= 3000.0 + 1e-6,
                "t={}: grid-side draw {} above the curtailed cap",
                s.t,
                s.cb_power
            );
        }
    }
    assert!(post_deadline > 80, "window under-sampled: {post_deadline}");
    assert_eq!(out.metrics.counter("grid.curtail_events"), 1);
    assert_eq!(
        out.summary.grid_violations, 0,
        "engine-side compliance count must agree"
    );
    // The supervisor spent the event in its grid-curtail mode.
    assert!(
        out.recorder
            .samples()
            .iter()
            .any(|s| s.mode_label == simkit::ModeLabel::GridCurtail),
        "grid-curtail mode never engaged"
    );
}

#[test]
fn grid_events_and_faults_compose_deterministically() {
    let sc = Scenario::builder(23)
        .duration(Seconds(240.0))
        .deadline(Seconds(200.0))
        .grid(busy_grid_plan())
        .faults(golden_fault_plan())
        .build()
        .expect("grid+fault scenario is valid");
    // One traced and one untraced replay: the digest must not see the
    // collector either.
    let a = run_traced(&sc, PolicyKind::SprintCon);
    let b = run_policy(&sc, PolicyKind::SprintCon);
    assert_eq!(run_digest(&a), run_digest(&b), "replay diverged");
    for s in a.recorder.samples() {
        assert!(
            s.p_total.0.is_finite() && s.cb_power.0.is_finite() && s.ups_soc.is_finite(),
            "t={}: non-finite trajectory under grid+faults",
            s.t
        );
    }
    // All three onset counters fired exactly once per scheduled event.
    assert_eq!(a.metrics.counter("grid.curtail_events"), 1);
    assert_eq!(a.metrics.counter("grid.price_events"), 1);
    assert_eq!(a.metrics.counter("grid.reg_events"), 1);
}
