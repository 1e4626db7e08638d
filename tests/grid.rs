//! Grid-responsive scenario layer gates: the curtailment / price /
//! regulation subsystem must be invisible when unused and deterministic,
//! compliant, and fault-tolerant when active.
//!
//! * An **empty plan is bit-transparent**: wiring `GridPlan::none()`
//!   explicitly through the scenario builder reproduces every committed
//!   golden digest — the grid injector draws no RNG and perturbs no
//!   telemetry on the inactive path.
//! * **Active plans are deterministic**: campaigns mixing grid events
//!   with fault injection are bit-identical across worker counts.
//! * **Curtailment is complied with**: under SprintCon, grid-side draw
//!   (breaker power) is at or under the curtailed cap before the
//!   response deadline and stays there, with zero breaker trips.
//! * **Grid events compose with faults**: concurrent fault and grid
//!   plans produce finite, replayable trajectories.

use powersim::faults::{FaultKind, FaultPlan, StochasticFault};
use powersim::units::{Seconds, Watts};
use simkit::exec::run_digest;
use simkit::experiment::{run_policy, PolicyKind};
use simkit::{Campaign, ExecConfig, GridEventKind, GridPlan, Scenario};

/// The committed golden digests of `tests/soa_substrate.rs`. Duplicated
/// by value on purpose: this file proves an *explicitly wired* empty
/// grid plan reproduces them, so the constants must not be shared with
/// the file that defines them.
const GOLDEN_DIGESTS: [(&str, u64); 5] = [
    ("sprintcon_seed42_180s", 0xdc54fcfe56a09238),
    ("sgctv2_seed7_180s", 0x156f96be14939a36),
    ("sgct_seed3_120s", 0x7df9c1e370ccfc0c),
    ("sprintcon_faults_seed11_240s", 0xd2977a8f6598214e),
    ("sgctv1_faults_seed5_240s", 0x7a8855ae0bac74db),
];

fn golden_fault_plan() -> FaultPlan {
    FaultPlan::none()
        .with_event(Seconds(40.0), Seconds(30.0), FaultKind::MonitorStuckAt)
        .with_event(
            Seconds(90.0),
            Seconds(45.0),
            FaultKind::ActuatorLag { tau: Seconds(4.0) },
        )
        .with_event(
            Seconds(150.0),
            Seconds(30.0),
            FaultKind::ServerCrash { server: 3 },
        )
        .with_stochastic(StochasticFault {
            kind: FaultKind::MonitorDropout,
            start_rate: 40.0 / 3600.0,
            mean_duration: Seconds(5.0),
        })
}

fn golden_case(label: &str) -> (Scenario, PolicyKind) {
    let (seed, secs, deadline, faults, kind) = match label {
        "sprintcon_seed42_180s" => (42, 180.0, 150.0, false, PolicyKind::SprintCon),
        "sgctv2_seed7_180s" => (7, 180.0, 150.0, false, PolicyKind::SgctV2),
        "sgct_seed3_120s" => (3, 120.0, 100.0, false, PolicyKind::Sgct),
        "sprintcon_faults_seed11_240s" => (11, 240.0, 200.0, true, PolicyKind::SprintCon),
        "sgctv1_faults_seed5_240s" => (5, 240.0, 200.0, true, PolicyKind::SgctV1),
        other => panic!("unknown golden case {other}"),
    };
    let mut b = Scenario::builder(seed)
        .duration(Seconds(secs))
        .deadline(Seconds(deadline))
        // The point of this file: the empty plan is threaded explicitly.
        .grid(GridPlan::none());
    if faults {
        b = b.faults(golden_fault_plan());
    }
    (b.build().expect("golden scenario is valid"), kind)
}

/// A plan exercising all three event classes plus a stochastic stream.
fn busy_grid_plan() -> GridPlan {
    GridPlan::curtailment(Seconds(60.0), Seconds(120.0), Watts(3000.0), Seconds(30.0))
        .with_event(
            Seconds(20.0),
            Seconds(40.0),
            GridEventKind::PriceSpike { multiplier: 3.0 },
        )
        .with_event(
            Seconds(200.0),
            Seconds(30.0),
            GridEventKind::FreqRegulation {
                delta_w: Watts(-150.0),
                duration_s: Seconds(20.0),
            },
        )
}

#[test]
fn explicit_empty_grid_plan_reproduces_every_golden_digest() {
    for (label, want) in GOLDEN_DIGESTS {
        let (sc, kind) = golden_case(label);
        let got = run_digest(&run_policy(&sc, kind));
        assert_eq!(
            got, want,
            "{label}: digest 0x{got:016x} != golden 0x{want:016x} — \
             an inactive grid plan must be bit-transparent"
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
    let out = run_policy(&sc, PolicyKind::SprintCon);
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
        out.metrics.counter("grid.compliance_violations"),
        0,
        "engine-side compliance counter must agree"
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
    let a = run_policy(&sc, PolicyKind::SprintCon);
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
