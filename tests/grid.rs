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
//!   response deadline and stays there, with zero breaker trips; the
//!   run's digest is pinned, so the trajectory under the cap cannot
//!   drift unnoticed either.
//! * **A cap below idle power degrades, it does not fail**: the run
//!   completes with the state of charge in [0, 1], the UPS bridges until
//!   it runs dry, and the periods above the cap count as violations.
//! * **Grid events compose with faults**: concurrent fault and grid
//!   plans produce finite, replayable trajectories.
//! * **The latency argument survives a curtailment**: through a flash
//!   crowd overlapping the curtailment, SprintCon's request p99 stays
//!   below SGCT's, with both tails pinned.

mod golden;

use golden::{busy_grid_plan, golden_fault_plan, run_traced};
use powersim::units::{Seconds, Watts};
use simkit::exec::run_digest;
use simkit::experiment::{run_policy, PolicyKind};
use simkit::{qos_report, Campaign, ExecConfig, GridPlan, Scenario, WorkloadSource};

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

/// `run_digest` of the curtailed seed-42 SprintCon run below.
const CURTAILED_RUN_DIGEST: u64 = 0xd7218191151aeb47;

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
    let digest = run_digest(&out);
    assert_eq!(
        digest, CURTAILED_RUN_DIGEST,
        "digest 0x{digest:016x} != pinned 0x{CURTAILED_RUN_DIGEST:016x}: \
         the curtailed trajectory changed"
    );
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

/// The documented degradation of `GridPlan::curtailment` below the
/// rack's idle draw (≈2.9 kW here): a 100 W cap from t = 60 s with a
/// 30 s deadline cannot be met from the grid, and is not rejected,
/// because a short curtailment is survivable. The UPS bridges, and
/// every period once it runs dry breaks the cap.
#[test]
fn curtailment_below_idle_power_degrades_without_panicking() {
    let sc = Scenario::builder(7)
        .duration(Seconds(600.0))
        .deadline(Seconds(600.0))
        .grid(GridPlan::curtailment(
            Seconds(60.0),
            Seconds(600.0),
            Watts(100.0),
            Seconds(30.0),
        ))
        .build()
        .expect("a cap below idle power is a valid scenario");
    let out = run_policy(&sc, PolicyKind::SprintCon);
    let samples = out.recorder.samples();
    assert_eq!(samples.len(), 600, "the run completes");
    for s in samples {
        assert!(
            (0.0..=1.0).contains(&s.ups_soc),
            "t={}: SoC {}",
            s.t,
            s.ups_soc
        );
    }
    assert!(out.summary.grid_violations > 0, "the cap cannot be met");
    let dry = samples
        .iter()
        .position(|s| s.ups_soc <= 1e-9)
        .expect("a 100 W cap drains the UPS");
    assert!(
        samples[dry + 1..].iter().all(|s| s.cb_power.0 > 100.0),
        "once the UPS is dry the grid carries the rack"
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

/// The seed-2019 paper rack serving a flash crowd open loop, offered
/// hot enough (ρ > 1 at demand peaks) that queues form whenever
/// interactive cores are throttled, through the 3 kW curtailment above.
fn curtailed_flash_crowd(secs: f64) -> Scenario {
    let mut workload = WorkloadSource::open_loop_flash_crowd();
    if let WorkloadSource::OpenLoop { arrivals, .. } = &mut workload {
        arrivals.peak_rps_per_core = 60.0;
    }
    Scenario {
        workload,
        duration: Seconds(secs),
        grid: GridPlan::curtailment(Seconds(60.0), Seconds(120.0), Watts(3000.0), Seconds(30.0)),
        ..Scenario::paper_default(2019)
    }
}

/// SprintCon's deadline-aware triage and hot-queue guard keep its
/// request p99 below frequency-throttling SGCT's while both racks ride
/// through the curtailment. Both tails are pinned at 240 s; over 600 s
/// (≈2.15 vs ≈3.28 s) only the separation is.
#[test]
fn sprintcon_beats_sgct_on_request_p99_through_a_curtailed_flash_crowd() {
    for (secs, pinned) in [(240.0, Some(["0.042148", "0.074193"])), (600.0, None)] {
        let sc = curtailed_flash_crowd(secs);
        let [sprintcon, sgct] = [PolicyKind::SprintCon, PolicyKind::Sgct].map(|kind| {
            let q = qos_report(&run_policy(&sc, kind).recorder, &[1.0])
                .expect("a standalone run keeps its samples");
            q.request_p99_s.expect("open loop reports p99")
        });
        assert!(
            sprintcon < sgct,
            "{secs} s: no p99 separation, SprintCon {sprintcon:.6} s vs SGCT {sgct:.6} s"
        );
        if let Some(pinned) = pinned {
            let got = [sprintcon, sgct].map(|p99| format!("{p99:.6}"));
            assert_eq!(got, pinned, "{secs} s: request p99 of SprintCon and SGCT");
        }
    }
}
