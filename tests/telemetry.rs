//! Telemetry contract tests. The run digest hashes the plant only
//! (samples, events, summary), so the determinism of what a traced run
//! collects is pinned here, directly:
//!
//! * traced snapshots, minus wall-clock `*.ns` span histograms, are
//!   identical between sequential and 2, 4 and 8 workers, and each run
//!   sees only its own metrics;
//! * per-rack floor snapshots are identical across 1, 2 and 4 workers,
//!   and rack 0 of an ample floor collects what a standalone run does;
//! * an explicit empty grid plan is telemetry-silent;
//! * an untraced run collects nothing, and digests like a traced one.

mod golden;

use golden::{busy_grid_plan, golden_fault_plan, run_traced};
use powersim::datacenter::DatacenterTopology;
use powersim::units::{Seconds, Watts};
use simkit::{
    run_datacenter, run_digest, run_policy, Campaign, DcRunOutput, DcScenario, ExecConfig,
    GridPlan, MetricsSnapshot, PolicyKind, Scenario,
};

/// A snapshot without its wall-clock span histograms, which measure
/// elapsed time and legitimately differ between executions.
fn deterministic_part(m: &MetricsSnapshot) -> MetricsSnapshot {
    let mut m = m.clone();
    m.histograms.retain(|(name, _)| !name.ends_with(".ns"));
    m
}

#[test]
fn traced_snapshots_match_across_workers_and_stay_isolated() {
    let busy = Scenario::builder(13)
        .duration(Seconds(240.0))
        .deadline(Seconds(200.0))
        .faults(golden_fault_plan())
        .grid(busy_grid_plan())
        .build()
        .expect("grid+fault scenario is valid");
    let mut c = Campaign::new();
    c.add_all_policies(busy);
    // Three SprintCon runs of different lengths: one QP solve per
    // control period, so each run's `qp_solve_total` must equal its own
    // period count. A shared or leaked collector would merge them.
    let lengths = [20.0, 40.0, 60.0];
    for secs in lengths {
        let mut sc = Scenario::paper_default(3);
        sc.duration = Seconds(secs);
        c.add(sc, PolicyKind::SprintCon);
    }
    let seq = c.run_with(ExecConfig::sequential().with_telemetry());
    for (r, secs) in seq[4..].iter().zip(lengths) {
        assert_eq!(r.output.metrics.counter("qp_solve_total"), secs as u64);
    }
    for r in &seq[..4] {
        assert!(
            r.output.metrics.counter("grid.curtail_events") == 1,
            "{}: the busy plan's curtailment was not counted",
            r.label
        );
    }
    // The fault plan drove SprintCon's degraded-mode path.
    assert!(seq[0].output.metrics.counter("degraded.measurement_hold") > 0);
    for jobs in [2usize, 4, 8] {
        let par = c.run_with(ExecConfig::jobs(jobs).with_telemetry());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(
                deterministic_part(&p.output.metrics),
                deterministic_part(&s.output.metrics),
                "{jobs} jobs: {} collected different telemetry",
                p.label
            );
        }
    }
}

/// 2 PDUs × 3 racks with scarce headroom, so the market rations.
fn floor_topo() -> DatacenterTopology {
    DatacenterTopology::uniform(
        2,
        3,
        Watts(3.0 * 3200.0 + 800.0),
        Watts(6.0 * 3200.0 + 3.0 * 800.0),
    )
    .expect("topology is valid")
}

fn rack_snapshots(out: &DcRunOutput) -> Vec<MetricsSnapshot> {
    out.racks
        .iter()
        .map(|r| deterministic_part(&r.metrics))
        .collect()
}

#[test]
fn traced_floor_rack_snapshots_match_across_workers() {
    let base = Scenario::builder(7)
        .duration(Seconds(90.0))
        .deadline(Seconds(80.0))
        .faults(golden_fault_plan())
        .build()
        .expect("fault scenario is valid");
    let dc = DcScenario::new(base, floor_topo()).unwrap();
    let seq = run_datacenter(&dc, ExecConfig::sequential().with_telemetry()).unwrap();
    assert!(seq
        .racks
        .iter()
        .all(|r| r.metrics.counter("qp_solve_total") > 0));
    for jobs in [2usize, 4] {
        let par = run_datacenter(&dc, ExecConfig::jobs(jobs).with_telemetry()).unwrap();
        assert_eq!(
            rack_snapshots(&par),
            rack_snapshots(&seq),
            "{jobs} jobs: a rack collected different telemetry"
        );
    }
    // Untraced, the floor keeps no collectors and digests the same.
    let plain = run_datacenter(&dc, ExecConfig::jobs(2)).unwrap();
    assert!(plain.racks.iter().all(|r| r.metrics.is_empty()));
    assert_eq!(plain.digest, seq.digest);

    // Rack 0 of an ample floor collects exactly what a standalone
    // traced run of the template does.
    let mut base = Scenario::paper_default(42);
    base.duration = Seconds(90.0);
    let ample = DcScenario::new(
        base.clone(),
        DatacenterTopology::single_rack(Watts(4000.0)).unwrap(),
    )
    .unwrap();
    let floor = run_datacenter(&ample, ExecConfig::sequential().with_telemetry()).unwrap();
    assert_eq!(
        deterministic_part(&floor.racks[0].metrics),
        deterministic_part(&run_traced(&base, PolicyKind::SprintCon).metrics)
    );
}

#[test]
fn explicit_empty_grid_plan_is_telemetry_silent() {
    for case in golden::CASES {
        let wired = case
            .builder()
            .grid(GridPlan::none())
            .build()
            .expect("golden scenario is valid");
        let a = run_traced(&case.scenario(), case.kind);
        let b = run_traced(&wired, case.kind);
        assert!(!a.metrics.is_empty());
        assert_eq!(
            deterministic_part(&a.metrics),
            deterministic_part(&b.metrics),
            "{}: an inactive grid plan changed the telemetry",
            case.label
        );
    }
}

#[test]
fn untraced_runs_collect_nothing_and_digest_like_traced_runs() {
    for case in golden::CASES {
        let sc = case.scenario();
        let plain = run_policy(&sc, case.kind);
        let traced = run_traced(&sc, case.kind);
        assert!(
            plain.metrics.is_empty(),
            "{}: untraced snapshot",
            case.label
        );
        assert!(
            !traced.metrics.is_empty(),
            "{}: traced snapshot",
            case.label
        );
        assert_eq!(run_digest(&plain), case.digest, "{}", case.label);
        assert_eq!(run_digest(&traced), case.digest, "{}", case.label);
    }
}
