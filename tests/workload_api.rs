//! Contract tests for the typed workload-source API.
//!
//! The redesign swapped `ScenarioBuilder::wiki(..)` for
//! `workload(WorkloadSource)` and added the open-loop request-queueing
//! path. Three things must hold:
//!
//! * the `UtilTrace` path is *bit-identical* to the pre-redesign
//!   behavior — pinned here against a golden digest captured before the
//!   API changed;
//! * the open-loop queueing model conserves requests exactly
//!   (arrivals = completed + dropped + still queued) for any seed,
//!   frequency, and duration;
//! * open-loop runs are bit-identical between sequential and parallel
//!   execution, both in the campaign engine and the datacenter engine.

mod golden;

use powersim::datacenter::DatacenterTopology;
use powersim::units::{NormFreq, Seconds, Watts};
use proptest::prelude::*;
use simkit::engine::TierState;
use simkit::{
    qos_report, run_datacenter, run_digest, run_policy, ArrivalProcess, Campaign, DcScenario,
    DemandModel, ExecConfig, PolicyKind, Scenario, ScenarioError, ServiceModel, WorkloadSource,
};
use workloads::open_loop::WorkloadError;
use workloads::trace::Trace;
use workloads::wiki_trace::WikiTraceConfig;

/// A golden trajectory rebuilt through the *new* `workload(..)` entry
/// point: the typed API must reproduce the pre-redesign digest bit for
/// bit.
#[test]
fn util_trace_via_new_api_reproduces_the_golden_digest() {
    let case = golden::case("sprintcon_seed42_180s");
    let sc = case
        .builder()
        .workload(WorkloadSource::UtilTrace(DemandModel::Wiki(
            WikiTraceConfig::paper_default(),
        )))
        .build()
        .unwrap();
    let got = run_digest(&run_policy(&sc, case.kind));
    assert_eq!(
        got, case.digest,
        "UtilTrace through workload() changed the trajectory: 0x{got:016x}"
    );
}

/// Scenario validation surfaces workload errors instead of panicking.
#[test]
fn invalid_workload_fails_scenario_validation() {
    let mut bad = WorkloadSource::open_loop_wiki();
    match &mut bad {
        WorkloadSource::OpenLoop { service, .. } => service.service_time_s = 0.0,
        _ => unreachable!(),
    }
    let err = Scenario::builder(1)
        .workload(bad)
        .build()
        .expect_err("zero service time must be rejected");
    assert!(
        err.to_string().contains("service time"),
        "unhelpful error: {err}"
    );
}

/// A NaN or infinite sample in an explicit demand trace is a typed
/// validation error naming its index, on the closed and the open loop
/// alike: a run would otherwise report a NaN service ratio.
#[test]
fn non_finite_demand_trace_fails_scenario_validation() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut values = vec![0.5; 60];
        values[10] = bad;
        let demand = DemandModel::Trace(Trace::new(Seconds(1.0), values));
        let open_loop = WorkloadSource::OpenLoop {
            arrivals: ArrivalProcess::new(demand.clone(), 50.0),
            service: ServiceModel::paper_default(),
        };
        for source in [WorkloadSource::UtilTrace(demand), open_loop] {
            let err = Scenario::builder(7)
                .duration(Seconds(60.0))
                .deadline(Seconds(50.0))
                .workload(source)
                .build()
                .expect_err("a non-finite demand sample must be rejected");
            assert!(
                matches!(
                    err,
                    ScenarioError::Workload(WorkloadError::NonFiniteDemand { index: 10, .. })
                ),
                "{err:?}"
            );
            assert!(
                err.to_string().contains("sample 10"),
                "unhelpful error: {err}"
            );
        }
    }
}

fn open_loop_scenario(seed: u64, secs: f64) -> Scenario {
    let mut sc = Scenario::paper_default(seed);
    sc.workload = WorkloadSource::open_loop_wiki();
    sc.duration = Seconds(secs);
    sc
}

/// Open-loop runs populate the request-tail fields of the QoS report
/// and the queue columns of the recording; closed-loop runs don't.
#[test]
fn open_loop_runs_surface_tail_metrics_and_closed_loop_stays_clean() {
    let ol = run_policy(&open_loop_scenario(5, 90.0), PolicyKind::SprintCon);
    let q = qos_report(&ol.recorder, &[0.25, 1.0]);
    assert!(q.request_p99_s.expect("open loop reports p99") > 0.0);
    assert!(q.drop_fraction.is_some());
    assert_eq!(q.per_slo.len(), 2);
    assert!(ol.recorder.samples().iter().all(|s| s.queue.is_some()));

    let cl = run_policy(&Scenario::paper_default(5), PolicyKind::SprintCon);
    let qc = qos_report(&cl.recorder, &[0.25]);
    assert_eq!(qc.request_p99_s, None);
    assert_eq!(qc.drop_fraction, None);
    assert!(cl.recorder.samples().iter().all(|s| s.queue.is_none()));
}

/// Open-loop campaigns are bit-identical between sequential and
/// parallel execution — the queueing state is rack-private, so the
/// sharded schedule cannot perturb it.
#[test]
fn open_loop_campaign_parallel_matches_sequential() {
    let mut c = Campaign::new();
    c.add(open_loop_scenario(1, 60.0), PolicyKind::SprintCon);
    c.add(open_loop_scenario(2, 60.0), PolicyKind::Sgct);
    c.add(open_loop_scenario(3, 45.0), PolicyKind::SgctV2);
    let seq = c.run_sequential();
    for jobs in [2usize, 4, 0] {
        let par = c.run_with(ExecConfig::jobs(jobs));
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(
                p.digest(),
                s.digest(),
                "jobs={jobs}: {} diverged with queueing enabled",
                p.label
            );
        }
    }
}

/// Same contract through the datacenter engine: a floor of racks all
/// serving open-loop traffic shards bit-identically.
#[test]
fn open_loop_datacenter_parallel_matches_sequential() {
    let topo = DatacenterTopology::uniform(
        2,
        2,
        Watts(2.0 * 3200.0 + 800.0),
        Watts(4.0 * 3200.0 + 2.0 * 800.0),
    )
    .unwrap();
    let dc = DcScenario::new(open_loop_scenario(7, 60.0), topo).unwrap();
    let seq = run_datacenter(&dc, ExecConfig::sequential()).unwrap();
    for jobs in [2usize, 4] {
        let par = run_datacenter(&dc, ExecConfig::jobs(jobs)).unwrap();
        assert_eq!(
            par.digest, seq.digest,
            "jobs={jobs}: datacenter digest diverged with queueing enabled"
        );
        golden::assert_same_floor(&par, &seq, &format!("jobs={jobs}"));
    }
    // Every rack served open-loop traffic: its request tail is in the
    // summary the comparison above checks bitwise.
    assert!(seq.racks.iter().all(|r| r.summary.open_loop.is_some()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Request conservation: whatever the seed, run length, and fixed
    /// frequency command, every arrived request is accounted for as
    /// completed, dropped, or still queued at the end of the run.
    #[test]
    fn open_loop_conserves_requests(
        seed in 0u64..10_000,
        secs in 30.0f64..120.0,
        f in 0.2f64..1.0,
        batch in 0.0f64..1.0,
    ) {
        use simkit::policy::tests_support::FixedPolicy;
        let sc = open_loop_scenario(seed, secs);
        let mut sim = sc.build();
        let mut p = FixedPolicy::new(NormFreq(f), batch, Watts(900.0));
        let _rec = sim.run(&mut p, sc.duration);
        let tier = match &sim.tier {
            TierState::OpenLoop(t) => t,
            TierState::Util(_) => unreachable!("scenario is open-loop"),
        };
        let balance = tier.arrived - (tier.completed + tier.dropped + tier.queued());
        prop_assert!(
            balance.abs() <= 1e-6 * tier.arrived.max(1.0),
            "seed {seed}: {} arrived vs {} completed + {} dropped + {} queued",
            tier.arrived, tier.completed, tier.dropped, tier.queued()
        );
    }
}
