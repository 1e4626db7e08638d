//! The golden run table: every pinned whole-run digest, in one place.
//!
//! Five rack cases pin `run_digest` of a standalone run, and one floor
//! case pins `DcRunOutput::digest` of the 1000-rack floor that
//! `bench_datacenter` runs by default (`BENCH_datacenter.json` carries
//! the same value and `scripts/bench_regression.py` diffs it in CI).
//! Any change to a value here means a trajectory changed: that is a
//! model change, not a refactor, and needs its own justification.
//!
//! The one exception so far: all six digests were re-pinned, with no
//! trajectory change, when the digest stopped hashing the telemetry
//! snapshot and started hashing `RunSummary::grid_violations`. Every
//! sample, event and earlier summary field hashed the same before and
//! after.
//!
//! Shared by `soa_substrate.rs`, `grid.rs`, `workload_api.rs`,
//! `datacenter.rs`, `faults.rs` and `telemetry.rs`, with the fixtures,
//! the traced runner and the floor comparison they have in common; each
//! uses a subset.
#![allow(dead_code)]

use powersim::datacenter::DatacenterTopology;
use powersim::faults::{FaultKind, FaultPlan, StochasticFault};
use powersim::units::{Seconds, Watts};
use simkit::{
    Campaign, DcRunOutput, DcScenario, ExecConfig, GridEventKind, GridPlan, PolicyKind, RunOutput,
    RunSummary, Scenario, ScenarioBuilder, TailSummary,
};

/// `run_policy` with telemetry on, for tests that read counters: an
/// untraced run collects none.
pub fn run_traced(scenario: &Scenario, kind: PolicyKind) -> RunOutput {
    Campaign::new()
        .add(scenario.clone(), kind)
        .run_with(ExecConfig::sequential().with_telemetry())
        .remove(0)
        .output
}

/// One pinned rack run: the scenario's knobs, the policy, the digest.
#[derive(Debug, Clone, Copy)]
pub struct GoldenCase {
    pub label: &'static str,
    pub seed: u64,
    pub duration_s: f64,
    pub deadline_s: f64,
    /// Run under [`golden_fault_plan`] (otherwise no faults).
    pub faults: bool,
    pub kind: PolicyKind,
    pub digest: u64,
}

/// The five golden rack runs. The SGCT trajectories date from the
/// pre-rework (scalar, AoS) substrate and have survived every refactor
/// since. The SprintCon trajectories were re-captured when the
/// structured QP solver gained cross-period warm starts: carrying the
/// coupling root between control periods moves MPC outputs at the ulp
/// level while the KKT certificate (checked by
/// `control/tests/properties.rs`) holds.
pub const CASES: [GoldenCase; 5] = [
    GoldenCase {
        label: "sprintcon_seed42_180s",
        seed: 42,
        duration_s: 180.0,
        deadline_s: 150.0,
        faults: false,
        kind: PolicyKind::SprintCon,
        digest: 0x4d976f5067a49bb0,
    },
    GoldenCase {
        label: "sgctv2_seed7_180s",
        seed: 7,
        duration_s: 180.0,
        deadline_s: 150.0,
        faults: false,
        kind: PolicyKind::SgctV2,
        digest: 0xdc31a300b37585c7,
    },
    GoldenCase {
        label: "sgct_seed3_120s",
        seed: 3,
        duration_s: 120.0,
        deadline_s: 100.0,
        faults: false,
        kind: PolicyKind::Sgct,
        digest: 0xe731409c1b5c6f7e,
    },
    GoldenCase {
        label: "sprintcon_faults_seed11_240s",
        seed: 11,
        duration_s: 240.0,
        deadline_s: 200.0,
        faults: true,
        kind: PolicyKind::SprintCon,
        digest: 0xd63085948b7d0ccb,
    },
    GoldenCase {
        label: "sgctv1_faults_seed5_240s",
        seed: 5,
        duration_s: 240.0,
        deadline_s: 200.0,
        faults: true,
        kind: PolicyKind::SgctV1,
        digest: 0xb508b33626e3f9b2,
    },
];

impl GoldenCase {
    /// The case's scenario builder, before `build()`, so a caller can
    /// thread more through it (an explicit empty grid plan, a workload
    /// source) and still expect the pinned digest.
    pub fn builder(&self) -> ScenarioBuilder {
        let b = Scenario::builder(self.seed)
            .duration(Seconds(self.duration_s))
            .deadline(Seconds(self.deadline_s));
        if self.faults {
            b.faults(golden_fault_plan())
        } else {
            b
        }
    }

    pub fn scenario(&self) -> Scenario {
        self.builder().build().expect("golden scenario is valid")
    }
}

/// The golden case called `label`.
pub fn case(label: &str) -> GoldenCase {
    *CASES
        .iter()
        .find(|c| c.label == label)
        .unwrap_or_else(|| panic!("unknown golden case {label}"))
}

/// The fault plan the fault-injected golden digests were captured with.
pub fn golden_fault_plan() -> FaultPlan {
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

/// A grid plan exercising all three event classes: a 3 kW curtailment
/// with a 30 s deadline, a price spike and a regulation pulse.
pub fn busy_grid_plan() -> GridPlan {
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

/// The pinned floor digest: [`floor`] run to completion, any worker
/// count.
pub const FLOOR_DIGEST: u64 = 0x75871697e56e9684;

/// `bench_datacenter`'s default floor: 1000 racks in 20 PDUs of 50 under
/// the §VI-A template at seed 2019, 60 simulated seconds. Per-PDU
/// headroom covers a fifth of the members' 800 W overload swings, and
/// the feeder headroom half the PDUs' headroom, so both market levels
/// ration.
pub fn floor() -> DcScenario {
    let (pdus, per_pdu) = (20, 50);
    let swing = per_pdu as f64 * 800.0 / 5.0;
    let topo = DatacenterTopology::uniform(
        pdus,
        per_pdu,
        Watts(per_pdu as f64 * 3200.0 + swing),
        Watts((pdus * per_pdu) as f64 * 3200.0 + pdus as f64 * swing / 2.0),
    )
    .expect("floor topology is valid");
    let mut base = Scenario::paper_default(2019);
    base.duration = Seconds(60.0);
    DcScenario::new(base, topo).expect("floor scenario is valid")
}

/// Two floor runs agree rack by rack and round by round: every rack
/// digest, every `RunSummary` field bitwise (so a digest bug cannot hide
/// a divergence; floor racks keep no samples to compare), and every
/// market grant bitwise.
pub fn assert_same_floor(a: &DcRunOutput, b: &DcRunOutput, what: &str) {
    assert_eq!(a.racks.len(), b.racks.len(), "{what}: rack count");
    for (r, (x, y)) in a.racks.iter().zip(&b.racks).enumerate() {
        assert_eq!(
            a.rack_digests[r], b.rack_digests[r],
            "{what}: rack {r} digest"
        );
        assert_eq!(x.summary.policy, y.summary.policy, "{what}: rack {r}");
        assert_eq!(
            summary_bits(&x.summary),
            summary_bits(&y.summary),
            "{what}: rack {r} summary"
        );
    }
    assert_eq!(a.rounds.len(), b.rounds.len(), "{what}: market rounds");
    for (x, y) in a.rounds.iter().zip(&b.rounds) {
        let bits = |g: &[Watts]| g.iter().map(|w| w.0.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&x.grants),
            bits(&y.grants),
            "{what}: epoch {} grants",
            x.epoch
        );
    }
}

/// Every numeric `RunSummary` field by name, floats as bit patterns.
/// The destructuring names every field, so a new one does not compile
/// until it is listed here.
pub fn summary_bits(s: &RunSummary) -> Vec<(&'static str, Option<u64>)> {
    let RunSummary {
        policy: _,
        avg_freq_interactive,
        avg_freq_batch,
        trips,
        shutdown,
        shutdown_at,
        ups_energy_wh,
        dod,
        max_dod,
        deadlines_met,
        deadlines_total,
        normalized_time_use,
        service_ratio,
        cb_energy_wh,
        grid_violations,
        open_loop,
    } = s;
    let bits = |v: &f64| Some(v.to_bits());
    let mut fields = vec![
        ("avg_freq_interactive", bits(avg_freq_interactive)),
        ("avg_freq_batch", bits(avg_freq_batch)),
        ("trips", Some(*trips as u64)),
        ("shutdown", Some(*shutdown as u64)),
        ("shutdown_at", shutdown_at.map(|t| t.0.to_bits())),
        ("ups_energy_wh", bits(ups_energy_wh)),
        ("dod", bits(dod)),
        ("max_dod", bits(max_dod)),
        ("deadlines_met", Some(*deadlines_met as u64)),
        ("deadlines_total", Some(*deadlines_total as u64)),
        ("normalized_time_use", bits(normalized_time_use)),
        ("service_ratio", bits(service_ratio)),
        ("cb_energy_wh", bits(cb_energy_wh)),
        ("grid_violations", Some(*grid_violations)),
    ];
    match open_loop {
        Some(TailSummary {
            p50_s,
            p95_s,
            p99_s,
            max_s,
            arrived,
            completed,
            dropped,
            drop_fraction,
        }) => fields.extend([
            ("open_loop.p50_s", bits(p50_s)),
            ("open_loop.p95_s", bits(p95_s)),
            ("open_loop.p99_s", bits(p99_s)),
            ("open_loop.max_s", bits(max_s)),
            ("open_loop.arrived", bits(arrived)),
            ("open_loop.completed", bits(completed)),
            ("open_loop.dropped", bits(dropped)),
            ("open_loop.drop_fraction", bits(drop_fraction)),
        ]),
        None => fields.push(("open_loop", None)),
    }
    fields
}
