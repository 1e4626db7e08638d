//! Digest gates for the batched SoA rack substrate.
//!
//! The substrate rework (role-partitioned SoA slabs, one-pass batched
//! stepping) is allowed to change *how* the plant is computed but not
//! *what* it computes: these tests check the golden run digests of
//! `golden/mod.rs` and property-test the batched pass against the
//! retained scalar reference path ([`RackSim::set_reference_stepping`])
//! over random scenarios, policies, and fault plans.
//!
//! `.cargo/config.toml` relies on this file: the committed `target-cpu`
//! rustflags are only acceptable because these digests prove codegen
//! changes leave every trajectory bit-identical.

mod golden;

use powersim::faults::{FaultKind, FaultPlan, StochasticFault};
use powersim::units::{Seconds, Watts};
use proptest::prelude::*;
use simkit::exec::run_digest;
use simkit::experiment::{run_policy, PolicyKind, RunOutput};
use simkit::metrics::RunSummary;
use simkit::Scenario;

/// The batched SoA substrate reproduces the pre-rework scalar substrate
/// bit for bit on every committed golden trajectory, faults included.
#[test]
fn golden_digests_unchanged() {
    for case in golden::CASES {
        let got = run_digest(&run_policy(&case.scenario(), case.kind));
        assert_eq!(
            got, case.digest,
            "{}: digest 0x{got:016x} != golden 0x{:016x} — \
             the substrate changed a trajectory",
            case.label, case.digest
        );
    }
}

/// Run `kind` over `sc` through either the batched slab pass or the
/// scalar per-core reference path, reproducing the run body of
/// `run_policy`.
fn digest_with_stepping(sc: &Scenario, kind: PolicyKind, reference: bool) -> u64 {
    let mut sim = sc.build();
    sim.set_reference_stepping(reference);
    let mut policy = kind
        .build_for(&sc.plant(), &Default::default())
        .expect("the scenario's plant builds every policy");
    let recorder = sim.run(policy.as_mut(), sc.duration);
    let summary = RunSummary::from_run(kind.name(), &sim, &recorder);
    run_digest(&RunOutput {
        recorder,
        summary,
        metrics: Default::default(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary scenarios, policies, and fault plans, the batched
    /// SoA power pass and the scalar per-core reference path produce
    /// bit-identical run digests (samples, events, summary).
    #[test]
    fn batched_pass_matches_scalar_reference(
        seed in 0u64..10_000,
        dur in 60.0f64..150.0,
        kind_idx in 0usize..4,
        fault_idx in 0usize..5,
        t0 in 5.0f64..50.0,
        d0 in 5.0f64..40.0,
        t1 in 55.0f64..110.0,
        d1 in 5.0f64..40.0,
        server in 0usize..16,
        tau in 0.5f64..8.0,
        spike in 50.0f64..600.0,
        rate in 0.001f64..0.05,
    ) {
        let plan = match fault_idx {
            0 => FaultPlan::none(),
            1 => FaultPlan::none()
                .with_event(Seconds(t0), Seconds(d0), FaultKind::MonitorStuckAt)
                .with_event(
                    Seconds(t1),
                    Seconds(d1),
                    FaultKind::MonitorSpike { magnitude: Watts(spike) },
                ),
            2 => FaultPlan::none()
                .with_event(
                    Seconds(t0),
                    Seconds(d0),
                    FaultKind::ActuatorLag { tau: Seconds(tau) },
                )
                .with_event(
                    Seconds(t1),
                    Seconds(d1),
                    FaultKind::ActuatorQuantize { step: 0.25 },
                ),
            3 => FaultPlan::none()
                .with_event(Seconds(t0), Seconds(d0), FaultKind::ServerCrash { server })
                .with_event(
                    Seconds(t1),
                    Seconds(d1),
                    FaultKind::UpsCurrentLimit { max_discharge: Watts(800.0) },
                ),
            _ => FaultPlan::none().with_stochastic(StochasticFault {
                kind: FaultKind::MonitorDropout,
                start_rate: rate,
                mean_duration: Seconds(5.0),
            }),
        };
        let sc = Scenario::builder(seed)
            .duration(Seconds(dur))
            .deadline(Seconds(dur * 0.8))
            .faults(plan)
            .build()
            .unwrap();
        let kind = PolicyKind::ALL[kind_idx];
        let batched = digest_with_stepping(&sc, kind, false);
        let reference = digest_with_stepping(&sc, kind, true);
        prop_assert!(
            batched == reference,
            "seed {seed} {kind:?} faults#{fault_idx}: batched digest \
             0x{batched:016x} != reference 0x{reference:016x}"
        );
    }
}
