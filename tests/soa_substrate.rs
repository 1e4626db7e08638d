//! Digest and tolerance gates for the batched SoA rack substrate.
//!
//! The substrate rework (role-partitioned SoA slabs, one-pass batched
//! stepping, multirate electrical substepping) is allowed to change *how*
//! the plant is computed but not *what* it computes:
//!
//! * Where the batched path claims exactness, these tests check the
//!   golden run digests of `golden/mod.rs` and property-test the batched pass against the retained scalar reference
//!   path ([`RackSim::set_reference_stepping`]) over random scenarios,
//!   policies, and fault plans.
//! * Where multirate substepping approximates (electrical transients),
//!   trajectories are gated by tolerance instead: quiescent runs must stay
//!   bit-identical, overload runs must agree on trip timing and energy
//!   accounting.
//!
//! `.cargo/config.toml` relies on this file: the committed `target-cpu`
//! rustflags are only acceptable because these digests prove codegen
//! changes leave every trajectory bit-identical.

mod golden;

use powersim::faults::{FaultKind, FaultPlan, StochasticFault};
use powersim::units::{NormFreq, Seconds, Watts};
use proptest::prelude::*;
use simkit::engine::Substepping;
use simkit::exec::run_digest;
use simkit::experiment::{run_policy, PolicyKind, RunOutput};
use simkit::metrics::RunSummary;
use simkit::policy::tests_support::FixedPolicy;
use simkit::{with_collector, Collector, NullSink, Scenario};
use std::sync::Arc;

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
    let mut policy = kind.build();
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

/// Quiescent multirate runs (never above rated, never tripping) take the
/// single exact feed step every period, so whole trajectories stay
/// bit-identical to [`Substepping::Exact`] through the scenario builder.
#[test]
fn multirate_quiescent_is_bit_identical() {
    let exact = Scenario::builder(42)
        .duration(Seconds(120.0))
        .deadline(Seconds(100.0))
        .build()
        .unwrap();
    let multi = Scenario::builder(42)
        .duration(Seconds(120.0))
        .deadline(Seconds(100.0))
        .substepping(Substepping::Multirate { substeps: 8 })
        .build()
        .unwrap();
    // Modest frequencies keep total power well below the 3200 W rating,
    // so the transient trigger must never arm.
    let run = |sc: &Scenario| {
        let mut sim = sc.build();
        let mut p = FixedPolicy::new(NormFreq(0.4), 0.2, Watts::ZERO);
        sim.run(&mut p, sc.duration)
    };
    let ra = run(&exact);
    let rb = run(&multi);
    let peak = ra.samples().iter().fold(0.0f64, |m, s| m.max(s.p_total.0));
    assert!(
        peak < 3200.0,
        "run not quiescent: peak {peak} W above rated"
    );
    assert_eq!(ra.samples().len(), rb.samples().len());
    for (a, b) in ra.samples().iter().zip(rb.samples()) {
        assert_eq!(a.p_total.0.to_bits(), b.p_total.0.to_bits(), "t={}", a.t);
        assert_eq!(a.cb_power.0.to_bits(), b.cb_power.0.to_bits(), "t={}", a.t);
        assert_eq!(a.ups_soc.to_bits(), b.ups_soc.to_bits(), "t={}", a.t);
    }
}

/// Overload tolerance gate: under a sustained ~1.5x breaker overload the
/// multirate path resolves the transient with finer substeps, so it may
/// deviate from the exact path — but only within tolerance. The plant
/// side stays bit-identical until the first trip, the trip lands within
/// a few control periods of the reference, and the UPS energy accounting
/// agrees at the end of the run.
#[test]
fn multirate_overload_within_tolerance() {
    let duration = Seconds(240.0);
    let exact_sc = Scenario::builder(9)
        .duration(duration)
        .deadline(Seconds(200.0))
        .build()
        .unwrap();
    let multi_sc = Scenario::builder(9)
        .duration(duration)
        .deadline(Seconds(200.0))
        .substepping(Substepping::Multirate { substeps: 8 })
        .build()
        .unwrap();
    // Full rack at peak frequency and full batch load draws well above
    // the 3200 W breaker rating, so the transient trigger arms early and
    // the breaker trips mid-run.
    let overload = || FixedPolicy::new(NormFreq::PEAK, 1.0, Watts(600.0));

    let ra = {
        let mut sim = exact_sc.build();
        let mut p = overload();
        sim.run(&mut p, duration)
    };
    let collector = Arc::new(Collector::new(Box::new(NullSink)));
    let rb = with_collector(Arc::clone(&collector), || {
        let mut sim = multi_sc.build();
        let mut p = overload();
        sim.run(&mut p, duration)
    });

    // The fast path must actually have engaged.
    let fast_periods = collector
        .snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "multirate.fast_periods")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(fast_periods > 0, "multirate trigger never armed");

    let trip_at = |rec: &simkit::Recorder| {
        rec.samples()
            .iter()
            .find(|s| s.tripped)
            .map(|s| s.t.0)
            .expect("sustained overload must trip the breaker")
    };
    let (ta, tb) = (trip_at(&ra), trip_at(&rb));
    assert!(
        (ta - tb).abs() <= 5.0,
        "trip times diverged: exact {ta}s vs multirate {tb}s"
    );

    // Up to the earlier trip, the plant (servers + fan) is untouched by
    // the substepping scheme: bit-identical power trajectories.
    let pre_trip = ta.min(tb) as usize - 1;
    for (a, b) in ra.samples()[..pre_trip]
        .iter()
        .zip(&rb.samples()[..pre_trip])
    {
        assert_eq!(
            a.p_total.0.to_bits(),
            b.p_total.0.to_bits(),
            "plant diverged pre-trip at t={}",
            a.t
        );
    }

    // Energy accounting agrees at the end of the run: the UPS state of
    // charge (a time integral over the whole trajectory) stays close.
    let soc = |rec: &simkit::Recorder| rec.samples().last().unwrap().ups_soc;
    let (sa, sb) = (soc(&ra), soc(&rb));
    assert!(
        (sa - sb).abs() < 0.02,
        "final UPS SoC diverged: exact {sa} vs multirate {sb}"
    );
}
