//! Execution-layer contract tests: the parallel campaign engine must be
//! bit-identical to sequential execution (including under active fault
//! injection), and the scoped map behind it must return results in
//! input order. CI runs this suite plus `bench_engine --check` on every
//! push. Per-run telemetry isolation is `tests/telemetry.rs`'s job.

use powersim::faults::FaultPlan;
use powersim::units::Seconds;
use simkit::exec::par_map;
use simkit::{run_digest, Campaign, ExecConfig, PolicyKind, Scenario};

fn short(mut sc: Scenario, secs: f64) -> Scenario {
    sc.duration = Seconds(secs);
    sc
}

/// A seeded campaign that includes a scenario with an *active* fault
/// plan: stochastic monitor dropouts driven by the scenario's seeded
/// RNG. Faults exercise the degraded-mode paths (measurement hold, PID
/// fallback), which must be just as deterministic as the happy path.
fn mixed_campaign() -> Campaign {
    let faulty = Scenario::builder(7)
        .faults(FaultPlan::monitor_dropout(0.3, Seconds(8.0)))
        .build()
        .expect("fault scenario is valid");
    let mut c = Campaign::new();
    c.add(
        short(Scenario::paper_default(1), 25.0),
        PolicyKind::SprintCon,
    );
    c.add(short(Scenario::paper_default(2), 25.0), PolicyKind::Sgct);
    c.add(short(faulty.clone(), 40.0), PolicyKind::SprintCon);
    c.add(short(faulty, 40.0), PolicyKind::Sgct);
    c
}

#[test]
fn parallel_is_bit_identical_to_sequential_including_faults() {
    let c = mixed_campaign();
    let seq = c.run_sequential();
    // 8 workers over 4 runs: more workers than items.
    for jobs in [2usize, 4, 8] {
        let par = c.run_with(ExecConfig::jobs(jobs));
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.label, s.label, "{jobs} jobs: result order changed");
            assert_eq!(
                p.digest(),
                s.digest(),
                "{jobs} jobs: {} diverged from sequential",
                p.label
            );
        }
        // The digest covers samples/events/summary; spot-check
        // raw bit equality on the fault run's trajectory as well so a
        // digest bug cannot mask a divergence here.
        let (pf, sf) = (&par[2].output, &seq[2].output);
        assert_eq!(pf.recorder.samples().len(), sf.recorder.samples().len());
        for (a, b) in pf.recorder.samples().iter().zip(sf.recorder.samples()) {
            assert_eq!(a.p_total.0.to_bits(), b.p_total.0.to_bits());
            assert_eq!(a.ups_power.0.to_bits(), b.ups_power.0.to_bits());
        }
    }
}

#[test]
fn par_map_returns_results_in_input_order() {
    // Earlier items sleep longer, so completion order is roughly the
    // reverse of input order — results must come back in input order
    // regardless.
    let mut params: Vec<u64> = (0..8).collect();
    let out = par_map(&mut params, 4, |&mut i| {
        std::thread::sleep(std::time::Duration::from_millis((8 - i) * 3));
        i * 10
    });
    assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
}

#[test]
fn digest_is_stable_for_identical_runs_and_distinguishes_seeds() {
    let a = simkit::run_policy(
        &short(Scenario::paper_default(11), 20.0),
        PolicyKind::SprintCon,
    );
    let b = simkit::run_policy(
        &short(Scenario::paper_default(11), 20.0),
        PolicyKind::SprintCon,
    );
    let c = simkit::run_policy(
        &short(Scenario::paper_default(12), 20.0),
        PolicyKind::SprintCon,
    );
    assert_eq!(run_digest(&a), run_digest(&b));
    assert_ne!(run_digest(&a), run_digest(&c));
}
