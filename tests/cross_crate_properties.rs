//! Property-based tests on cross-crate invariants (proptest).

use powersim::breaker::{BreakerSpec, CircuitBreaker};
use powersim::topology::PowerFeed;
use powersim::units::{Seconds, Utilization, WattHours, Watts};
use powersim::ups::{UpsBattery, UpsSpec};
use proptest::prelude::*;
use sprint_control::mpc::{MpcConfig, MpcController};
use workloads::batch::BatchJob;
use workloads::progress_model::ProgressModel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The feed conserves power: served = cb + ups, and served plus
    /// shortfall equals demand, for any demand/target sequence.
    #[test]
    fn feed_conserves_power(
        demands in proptest::collection::vec(0.0f64..6000.0, 1..120),
        targets in proptest::collection::vec(0.0f64..3000.0, 1..120),
    ) {
        let mut feed = PowerFeed::new(
            CircuitBreaker::new(BreakerSpec::paper_default()),
            UpsBattery::full(UpsSpec::paper_default()),
        );
        for (i, &d) in demands.iter().enumerate() {
            let t = targets[i % targets.len()];
            let out = feed.step(Watts(d), Watts(t), Seconds(1.0));
            prop_assert!((out.served.0 - (out.cb_power.0 + out.ups_power.0)).abs() < 1e-9);
            prop_assert!((out.served.0 + out.shortfall.0 - d).abs() < 1e-9);
            prop_assert!(out.ups_power.0 >= 0.0 && out.cb_power.0 >= 0.0);
        }
    }

    /// Battery accounting: SoC plus everything drawn from the cells is
    /// exactly the initial capacity, whatever the discharge pattern.
    #[test]
    fn battery_energy_balance(
        powers in proptest::collection::vec(0.0f64..6000.0, 1..200),
        dts in proptest::collection::vec(0.5f64..5.0, 1..200),
    ) {
        let mut b = UpsBattery::full(UpsSpec::paper_default());
        for (i, &p) in powers.iter().enumerate() {
            b.discharge(Watts(p), Seconds(dts[i % dts.len()]));
        }
        let total = b.soc() + b.total_cell_energy_out;
        prop_assert!((total.0 - 400.0).abs() < 1e-6, "total={total:?}");
        prop_assert!(b.depth_of_discharge() >= 0.0 && b.depth_of_discharge() <= 1.0);
        prop_assert!(b.max_dod >= b.depth_of_discharge() - 1e-12);
    }

    /// The breaker never trips while load stays at or below rated, and
    /// its trip margin is always within [0, 1].
    #[test]
    fn breaker_safe_at_or_below_rated(
        loads in proptest::collection::vec(0.0f64..3200.0, 1..500),
    ) {
        let mut cb = CircuitBreaker::new(BreakerSpec::paper_default());
        for &l in &loads {
            let out = cb.step(Watts(l), Seconds(1.0));
            prop_assert!(!out.tripped);
            prop_assert!(out.delivered == Watts(l));
            let m = cb.trip_margin();
            prop_assert!((0.0..=1.0).contains(&m));
        }
        prop_assert_eq!(cb.trip_count, 0);
    }

    /// MPC commands always respect the DVFS box, for arbitrary feedback,
    /// targets, weights and states.
    #[test]
    fn mpc_commands_always_in_bounds(
        p_fb in 0.0f64..5000.0,
        target in 0.0f64..5000.0,
        f_now in proptest::collection::vec(0.2f64..1.0, 8),
        weights in proptest::collection::vec(0.0f64..50.0, 8),
    ) {
        let mut ctrl = MpcController::new(
            MpcConfig::paper_default(),
            1.0,
            vec![15.0; 8],
            vec![0.2; 8],
            vec![1.0; 8],
        );
        ctrl.set_penalty_weights(&weights);
        let d = ctrl.compute(p_fb, target, &f_now);
        for f in &d.freqs {
            prop_assert!((0.2..=1.0 + 1e-9).contains(f), "f={f}");
        }
    }

    /// Batch-job execution: progress is monotone, never exceeds 1 for
    /// non-repeating jobs, and higher frequency never yields less
    /// progress.
    #[test]
    fn job_progress_monotone_in_frequency(
        mb in 0.0f64..0.9,
        work in 10.0f64..1000.0,
        f_lo in 0.2f64..0.9,
        df in 0.01f64..0.5,
        steps in 1usize..500,
    ) {
        let f_hi = (f_lo + df).min(1.0);
        let mk = || BatchJob::new("p", ProgressModel::new(mb), work, Seconds(1e9));
        let mut slow = mk();
        let mut fast = mk();
        let mut prev = 0.0;
        for _ in 0..steps {
            slow.step(f_lo, Seconds(1.0));
            fast.step(f_hi, Seconds(1.0));
            prop_assert!(slow.progress() >= prev - 1e-12);
            prev = slow.progress();
        }
        prop_assert!(fast.progress() >= slow.progress() - 1e-12);
        prop_assert!(slow.progress() <= 1.0 && fast.progress() <= 1.0);
    }

    /// The control weight is finite, non-negative, and capped, whatever
    /// the job state and query time.
    #[test]
    fn control_weight_bounded(
        mb in 0.0f64..0.9,
        work in 10.0f64..500.0,
        deadline in 50.0f64..2000.0,
        run_f in 0.0f64..1.0,
        run_s in 0usize..1500,
        query in 0.0f64..3000.0,
    ) {
        let mut j = BatchJob::new("w", ProgressModel::new(mb), work, Seconds(deadline));
        for _ in 0..run_s {
            j.step(run_f, Seconds(1.0));
        }
        let w = j.control_weight(Seconds(query));
        prop_assert!(w.is_finite());
        prop_assert!((0.0..=100.0).contains(&w), "w={w}");
    }

    /// Interactive-tier conservation under arbitrary demand/frequency
    /// schedules: arrived = served + shed + queued.
    #[test]
    fn tier_conserves_work(
        demand in proptest::collection::vec(0.0f64..1.0, 10..200),
        freqs in proptest::collection::vec(0.2f64..1.0, 4),
    ) {
        use workloads::interactive::InteractiveTier;
        use workloads::trace::Trace;
        use powersim::units::NormFreq;
        let mut tier = InteractiveTier::new(
            Trace::new(Seconds(1.0), demand.clone()),
            freqs.len(),
        );
        for k in 0..demand.len() {
            let fs: Vec<NormFreq> = (0..freqs.len())
                .map(|s| NormFreq(freqs[(k + s) % freqs.len()]))
                .collect();
            tier.step(
                Seconds(k as f64),
                Seconds(1.0),
                &fs,
                &vec![true; freqs.len()],
            );
        }
        // Weighted per-server backlogs make exact accounting a weighted
        // sum; the tier tracks the rack-mean, so allow a small epsilon.
        let accounted = tier.served_total + tier.shed_total + tier.mean_backlog();
        prop_assert!(
            (tier.arrived - accounted).abs() < 1e-6 * (1.0 + tier.arrived),
            "arrived {} vs accounted {}",
            tier.arrived,
            accounted
        );
    }

    /// Utilization stays physical in the engine for arbitrary fixed
    /// policies.
    #[test]
    fn engine_utilizations_stay_physical(
        batch_f in 0.2f64..1.0,
        inter_f in 0.2f64..1.0,
        ups in 0.0f64..2000.0,
        seed in 0u64..50,
    ) {
        use simkit::policy::tests_support::FixedPolicy;
        use powersim::units::NormFreq;
        let mut scenario = simkit::Scenario::paper_default(seed);
        scenario.duration = Seconds(20.0);
        let mut sim = scenario.build();
        let mut p = FixedPolicy::new(NormFreq(inter_f), batch_f, Watts(ups));
        let rec = sim.run(&mut p, scenario.duration);
        for s in rec.samples() {
            prop_assert!(s.p_total.0 >= 0.0 && s.p_total.0 < 6000.0);
            prop_assert!((0.0..=1.0).contains(&s.ups_soc));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&s.mean_freq_batch));
        }
        let _ = WattHours(rec.ups_energy_wh());
    }
}

/// Non-proptest cross-crate check: the calibrated linear models and the
/// nonlinear plant stay within the gain-error band the §V-C stability
/// analysis certifies.
#[test]
fn model_error_within_certified_stability_band() {
    use sprint_control::stability::{max_gain_ratio, LoopParams};
    let cfg = sprintcon::SprintConConfig::paper_default();
    let ctrl = sprintcon::ServerPowerController::new(&cfg);
    // Model aggregate gain.
    let k_model: f64 = ctrl.batch_models().iter().map(|m| m.k).sum();
    // Plant aggregate gain: finite-difference of true power in the mean
    // batch frequency around mid-range.
    let mut rack = cfg.plant.rack().expect("paper config is a valid rack");
    for id in rack.cores_with_role(powersim::cpu::CoreRole::Batch) {
        rack.set_util(id, Utilization(0.95));
    }
    let probe = |f: f64| {
        let mut r = rack.clone();
        r.set_freq_scale(powersim::cpu::FreqScale::continuous());
        r.set_role_freq(powersim::cpu::CoreRole::Batch, powersim::units::NormFreq(f));
        r.power().0
    };
    let k_plant = (probe(0.8) - probe(0.4)) / 0.4;
    let gamma = k_plant / k_model;
    let params = LoopParams {
        lp: cfg.mpc.lp,
        q: cfg.mpc.q,
        r: cfg.mpc.r_scale,
        kappa: k_model,
        alpha: (-cfg.control_period.0 / cfg.mpc.tau_r).exp(),
    };
    let gmax = max_gain_ratio(params);
    assert!(
        gamma > 0.3 && gamma < gmax,
        "plant/model gain ratio {gamma:.2} must sit inside (0, {gmax:.2})"
    );
}
