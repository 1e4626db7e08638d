//! Property-based tests for the control-theory toolbox.

use proptest::prelude::*;
use sprint_control::kalman::Kalman1d;
use sprint_control::linalg::Mat;
use sprint_control::mpc::{MpcConfig, MpcController};
use sprint_control::qp::QpProblem;
use sprint_control::qp_structured::RankOneDiagQp;
use sprint_control::reference::ExpReference;
use sprint_control::stability::{scalar_pole, LoopParams};

fn spd_from(entries: &[f64], n: usize) -> Mat {
    let mut a = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = entries[(i * n + j) % entries.len()].clamp(-1.0, 1.0);
        }
    }
    let mut m = &a + &a.transpose();
    for i in 0..n {
        m[(i, i)] += 2.0 * n as f64 + 1.0;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coordinate descent, the reference solver, returns a feasible
    /// point that the projected-KKT certificate accepts, and random
    /// feasible points never beat its objective.
    #[test]
    fn coordinate_descent_is_feasible_certified_and_minimal(
        entries in proptest::collection::vec(-1.0f64..1.0, 16),
        g in proptest::collection::vec(-5.0f64..5.0, 4),
        lo_v in -2.0f64..0.0,
        hi_v in 0.1f64..2.0,
        probes in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let n = 4;
        let h = spd_from(&entries, n);
        let p = QpProblem::new(h, g, vec![lo_v; n], vec![hi_v; n]);
        let sol = p.solve_coordinate_descent(1e-9, 50_000);
        prop_assert!(sol.converged);
        prop_assert!(p.kkt_residual(&sol.x) < 1e-9);
        for x in &sol.x {
            prop_assert!((lo_v..=hi_v).contains(x));
        }
        let best = p.objective(&sol.x);
        for chunk in probes.chunks_exact(n) {
            let cand: Vec<f64> = chunk.iter().map(|t| lo_v + t * (hi_v - lo_v)).collect();
            prop_assert!(p.objective(&cand) >= best - 1e-7);
        }
    }

    /// The structured diagonal-plus-rank-one solver agrees with exact
    /// coordinate descent on the materialized dense Hessian, across
    /// random gains (both signs), weights, and crossed-activity bounds —
    /// including the all-pinned (lo = hi) and effectively-unconstrained
    /// (huge box) corners, steered by `pin`/`widen`.
    #[test]
    fn structured_solver_agrees_with_coordinate_descent(
        c in 0.0f64..5.0,
        k in proptest::collection::vec(-6.0f64..6.0, 5),
        d in proptest::collection::vec(0.05f64..5.0, 5),
        g in proptest::collection::vec(-8.0f64..8.0, 5),
        lo in proptest::collection::vec(-2.0f64..0.5, 5),
        width in proptest::collection::vec(0.0f64..2.0, 5),
        pin in proptest::bool::ANY,
        widen in proptest::bool::ANY,
    ) {
        let n = 5;
        let hi: Vec<f64> = if pin {
            lo.clone() // every coordinate pinned at its bound
        } else if widen {
            lo.iter().map(|_| 1e6).collect() // effectively unconstrained above
        } else {
            lo.iter().zip(&width).map(|(l, w)| l + w).collect()
        };
        let lo = if widen { vec![-1e6; n] } else { lo };
        let block = RankOneDiagQp { c, k: &k, d: &d, g: &g, lo: &lo, hi: &hi };
        let mut y = vec![0.0; n];
        let s = block.solve_into(&mut y, &mut [0.0; 2 * 5], 1e-9, 300, None);
        prop_assert!(s.converged);
        prop_assert!(block.kkt_residual(&y) < 1e-7);
        let p = QpProblem::new(block.dense_hessian(), g.clone(), lo.clone(), hi.clone());
        let reference = p.solve_coordinate_descent(1e-10, 100_000);
        prop_assert!(reference.converged);
        for (a, b) in y.iter().zip(&reference.x) {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    /// Warm-starting the structured solver never regresses the KKT
    /// certificate: for a random block solved cold, then re-solved from
    /// an arbitrarily shifted hint (in-bracket, stale, or wildly out of
    /// range), the warm solve converges, costs no more evaluations than
    /// bisection would allow, meets the same 1e-7 certificate, and lands
    /// on the cold solution.
    #[test]
    fn warm_started_structured_solver_keeps_kkt_certificate(
        c in 0.1f64..5.0,
        k in proptest::collection::vec(-6.0f64..6.0, 5),
        d in proptest::collection::vec(0.05f64..5.0, 5),
        g in proptest::collection::vec(-8.0f64..8.0, 5),
        lo in proptest::collection::vec(-2.0f64..0.5, 5),
        width in proptest::collection::vec(0.1f64..2.0, 5),
        hint_shift in -50.0f64..50.0,
    ) {
        let hi: Vec<f64> = lo.iter().zip(&width).map(|(l, w)| l + w).collect();
        let block = RankOneDiagQp { c, k: &k, d: &d, g: &g, lo: &lo, hi: &hi };
        let mut y_cold = vec![0.0; 5];
        let mut scratch = [0.0; 2 * 5];
        let cold = block.solve_into(&mut y_cold, &mut scratch, 1e-7, 300, None);
        prop_assert!(cold.converged);
        prop_assert!(block.kkt_residual(&y_cold) < 1e-7);
        let mut y_warm = vec![0.0; 5];
        let warm = block.solve_into(&mut y_warm, &mut scratch, 1e-7, 300, Some(cold.u + hint_shift));
        prop_assert!(warm.converged);
        prop_assert!(block.kkt_residual(&y_warm) < 1e-7, "warm KKT regressed");
        for (a, b) in y_cold.iter().zip(&y_warm) {
            prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        // Exact-root hint: one evaluation per solve, certificate intact.
        let mut y_exact = vec![0.0; 5];
        let exact = block.solve_into(&mut y_exact, &mut scratch, 1e-7, 300, Some(warm.u));
        prop_assert!(exact.converged && exact.evals <= cold.evals.max(1));
        prop_assert!(block.kkt_residual(&y_exact) < 1e-7);
    }

    /// Cholesky solve actually solves: `A·x = b` to high accuracy for
    /// random SPD systems.
    #[test]
    fn spd_solve_residual_small(
        entries in proptest::collection::vec(-1.0f64..1.0, 25),
        b in proptest::collection::vec(-10.0f64..10.0, 5),
    ) {
        let a = spd_from(&entries, 5);
        let x = a.solve_spd(&b).expect("SPD");
        let back = a.matvec(&x);
        for (r, e) in back.iter().zip(&b) {
            prop_assert!((r - e).abs() < 1e-8);
        }
    }

    /// The MPC closed loop on an exact linear plant converges to any
    /// reachable target from any start, and never leaves the box.
    #[test]
    fn mpc_converges_on_reachable_targets(
        k in 5.0f64..40.0,
        start in 0.2f64..1.0,
        target_frac in 0.05f64..0.95,
        n in 2usize..6,
    ) {
        let mut ctrl = MpcController::new(
            MpcConfig::paper_default(),
            1.0,
            vec![k; n],
            vec![0.2; n],
            vec![1.0; n],
        );
        let base = 10.0;
        let p_of = |f: &[f64]| base + f.iter().map(|x| k * x).sum::<f64>();
        let lo = p_of(&vec![0.2; n]);
        let hi = p_of(&vec![1.0; n]);
        let target = lo + target_frac * (hi - lo);
        let mut f = vec![start; n];
        for _ in 0..80 {
            let d = ctrl.compute(p_of(&f), target, &f);
            for x in &d.freqs {
                prop_assert!((0.2..=1.0 + 1e-9).contains(x));
            }
            f = d.freqs;
        }
        let err = (p_of(&f) - target).abs();
        // Within a couple of watts + the tiny peak-pull offset.
        prop_assert!(err < 3.0 + 0.02 * (hi - lo), "err={err}");
    }

    /// Scalar closed-loop pole: stable for any gain ratio inside the
    /// certified band, unstable beyond it.
    #[test]
    fn stability_band_is_tight(
        kappa in 10.0f64..2000.0,
        r in 0.1f64..100.0,
        lp in 2usize..16,
        tau in 1.0f64..20.0,
        inside in 0.05f64..0.95,
    ) {
        let params = LoopParams {
            lp,
            q: 1.0,
            r,
            kappa,
            alpha: (-1.0f64 / tau).exp(),
        };
        let gmax = sprint_control::stability::max_gain_ratio(params);
        prop_assert!(gmax > 0.0);
        let ok = scalar_pole(params, inside * gmax).abs();
        prop_assert!(ok < 1.0, "inside the band must be stable: {ok}");
        let bad = scalar_pole(params, gmax * 1.05).abs();
        prop_assert!(bad > 1.0, "outside the band must be unstable: {bad}");
    }

    /// Exponential reference: always between the start and the target,
    /// monotone in time.
    #[test]
    fn reference_is_monotone_and_bounded(
        tau in 0.5f64..60.0,
        from in -1000.0f64..1000.0,
        target in -1000.0f64..1000.0,
        t1 in 0.0f64..100.0,
        dt in 0.01f64..100.0,
    ) {
        let r = ExpReference::new(tau);
        let a = r.at(target, from, t1);
        let b = r.at(target, from, t1 + dt);
        let (lo, hi) = if from <= target { (from, target) } else { (target, from) };
        prop_assert!(a >= lo - 1e-9 && a <= hi + 1e-9);
        // Later points are no farther from the target.
        prop_assert!((b - target).abs() <= (a - target).abs() + 1e-12);
    }

    /// Kalman estimates stay within the convex hull of everything seen,
    /// for any measurement sequence.
    #[test]
    fn kalman_estimate_in_hull(
        q in 0.01f64..100.0,
        r in 0.01f64..10_000.0,
        zs in proptest::collection::vec(-5000.0f64..5000.0, 1..200),
    ) {
        let mut f = Kalman1d::new(q, r);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &z in &zs {
            lo = lo.min(z);
            hi = hi.max(z);
            let est = f.update(z);
            prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9, "est {est} outside [{lo},{hi}]");
        }
    }
}
