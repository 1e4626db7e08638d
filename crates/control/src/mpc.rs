//! Model-predictive controller for rack batch-power tracking (§V-B).
//!
//! Plant model (Eq. (4)): the controlled power is linear in the actuated
//! frequencies, `p(t+1) = p(t) + Σⱼ kⱼ·Δfⱼ(t)`. Each control period the
//! controller minimizes the cost of Eq. (8):
//!
//! ```text
//! W = Σₙ₌₁..Lp  Q(n)·(p(t+n|t) − p_r(t+n|t))²                (tracking)
//!   + Σₙ₌₀..Lc₋₁ Σⱼ Rⱼ·(fⱼ(t+n|t) − f_max,ⱼ)²               (penalty)
//! ```
//!
//! subject to the DVFS box constraints of Eq. (9), where the reference
//! trajectory `p_r` (Eq. (7)) approaches the set point exponentially from
//! the *measured* feedback power, so model error is corrected every
//! period. The decision variables are the planned absolute frequencies
//! `y_{j,n}` (rather than the increments), which turns Eq. (9) into plain
//! box constraints and the whole problem into a box QP.
//!
//! That QP's Hessian is block-diagonal over the control blocks, and each
//! block is diagonal plus rank one. The controller assembles the
//! per-block scalars directly and solves each block with the O(n) root
//! find of [`crate::qp_structured`]; it never builds the dense Hessian.
//! The tests assemble the dense problem of [`crate::qp::QpProblem`]
//! from Eq. (8) and certify every decision against its KKT conditions.
//!
//! The penalty weights `Rⱼ` implement the paper's progress balancing: a
//! batch job that is behind (large `R`) is expensive to hold below peak
//! frequency, so the optimizer throttles the jobs that can afford it.

use crate::qp_structured::FixedBlocks;

/// Tracking-step count feeding control block `b`: blocks before the last
/// feed exactly one prediction step; the last block holds for the rest of
/// the horizon (decision `x[b·n + j]` = planned absolute frequency of
/// channel `j` in block `b`, and the power predicted at `t+s` uses block
/// `min(s−1, lc−1)`). Free function so assembly code holding field
/// borrows can call it.
fn steps_fed(lp: usize, lc: usize, b: usize) -> usize {
    if b + 1 < lc {
        1
    } else {
        lp - (lc - 1)
    }
}

/// Eq. (7) reference trajectory: the power wanted `steps` periods ahead,
/// approaching `target` exponentially from the measured feedback `p_fb`
/// with time constant `tau_r`: `target − decay·(target − p_fb)` with
/// `decay = e^(−steps·Ts/τ_r)`. The controller computes the decays of
/// its `Lp` steps once, at construction, and its hot-path assembly
/// (which holds field borrows) feeds them to the same private helper
/// this function uses, so every path evaluates the same floating-point
/// operations.
pub fn reference_at(target: f64, p_fb: f64, steps: usize, period: f64, tau_r: f64) -> f64 {
    reference_from_decay(target, p_fb, reference_decay(steps, period, tau_r))
}

/// The Eq. (7) decay `e^(−steps·Ts/τ_r)`: the share of the gap between
/// feedback and set point still open `steps` periods ahead.
fn reference_decay(steps: usize, period: f64, tau_r: f64) -> f64 {
    (-(steps as f64) * period / tau_r).exp()
}

/// Eq. (7) from a precomputed decay: `target − decay·(target − p_fb)`.
fn reference_from_decay(target: f64, p_fb: f64, decay: f64) -> f64 {
    target - decay * (target - p_fb)
}

/// Floor applied to each progress weight `Rⱼ` before `r_scale`. With
/// `r_scale > 0` it makes every diagonal entry of the Hessian positive,
/// so each block is strictly convex: the domain the structured solve
/// is exact on.
const R_FLOOR: f64 = 0.05;

/// Static MPC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Prediction horizon `Lp` (periods).
    pub lp: usize,
    /// Control horizon `Lc ≤ Lp` (periods).
    pub lc: usize,
    /// Reference-trajectory time constant `τ_r`, seconds.
    pub tau_r: f64,
    /// Tracking weight `Q` (uniform over the horizon).
    pub q: f64,
    /// Scale applied to the per-channel penalty weights `Rⱼ`.
    pub r_scale: f64,
}

impl MpcConfig {
    /// The configuration used throughout the evaluation: an 8-step
    /// prediction horizon, 2-step control horizon, and a reference that
    /// closes ~63% of the gap every 4 s.
    pub fn paper_default() -> Self {
        MpcConfig {
            lp: 8,
            lc: 2,
            tau_r: 4.0,
            q: 1.0,
            r_scale: 8.0,
        }
    }

    /// Check what [`MpcController::new`] requires of the configuration:
    /// `1 ≤ Lc ≤ Lp`, and a positive, finite `τ_r`, `r_scale` and `q`,
    /// with the largest coupling weight `2q·Lp` finite too. `Err` names
    /// the first broken requirement.
    pub fn validate(&self) -> Result<(), &'static str> {
        let positive = |v: f64| v > 0.0 && v.is_finite();
        if self.lp < 1 {
            return Err("prediction horizon must be at least 1");
        }
        if !(1..=self.lp).contains(&self.lc) {
            return Err("control horizon must be in [1, Lp]");
        }
        if !positive(self.tau_r) {
            return Err("tau_r must be positive and finite");
        }
        if !(positive(self.q) && positive(2.0 * self.q * self.lp as f64)) {
            return Err("q must be positive, with 2q·Lp finite");
        }
        if !positive(self.r_scale) {
            return Err("r_scale must be positive and finite");
        }
        Ok(())
    }
}

/// The MPC power controller over `N` actuated channels (batch cores).
#[derive(Debug, Clone)]
pub struct MpcController {
    /// Private so that `decays` cannot go stale.
    cfg: MpcConfig,
    /// Control period `Ts`, seconds: the step of the Eq. (7) reference.
    period: f64,
    /// Eq. (7) decay for each prediction step `1..=Lp` (index `step − 1`),
    /// computed once from `cfg`.
    decays: Vec<f64>,
    /// The fixed half of the structured Eq. (8) problem, built and
    /// validated once: the per-block coupling weights
    /// `c_b = 2q·(tracking steps fed)`, the per-channel power gains `kⱼ`
    /// (watts per unit normalized frequency, from the linear model of
    /// Eq. (2)/(3)) and the Eq. (9) box replicated per control block,
    /// with the solver constants derived from them.
    blocks: FixedBlocks,
    /// Per-channel frequency ceiling (Eq. (9)), for the penalty's peak
    /// pull.
    fmax: Vec<f64>,
    /// Per-channel penalty weights `Rⱼ` (progress balancing, §V-B).
    r: Vec<f64>,
    /// Preallocated assembly buffers, reused across periods.
    sb: StructuredBuffers,
}

/// Scratch for the structured solve: the diagonal/linear terms and
/// solution over the full `n·Lc` decision vector, and the solver's `4n`
/// kernel scratch. Sized once at construction; the hot path rebuilds
/// them in place.
#[derive(Debug, Clone, Default)]
struct StructuredBuffers {
    /// Diagonal `d` (progress penalties), length `n·Lc`.
    d: Vec<f64>,
    /// Linear term `g`, length `n·Lc`.
    g: Vec<f64>,
    /// Solution vector, length `n·Lc`.
    x: Vec<f64>,
    /// Root-find kernel scratch (curvatures and slope shares of the two
    /// blocks a lockstep pair solves at once), length `4n`.
    kernel: Vec<f64>,
    /// Per-block coupling-scalar roots `u_b = kᵀy_b` carried across
    /// control periods as warm-start hints (NaN = cold). The solver
    /// trusts a hint only strictly inside the block's bracket, which the
    /// controller fixes at construction; a root on a bracket end, or
    /// NaN, restarts from the bisection midpoint.
    warm_u: Vec<f64>,
}

/// One control decision.
#[derive(Debug, Clone)]
pub struct MpcDecision {
    /// New frequency command per channel (the first planned move).
    pub freqs: Vec<f64>,
    /// Root-find iterations of the period's QP solve, summed over the
    /// control blocks.
    pub iterations: usize,
    /// Whether every block's root find stopped on its tolerance or on a
    /// machine-precision bracket, not on its budget.
    pub converged: bool,
    /// Projected-KKT residual (∞-norm) of the whole planned trajectory
    /// under the period's Eq. (8) problem; small ⇒ optimal.
    pub kkt_residual: f64,
}

impl MpcController {
    /// Build a controller over `gains.len()` channels, sampled every
    /// `period` seconds, with the Eq. (9) box `[fmin, fmax]` per channel.
    /// Panics on an invalid `cfg` (see [`MpcConfig::validate`]), on a
    /// period that is not positive and finite, on a shape mismatch, on a
    /// gain that is not positive and finite, and on a non-finite or
    /// crossed box.
    pub fn new(
        cfg: MpcConfig,
        period: f64,
        gains: Vec<f64>,
        fmin: Vec<f64>,
        fmax: Vec<f64>,
    ) -> Self {
        if let Err(what) = cfg.validate() {
            panic!("invalid MPC config: {what}");
        }
        assert!(
            period > 0.0 && period.is_finite(),
            "invalid MPC config: period must be positive and finite"
        );
        let n = gains.len();
        assert!(n > 0, "controller needs at least one channel");
        assert!(fmin.len() == n && fmax.len() == n, "bound shape mismatch");
        assert!(gains.iter().all(|&k| k > 0.0), "gains must be positive");
        assert!(
            fmin.iter().zip(&fmax).all(|(a, b)| a <= b),
            "fmin must not exceed fmax"
        );
        // Box constraints (Eq. (9)) replicated per control block, and the
        // blocks' coupling weights — fixed for the controller's lifetime,
        // so build them once. `FixedBlocks::new` also rejects ±∞ gains
        // and bounds.
        let dim = n * cfg.lc;
        let mut lo = Vec::with_capacity(dim);
        let mut hi = Vec::with_capacity(dim);
        for _ in 0..cfg.lc {
            lo.extend_from_slice(&fmin);
            hi.extend_from_slice(&fmax);
        }
        let c = (0..cfg.lc)
            .map(|b| 2.0 * cfg.q * steps_fed(cfg.lp, cfg.lc, b) as f64)
            .collect();
        MpcController {
            cfg,
            period,
            decays: (1..=cfg.lp)
                .map(|step| reference_decay(step, period, cfg.tau_r))
                .collect(),
            blocks: FixedBlocks::new(c, gains, lo, hi),
            fmax,
            r: vec![1.0; n],
            sb: StructuredBuffers {
                d: vec![0.0; dim],
                g: vec![0.0; dim],
                x: vec![0.0; dim],
                kernel: vec![0.0; 4 * n],
                warm_u: vec![f64::NAN; cfg.lc],
            },
        }
    }

    /// The static configuration the controller was built with.
    pub fn cfg(&self) -> &MpcConfig {
        &self.cfg
    }

    pub fn num_channels(&self) -> usize {
        self.gains().len()
    }

    /// Update the per-channel progress weights `Rⱼ` (allocator/§V-B).
    ///
    /// Each weight must be non-negative with a finite penalty diagonal
    /// `2·r_scale·max(Rⱼ, R_FLOOR)`, which the solve needs; this panics,
    /// naming the channel, on one that is not, so a bad weight fails
    /// here rather than inside a later [`Self::compute`].
    pub fn set_penalty_weights(&mut self, r: &[f64]) {
        assert_eq!(r.len(), self.num_channels());
        for (j, &v) in r.iter().enumerate() {
            let diagonal = 2.0 * self.cfg.r_scale * v.max(R_FLOOR);
            assert!(
                v >= 0.0 && diagonal.is_finite(),
                "penalty weight {v} of channel {j} needs 2·r_scale·max(r, R_FLOOR) finite and r >= 0"
            );
        }
        self.r.copy_from_slice(r);
    }

    pub fn gains(&self) -> &[f64] {
        self.blocks.k()
    }

    /// Reference trajectory (Eq. (7)): the power the controller wants at
    /// `x` periods ahead, given feedback `p_fb` and set point `target`.
    pub fn reference(&self, target: f64, p_fb: f64, x: usize) -> f64 {
        reference_at(target, p_fb, x, self.period, self.cfg.tau_r)
    }

    /// Solve one control period: measured feedback power `p_fb`
    /// (Eq. (6)), set point `target` (`P_batch`), current channel
    /// frequencies `f_now`.
    ///
    /// The problem data are rebuilt in place inside preallocated
    /// buffers, so a period allocates only the returned `freqs`. It
    /// costs O(n·Lc) assembly plus an O(n) root find per block.
    pub fn compute(&mut self, p_fb: f64, target: f64, f_now: &[f64]) -> MpcDecision {
        let _timer = telemetry::span("mpc_compute");
        let n = self.num_channels();
        assert_eq!(f_now.len(), n);
        let (iterations, converged, kkt_residual) = self.solve(p_fb, target, f_now);
        telemetry::histogram_observe("mpc_solve_iters", iterations as f64);
        if !converged {
            telemetry::counter_add("mpc_qp_fallback", 1);
        }
        MpcDecision {
            freqs: self.sb.x[..n].to_vec(),
            iterations,
            converged,
            kkt_residual,
        }
    }

    /// Assemble the Eq. (8) cost directly in its block-separable
    /// diagonal-plus-rank-one form — per-block coupling scalar `c_b`,
    /// shared gain vector `k`, diagonal `d`, linear `g` — and solve each
    /// block into the solution buffer with the O(n) root find of
    /// [`crate::qp_structured`]. Returns the evaluation count, the
    /// convergence flag and the KKT residual.
    fn solve(&mut self, p_fb: f64, target: f64, f_now: &[f64]) -> (usize, bool, f64) {
        let _timer = telemetry::span("qp_solve_time");
        let n = self.num_channels();
        let (lp, lc) = (self.cfg.lp, self.cfg.lc);
        let (q, r_scale) = (self.cfg.q, self.cfg.r_scale);
        let k = self.blocks.k();
        let kf: f64 = k.iter().zip(f_now).map(|(k, f)| k * f).sum();

        // Per block b, over its n lanes:
        // - tracking terms: each prediction step s fed by the block adds
        //   q·(kᵀy_b − b_s)², i.e. 2q·kkᵀ to the Hessian (the fixed
        //   c_b = 2q·steps_fed(b)) and −2q·b_s·k to g, in step order,
        //   with b_s = p_r(s) − p_fb + kᵀf_now;
        // - control-penalty terms: r_j·(y_{j,b} − fmax_j)², scaled by
        //   the share of tracking steps the block feeds — exactly the
        //   diagonal d and the peak-pull part of g, added last. Without
        //   the share, the first block (the one applied to the plant)
        //   carries a full peak pull against a single tracking step, and
        //   the loop settles biased toward peak, visibly so on low-gain
        //   plants.
        let sb = &mut self.sb;
        let lanes = sb.d.chunks_exact_mut(n).zip(sb.g.chunks_exact_mut(n));
        for (b, (d_b, g_b)) in lanes.enumerate() {
            g_b.fill(0.0);
            let steps = if b + 1 < lc { b + 1..=b + 1 } else { lc..=lp };
            for step in steps {
                let reference = reference_from_decay(target, p_fb, self.decays[step - 1]);
                let bn = reference - p_fb + kf;
                let pull = -2.0 * q * bn;
                for (g, &k) in g_b.iter_mut().zip(k) {
                    *g += pull * k;
                }
            }
            let share = steps_fed(lp, lc, b) as f64 / lp as f64;
            let weights = self.r.iter().zip(&self.fmax);
            for ((d, g), (&r, &fmax)) in d_b.iter_mut().zip(g_b.iter_mut()).zip(weights) {
                let rj = r_scale * r.max(R_FLOOR) * share;
                *d = 2.0 * rj;
                *g += -2.0 * rj * fmax;
            }
        }

        let solve = self.blocks.solve_into(
            &sb.d,
            &sb.g,
            &mut sb.x,
            &mut sb.kernel,
            1e-7,
            200,
            Some(&mut sb.warm_u),
        );
        crate::qp::record_solve(solve.0, solve.1);
        solve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Mat;
    use crate::qp::QpProblem;

    /// A toy plant: power = Σ k_j f_j + base, with gains the controller
    /// over- or under-estimates by `gain_error`.
    struct Plant {
        k: Vec<f64>,
        base: f64,
        f: Vec<f64>,
    }

    impl Plant {
        fn power(&self) -> f64 {
            self.base + self.k.iter().zip(&self.f).map(|(k, f)| k * f).sum::<f64>()
        }
    }

    fn controller(n: usize) -> MpcController {
        MpcController::new(
            MpcConfig::paper_default(),
            1.0,
            vec![15.0; n],
            vec![0.2; n],
            vec![1.0; n],
        )
    }

    fn run_loop(
        ctrl: &mut MpcController,
        plant: &mut Plant,
        target: f64,
        steps: usize,
    ) -> Vec<f64> {
        let mut history = Vec::new();
        for _ in 0..steps {
            let p = plant.power();
            history.push(p);
            let d = ctrl.compute(p, target, &plant.f);
            plant.f = d.freqs;
        }
        history
    }

    #[test]
    fn converges_to_set_point_with_exact_model() {
        let mut ctrl = controller(4);
        let mut plant = Plant {
            k: vec![15.0; 4],
            base: 10.0,
            f: vec![1.0; 4],
        };
        // Target well inside the actuation range: 40 W of controllable
        // power (plant spans 10+4×3=22 .. 10+4×15=70).
        let hist = run_loop(&mut ctrl, &mut plant, 40.0, 60);
        let final_p = *hist.last().unwrap();
        // The Eq.(8) peak-pull penalty leaves a small designed offset
        // above the set point (the R term keeps tugging frequencies
        // toward peak); it must stay within a few percent.
        assert!((final_p - 40.0).abs() < 2.0, "final={final_p}");
        assert!(final_p >= 40.0 - 1e-9, "offset must be on the peak side");
        // Monotone-ish approach: last value closer than first.
        assert!((hist[0] - 40.0).abs() > (final_p - 40.0).abs());
    }

    #[test]
    fn tolerates_forty_percent_gain_error() {
        // §V-C: stability under bounded model error. Plant gains are 40%
        // above the model's.
        let mut ctrl = controller(4);
        let mut plant = Plant {
            k: vec![21.0; 4],
            base: 10.0,
            f: vec![1.0; 4],
        };
        let hist = run_loop(&mut ctrl, &mut plant, 50.0, 80);
        let final_p = *hist.last().unwrap();
        assert!((final_p - 50.0).abs() < 1.5, "final={final_p}");
        // No oscillatory blow-up anywhere in the tail.
        for w in hist[60..].windows(2) {
            assert!((w[1] - w[0]).abs() < 2.0);
        }
    }

    #[test]
    fn unreachable_target_saturates_at_peak() {
        let mut ctrl = controller(3);
        let mut plant = Plant {
            k: vec![15.0; 3],
            base: 0.0,
            f: vec![0.2; 3],
        };
        run_loop(&mut ctrl, &mut plant, 1_000.0, 40);
        for f in &plant.f {
            assert!((f - 1.0).abs() < 1e-6, "should pin at peak, got {f}");
        }
    }

    #[test]
    fn target_below_floor_saturates_at_fmin() {
        let mut ctrl = controller(3);
        let mut plant = Plant {
            k: vec![15.0; 3],
            base: 50.0,
            f: vec![1.0; 3],
        };
        run_loop(&mut ctrl, &mut plant, 0.0, 40);
        for f in &plant.f {
            assert!((f - 0.2).abs() < 1e-6, "should pin at floor, got {f}");
        }
    }

    #[test]
    fn progress_weights_bias_the_allocation() {
        // Two identical channels; channel 0 carries a big R (urgent job).
        // Under a tight budget, channel 0 must keep the higher frequency.
        let mut ctrl = controller(2);
        ctrl.set_penalty_weights(&[5.0, 0.1]);
        let mut plant = Plant {
            k: vec![15.0; 2],
            base: 0.0,
            f: vec![1.0; 2],
        };
        // Budget forces roughly half of max controllable power.
        run_loop(&mut ctrl, &mut plant, 15.0, 60);
        assert!(
            plant.f[0] > plant.f[1] + 0.2,
            "urgent channel must run faster: {:?}",
            plant.f
        );
        // And the total still tracks (looser band: the heavy R on the
        // urgent channel trades tracking for progress by design).
        assert!((plant.power() - 15.0).abs() < 3.5, "p={}", plant.power());
    }

    #[test]
    fn commands_respect_bounds_always() {
        let mut ctrl = controller(5);
        for &(p_fb, target) in &[(0.0, 500.0), (500.0, 0.0), (60.0, 60.0), (30.0, 90.0)] {
            let d = ctrl.compute(p_fb, target, &[0.5; 5]);
            for f in &d.freqs {
                assert!((0.2..=1.0).contains(f), "f={f} out of bounds");
            }
            assert!(d.converged, "QP must converge");
        }
    }

    #[test]
    fn reference_trajectory_shape() {
        let ctrl = controller(1);
        // Eq. (7): starts at p_fb, approaches target exponentially.
        let r1 = ctrl.reference(100.0, 40.0, 0);
        assert!((r1 - 40.0).abs() < 1e-12);
        let r_far = ctrl.reference(100.0, 40.0, 100);
        assert!((r_far - 100.0).abs() < 1e-6);
        // Monotone.
        let mut prev = r1;
        for x in 1..20 {
            let r = ctrl.reference(100.0, 40.0, x);
            assert!(r > prev);
            prev = r;
        }
    }

    #[test]
    fn larger_tau_slows_the_approach() {
        let mut cfg = MpcConfig::paper_default();
        let ctrl_fast = MpcController::new(cfg, 1.0, vec![15.0], vec![0.2], vec![1.0]);
        cfg.tau_r = 16.0;
        let ctrl_slow = MpcController::new(cfg, 1.0, vec![15.0], vec![0.2], vec![1.0]);
        // After 4 periods the fast reference is much closer to target.
        let f = ctrl_fast.reference(100.0, 0.0, 4);
        let s = ctrl_slow.reference(100.0, 0.0, 4);
        assert!(f > s + 20.0, "fast={f} slow={s}");
    }

    #[test]
    fn zero_error_keeps_frequencies_steady() {
        // Already exactly on target with all channels mid-range: the
        // optimizer should not move much (only the peak-pull from R,
        // which the tracking term counters).
        let mut ctrl = controller(4);
        let f_now = vec![0.6; 4];
        let p_now = 15.0 * 0.6 * 4.0; // matches model prediction
        let d = ctrl.compute(p_now, p_now, &f_now);
        let moved: f64 = d.freqs.iter().zip(&f_now).map(|(a, b)| (a - b).abs()).sum();
        assert!(moved < 0.2, "moved {moved}");
    }

    #[test]
    fn warm_started_periods_cost_fewer_evals_at_steady_state() {
        // Repeating the same period: the carried coupling roots satisfy
        // the tolerance immediately, so the second solve is never more
        // expensive than the cold one and stays KKT-certified.
        let mut ctrl = controller(8);
        let d0 = ctrl.compute(60.0, 90.0, &[0.5; 8]);
        let d1 = ctrl.compute(60.0, 90.0, &[0.5; 8]);
        assert!(d0.converged && d1.converged);
        assert!(d1.iterations <= d0.iterations);
        assert!(d1.kkt_residual < 1e-6);
        for (a, b) in d0.freqs.iter().zip(&d1.freqs) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// The construction-time checks stand in for the per-period ones
    /// the structured solve no longer repeats on `k` and the box: the
    /// controller refuses what `RankOneDiagQp::validate` refuses.
    #[test]
    fn rejects_non_finite_gains_and_bounds() {
        let inf = f64::INFINITY;
        let cases = [
            (vec![15.0, inf], vec![0.2; 2], vec![1.0; 2]),
            (vec![15.0; 2], vec![-inf, 0.2], vec![1.0; 2]),
            (vec![15.0; 2], vec![0.2; 2], vec![1.0, inf]),
        ];
        for (i, (gains, fmin, fmax)) in cases.into_iter().enumerate() {
            let built = std::panic::catch_unwind(|| {
                MpcController::new(MpcConfig::paper_default(), 1.0, gains, fmin, fmax)
            });
            let err = built.expect_err(&format!("case {i} was accepted"));
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "block inputs must be finite", "case {i}");
        }
    }

    /// Each configuration the structured solve cannot run is an `Err`
    /// of `MpcConfig::validate`, and `new` panics on it before building
    /// anything. `r_scale = 0` would zero every dⱼ; `q = ∞` would make
    /// the coupling weights infinite.
    #[test]
    fn validate_rejects_what_the_solver_cannot_run() {
        assert_eq!(MpcConfig::paper_default().validate(), Ok(()));
        type Break = fn(&mut MpcConfig);
        let cases: [(Break, &str); 8] = [
            (|c| c.lc = 9, "control horizon"),
            (|c| (c.lp, c.lc) = (0, 0), "prediction horizon"),
            (|c| c.q = 0.0, "q must"),
            (|c| c.q = f64::INFINITY, "q must"),
            (|c| c.q = 1e308, "q must"),
            (|c| c.tau_r = f64::NAN, "tau_r"),
            (|c| c.r_scale = -1.0, "r_scale"),
            (|c| c.r_scale = 0.0, "r_scale"),
        ];
        for (break_it, expected) in cases {
            let mut cfg = MpcConfig::paper_default();
            break_it(&mut cfg);
            let err = cfg.validate().expect_err(&format!("{cfg:?} passed"));
            assert!(err.contains(expected), "{cfg:?}: {err}");
            let built = std::panic::catch_unwind(|| {
                MpcController::new(cfg, 1.0, vec![15.0], vec![0.2], vec![1.0])
            });
            let panic = built.expect_err(&format!("{cfg:?} was built"));
            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(msg, format!("invalid MPC config: {err}"));
        }
        for period in [0.0, f64::NAN, f64::INFINITY] {
            let cfg = MpcConfig::paper_default();
            let built = std::panic::catch_unwind(|| {
                MpcController::new(cfg, period, vec![15.0], vec![0.2], vec![1.0])
            });
            let panic = built.expect_err(&format!("period {period} was built"));
            let msg = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(
                msg,
                "invalid MPC config: period must be positive and finite"
            );
        }
    }

    /// An `r_scale` that `validate` accepts can still overflow a penalty
    /// diagonal `2·r_scale·max(rⱼ, R_FLOOR)`; the weight that does is
    /// refused where it is set, not inside the next solve.
    #[test]
    #[should_panic(expected = "penalty weight 3 of channel 0 needs")]
    fn set_penalty_weights_refuses_an_infinite_diagonal() {
        let cfg = MpcConfig {
            r_scale: 1e308,
            ..MpcConfig::paper_default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        let mut ctrl = MpcController::new(cfg, 1.0, vec![15.0; 4], vec![0.2; 4], vec![1.0; 4]);
        ctrl.set_penalty_weights(&[3.0; 4]);
    }

    /// Over a closed loop with shifting progress weights, every period's
    /// decision is bitwise a `solve_blocks_into` solve of the problem the
    /// period assembled, from the same carried roots, with `c`, `k` and
    /// the box rebuilt here from the configuration. The assembly itself
    /// is checked lane by lane against the indexed loop it replaced.
    #[test]
    fn periods_are_bitwise_solve_blocks_into_of_the_assembly() {
        use crate::qp_structured::solve_blocks_into;
        let n = 12;
        // Weights whose products round, so a reordered lane shows.
        let cfg = MpcConfig {
            q: 0.7,
            r_scale: 6.3,
            ..MpcConfig::paper_default()
        };
        let (lp, lc) = (cfg.lp, cfg.lc);
        let gains: Vec<f64> = (0..n).map(|j| 9.0 + (j % 5) as f64 * 2.5).collect();
        let (fmin, fmax) = (vec![0.2; n], vec![1.0; n]);
        let mut ctrl = MpcController::new(cfg, 1.0, gains.clone(), fmin.clone(), fmax.clone());
        let mut plant = Plant {
            k: gains.iter().map(|k| 1.1 * k).collect(),
            base: 40.0,
            f: vec![1.0; n],
        };
        let c: Vec<f64> = (0..lc)
            .map(|b| 2.0 * cfg.q * steps_fed(lp, lc, b) as f64)
            .collect();
        let (lo, hi) = (fmin.repeat(lc), fmax.repeat(lc));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for period in 0..80 {
            let r: Vec<f64> = (0..n)
                .map(|j| 0.02 + ((period * 7 + j * 3) % 11) as f64 * 0.3)
                .collect();
            ctrl.set_penalty_weights(&r);
            let target = 120.0 + 40.0 * (period as f64 * 0.2).sin();
            let (p_fb, f_now) = (plant.power(), plant.f.clone());
            let mut warm = ctrl.sb.warm_u.clone();
            let decision = ctrl.compute(p_fb, target, &f_now);

            let kf: f64 = gains.iter().zip(&f_now).map(|(k, f)| k * f).sum();
            let (mut d, mut g) = (vec![0.0; n * lc], vec![0.0; n * lc]);
            for (step, &decay) in (1..=lp).zip(&ctrl.decays) {
                let b = step.min(lc) - 1;
                let bn = reference_from_decay(target, p_fb, decay) - p_fb + kf;
                for j in 0..n {
                    g[b * n + j] += -2.0 * cfg.q * bn * gains[j];
                }
            }
            for b in 0..lc {
                let share = steps_fed(lp, lc, b) as f64 / lp as f64;
                for j in 0..n {
                    let rj = cfg.r_scale * r[j].max(R_FLOOR) * share;
                    d[b * n + j] = 2.0 * rj;
                    g[b * n + j] += -2.0 * rj * fmax[j];
                }
            }
            assert_eq!(bits(&ctrl.sb.d), bits(&d), "period {period}: d");
            assert_eq!(bits(&ctrl.sb.g), bits(&g), "period {period}: g");

            let (mut x, mut scratch) = (vec![0.0; n * lc], vec![0.0; 4 * n]);
            let (evals, converged, res) = solve_blocks_into(
                &c,
                &gains,
                &d,
                &g,
                &lo,
                &hi,
                &mut x,
                &mut scratch,
                1e-7,
                200,
                Some(&mut warm),
            );
            assert_eq!(bits(&ctrl.sb.x), bits(&x), "period {period}: x");
            assert_eq!(bits(&decision.freqs), bits(&x[..n]), "period {period}");
            assert_eq!(bits(&ctrl.sb.warm_u), bits(&warm), "period {period}: u");
            assert_eq!(decision.iterations, evals, "period {period}");
            assert_eq!(decision.converged, converged, "period {period}");
            assert_eq!(decision.kkt_residual.to_bits(), res.to_bits());
            plant.f = decision.freqs;
        }
    }

    /// The dense Eq. (8) problem of one period, assembled term by term
    /// from the prediction model without the block decomposition the
    /// controller solves: prediction step `s` adds
    /// `q·(p_fb + kᵀ(y_b − f_now) − p_r(s))²` for the block `b` that
    /// holds at `t+s`, and each block adds the penalty
    /// `Rⱼ·(y_{b,j} − fmax_j)²` scaled by the share of the `Lp` steps it
    /// held, where `Rⱼ = r_scale·max(rⱼ, R_FLOOR)`. The reference steps
    /// by the 1 s period the controllers under test sample at.
    fn dense_eq8(
        cfg: &MpcConfig,
        k: &[f64],
        (fmin, fmax): (&[f64], &[f64]),
        r: &[f64],
        (p_fb, target): (f64, f64),
        f_now: &[f64],
    ) -> QpProblem {
        let (n, lc) = (k.len(), cfg.lc);
        let mut h = Mat::zeros(n * lc, n * lc);
        let mut g = vec![0.0; n * lc];
        let kf: f64 = k.iter().zip(f_now).map(|(k, f)| k * f).sum();
        let mut held = vec![0usize; lc];
        for step in 1..=cfg.lp {
            let b = step.min(lc) - 1;
            held[b] += 1;
            let wanted = reference_at(target, p_fb, step, 1.0, cfg.tau_r);
            let offset = wanted - p_fb + kf;
            for j in 0..n {
                g[b * n + j] -= 2.0 * cfg.q * offset * k[j];
                for i in 0..n {
                    h[(b * n + j, b * n + i)] += 2.0 * cfg.q * k[j] * k[i];
                }
            }
        }
        for (b, &held) in held.iter().enumerate() {
            let share = held as f64 / cfg.lp as f64;
            for j in 0..n {
                let rj = cfg.r_scale * r[j].max(R_FLOOR) * share;
                h[(b * n + j, b * n + j)] += 2.0 * rj;
                g[b * n + j] -= 2.0 * rj * fmax[j];
            }
        }
        QpProblem::new(h, g, fmin.repeat(lc), fmax.repeat(lc))
    }

    /// The optimality oracle: over closed loops at 64 channels, with
    /// per-core progress weights spread over [0.02, 3.02] and a target
    /// that sweeps past both ends of the actuation range, every period's
    /// planned trajectory meets the KKT conditions of the dense Eq. (8)
    /// problem of [`dense_eq8`], and the decision's own residual agrees
    /// with the dense one within the rounding of the gradient. Runs the
    /// paper horizon for 200 periods and the short and long horizons
    /// `ablation_horizons` samples, (4, 2) and (32, 8), for 50 each.
    /// Each bound is about twice the worst residual measured at its
    /// horizon (1.2e-6, 1.7e-7 and 2.0e-5): the root find's precision
    /// floor, which grows with the horizon (see
    /// `RankOneDiagQp::solve_into`).
    #[test]
    fn every_decision_meets_the_dense_eq8_kkt_conditions() {
        let n = 64;
        let gains: Vec<f64> = (0..n).map(|j| 12.0 + (j % 7) as f64).collect();
        let (fmin, fmax) = (vec![0.2; n], vec![1.0; n]);
        for (lp, lc, periods, bound) in [(8, 2, 200, 2e-6), (4, 2, 50, 4e-7), (32, 8, 50, 4e-5)] {
            let cfg = MpcConfig {
                lp,
                lc,
                ..MpcConfig::paper_default()
            };
            let mut ctrl = MpcController::new(cfg, 1.0, gains.clone(), fmin.clone(), fmax.clone());
            let mut plant = Plant {
                k: gains.iter().map(|k| 1.1 * k).collect(),
                base: 1000.0,
                f: vec![1.0; n],
            };
            for period in 0..periods {
                let r: Vec<f64> = (0..n)
                    .map(|j| 0.02 + ((7 * period + 3 * j) % 11) as f64 * 0.3)
                    .collect();
                ctrl.set_penalty_weights(&r);
                let target = 1550.0 + 600.0 * (period as f64 * 0.13).sin();
                let (p_fb, f_now) = (plant.power(), plant.f.clone());
                let decision = ctrl.compute(p_fb, target, &f_now);
                let dense = dense_eq8(&cfg, &gains, (&fmin, &fmax), &r, (p_fb, target), &f_now);
                let x = &ctrl.sb.x;
                let residual = dense.kkt_residual(x);
                // Each lane's residual is 1-Lipschitz in its gradient,
                // whose rounding error is at most ε per term of Hx + g
                // and per addition. H and x are non-negative here, so
                // Hx is the sum of the terms' magnitudes.
                let hx = dense.h.matvec(x);
                let scale = hx
                    .iter()
                    .zip(&dense.g)
                    .map(|(a, g)| a + g.abs())
                    .fold(0.0, f64::max);
                let rounding = x.len() as f64 * f64::EPSILON * scale;
                let at = format!("(Lp, Lc) = ({lp}, {lc}), period {period}");
                assert!(decision.converged, "{at}");
                assert!(residual <= bound, "{at}: dense KKT residual {residual:.3e}");
                let own = decision.kkt_residual;
                assert!(
                    (residual - own).abs() <= rounding,
                    "{at}: {residual:.3e} vs {own:.3e}"
                );
                plant.f = decision.freqs;
            }
        }
    }
}
