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
//! box constraints and the whole problem into the box QP of
//! [`crate::qp`].
//!
//! The penalty weights `Rⱼ` implement the paper's progress balancing: a
//! batch job that is behind (large `R`) is expensive to hold below peak
//! frequency, so the optimizer throttles the jobs that can afford it.

use crate::linalg::Mat;
use crate::qp::{QpProblem, QpSolution, QpWorkspace};
use crate::qp_structured::FixedBlocks;

/// Which QP machinery [`MpcController::compute`] runs each period.
///
/// Both backends minimize the same Eq. (8) cost over the same Eq. (9)
/// box; they agree to well under 1e-6 in solution and KKT residual (the
/// `bench_engine` agreement gate and the closed-loop tests enforce it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MpcBackend {
    /// Exploit the block-separable diagonal-plus-rank-one structure of
    /// the Eq. (8) Hessian: per-block scalars assembled directly (no
    /// dense matrix is ever built) and each block solved by the O(n)
    /// root find of [`crate::qp_structured`]. The production default —
    /// a control period costs O(n·Lc) instead of O((n·Lc)²) per FISTA
    /// iteration.
    #[default]
    Structured,
    /// Materialize the dense Hessian and run FISTA
    /// ([`QpProblem::solve_with`]). Kept as the cross-validation
    /// reference and for problems whose structure assumptions break
    /// (e.g. a degenerate `r_scale = 0` penalty).
    DenseFista,
}

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

/// Static MPC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Prediction horizon `Lp` (periods).
    pub lp: usize,
    /// Control horizon `Lc ≤ Lp` (periods).
    pub lc: usize,
    /// Reference-trajectory time constant `τ_r`, seconds.
    pub tau_r: f64,
    /// Control period `Ts`, seconds.
    pub period: f64,
    /// Tracking weight `Q` (uniform over the horizon).
    pub q: f64,
    /// Scale applied to the per-channel penalty weights `Rⱼ`.
    pub r_scale: f64,
}

impl MpcConfig {
    /// The configuration used throughout the evaluation: an 8-step
    /// prediction horizon, 2-step control horizon, 1 s period, and a
    /// reference that closes ~63% of the gap every 4 s.
    pub fn paper_default() -> Self {
        MpcConfig {
            lp: 8,
            lc: 2,
            tau_r: 4.0,
            period: 1.0,
            q: 1.0,
            r_scale: 8.0,
        }
    }

    fn validate(&self) {
        assert!(self.lp >= 1, "prediction horizon must be at least 1");
        assert!(
            (1..=self.lp).contains(&self.lc),
            "control horizon must be in [1, Lp]"
        );
        assert!(self.tau_r > 0.0 && self.period > 0.0);
        assert!(self.q > 0.0 && self.r_scale >= 0.0);
    }
}

/// The MPC power controller over `N` actuated channels (batch cores).
#[derive(Debug, Clone)]
pub struct MpcController {
    /// Private so that `decays` cannot go stale.
    cfg: MpcConfig,
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
    /// Floor applied to `Rⱼ` to keep the Hessian positive definite.
    pub r_floor: f64,
    /// Preallocated structured-assembly buffers, reused across periods.
    sb: StructuredBuffers,
    /// The dense backend's state, present exactly when the controller
    /// runs [`MpcBackend::DenseFista`]: a QP instance whose `H`/`g` are
    /// rebuilt in place every control period (the Hessian alone is
    /// 128 KiB at 64 channels × 2 blocks) and the FISTA iteration
    /// buffers. A structured controller never builds a Hessian, so it
    /// holds neither.
    dense: Option<(QpProblem, QpWorkspace)>,
}

/// Scratch for the structured backend: the diagonal/linear terms and
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
    /// Power the model predicts for the next period under this command.
    pub predicted_power: f64,
    /// Diagnostics from the underlying QP solve.
    pub qp: QpSolution,
}

impl MpcController {
    /// Build a controller on the default [`MpcBackend::Structured`]
    /// solver.
    pub fn new(cfg: MpcConfig, gains: Vec<f64>, fmin: Vec<f64>, fmax: Vec<f64>) -> Self {
        Self::with_backend(cfg, gains, fmin, fmax, MpcBackend::default())
    }

    pub fn with_backend(
        cfg: MpcConfig,
        gains: Vec<f64>,
        fmin: Vec<f64>,
        fmax: Vec<f64>,
        backend: MpcBackend,
    ) -> Self {
        cfg.validate();
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
        // and bounds, and a non-finite `q`.
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
        let dense = (backend == MpcBackend::DenseFista).then(|| {
            let qp = QpProblem::new(Mat::zeros(dim, dim), vec![0.0; dim], lo.clone(), hi.clone());
            (qp, QpWorkspace::new(dim))
        });
        MpcController {
            cfg,
            decays: (1..=cfg.lp)
                .map(|step| reference_decay(step, cfg.period, cfg.tau_r))
                .collect(),
            blocks: FixedBlocks::new(c, gains, lo, hi),
            fmax,
            r: vec![1.0; n],
            r_floor: 0.05,
            sb: StructuredBuffers {
                d: vec![0.0; dim],
                g: vec![0.0; dim],
                x: vec![0.0; dim],
                kernel: vec![0.0; 4 * n],
                warm_u: vec![f64::NAN; cfg.lc],
            },
            dense,
        }
    }

    /// The solver `compute` runs: dense exactly when the controller holds
    /// the dense state.
    pub fn backend(&self) -> MpcBackend {
        if self.dense.is_some() {
            MpcBackend::DenseFista
        } else {
            MpcBackend::Structured
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
    pub fn set_penalty_weights(&mut self, r: &[f64]) {
        assert_eq!(r.len(), self.num_channels());
        assert!(r.iter().all(|v| v.is_finite() && *v >= 0.0));
        self.r.copy_from_slice(r);
    }

    pub fn gains(&self) -> &[f64] {
        self.blocks.k()
    }

    /// Reference trajectory (Eq. (7)): the power the controller wants at
    /// `x` periods ahead, given feedback `p_fb` and set point `target`.
    pub fn reference(&self, target: f64, p_fb: f64, x: usize) -> f64 {
        reference_at(target, p_fb, x, self.cfg.period, self.cfg.tau_r)
    }

    /// Solve one control period: measured feedback power `p_fb`
    /// (Eq. (6)), set point `target` (`P_batch`), current channel
    /// frequencies `f_now`.
    ///
    /// Steady-state hot path: both backends rebuild their problem data in
    /// place inside preallocated buffers, so a control period performs no
    /// matrix or iteration-buffer allocation (only the returned
    /// decision's two small `Vec`s are fresh). The structured default
    /// never materializes a Hessian at all — total per-period cost is
    /// O(n·Lc) assembly plus an O(n) root find per block, against the
    /// dense path's O((n·Lc)²) assembly and per-iteration matvecs.
    pub fn compute(&mut self, p_fb: f64, target: f64, f_now: &[f64]) -> MpcDecision {
        let _timer = telemetry::span("mpc_compute");
        let n = self.num_channels();
        assert_eq!(f_now.len(), n);
        let qp = match self.solve_dense(p_fb, target, f_now) {
            Some(sol) => sol,
            None => self.solve_structured(p_fb, target, f_now),
        };
        telemetry::histogram_observe("mpc_solve_iters", qp.iterations as f64);
        if !qp.converged {
            telemetry::counter_add("mpc_qp_fallback", 1);
        }
        let freqs: Vec<f64> = qp.x[..n].to_vec();
        let predicted_power = p_fb
            + self
                .gains()
                .iter()
                .zip(freqs.iter().zip(f_now))
                .map(|(k, (y, f))| k * (y - f))
                .sum::<f64>();
        MpcDecision {
            freqs,
            predicted_power,
            qp,
        }
    }

    /// Structured hot path: assemble the Eq. (8) cost directly in its
    /// block-separable diagonal-plus-rank-one form — per-block coupling
    /// scalar `c_b`, shared gain vector `k`, diagonal `d`, linear `g` —
    /// and solve each block with the O(n) root find of
    /// [`crate::qp_structured`]. No dense Hessian, no row-sum Lipschitz
    /// bound, no dense matvecs.
    fn solve_structured(&mut self, p_fb: f64, target: f64, f_now: &[f64]) -> QpSolution {
        let _timer = telemetry::span("qp_solve_time");
        let n = self.num_channels();
        let (lp, lc) = (self.cfg.lp, self.cfg.lc);
        let (q, r_scale, r_floor) = (self.cfg.q, self.cfg.r_scale, self.r_floor);
        let k = self.blocks.k();
        let kf: f64 = k.iter().zip(f_now).map(|(k, f)| k * f).sum();

        // Per block b, over its n lanes:
        // - tracking terms: each prediction step s fed by the block adds
        //   q·(kᵀy_b − b_s)², i.e. 2q·kkᵀ to the Hessian (the fixed
        //   c_b = 2q·steps_fed(b)) and −2q·b_s·k to g, in step order;
        // - control-penalty terms: r_j·(y_{j,b} − fmax_j)², horizon-
        //   balanced by the share of tracking steps the block feeds (see
        //   the dense path for why) — exactly the diagonal d and the
        //   peak-pull part of g, added last.
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
                let rj = r_scale * r.max(r_floor) * share;
                *d = 2.0 * rj;
                *g += -2.0 * rj * fmax;
            }
        }

        let (evals, converged, kkt_residual) = self.blocks.solve_into(
            &sb.d,
            &sb.g,
            &mut sb.x,
            &mut sb.kernel,
            1e-7,
            200,
            Some(&mut sb.warm_u),
        );
        let sol = QpSolution {
            x: sb.x.clone(),
            kkt_residual,
            iterations: evals,
            converged,
        };
        crate::qp::record_solve(&sol);
        sol
    }

    /// Dense reference path: materialize the Eq. (8) Hessian in the
    /// preallocated [`QpProblem`] and run FISTA in the controller's
    /// [`QpWorkspace`]. Kept for cross-validation against the structured
    /// backend (and for degenerate penalty configurations). `None` on a
    /// structured controller, which holds no dense state.
    fn solve_dense(&mut self, p_fb: f64, target: f64, f_now: &[f64]) -> Option<QpSolution> {
        let n = self.num_channels();
        let (lp, lc) = (self.cfg.lp, self.cfg.lc);
        let (qp, ws) = self.dense.as_mut()?;

        // Only the lc diagonal n×n blocks of H are ever touched (tracking
        // couples channels within a block, never across blocks), so only
        // those entries need re-zeroing.
        let h = &mut qp.h;
        let g = &mut qp.g;
        g.fill(0.0);
        for b in 0..lc {
            for j in 0..n {
                for i in 0..n {
                    h[(b * n + j, b * n + i)] = 0.0;
                }
            }
        }

        // Tracking terms: q·(kᵀ y_b − b_n)² with
        // b_n = p_r(n) − p_fb + kᵀ f_now.
        let k = self.blocks.k();
        let kf: f64 = k.iter().zip(f_now).map(|(k, f)| k * f).sum();
        for (step, &decay) in (1..=lp).zip(&self.decays) {
            let b = step.min(lc) - 1; // control block feeding this step
            let reference = reference_from_decay(target, p_fb, decay);
            let bn = reference - p_fb + kf;
            let q = self.cfg.q;
            for j in 0..n {
                let kj = k[j];
                g[b * n + j] += -2.0 * q * bn * kj;
                for i in 0..n {
                    h[(b * n + j, b * n + i)] += 2.0 * q * kj * k[i];
                }
            }
        }

        // Control-penalty terms: r_j·(y_{j,b} − fmax_j)² per block,
        // horizon-balanced: each block's penalty is scaled by the share
        // of tracking steps it feeds. Without this, the first block
        // (applied to the plant!) carries a full peak-pull against a
        // single tracking step and the loop settles with a bias toward
        // peak — visible on low-gain plants.
        for b in 0..lc {
            let share = steps_fed(lp, lc, b) as f64 / lp as f64;
            for j in 0..n {
                let rj = self.cfg.r_scale * self.r[j].max(self.r_floor) * share;
                h[(b * n + j, b * n + j)] += 2.0 * rj;
                g[b * n + j] += -2.0 * rj * self.fmax[j];
            }
        }

        Some(qp.solve_with(ws, 1e-7, 2_000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert!(d.qp.converged, "QP must converge");
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
        let ctrl_fast = MpcController::new(cfg, vec![15.0], vec![0.2], vec![1.0]);
        cfg.tau_r = 16.0;
        let ctrl_slow = MpcController::new(cfg, vec![15.0], vec![0.2], vec![1.0]);
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
    fn backends_agree_on_single_periods() {
        // Same inputs through both solvers: full decision vectors within
        // 1e-6 and both KKT-certified.
        let mk = |backend| {
            MpcController::with_backend(
                MpcConfig::paper_default(),
                vec![15.0; 6],
                vec![0.2; 6],
                vec![1.0; 6],
                backend,
            )
        };
        let mut structured = mk(MpcBackend::Structured);
        let mut dense = mk(MpcBackend::DenseFista);
        assert_eq!(structured.backend(), MpcBackend::Structured);
        for &(p_fb, target) in &[(0.0, 500.0), (500.0, 0.0), (60.0, 60.0), (30.0, 90.0)] {
            let a = structured.compute(p_fb, target, &[0.5; 6]);
            let b = dense.compute(p_fb, target, &[0.5; 6]);
            assert!(a.qp.converged && b.qp.converged);
            assert!(a.qp.kkt_residual < 1e-6 && b.qp.kkt_residual < 1e-6);
            for (x, y) in a.qp.x.iter().zip(&b.qp.x) {
                assert!((x - y).abs() < 1e-6, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn backends_track_the_same_closed_loop_trajectory() {
        // Run the toy plant under each backend independently; the power
        // trajectories must stay together for the whole run (per-period
        // solver deviation is ≤ 1e-6 and the loop is contractive, so
        // differences must not accumulate).
        let run = |backend| {
            let mut ctrl = MpcController::with_backend(
                MpcConfig::paper_default(),
                vec![15.0; 4],
                vec![0.2; 4],
                vec![1.0; 4],
                backend,
            );
            ctrl.set_penalty_weights(&[2.0, 1.0, 0.3, 0.1]);
            let mut plant = Plant {
                k: vec![17.0; 4], // deliberate model error
                base: 10.0,
                f: vec![1.0; 4],
            };
            run_loop(&mut ctrl, &mut plant, 45.0, 60)
        };
        let hs = run(MpcBackend::Structured);
        let hd = run(MpcBackend::DenseFista);
        for (i, (a, b)) in hs.iter().zip(&hd).enumerate() {
            assert!((a - b).abs() < 1e-3, "step {i}: {a} vs {b}");
        }
    }

    #[test]
    fn warm_started_periods_cost_fewer_evals_at_steady_state() {
        // Repeating the same period: the carried coupling roots satisfy
        // the tolerance immediately, so the second solve is never more
        // expensive than the cold one and stays KKT-certified.
        let mut ctrl = controller(8);
        let d0 = ctrl.compute(60.0, 90.0, &[0.5; 8]);
        let d1 = ctrl.compute(60.0, 90.0, &[0.5; 8]);
        assert!(d0.qp.converged && d1.qp.converged);
        assert!(d1.qp.iterations <= d0.qp.iterations);
        assert!(d1.qp.kkt_residual < 1e-6);
        for (a, b) in d0.freqs.iter().zip(&d1.freqs) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "control horizon")]
    fn rejects_bad_horizons() {
        let mut cfg = MpcConfig::paper_default();
        cfg.lc = cfg.lp + 1;
        MpcController::new(cfg, vec![1.0], vec![0.0], vec![1.0]);
    }

    /// The construction-time checks stand in for the per-period ones
    /// the structured solve no longer repeats on `k`, the box and `c`:
    /// both backends refuse what `RankOneDiagQp::validate` refuses.
    #[test]
    fn rejects_non_finite_gains_bounds_and_weights() {
        let inf = f64::INFINITY;
        let cases = [
            (
                vec![15.0, inf],
                vec![0.2; 2],
                vec![1.0; 2],
                1.0,
                "block inputs must be finite",
            ),
            (
                vec![15.0; 2],
                vec![-inf, 0.2],
                vec![1.0; 2],
                1.0,
                "block inputs must be finite",
            ),
            (
                vec![15.0; 2],
                vec![0.2; 2],
                vec![1.0, inf],
                1.0,
                "block inputs must be finite",
            ),
            (
                vec![15.0; 2],
                vec![0.2; 2],
                vec![1.0; 2],
                inf,
                "c must be ≥ 0",
            ),
        ];
        for backend in [MpcBackend::Structured, MpcBackend::DenseFista] {
            for (i, (gains, fmin, fmax, q, expected)) in cases.iter().enumerate() {
                let cfg = MpcConfig {
                    q: *q,
                    ..MpcConfig::paper_default()
                };
                let (gains, fmin, fmax) = (gains.clone(), fmin.clone(), fmax.clone());
                let built = std::panic::catch_unwind(|| {
                    MpcController::with_backend(cfg, gains, fmin, fmax, backend)
                });
                let err = built.expect_err(&format!("{backend:?} case {i} was accepted"));
                let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
                assert_eq!(msg, *expected, "{backend:?} case {i}");
            }
        }
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
        let mut ctrl = MpcController::new(cfg, gains.clone(), fmin.clone(), fmax.clone());
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
                    let rj = cfg.r_scale * r[j].max(ctrl.r_floor) * share;
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
            assert_eq!(bits(&decision.qp.x), bits(&x), "period {period}: x");
            assert_eq!(bits(&ctrl.sb.warm_u), bits(&warm), "period {period}: u");
            assert_eq!(decision.qp.iterations, evals, "period {period}");
            assert_eq!(decision.qp.converged, converged, "period {period}");
            assert_eq!(decision.qp.kkt_residual.to_bits(), res.to_bits());
            plant.f = decision.freqs;
        }
    }
}
