//! Box-constrained convex quadratic programming.
//!
//! The MPC optimization (Eq. (8) subject to Eq. (9)) reduces to
//!
//! ```text
//! minimize   ½·xᵀHx + gᵀx      subject to   lo ≤ x ≤ hi
//! ```
//!
//! with `H` symmetric positive definite. Two independent solvers live
//! here:
//!
//! * [`QpProblem::solve_with`] — accelerated projected gradient (FISTA
//!   with adaptive restart) running entirely inside a caller-provided
//!   [`QpWorkspace`]; the production hot path, O(n²) per iteration and
//!   **zero allocations per iteration** (the MPC reuses one workspace
//!   across control periods). [`QpProblem::solve`] is the same solve in
//!   a fresh workspace, for one-off callers.
//! * [`QpProblem::solve_coordinate_descent`] — cyclic exact coordinate
//!   minimization; slower convergence per sweep but extremely robust.
//!   Kept as a cross-validation reference (property tests assert the two
//!   agree).
//!
//! Optimality is certified by the projected-KKT residual
//! `‖x − Π(x − ∇q(x))‖∞`, which is zero exactly at the constrained
//! minimizer of a convex problem.

use crate::linalg::{norm_inf, Mat};

/// A box-constrained QP instance.
#[derive(Debug, Clone)]
pub struct QpProblem {
    /// Symmetric positive-definite Hessian.
    pub h: Mat,
    /// Linear term.
    pub g: Vec<f64>,
    /// Elementwise lower bounds.
    pub lo: Vec<f64>,
    /// Elementwise upper bounds.
    pub hi: Vec<f64>,
}

/// Result of a QP solve.
#[derive(Debug, Clone)]
pub struct QpSolution {
    pub x: Vec<f64>,
    /// Projected-KKT residual at `x` (∞-norm); small ⇒ optimal.
    pub kkt_residual: f64,
    pub iterations: usize,
    pub converged: bool,
}

/// Record a finished solve into the active telemetry collector (if any):
/// iteration histogram plus total/non-converged counters. Shared with the
/// structured backend in [`crate::qp_structured`] via the MPC, so
/// `qp_solve_total` keeps counting every real solve regardless of path.
pub(crate) fn record_solve(sol: &QpSolution) {
    telemetry::counter_add("qp_solve_total", 1);
    telemetry::histogram_observe("qp_solve_iters", sol.iterations as f64);
    if !sol.converged {
        telemetry::counter_add("qp_solve_nonconverged", 1);
    }
}

/// Reusable scratch buffers for [`QpProblem::solve_with`]. Create once
/// (per controller), reuse across solves: after the first call at a given
/// dimension no further allocation happens, which is what removes the
/// per-control-period `Vec` churn from the MPC hot path.
#[derive(Debug, Clone, Default)]
pub struct QpWorkspace {
    x: Vec<f64>,
    y: Vec<f64>,
    x_next: Vec<f64>,
    grad: Vec<f64>,
    /// `H·x` scratch for objective evaluations.
    hx: Vec<f64>,
    /// Projected-step scratch for KKT residuals.
    moved: Vec<f64>,
}

impl QpWorkspace {
    pub fn new(dim: usize) -> Self {
        let mut ws = QpWorkspace::default();
        ws.ensure(dim);
        ws
    }

    /// Resize every buffer to `dim` (no-op once sized).
    fn ensure(&mut self, dim: usize) {
        for buf in [
            &mut self.x,
            &mut self.y,
            &mut self.x_next,
            &mut self.grad,
            &mut self.hx,
            &mut self.moved,
        ] {
            buf.resize(dim, 0.0);
        }
    }
}

impl QpProblem {
    pub fn new(h: Mat, g: Vec<f64>, lo: Vec<f64>, hi: Vec<f64>) -> Self {
        let n = g.len();
        assert!(h.is_square() && h.rows() == n, "Hessian shape mismatch");
        assert!(lo.len() == n && hi.len() == n, "bound shape mismatch");
        assert!(
            lo.iter().zip(&hi).all(|(l, u)| l <= u),
            "lower bound exceeds upper bound"
        );
        QpProblem { h, g, lo, hi }
    }

    pub fn dim(&self) -> usize {
        self.g.len()
    }

    /// Objective value `½xᵀHx + gᵀx`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let mut hx = vec![0.0; self.h.rows()];
        self.h.matvec_into(x, &mut hx);
        0.5 * crate::linalg::dot(x, &hx) + crate::linalg::dot(&self.g, x)
    }

    /// Gradient `Hx + g`.
    pub fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut grad = vec![0.0; self.h.rows()];
        self.h.matvec_into(x, &mut grad);
        for (gi, g0) in grad.iter_mut().zip(&self.g) {
            *gi += g0;
        }
        grad
    }

    fn project(&self, x: &mut [f64]) {
        crate::linalg::project_box(x, &self.lo, &self.hi);
    }

    /// Projected-KKT residual at `x` with unit step:
    /// `‖x − Π(x − ∇)‖∞`. Zero iff `x` is the constrained optimum.
    pub fn kkt_residual(&self, x: &[f64]) -> f64 {
        let grad = self.gradient(x);
        let mut moved: Vec<f64> = x.iter().zip(&grad).map(|(xi, gi)| xi - gi).collect();
        self.project(&mut moved);
        let diff: Vec<f64> = x.iter().zip(&moved).map(|(a, b)| a - b).collect();
        norm_inf(&diff)
    }

    /// Upper bound on the Hessian's largest eigenvalue (∞-norm row sum;
    /// valid for symmetric `H`).
    fn lipschitz_bound(&self) -> f64 {
        let n = self.dim();
        let mut max_row = 0.0_f64;
        for i in 0..n {
            let mut s = 0.0;
            for j in 0..n {
                s += self.h[(i, j)].abs();
            }
            max_row = max_row.max(s);
        }
        max_row.max(1e-12)
    }

    /// Accelerated projected-gradient solve (FISTA with restart) in a
    /// fresh workspace; see [`QpProblem::solve_with`].
    pub fn solve(&self, tol: f64, max_iters: usize) -> QpSolution {
        self.solve_with(&mut QpWorkspace::new(self.dim()), tol, max_iters)
    }

    /// Objective `½xᵀHx + gᵀx` evaluated through the workspace's `hx`
    /// scratch — same accumulation order as [`QpProblem::objective`].
    fn objective_ws(&self, x: &[f64], hx: &mut [f64]) -> f64 {
        self.h.matvec_into(x, hx);
        0.5 * crate::linalg::dot(x, hx) + crate::linalg::dot(&self.g, x)
    }

    /// Projected-KKT residual through workspace buffers — same math and
    /// operation order as [`QpProblem::kkt_residual`].
    fn kkt_residual_ws(&self, x: &[f64], grad: &mut [f64], moved: &mut [f64]) -> f64 {
        self.h.matvec_into(x, grad);
        for (gi, g0) in grad.iter_mut().zip(&self.g) {
            *gi += g0;
        }
        for ((m, xi), gi) in moved.iter_mut().zip(x).zip(grad.iter()) {
            *m = xi - gi;
        }
        for ((m, lo), hi) in moved.iter_mut().zip(&self.lo).zip(&self.hi) {
            *m = m.clamp(*lo, *hi);
        }
        let mut res = 0.0_f64;
        for (xi, m) in x.iter().zip(moved.iter()) {
            res = res.max((xi - m).abs());
        }
        res
    }

    /// Accelerated projected-gradient solve (FISTA with adaptive restart)
    /// running entirely inside `ws`: the production hot path. Zero
    /// allocations per iteration and none at all once `ws` has been sized
    /// (only the returned [`QpSolution::x`] is a fresh `Vec`). A reused
    /// workspace gives the same bits as a fresh one: every buffer is
    /// overwritten before it is read.
    pub fn solve_with(&self, ws: &mut QpWorkspace, tol: f64, max_iters: usize) -> QpSolution {
        let _timer = telemetry::span("qp_solve_time");
        let dim = self.dim();
        ws.ensure(dim);
        let step = 1.0 / self.lipschitz_bound();
        // The box midpoint is a safe, feasible start.
        for ((xi, l), u) in ws.x.iter_mut().zip(&self.lo).zip(&self.hi) {
            *xi = 0.5 * (l + u);
        }
        ws.y.copy_from_slice(&ws.x);
        let mut t = 1.0_f64;
        let mut last_obj = {
            let (x, hx) = (&ws.x, &mut ws.hx);
            self.objective_ws(x, hx)
        };
        for iter in 1..=max_iters {
            // grad ← ∇q(y) = H·y + g
            self.h.matvec_into(&ws.y, &mut ws.grad);
            for (gi, g0) in ws.grad.iter_mut().zip(&self.g) {
                *gi += g0;
            }
            // x_next ← Π(y − step·grad)
            for ((xn, yi), gi) in ws.x_next.iter_mut().zip(&ws.y).zip(&ws.grad) {
                *xn = yi - step * gi;
            }
            for ((xn, lo), hi) in ws.x_next.iter_mut().zip(&self.lo).zip(&self.hi) {
                *xn = xn.clamp(*lo, *hi);
            }
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_next;
            // y ← x_next + β(x_next − x)
            for ((yi, xn), xo) in ws.y.iter_mut().zip(&ws.x_next).zip(&ws.x) {
                *yi = xn + beta * (xn - xo);
            }
            // x ← x_next (buffer swap; old x is dead scratch next round)
            std::mem::swap(&mut ws.x, &mut ws.x_next);
            t = t_next;
            // Adaptive restart on objective increase (O'Donoghue–Candès).
            let obj = {
                let (x, hx) = (&ws.x, &mut ws.hx);
                self.objective_ws(x, hx)
            };
            if obj > last_obj {
                ws.y.copy_from_slice(&ws.x);
                t = 1.0;
            }
            last_obj = obj;
            if iter % 8 == 0 {
                let res = {
                    let QpWorkspace { x, grad, moved, .. } = ws;
                    self.kkt_residual_ws(x, grad, moved)
                };
                if res < tol {
                    let sol = QpSolution {
                        x: ws.x.clone(),
                        kkt_residual: res,
                        iterations: iter,
                        converged: true,
                    };
                    record_solve(&sol);
                    return sol;
                }
            }
        }
        let res = {
            let QpWorkspace { x, grad, moved, .. } = ws;
            self.kkt_residual_ws(x, grad, moved)
        };
        let sol = QpSolution {
            converged: res < tol,
            kkt_residual: res,
            iterations: max_iters,
            x: ws.x.clone(),
        };
        record_solve(&sol);
        sol
    }

    /// Cyclic exact coordinate descent — the reference solver.
    ///
    /// For a box QP each coordinate subproblem has the closed form
    /// `x_i ← clamp((−g_i − Σ_{j≠i} H_ij x_j) / H_ii, lo_i, hi_i)`;
    /// sweeping until no coordinate moves converges for SPD `H`.
    pub fn solve_coordinate_descent(&self, tol: f64, max_sweeps: usize) -> QpSolution {
        let _timer = telemetry::span("qp_solve_time");
        let n = self.dim();
        // The diagonal never changes between sweeps: validate it once
        // here instead of re-asserting every coordinate of every sweep.
        for i in 0..n {
            assert!(self.h[(i, i)] > 0.0, "Hessian diagonal must be positive");
        }
        let mut x: Vec<f64> = self
            .lo
            .iter()
            .zip(&self.hi)
            .map(|(l, u)| 0.5 * (l + u))
            .collect();
        for sweep in 1..=max_sweeps {
            let mut max_move = 0.0_f64;
            for i in 0..n {
                let hii = self.h[(i, i)];
                let mut s = self.g[i];
                for (j, xj) in x.iter().enumerate() {
                    if j != i {
                        s += self.h[(i, j)] * xj;
                    }
                }
                let xi = (-s / hii).clamp(self.lo[i], self.hi[i]);
                max_move = max_move.max((xi - x[i]).abs());
                x[i] = xi;
            }
            if max_move < tol * 0.1 {
                let res = self.kkt_residual(&x);
                if res < tol {
                    let sol = QpSolution {
                        x,
                        kkt_residual: res,
                        iterations: sweep,
                        converged: true,
                    };
                    record_solve(&sol);
                    return sol;
                }
            }
        }
        let res = self.kkt_residual(&x);
        let sol = QpSolution {
            converged: res < tol,
            kkt_residual: res,
            iterations: max_sweeps,
            x,
        };
        record_solve(&sol);
        sol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Mat {
        // A + Aᵀ + n·I is SPD for any A with entries in [−1, 1].
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
        }
        let mut m = &a + &a.transpose();
        for i in 0..n {
            m[(i, i)] += 2.0 * n as f64;
        }
        m
    }

    #[test]
    fn unconstrained_matches_linear_solve() {
        let h = spd(5, 3);
        let g = vec![1.0, -2.0, 0.5, 3.0, -1.0];
        let lo = vec![-1e6; 5];
        let hi = vec![1e6; 5];
        let p = QpProblem::new(h.clone(), g.clone(), lo, hi);
        let sol = p.solve(1e-10, 20_000);
        assert!(sol.converged, "residual={}", sol.kkt_residual);
        // Optimum of the unconstrained problem solves H·x = −g.
        let neg_g: Vec<f64> = g.iter().map(|v| -v).collect();
        let exact = h.solve_spd(&neg_g).unwrap();
        for (a, b) in sol.x.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn active_constraints_clamp() {
        // minimize (x−5)² → x* = 5, but hi = 2 → clamps at 2.
        let h = Mat::diag(&[2.0]);
        let g = vec![-10.0];
        let p = QpProblem::new(h, g, vec![0.0], vec![2.0]);
        let sol = p.solve(1e-10, 1000);
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!(sol.converged);
    }

    #[test]
    fn both_solvers_agree_on_random_problems() {
        for seed in 0..10 {
            let n = 3 + (seed as usize % 6);
            let h = spd(n, seed + 100);
            let g: Vec<f64> = (0..n).map(|i| ((i as f64) * 1.3).sin() * 4.0).collect();
            let lo: Vec<f64> = (0..n).map(|i| -0.5 - (i % 3) as f64 * 0.2).collect();
            let hi: Vec<f64> = (0..n).map(|i| 0.4 + (i % 2) as f64 * 0.3).collect();
            let p = QpProblem::new(h, g, lo, hi);
            let a = p.solve(1e-9, 50_000);
            let b = p.solve_coordinate_descent(1e-9, 50_000);
            assert!(a.converged && b.converged, "seed={seed}");
            for (x, y) in a.x.iter().zip(&b.x) {
                assert!((x - y).abs() < 1e-5, "seed={seed}: {x} vs {y}");
            }
            // Objectives match too.
            assert!((p.objective(&a.x) - p.objective(&b.x)).abs() < 1e-8);
        }
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_a_fresh_one() {
        // One workspace reused across 12 problems of dimension 2–8 must
        // give the same iterations, convergence flag, KKT residual and
        // `x` bits as the fresh workspace inside `solve`: no state may
        // leak from one solve into the next.
        let mut ws = QpWorkspace::default();
        for seed in 0..12 {
            let n = 2 + (seed as usize % 7);
            let h = spd(n, seed + 300);
            let g: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.9).cos() * 5.0).collect();
            let lo: Vec<f64> = (0..n).map(|i| -1.0 + (i % 2) as f64 * 0.3).collect();
            let hi: Vec<f64> = (0..n).map(|i| 0.5 + (i % 3) as f64 * 0.4).collect();
            let p = QpProblem::new(h, g, lo, hi);
            let a = p.solve(1e-9, 20_000);
            let b = p.solve_with(&mut ws, 1e-9, 20_000);
            assert_eq!(a.iterations, b.iterations, "seed={seed}");
            assert_eq!(a.converged, b.converged, "seed={seed}");
            assert_eq!(
                a.kkt_residual.to_bits(),
                b.kkt_residual.to_bits(),
                "seed={seed}"
            );
            for (x, y) in a.x.iter().zip(&b.x) {
                assert_eq!(x.to_bits(), y.to_bits(), "seed={seed}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn workspace_resizes_between_dimensions() {
        let mut ws = QpWorkspace::new(1);
        let p4 = QpProblem::new(spd(4, 1), vec![1.0; 4], vec![-1.0; 4], vec![1.0; 4]);
        let p2 = QpProblem::new(spd(2, 2), vec![1.0; 2], vec![-1.0; 2], vec![1.0; 2]);
        let a = p4.solve_with(&mut ws, 1e-9, 10_000);
        let b = p2.solve_with(&mut ws, 1e-9, 10_000);
        assert!(a.converged && b.converged);
        assert_eq!(a.x.len(), 4);
        assert_eq!(b.x.len(), 2);
    }

    #[test]
    fn solution_always_feasible() {
        let h = spd(4, 9);
        let p = QpProblem::new(h, vec![10.0, -10.0, 3.0, -3.0], vec![0.0; 4], vec![1.0; 4]);
        let sol = p.solve(1e-8, 10_000);
        for (i, &x) in sol.x.iter().enumerate() {
            assert!((0.0..=1.0).contains(&x), "x[{i}]={x}");
        }
    }

    #[test]
    fn kkt_residual_zero_only_at_optimum() {
        let h = Mat::diag(&[1.0, 1.0]);
        let p = QpProblem::new(h, vec![-1.0, -1.0], vec![0.0; 2], vec![2.0; 2]);
        // Optimum at (1, 1).
        assert!(p.kkt_residual(&[1.0, 1.0]) < 1e-12);
        assert!(p.kkt_residual(&[0.0, 0.0]) > 0.5);
    }

    #[test]
    fn equal_bounds_pin_variables() {
        let h = spd(3, 77);
        let p = QpProblem::new(
            h,
            vec![1.0, 2.0, 3.0],
            vec![0.5, -1.0, 0.0],
            vec![0.5, 1.0, 0.0],
        );
        let sol = p.solve(1e-9, 20_000);
        assert!((sol.x[0] - 0.5).abs() < 1e-9);
        assert!((sol.x[2] - 0.0).abs() < 1e-9);
        assert!(sol.converged);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper bound")]
    fn rejects_crossed_bounds() {
        QpProblem::new(Mat::identity(1), vec![0.0], vec![1.0], vec![0.0]);
    }

    #[test]
    fn objective_and_gradient_consistent() {
        let h = spd(4, 5);
        let g = vec![0.3, -0.7, 1.1, 0.0];
        let p = QpProblem::new(h, g, vec![-10.0; 4], vec![10.0; 4]);
        let x = vec![0.1, 0.2, -0.3, 0.4];
        let grad = p.gradient(&x);
        // Finite-difference check.
        let eps = 1e-6;
        for i in 0..4 {
            let mut xp = x.clone();
            xp[i] += eps;
            let fd = (p.objective(&xp) - p.objective(&x)) / eps;
            assert!(
                (fd - grad[i]).abs() < 1e-4,
                "coord {i}: fd={fd} g={}",
                grad[i]
            );
        }
    }
}
