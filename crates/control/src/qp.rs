//! Box-constrained convex quadratic programming, dense form.
//!
//! The MPC optimization (Eq. (8) subject to Eq. (9)) reduces to
//!
//! ```text
//! minimize   ½·xᵀHx + gᵀx      subject to   lo ≤ x ≤ hi
//! ```
//!
//! with `H` symmetric positive definite. The MPC never builds `H`: it
//! solves the problem block by block in O(n) with
//! [`crate::qp_structured`]. [`QpProblem`] holds the dense problem for
//! the tests that check that solver:
//!
//! * [`QpProblem::kkt_residual`] — the projected-KKT residual
//!   `‖x − Π(x − ∇q(x))‖∞`, zero exactly at the constrained minimizer
//!   of a convex problem. The MPC's optimality oracle assembles the
//!   dense Eq. (8) problem of every period and certifies the structured
//!   decision with it.
//! * [`QpProblem::solve_coordinate_descent`] — cyclic exact coordinate
//!   minimization, the reference solver for small problems. It needs
//!   many sweeps on ill-conditioned ones (tens of thousands at the
//!   MPC's 64 channels), so it stands in for the structured solver only
//!   up to a few channels.

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
/// iteration histogram plus total/non-converged counters. The MPC's
/// structured solves and the reference solver both report here, so
/// `qp_solve_total` counts every real solve.
pub(crate) fn record_solve(iterations: usize, converged: bool) {
    telemetry::counter_add("qp_solve_total", 1);
    telemetry::histogram_observe("qp_solve_iters", iterations as f64);
    if !converged {
        telemetry::counter_add("qp_solve_nonconverged", 1);
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
        let hx = self.h.matvec(x);
        0.5 * crate::linalg::dot(x, &hx) + crate::linalg::dot(&self.g, x)
    }

    /// Gradient `Hx + g`.
    pub fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut grad = self.h.matvec(x);
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
                    record_solve(sol.iterations, sol.converged);
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
        record_solve(sol.iterations, sol.converged);
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
        let sol = p.solve_coordinate_descent(1e-10, 20_000);
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
        let sol = p.solve_coordinate_descent(1e-10, 1000);
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert!(sol.converged);
    }

    #[test]
    fn solution_always_feasible() {
        let h = spd(4, 9);
        let p = QpProblem::new(h, vec![10.0, -10.0, 3.0, -3.0], vec![0.0; 4], vec![1.0; 4]);
        let sol = p.solve_coordinate_descent(1e-8, 10_000);
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
        let sol = p.solve_coordinate_descent(1e-9, 20_000);
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
