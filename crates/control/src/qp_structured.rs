//! Structured solver for diagonal-plus-rank-one box QPs.
//!
//! The Eq. (8) MPC Hessian is block-diagonal across control blocks
//! (tracking couples channels *within* a block, never across), and each
//! block has the form `c·kkᵀ + diag(d)`: a rank-one coupling through the
//! shared gain vector `k` plus the diagonal progress penalties. A block
//! therefore minimizes
//!
//! ```text
//! ½·Σⱼ dⱼ·yⱼ² + (c/2)·(kᵀy)² + gᵀy     subject to   lo ≤ y ≤ hi
//! ```
//!
//! which is a continuous-quadratic-knapsack-style problem: fix the
//! coupling scalar `u = kᵀy` and the coordinates decouple into closed
//! forms
//!
//! ```text
//! yⱼ(u) = clamp(−(gⱼ + c·u·kⱼ)/dⱼ, loⱼ, hiⱼ)
//! ```
//!
//! Every term `kⱼ·yⱼ(u)` is non-increasing in `u` (the unclamped slope is
//! `−c·kⱼ²/dⱼ ≤ 0` and clamping only flattens it), so
//! `φ(u) = kᵀy(u) − u` is strictly decreasing with `φ' ≤ −1` and has a
//! unique root `u*` inside the bracket `[min kᵀy, max kᵀy]`. The solver
//! finds `u*` by bracketed bisection with a Newton polish, then reads the
//! optimum off the closed forms. Each evaluation is O(n); on the paper's
//! 64-channel MPC a block takes about 21 of them (φ is piecewise linear
//! with up to 2n kinks, and a Newton step is exact only from the root's
//! own piece). Against the dense FISTA path this replaces O((n·Lc)²) matvecs
//! per iteration with O(n·Lc) total work per control period.
//!
//! An evaluation runs as two passes. Pass 1 computes every `yⱼ(u)` and
//! its slope share (`wⱼ = c·kⱼ²/dⱼ` if the lane is free, else `0`) with
//! selects only, so it vectorizes. Pass 2 folds `kᵀy` and the slope in
//! index order. No floating-point sum is reordered, so φ, φ′ and `y` are
//! bitwise those of a one-pass scalar loop, and the iterate sequence
//! does not depend on the vector width. The curvatures `wⱼ` are divided
//! once per block solve, not once per evaluation.
//!
//! Pass 2 is a latency-bound chain: n dependent adds. The blocks of the
//! MPC problem are independent, so [`solve_blocks_into`] runs them in
//! lockstep pairs. Each round takes pass 1 of both blocks, then one
//! fused pass 2 that folds both blocks' `kᵀy` and slopes (four
//! independent chains, each in index order), then steps both root finds.
//! When one block of a pair finishes, the other continues alone; an odd
//! last block runs alone from the start. Every block performs exactly
//! the operations of a solo solve, in the same order, so the pairing
//! changes no bit of the result.
//!
//! [`RankOneDiagQp`] is one block. Both entry points write into
//! caller-provided slices and take a caller-provided scratch (`2n`
//! values per block in flight: the curvatures and the slope shares), so
//! a solve allocates nothing.

use crate::linalg::Mat;

/// One diagonal-plus-rank-one box QP block:
/// `minimize ½·Σ dⱼyⱼ² + (c/2)(kᵀy)² + gᵀy` over `lo ≤ y ≤ hi`.
///
/// Requirements (checked by [`Self::validate`] / debug asserts): finite
/// inputs, `c ≥ 0`, `dⱼ ≥ 0` with `dⱼ > 0` wherever the problem must be
/// strictly convex in `yⱼ`, and `lo ≤ hi` elementwise. `dⱼ = 0` is
/// tolerated (the coordinate becomes a bang-bang choice between its
/// bounds), which keeps the solver total even for degenerate penalty
/// configurations.
#[derive(Debug, Clone, Copy)]
pub struct RankOneDiagQp<'a> {
    /// Rank-one coupling weight (`2q·steps` in the MPC assembly).
    pub c: f64,
    /// Shared gain vector `k`.
    pub k: &'a [f64],
    /// Diagonal `d` (strictly convex part).
    pub d: &'a [f64],
    /// Linear term `g`.
    pub g: &'a [f64],
    /// Elementwise lower bounds.
    pub lo: &'a [f64],
    /// Elementwise upper bounds.
    pub hi: &'a [f64],
}

/// Diagnostics from one block solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSolve {
    /// The coupling scalar `u* = kᵀy*` at the solution.
    pub u: f64,
    /// Number of O(n) root-find evaluations performed.
    pub evals: usize,
    /// Whether the root find met its tolerance (it essentially always
    /// does; `false` only after `max_evals` with a still-wide bracket).
    pub converged: bool,
}

/// Safeguarded Newton-bisection on φ for one block, as a state machine:
/// [`Self::u`] is where φ is wanted next, and [`Self::step`] consumes
/// `(φ(u), φ′(u))`. Keeping the loop state out of the loop lets
/// [`solve_blocks_into`] advance two blocks in lockstep, and lets the
/// tests drive the same machine with the scalar oracle.
#[derive(Debug, Clone, Copy)]
struct RootFind {
    /// Bracket: `φ(a) ≥ 0 ≥ φ(b)`.
    a: f64,
    b: f64,
    /// The next evaluation point while running; the result once done.
    u: f64,
    /// Root-find tolerance on `|φ|`.
    tol_u: f64,
    evals: usize,
    max_evals: usize,
    /// `false` when `c = 0` or `k = 0`: the closed forms are exact at any
    /// `u`, and one evaluation finishes the block.
    coupled: bool,
    converged: bool,
    done: bool,
}

impl RootFind {
    /// Bracket the root and pick the first iterate. `warm` is only
    /// trusted strictly inside the fresh bracket (see
    /// [`RankOneDiagQp::solve_into`]).
    fn new(block: &RankOneDiagQp, tol: f64, max_evals: usize, warm: Option<f64>) -> Self {
        assert!(tol > 0.0 && max_evals > 0);
        let mut rf = RootFind {
            a: 0.0,
            b: 0.0,
            u: 0.0,
            tol_u: tol,
            evals: 0,
            max_evals,
            coupled: block.c > 0.0 && block.k.iter().any(|&k| k != 0.0),
            converged: false,
            done: false,
        };
        if !rf.coupled {
            return rf;
        }
        // Bracket u* by the range of kᵀy over the box: φ(a) ≥ 0, φ(b) ≤ 0.
        for ((&k, &l), &h) in block.k.iter().zip(block.lo).zip(block.hi) {
            rf.a += (k * l).min(k * h);
            rf.b += (k * l).max(k * h);
        }
        // A φ-residual of δ perturbs the gradient by at most c·‖k‖∞·δ,
        // so aim the root find below the caller's KKT tolerance.
        let k_inf = block.k.iter().fold(0.0_f64, |m, &k| m.max(k.abs()));
        rf.tol_u = tol / (block.c * k_inf).max(1.0);
        // Warm start: reuse the previous root if it is still strictly
        // bracketed; otherwise fall back to the bisection midpoint.
        rf.u = match warm {
            Some(w) if w.is_finite() && w > rf.a && w < rf.b => w,
            _ => 0.5 * (rf.a + rf.b),
        };
        rf
    }

    /// Consume the evaluation `(φ(u), φ′(u))` at [`Self::u`]: stop on
    /// the tolerance, a machine-precision bracket or the budget, else
    /// move `u` to the next iterate. A budget stop leaves `u` at the
    /// un-evaluated next iterate.
    fn step(&mut self, phi: f64, slope: f64) {
        debug_assert!(!self.done);
        self.evals += 1;
        if !self.coupled {
            // φ(0) = kᵀy(0); report the actual coupling value.
            self.u = phi;
            self.converged = true;
            self.done = true;
            return;
        }
        if phi.abs() <= self.tol_u {
            self.converged = true;
            self.done = true;
            return;
        }
        if phi > 0.0 {
            self.a = self.u;
        } else {
            self.b = self.u;
        }
        let (a, b) = (self.a, self.b);
        // Machine-precision bracket: nothing left to resolve (only
        // reachable when a zero-diagonal coordinate makes φ jump).
        if b - a <= f64::EPSILON * (a.abs().max(b.abs()).max(1.0)) {
            self.converged = true;
            self.done = true;
            return;
        }
        // Newton polish inside the bracket (φ' ≤ −1, so the step is
        // always well defined); fall back to bisection outside it.
        let newton = self.u - phi / slope;
        self.u = if newton > a && newton < b {
            newton
        } else {
            0.5 * (a + b)
        };
        self.done = self.evals >= self.max_evals;
    }

    /// Run alone to the end, taking φ from `eval(u)`.
    fn finish(&mut self, mut eval: impl FnMut(f64) -> (f64, f64)) -> BlockSolve {
        while !self.done {
            let (phi, slope) = eval(self.u);
            self.step(phi, slope);
        }
        BlockSolve {
            u: self.u,
            evals: self.evals,
            converged: self.converged,
        }
    }
}

impl<'a> RankOneDiagQp<'a> {
    /// Panic on shape or domain errors; call once per assembly, not per
    /// evaluation.
    pub fn validate(&self) {
        let n = self.k.len();
        assert!(n > 0, "empty block");
        assert!(
            self.d.len() == n && self.g.len() == n && self.lo.len() == n && self.hi.len() == n,
            "block shape mismatch"
        );
        assert!(self.c >= 0.0 && self.c.is_finite(), "c must be ≥ 0");
        assert!(
            self.d.iter().all(|&d| d >= 0.0 && d.is_finite()),
            "diagonal must be ≥ 0"
        );
        assert!(
            self.lo.iter().zip(self.hi).all(|(l, u)| l <= u),
            "lower bound exceeds upper bound"
        );
    }

    /// Per-lane curvature `wⱼ = c·kⱼ·kⱼ/dⱼ`: how much a free coordinate
    /// steepens φ. Computed once per block solve; `0.0` where `dⱼ = 0`
    /// (such a lane is never free).
    fn curvatures_into(&self, w: &mut [f64]) {
        for (j, wj) in w.iter_mut().enumerate() {
            *wj = if self.d[j] > 0.0 {
                self.c * self.k[j] * self.k[j] / self.d[j]
            } else {
                0.0
            };
        }
    }

    /// Pass 1 of an evaluation at a fixed coupling scalar: overwrite `y`
    /// with the closed-form minimizer `y(u)` and `share` with each
    /// lane's slope share (`wⱼ` if the lane is free, else `0`); `w`
    /// holds the curvatures of [`Self::curvatures_into`]. Lane-independent
    /// and written with selects only, so it vectorizes.
    #[inline]
    fn closed_forms(&self, u: f64, w: &[f64], y: &mut [f64], share: &mut [f64]) {
        let n = y.len();
        let (k, d, g) = (&self.k[..n], &self.d[..n], &self.g[..n]);
        let (lo, hi, w, share) = (&self.lo[..n], &self.hi[..n], &w[..n], &mut share[..n]);
        let cu = self.c * u;
        for j in 0..n {
            let s = g[j] + cu * k[j];
            let raw = -s / d[j];
            let below = raw <= lo[j];
            let above = raw >= hi[j];
            let curved = if below {
                lo[j]
            } else if above {
                hi[j]
            } else {
                raw
            };
            // No curvature: the coordinate rides its cheaper bound, and
            // at s = 0 takes `0.0.clamp(lo, hi)` (spelled as selects;
            // `validate` guarantees lo ≤ hi).
            let zero = if 0.0 < lo[j] { lo[j] } else { 0.0 };
            let zero = if zero > hi[j] { hi[j] } else { zero };
            let flat = if s > 0.0 {
                lo[j]
            } else if s < 0.0 {
                hi[j]
            } else {
                zero
            };
            let has_curvature = d[j] > 0.0;
            y[j] = if has_curvature { curved } else { flat };
            share[j] = if has_curvature & !below & !above {
                w[j]
            } else {
                0.0
            };
        }
    }

    /// Evaluate φ at `u`: pass 1, then pass 2 folds `kᵀy` and the slope
    /// in index order — the same sums in the same order as a one-pass
    /// scalar loop, so `(φ, φ′)` and `y` are bitwise those of the scalar
    /// closed forms. `share` is scratch.
    fn eval(&self, u: f64, w: &[f64], y: &mut [f64], share: &mut [f64]) -> (f64, f64) {
        self.closed_forms(u, w, y, share);
        let n = y.len();
        let (k, y, share) = (&self.k[..n], &y[..n], &share[..n]);
        let mut ky = 0.0;
        let mut slope = -1.0;
        for j in 0..n {
            ky += k[j] * y[j];
            slope -= share[j];
        }
        (ky - u, slope)
    }

    /// Solve the block into `y` (length `n`). `scratch` holds at least
    /// `2n` values (contents ignored and overwritten). `tol` is the
    /// target projected-KKT accuracy of the returned point; `max_evals`
    /// bounds the root-find evaluations (each O(n)). No allocation.
    ///
    /// `warm` is an optional hint for the coupling scalar `u = kᵀy` —
    /// typically the previous control period's root. The hint is only
    /// trusted if it lies strictly inside the freshly computed bracket
    /// `(min kᵀy, max kᵀy)` (the stale-bracket guard): a hint from a
    /// problem whose bounds, gains, or linear term have since shifted the
    /// bracket falls back to the midpoint start, so a stale hint can
    /// never slow the solve below the cold path's bisection guarantee,
    /// and the returned point meets the same `tol` certificate either
    /// way.
    pub fn solve_into(
        &self,
        y: &mut [f64],
        scratch: &mut [f64],
        tol: f64,
        max_evals: usize,
        warm: Option<f64>,
    ) -> BlockSolve {
        let n = self.k.len();
        debug_assert_eq!(y.len(), n);
        assert!(scratch.len() >= 2 * n, "solver scratch needs 2n values");
        let (w, share) = scratch[..2 * n].split_at_mut(n);
        self.curvatures_into(w);
        let w = &*w;
        RootFind::new(self, tol, max_evals, warm).finish(|u| self.eval(u, w, y, share))
    }

    /// Objective value `½·Σ dⱼyⱼ² + (c/2)(kᵀy)² + gᵀy`.
    pub fn objective(&self, y: &[f64]) -> f64 {
        let ky = crate::linalg::dot(self.k, y);
        let mut v = 0.5 * self.c * ky * ky;
        for (j, &yj) in y.iter().enumerate() {
            v += 0.5 * self.d[j] * yj * yj + self.g[j] * yj;
        }
        v
    }

    /// Projected-KKT residual `‖y − Π(y − ∇)‖∞` with
    /// `∇ⱼ = dⱼyⱼ + c·(kᵀy)·kⱼ + gⱼ` — the same certificate
    /// [`crate::qp::QpProblem::kkt_residual`] uses, computed in O(n).
    pub fn kkt_residual(&self, y: &[f64]) -> f64 {
        let ky = crate::linalg::dot(self.k, y);
        let mut res = 0.0_f64;
        for (j, &yj) in y.iter().enumerate() {
            let grad = self.d[j] * yj + self.c * ky * self.k[j] + self.g[j];
            let moved = (yj - grad).clamp(self.lo[j], self.hi[j]);
            res = res.max((yj - moved).abs());
        }
        res
    }

    /// Materialize the dense Hessian `c·kkᵀ + diag(d)` — for
    /// cross-validation against the dense solvers only; the hot path
    /// never builds it.
    pub fn dense_hessian(&self) -> Mat {
        let n = self.k.len();
        let mut h = Mat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                h[(j, i)] = self.c * self.k[j] * self.k[i];
            }
            h[(j, j)] += self.d[j];
        }
        h
    }
}

/// Solve two blocks sharing `k` in lockstep. Each round runs pass 1 of
/// both, one fused pass 2 (four independent chains: both blocks' `kᵀy`
/// and slopes, each folded in index order, exactly as
/// [`RankOneDiagQp::eval`] folds them), then steps both root finds. When
/// one finishes, the other continues alone. `scratch` holds `4n` values:
/// the first block's curvatures and shares, then the second's.
#[allow(clippy::too_many_arguments)] // a pair of blocks, each with its solution slice and hint
fn solve_pair(
    p: &RankOneDiagQp,
    q: &RankOneDiagQp,
    yp: &mut [f64],
    yq: &mut [f64],
    scratch: &mut [f64],
    tol: f64,
    max_evals: usize,
    warm: [Option<f64>; 2],
) -> [BlockSolve; 2] {
    debug_assert!(std::ptr::eq(p.k, q.k), "a lockstep pair shares k");
    let n = p.k.len();
    let (sp, sq) = scratch[..4 * n].split_at_mut(2 * n);
    let (wp, share_p) = sp.split_at_mut(n);
    let (wq, share_q) = sq.split_at_mut(n);
    p.curvatures_into(wp);
    q.curvatures_into(wq);
    let (wp, wq) = (&*wp, &*wq);
    let mut rp = RootFind::new(p, tol, max_evals, warm[0]);
    let mut rq = RootFind::new(q, tol, max_evals, warm[1]);
    while !rp.done && !rq.done {
        p.closed_forms(rp.u, wp, yp, share_p);
        q.closed_forms(rq.u, wq, yq, share_q);
        let (k, yp, yq) = (&p.k[..n], &yp[..n], &yq[..n]);
        let (share_p, share_q) = (&share_p[..n], &share_q[..n]);
        let (mut ky_p, mut slope_p) = (0.0, -1.0);
        let (mut ky_q, mut slope_q) = (0.0, -1.0);
        for j in 0..n {
            ky_p += k[j] * yp[j];
            slope_p -= share_p[j];
            ky_q += k[j] * yq[j];
            slope_q -= share_q[j];
        }
        rp.step(ky_p - rp.u, slope_p);
        rq.step(ky_q - rq.u, slope_q);
    }
    [
        rp.finish(|u| p.eval(u, wp, yp, share_p)),
        rq.finish(|u| q.eval(u, wq, yq, share_q)),
    ]
}

/// Solve `blocks` independent [`RankOneDiagQp`] blocks laid out
/// contiguously in `d`/`g`/`lo`/`hi`/`x` (block `b` owns
/// `[b·n, (b+1)·n)`), all sharing the gain vector `k`. Returns the
/// summed evaluation count, the worst per-block convergence flag, and the
/// overall projected-KKT residual of `x`. This is the MPC hot path:
/// O(n·blocks) total, zero allocation. Blocks `2i` and `2i + 1` run in
/// lockstep (see the module docs) and an odd last block runs alone;
/// `scratch` holds at least `4n` values (`2n` for a single block).
///
/// With `warm = Some(state)`, `state[b]` holds the coupling-scalar hint
/// for block `b` on entry (NaN = cold) and is overwritten with the
/// block's converged root on exit, so a caller that keeps the slice alive
/// across control periods warm-starts every solve. Each hint goes through
/// the stale-bracket guard of [`RankOneDiagQp::solve_into`], so the
/// returned point carries the same `tol` KKT certificate as a cold solve.
#[allow(clippy::too_many_arguments)] // the six problem slices mirror the MPC assembly layout
pub fn solve_blocks_into(
    c: &[f64],
    k: &[f64],
    d: &[f64],
    g: &[f64],
    lo: &[f64],
    hi: &[f64],
    x: &mut [f64],
    scratch: &mut [f64],
    tol: f64,
    max_evals: usize,
    mut warm: Option<&mut [f64]>,
) -> (usize, bool, f64) {
    let n = k.len();
    let blocks = c.len();
    assert!(n > 0 && blocks > 0, "empty structured problem");
    let dim = n * blocks;
    assert!(
        d.len() == dim && g.len() == dim && lo.len() == dim && hi.len() == dim && x.len() == dim,
        "structured problem shape mismatch"
    );
    assert!(
        scratch.len() >= 2 * n * blocks.min(2),
        "solver scratch needs 4n values (2n for one block)"
    );
    if let Some(w) = warm.as_deref() {
        assert_eq!(w.len(), blocks, "warm-start state shape mismatch");
    }
    let block = |b: usize| {
        let r = b * n..(b + 1) * n;
        RankOneDiagQp {
            c: c[b],
            k,
            d: &d[r.clone()],
            g: &g[r.clone()],
            lo: &lo[r.clone()],
            hi: &hi[r],
        }
    };
    let mut evals = 0;
    let mut converged = true;
    let mut res = 0.0_f64;
    for (pair, xs) in x.chunks_mut(2 * n).enumerate() {
        let b = 2 * pair;
        let hint = |b: usize| warm.as_deref().map(|w| w[b]);
        let (yp, yq) = xs.split_at_mut(n);
        let p = block(b);
        p.validate();
        let solves = if yq.is_empty() {
            [
                Some(p.solve_into(yp, scratch, tol, max_evals, hint(b))),
                None,
            ]
        } else {
            let q = block(b + 1);
            q.validate();
            let hints = [hint(b), hint(b + 1)];
            solve_pair(&p, &q, yp, yq, scratch, tol, max_evals, hints).map(Some)
        };
        for (i, (y, s)) in xs.chunks(n).zip(solves.into_iter().flatten()).enumerate() {
            if let Some(w) = warm.as_deref_mut() {
                w[b + i] = s.u;
            }
            evals += s.evals;
            converged &= s.converged;
            res = res.max(block(b + i).kkt_residual(y));
        }
    }
    (evals, converged, res)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::QpProblem;
    use proptest::prelude::*;

    impl RankOneDiagQp<'_> {
        /// Bit-identity oracle for [`Self::eval`]: the one-pass scalar
        /// loop the two-pass kernel replaced.
        fn eval_scalar(&self, u: f64, y: &mut [f64]) -> (f64, f64) {
            let mut ky = 0.0;
            let mut slope = -1.0;
            for (j, out) in y.iter_mut().enumerate() {
                let s = self.g[j] + self.c * u * self.k[j];
                let yj = if self.d[j] > 0.0 {
                    let raw = -s / self.d[j];
                    if raw <= self.lo[j] {
                        self.lo[j]
                    } else if raw >= self.hi[j] {
                        self.hi[j]
                    } else {
                        slope -= self.c * self.k[j] * self.k[j] / self.d[j];
                        raw
                    }
                } else if s > 0.0 {
                    self.lo[j]
                } else if s < 0.0 {
                    self.hi[j]
                } else {
                    0.0_f64.clamp(self.lo[j], self.hi[j])
                };
                *out = yj;
                ky += self.k[j] * yj;
            }
            (ky - u, slope)
        }

        /// [`Self::solve_into`] driven by the scalar oracle.
        fn solve_scalar(
            &self,
            y: &mut [f64],
            tol: f64,
            max_evals: usize,
            warm: Option<f64>,
        ) -> BlockSolve {
            RootFind::new(self, tol, max_evals, warm).finish(|u| self.eval_scalar(u, y))
        }

        /// [`Self::solve_into`] with a fresh scratch.
        fn solve(
            &self,
            y: &mut [f64],
            tol: f64,
            max_evals: usize,
            warm: Option<f64>,
        ) -> BlockSolve {
            let mut scratch = vec![0.0; 2 * self.k.len()];
            self.solve_into(y, &mut scratch, tol, max_evals, warm)
        }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }

    /// Random block with crossed activity at the solution: gains of both
    /// signs, uneven weights, bounds tight enough that some coordinates
    /// pin and some stay free.
    #[allow(clippy::type_complexity)]
    fn random_block(
        seed: u64,
        n: usize,
    ) -> (f64, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut r = xorshift(seed);
        let c = 0.1 + 3.0 * (r().abs());
        let k: Vec<f64> = (0..n).map(|_| 5.0 * r()).collect();
        let d: Vec<f64> = (0..n).map(|_| 0.05 + 4.0 * r().abs()).collect();
        let g: Vec<f64> = (0..n).map(|_| 6.0 * r()).collect();
        let lo: Vec<f64> = (0..n).map(|_| -1.0 + 0.5 * r()).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + 0.2 + r().abs()).collect();
        (c, k, d, g, lo, hi)
    }

    /// Owned block data whose lanes hit every branch of the closed
    /// forms at the coupling scalar `u`: free and clamped curved lanes,
    /// `d = 0` lanes with `s > 0`, `s < 0`, `s = 0.0` and `s = −0.0`
    /// (against boxes that hold, exclude or touch zero), `lo = hi` pins,
    /// and lanes whose unclamped `raw` lands exactly on `lo` or `hi`.
    /// Gains take both signs; `huge` widens the ordinary boxes to ±1e12.
    /// Further blocks share `k` and scale `c` by `b + 1`, so only block 0
    /// is guaranteed to sit on its edges at `u`.
    struct EdgeBlock {
        c: f64,
        k: Vec<f64>,
        d: Vec<f64>,
        g: Vec<f64>,
        lo: Vec<f64>,
        hi: Vec<f64>,
    }

    impl EdgeBlock {
        fn new(seed: u64, n: usize, blocks: usize, u: f64, huge: bool) -> Self {
            let mut r = xorshift(seed);
            let c = 0.05 + 4.0 * r().abs();
            let cu = c * u;
            let mut b = EdgeBlock {
                c,
                k: (0..n).map(|_| 6.0 * r()).collect(),
                d: Vec::new(),
                g: Vec::new(),
                lo: Vec::new(),
                hi: Vec::new(),
            };
            let zeros = [0.0, -0.0, 0.5, -0.5];
            for _ in 0..blocks {
                for j in 0..n {
                    let kj = b.k[j];
                    let kind = (r().abs() * 9.0) as usize;
                    let mut d = 0.05 + 4.0 * r().abs();
                    let mut g = 8.0 * r();
                    let (mut lo, mut hi) = if huge {
                        (-1e12, 1e12)
                    } else {
                        let lo = -1.0 + r();
                        (lo, lo + 0.1 + r().abs())
                    };
                    match kind {
                        1 => {
                            d = 0.0;
                            g = -(cu * kj) + 1.0 + r().abs();
                        }
                        2 => {
                            d = 0.0;
                            g = -(cu * kj) - 1.0 - r().abs();
                        }
                        3 | 4 => {
                            // s = g + cu·k is +0.0 for g = −(cu·k); for
                            // s = −0.0 every term must be −0.0.
                            d = 0.0;
                            if kind == 3 {
                                g = -(cu * kj);
                            } else {
                                b.k[j] = if cu.is_sign_negative() { 0.0 } else { -0.0 };
                                g = -0.0;
                            }
                            let pick = |x: f64| zeros[(x.abs() * 4.0) as usize % 4];
                            let (a, z) = (pick(r()), pick(r()));
                            (lo, hi) = if a <= z { (a, z) } else { (z, a) };
                        }
                        5 => hi = lo,
                        6 | 7 => {
                            let raw = -(g + cu * kj) / d;
                            let width = 0.1 + r().abs();
                            (lo, hi) = if kind == 6 {
                                (raw, raw + width)
                            } else {
                                (raw - width, raw)
                            };
                        }
                        _ => {}
                    }
                    b.d.push(d);
                    b.g.push(g);
                    b.lo.push(lo);
                    b.hi.push(hi);
                }
            }
            b
        }

        fn block(&self, b: usize) -> RankOneDiagQp<'_> {
            let r = b * self.k.len()..(b + 1) * self.k.len();
            RankOneDiagQp {
                c: self.c * (b + 1) as f64,
                k: &self.k,
                d: &self.d[r.clone()],
                g: &self.g[r.clone()],
                lo: &self.lo[r.clone()],
                hi: &self.hi[r],
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The two-pass kernel reproduces the scalar loop bit for bit —
        /// φ, φ′ and every yⱼ — for every n from 1 to 70 (each vector
        /// tail length), at the construction point and at points around
        /// it, including u = ±0.
        #[test]
        fn kernel_eval_is_bitwise_the_scalar_oracle(
            seed in 0u64..1_000_000_000,
            u in -40.0f64..40.0,
            huge in proptest::bool::ANY,
        ) {
            for n in 1..=70 {
                let e = EdgeBlock::new(seed ^ n as u64, n, 1, u, huge);
                let block = e.block(0);
                block.validate();
                let mut w = vec![0.0; n];
                let mut share = vec![0.0; n];
                block.curvatures_into(&mut w);
                for at in [u, -u, 0.0, -0.0, 0.5 * u, 3.0 * u + 1.0] {
                    let mut y_kernel = vec![f64::NAN; n];
                    let mut y_scalar = vec![f64::NAN; n];
                    let (phi, slope) = block.eval(at, &w, &mut y_kernel, &mut share);
                    let (phi_s, slope_s) = block.eval_scalar(at, &mut y_scalar);
                    prop_assert_eq!(phi.to_bits(), phi_s.to_bits());
                    prop_assert_eq!(slope.to_bits(), slope_s.to_bits());
                    prop_assert!(bits(&y_kernel) == bits(&y_scalar), "n={n} u={at}");
                }
            }
        }

        /// Whole multi-block solves through the kernel match solves
        /// driven by the scalar oracle bit for bit: x, the carried roots
        /// u, eval counts, convergence flags and the KKT residual, from
        /// cold, in-bracket and out-of-bracket warm hints. One to five
        /// blocks, optionally one of them uncoupled (`c = 0`), under the
        /// production budget and under budgets of 1–3 evaluations, where
        /// a block may stop on its budget before or after its neighbour
        /// and return its un-evaluated next iterate as `u`.
        #[test]
        fn whole_solves_are_bitwise_the_scalar_oracle(
            seed in 0u64..1_000_000_000,
            u in -20.0f64..20.0,
            hint in -60.0f64..60.0,
            huge in proptest::bool::ANY,
            uncoupled in 0usize..8,
        ) {
            for n in 1..=70 {
                let blocks = 1 + n % 5;
                let e = EdgeBlock::new(seed ^ n as u64, n, blocks, u, huge);
                let mut c: Vec<f64> = (0..blocks).map(|b| e.block(b).c).collect();
                if let Some(cb) = c.get_mut(uncoupled) {
                    *cb = 0.0;
                }
                let block = |b: usize| RankOneDiagQp { c: c[b], ..e.block(b) };
                let dim = n * blocks;
                for max_evals in [1, 2, 3, 200] {
                    let mut x = vec![0.0; dim];
                    let mut scratch = vec![0.0; 4 * n];
                    let mut warm: Vec<f64> = (0..blocks).map(|b| if b == 0 { f64::NAN } else { hint }).collect();
                    let mut warm_s = warm.clone();
                    let (evals, converged, res) = solve_blocks_into(
                        &c, &e.k, &e.d, &e.g, &e.lo, &e.hi, &mut x, &mut scratch, 1e-7, max_evals,
                        Some(&mut warm),
                    );
                    let mut x_s = vec![0.0; dim];
                    let (mut evals_s, mut converged_s, mut res_s) = (0, true, 0.0_f64);
                    for (b, hint_b) in warm_s.iter_mut().enumerate() {
                        let y = &mut x_s[b * n..(b + 1) * n];
                        let s = block(b).solve_scalar(y, 1e-7, max_evals, Some(*hint_b));
                        *hint_b = s.u;
                        evals_s += s.evals;
                        converged_s &= s.converged;
                        res_s = res_s.max(block(b).kkt_residual(y));
                    }
                    let at = format!("n={n} blocks={blocks} max_evals={max_evals}");
                    prop_assert!(bits(&x) == bits(&x_s), "{at}: x");
                    prop_assert!(bits(&warm) == bits(&warm_s), "{at}: u");
                    prop_assert!((evals, converged) == (evals_s, converged_s), "{at}: evals");
                    prop_assert!(res.to_bits() == res_s.to_bits(), "{at}: kkt");
                }
            }
        }
    }
    #[test]
    fn agrees_with_dense_fista_on_random_blocks() {
        for seed in 0..30 {
            let n = 2 + (seed as usize % 7);
            let (c, k, d, g, lo, hi) = random_block(seed, n);
            let block = RankOneDiagQp {
                c,
                k: &k,
                d: &d,
                g: &g,
                lo: &lo,
                hi: &hi,
            };
            let mut y = vec![0.0; n];
            let s = block.solve(&mut y, 1e-9, 200, None);
            assert!(s.converged, "seed={seed}");
            assert!(block.kkt_residual(&y) < 1e-8, "seed={seed}");
            let p = QpProblem::new(block.dense_hessian(), g.clone(), lo.clone(), hi.clone());
            let dense = p.solve(1e-10, 100_000);
            assert!(dense.converged, "seed={seed}");
            for (a, b) in y.iter().zip(&dense.x) {
                assert!((a - b).abs() < 1e-6, "seed={seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn unconstrained_matches_sherman_morrison() {
        // Wide-open box: the optimum solves (c·kkᵀ + D)y = −g, which
        // Sherman–Morrison gives in closed form.
        let k = vec![2.0, -1.0, 0.5, 3.0];
        let d = vec![1.0, 2.0, 0.5, 4.0];
        let g = vec![1.0, -2.0, 0.3, -1.5];
        let c = 0.7;
        let lo = vec![-1e9; 4];
        let hi = vec![1e9; 4];
        let block = RankOneDiagQp {
            c,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y = vec![0.0; 4];
        let s = block.solve(&mut y, 1e-12, 500, None);
        assert!(s.converged);
        // y = −D⁻¹g + (c·kᵀD⁻¹g / (1 + c·kᵀD⁻¹k))·D⁻¹k
        let ktdg: f64 = (0..4).map(|j| k[j] * g[j] / d[j]).sum();
        let ktdk: f64 = (0..4).map(|j| k[j] * k[j] / d[j]).sum();
        let alpha = c * ktdg / (1.0 + c * ktdk);
        for j in 0..4 {
            let exact = -g[j] / d[j] + alpha * k[j] / d[j];
            assert!((y[j] - exact).abs() < 1e-9, "j={j}: {} vs {exact}", y[j]);
        }
        assert!((s.u - crate::linalg::dot(&k, &y)).abs() < 1e-9);
    }

    #[test]
    fn all_pinned_box_returns_the_corner() {
        // Equal bounds pin every coordinate regardless of the objective.
        let k = vec![1.0, 2.0];
        let d = vec![1.0, 1.0];
        let g = vec![100.0, -100.0];
        let lo = vec![0.3, -0.4];
        let hi = lo.clone();
        let block = RankOneDiagQp {
            c: 5.0,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y = vec![0.0; 2];
        let s = block.solve(&mut y, 1e-10, 100, None);
        assert!(s.converged);
        assert_eq!(y, lo);
        assert!(block.kkt_residual(&y) < 1e-12);
    }

    #[test]
    fn zero_coupling_is_the_diagonal_closed_form() {
        let k = vec![3.0, 3.0, 3.0];
        let d = vec![2.0, 4.0, 8.0];
        let g = vec![-2.0, -2.0, -2.0];
        let lo = vec![0.0; 3];
        let hi = vec![10.0; 3];
        let block = RankOneDiagQp {
            c: 0.0,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y = vec![0.0; 3];
        let s = block.solve(&mut y, 1e-10, 100, None);
        assert_eq!(s.evals, 1);
        for (j, &yj) in y.iter().enumerate() {
            assert!((yj - 2.0 / d[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_diagonal_coordinate_goes_bang_bang() {
        // d₀ = 0: the coordinate has no curvature of its own and must
        // land on a bound (whichever the coupled gradient favors).
        let k = vec![1.0, 1.0];
        let d = vec![0.0, 1.0];
        let g = vec![0.5, -1.0];
        let lo = vec![-1.0, -1.0];
        let hi = vec![1.0, 1.0];
        let block = RankOneDiagQp {
            c: 0.25,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y = vec![0.0; 2];
        block.solve(&mut y, 1e-9, 200, None);
        assert!(y[0] == -1.0 || y[0] == 1.0, "y0={}", y[0]);
        // The dense reference agrees on the objective value.
        let p = QpProblem::new(block.dense_hessian(), g.clone(), lo.clone(), hi.clone());
        let dense = p.solve(1e-10, 50_000);
        assert!((block.objective(&y) - block.objective(&dense.x)).abs() < 1e-7);
    }

    #[test]
    fn multi_block_layout_solves_blocks_independently() {
        let n = 3;
        let k = vec![2.0, 1.0, 4.0];
        let c = [1.0, 0.5];
        let d = vec![1.0, 2.0, 3.0, 0.5, 0.5, 0.5];
        let g = vec![-1.0, 0.0, 2.0, 1.0, -2.0, 0.3];
        let lo = vec![-1.0; 6];
        let hi = vec![1.0; 6];
        let mut x = vec![0.0; 6];
        let mut scratch = vec![0.0; 4 * n];
        let (evals, converged, res) = solve_blocks_into(
            &c,
            &k,
            &d,
            &g,
            &lo,
            &hi,
            &mut x,
            &mut scratch,
            1e-9,
            200,
            None,
        );
        assert!(converged && evals >= 2);
        assert!(res < 1e-8);
        // Each block matches its standalone solve.
        for (b, &cb) in c.iter().enumerate() {
            let r = b * n..(b + 1) * n;
            let block = RankOneDiagQp {
                c: cb,
                k: &k,
                d: &d[r.clone()],
                g: &g[r.clone()],
                lo: &lo[r.clone()],
                hi: &hi[r.clone()],
            };
            let mut y = vec![0.0; n];
            block.solve(&mut y, 1e-9, 200, None);
            for (a, bb) in x[r].iter().zip(&y) {
                assert!((a - bb).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn newton_polish_converges_in_few_evals() {
        // MPC-shaped block (uniform positive gains, healthy diagonal):
        // the root find must be an order of magnitude under the budget a
        // dense FISTA iteration count would imply.
        let n = 64;
        let k = vec![15.0; n];
        let d = vec![2.0; n];
        let g: Vec<f64> = (0..n).map(|j| -30.0 - (j as f64 % 7.0)).collect();
        let lo = vec![0.2; n];
        let hi = vec![1.0; n];
        let block = RankOneDiagQp {
            c: 14.0,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y = vec![0.0; n];
        let s = block.solve(&mut y, 1e-9, 200, None);
        assert!(s.converged);
        assert!(s.evals <= 60, "evals={}", s.evals);
        assert!(block.kkt_residual(&y) < 1e-8);
    }

    #[test]
    fn warm_start_reuses_previous_root_and_keeps_the_certificate() {
        for seed in 0..20 {
            let n = 3 + (seed as usize % 5);
            let (c, k, d, g, lo, hi) = random_block(seed + 100, n);
            let block = RankOneDiagQp {
                c,
                k: &k,
                d: &d,
                g: &g,
                lo: &lo,
                hi: &hi,
            };
            let mut y_cold = vec![0.0; n];
            let cold = block.solve(&mut y_cold, 1e-9, 200, None);
            assert!(cold.converged);
            // Re-solving the same block from its own root must converge
            // at least as fast and land on the same point.
            let mut y_warm = vec![0.0; n];
            let warm = block.solve(&mut y_warm, 1e-9, 200, Some(cold.u));
            assert!(warm.converged, "seed={seed}");
            assert!(warm.evals <= cold.evals, "seed={seed}");
            assert!(block.kkt_residual(&y_warm) < 1e-8, "seed={seed}");
            for (a, b) in y_cold.iter().zip(&y_warm) {
                assert!((a - b).abs() < 1e-7, "seed={seed}");
            }
        }
    }

    #[test]
    fn stale_warm_hint_falls_back_to_the_cold_path() {
        // Hints outside the fresh bracket (or non-finite) must be
        // rejected by the guard, reproducing the cold solve exactly.
        let (c, k, d, g, lo, hi) = random_block(7, 5);
        let block = RankOneDiagQp {
            c,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y_cold = vec![0.0; 5];
        let cold = block.solve(&mut y_cold, 1e-9, 200, None);
        for bad in [1e12, -1e12, f64::NAN, f64::INFINITY] {
            let mut y = vec![0.0; 5];
            let s = block.solve(&mut y, 1e-9, 200, Some(bad));
            assert!(s.converged);
            assert_eq!(s.evals, cold.evals, "hint={bad}");
            assert_eq!(y, y_cold, "hint={bad}");
        }
    }

    #[test]
    fn blocks_warm_state_round_trips_across_solves() {
        let n = 3;
        let k = vec![2.0, 1.0, 4.0];
        let c = [1.0, 0.5];
        let d = vec![1.0, 2.0, 3.0, 0.5, 0.5, 0.5];
        let g = vec![-1.0, 0.0, 2.0, 1.0, -2.0, 0.3];
        let lo = vec![-1.0; 6];
        let hi = vec![1.0; 6];
        let mut x_cold = vec![0.0; 6];
        let mut scratch = vec![0.0; 4 * n];
        let mut warm = vec![f64::NAN; 2];
        let (cold_evals, conv, res) = solve_blocks_into(
            &c,
            &k,
            &d,
            &g,
            &lo,
            &hi,
            &mut x_cold,
            &mut scratch,
            1e-9,
            200,
            Some(&mut warm),
        );
        assert!(conv && res < 1e-8);
        assert!(warm.iter().all(|u| u.is_finite()), "roots recorded");
        // Second solve of the identical problem starts at the root.
        let mut x_warm = vec![0.0; 6];
        let (warm_evals, conv2, res2) = solve_blocks_into(
            &c,
            &k,
            &d,
            &g,
            &lo,
            &hi,
            &mut x_warm,
            &mut scratch,
            1e-9,
            200,
            Some(&mut warm),
        );
        assert!(conv2 && res2 < 1e-8);
        assert!(warm_evals <= cold_evals);
        for (a, b) in x_cold.iter().zip(&x_warm) {
            assert!((a - b).abs() < 1e-7);
        }
        assert_eq!(x_cold.len(), n * c.len());
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper bound")]
    fn validate_rejects_crossed_bounds() {
        let k = [1.0];
        let d = [1.0];
        let g = [0.0];
        let lo = [1.0];
        let hi = [0.0];
        RankOneDiagQp {
            c: 1.0,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        }
        .validate();
    }
}
