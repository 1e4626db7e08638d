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
//! optimum off the closed forms. A full evaluation is O(n); on the
//! paper's 64-channel MPC the two blocks take about 19 and 23 root-find
//! iterations, only about 2 of them Newton steps (φ is piecewise linear
//! with up to 2n kinks, and a Newton step is exact only from the root's
//! own piece). About two thirds of the iterations land where every lane
//! is clamped, and the clamp certificate below answers those in O(1).
//! Against the dense FISTA path this replaces O((n·Lc)²) matvecs per
//! iteration with O(n·Lc) total work per control period.
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
//! Away from the root every lane sits on a bound, so φ(u) = K − u
//! exactly with φ′ = −1, and a full evaluation there would still pay n
//! divisions and an n-long fold. Once per block solve, a clamp
//! certificate names the two ranges of `u` in which every lane is
//! clamped: it approximates each lane's two crossings, pads the
//! outermost ones, and verifies both candidates against the exact
//! closed forms. Each step of a lane's closed form is a correctly
//! rounded, monotone operation, so a lane clamped in the direction of
//! travel stays on the same bound beyond its candidate. On the left
//! every lane takes the bound that maximizes `kⱼyⱼ`, on the right the
//! one that minimizes it, so `K` is the matching bracket end, folded in
//! the same order. The drivers answer a covered iterate with
//! `(K − u, −1.0)` and evaluate the rest in full. `y` takes the
//! certified pattern at the end if the last evaluated iterate was
//! covered. The iterate sequence does not change, so `y`, `u`, the
//! evaluation counts and the flags are bitwise those of evaluating
//! every iterate. The root find itself and the scalar oracle of the
//! tests never consult the certificate.
//!
//! **Per controller and per period.** What a block solve derives from
//! `c`, `k`, `lo` and `hi` alone is a handful of scalars: the bracket
//! ends (two n-long folds in index order, which double as the
//! certificate's `K`), the tolerance scale `max(c·‖k‖∞, 1)` and whether
//! the block is coupled at all. The Eq. (8) MPC never changes those
//! four inputs, so `FixedBlocks` holds them with these O(1)-per-block
//! constants, computed and validated once when the controller is built.
//! [`solve_blocks_into`] and [`RankOneDiagQp::solve_into`] take the
//! whole problem, so they validate it and derive the same constants on
//! every call, then run the same code. What reads `d` or `g` runs per
//! period, in lane-independent passes that vectorize: the checks of `d`
//! and `g`, the curvatures, the certificate's candidate crossings, its
//! two quotients per lane and its clamp tests, and the KKT residual.
//! Per block and period that is four divisions per lane (a curvature,
//! a crossing and two quotients) before the root find, one per lane in
//! each full evaluation, O(1) per certified iterate, and one n-long
//! in-order dot product for the KKT residual. No lane-sized state
//! outlives a solve.
//!
//! [`RankOneDiagQp`] is one block. Every entry point writes into
//! caller-provided slices and takes a caller-provided scratch (`2n`
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
    /// Number of root-find iterations: each evaluates φ once, in O(n),
    /// or in O(1) where the block's clamp certificate covers the
    /// iterate. The count is the same either way.
    pub evals: usize,
    /// Whether the root find met its tolerance (it essentially always
    /// does; `false` only after `max_evals` with a still-wide bracket).
    pub converged: bool,
}

/// What a block solve derives from `c`, `k`, `lo` and `hi` alone (see
/// the module docs): held by [`FixedBlocks`], derived per call by the
/// entry points that take the whole problem.
#[derive(Debug, Clone, Copy)]
struct BlockConsts {
    /// The bracket of the root, `a = Σ min(kⱼloⱼ, kⱼhiⱼ)` and
    /// `b = Σ max(kⱼloⱼ, kⱼhiⱼ)`, each folded in index order from `+0.0`:
    /// also the clamp certificate's `K` on the right (`a`) and on the
    /// left (`b`). Both `0.0` when uncoupled.
    a: f64,
    b: f64,
    /// `max(c·‖k‖∞, 1)`. A φ-residual of δ perturbs the gradient by at
    /// most `c·‖k‖∞·δ`, so the root find aims at the caller's KKT
    /// tolerance divided by this.
    tol_scale: f64,
    /// `false` when `c = 0` or `k = 0`: the closed forms are exact at any
    /// `u`, and one evaluation finishes the block.
    coupled: bool,
}

impl BlockConsts {
    fn new(c: f64, k: &[f64], lo: &[f64], hi: &[f64]) -> Self {
        let coupled = c > 0.0 && k.iter().any(|&k| k != 0.0);
        let mut consts = BlockConsts {
            a: 0.0,
            b: 0.0,
            tol_scale: 1.0,
            coupled,
        };
        if coupled {
            for ((&k, &l), &h) in k.iter().zip(lo).zip(hi) {
                consts.a += (k * l).min(k * h);
                consts.b += (k * l).max(k * h);
            }
            let k_inf = fold4(k.len(), 0.0, f64::max, |j| k[j].abs());
            consts.tol_scale = (c * k_inf).max(1.0);
        }
        consts
    }
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
    /// The last iterate evaluated (NaN before the first): `u` itself,
    /// unless a budget stop moved `u` on.
    last: f64,
    evals: usize,
    max_evals: usize,
    /// See [`BlockConsts::coupled`].
    coupled: bool,
    converged: bool,
    done: bool,
}

impl RootFind {
    /// Start at the block's bracket and pick the first iterate. `warm`
    /// is only trusted strictly inside the bracket (see
    /// [`RankOneDiagQp::solve_into`]).
    fn new(consts: &BlockConsts, tol: f64, max_evals: usize, warm: Option<f64>) -> Self {
        assert!(tol > 0.0 && max_evals > 0);
        let mut rf = RootFind {
            a: 0.0,
            b: 0.0,
            u: 0.0,
            tol_u: tol,
            last: f64::NAN,
            evals: 0,
            max_evals,
            coupled: consts.coupled,
            converged: false,
            done: false,
        };
        if !rf.coupled {
            return rf;
        }
        (rf.a, rf.b) = (consts.a, consts.b);
        rf.tol_u = tol / consts.tol_scale;
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
        self.last = self.u;
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

/// Fold `f(0), …, f(n − 1)` with `op` over four independent
/// accumulators. Only for an exact, order-free `op` (`max` of
/// non-negative values, `min`, `&`): the result is the in-order fold's,
/// without its n-long serial chain, so it vectorizes.
#[inline(always)]
fn fold4<T: Copy>(n: usize, init: T, op: impl Fn(T, T) -> T, f: impl Fn(usize) -> T) -> T {
    let mut acc = [init; 4];
    let split = n - n % 4;
    for j in (0..split).step_by(4) {
        for (i, a) in acc.iter_mut().enumerate() {
            *a = op(*a, f(j + i));
        }
    }
    for j in split..n {
        acc[0] = op(acc[0], f(j));
    }
    op(op(acc[0], acc[1]), op(acc[2], acc[3]))
}

/// `true` if every value is finite. Folds with `&`, not `all()`: no
/// short circuit, so it vectorizes.
fn all_finite(v: &[f64]) -> bool {
    v.iter().fold(true, |ok, x| ok & x.is_finite())
}

/// The checks of [`RankOneDiagQp::validate`] on what a block solve
/// derives its constants from: `c`, `k` and the box.
fn validate_fixed(c: f64, k: &[f64], lo: &[f64], hi: &[f64]) {
    assert!(c >= 0.0 && c.is_finite(), "c must be ≥ 0");
    assert!(
        all_finite(k) & all_finite(lo) & all_finite(hi),
        "block inputs must be finite"
    );
    assert!(
        lo.iter().zip(hi).fold(true, |ok, (l, u)| ok & (l <= u)),
        "lower bound exceeds upper bound"
    );
}

/// The checks of [`RankOneDiagQp::validate`] on what changes every
/// period: `d` and `g`.
fn validate_varying(d: &[f64], g: &[f64]) {
    assert!(all_finite(d) & all_finite(g), "block inputs must be finite");
    assert!(
        d.iter().fold(true, |ok, &d| ok & (d >= 0.0)),
        "diagonal must be ≥ 0"
    );
}

/// The two ranges of the coupling scalar in which every lane of a block
/// is clamped, certified once per block solve (see the module docs).
/// For `u ≤ left` each lane sits on the bound that maximizes `kⱼyⱼ`, so
/// φ(u) = `k_left − u` with `k_left` the bracket's upper end; for
/// `u ≥ right` on the bound that minimizes it, φ(u) = `k_right − u`.
/// φ′ is exactly −1 in both. A refused side is NaN, which no iterate
/// satisfies, not even an infinite one. Only the drivers consult it;
/// [`RootFind`] and the scalar oracle never do.
#[derive(Debug, Clone, Copy)]
struct ClampCert {
    left: f64,
    right: f64,
    k_left: f64,
    k_right: f64,
}

impl ClampCert {
    /// No certified range: every iterate gets a full evaluation.
    const NONE: Self = ClampCert {
        left: f64::NAN,
        right: f64::NAN,
        k_left: f64::NAN,
        k_right: f64::NAN,
    };

    /// Certify `block`, whose root find `rf` has just started. Step 1
    /// brackets every lane's free range between its two crossings
    /// `(−hⱼdⱼ − gⱼ)/(c·kⱼ)` and `(−lⱼdⱼ − gⱼ)/(c·kⱼ)`, written to the
    /// scratch `lows` and `highs` (`n` values each), and pads the
    /// outermost ones by a relative 1e-9. These are approximations:
    /// [`Self::verify`] decides, so the pad trades hit rate, never
    /// correctness. An uncoupled block (`c = 0`, or `k = 0`) gets none.
    fn new(block: &RankOneDiagQp, rf: &RootFind, lows: &mut [f64], highs: &mut [f64]) -> Self {
        if !rf.coupled {
            return Self::NONE;
        }
        let n = block.k.len();
        let (c, k, d, g) = (block.c, &block.k[..n], &block.d[..n], &block.g[..n]);
        let (lo, hi) = (&block.lo[..n], &block.hi[..n]);
        let (lows, highs) = (&mut lows[..n], &mut highs[..n]);
        for j in 0..n {
            let inv = 1.0 / (c * k[j]);
            let at_hi = (-hi[j] * d[j] - g[j]) * inv;
            let at_lo = (-lo[j] * d[j] - g[j]) * inv;
            lows[j] = at_hi.min(at_lo);
            highs[j] = at_hi.max(at_lo);
        }
        let (lows, highs) = (&*lows, &*highs);
        let first = fold4(n, f64::INFINITY, f64::min, |j| lows[j]);
        let last = fold4(n, f64::NEG_INFINITY, f64::max, |j| highs[j]);
        let pad = 1e-9 * first.abs().max(last.abs());
        Self::verify(block, rf, first - pad, last + pad)
    }

    /// Step 2: evaluate every lane at both candidates exactly as
    /// [`RankOneDiagQp::closed_forms`] does, `raw = −(g + (c·u)·k)/d`,
    /// and keep a side only if every lane is clamped there in the
    /// absorbing sense. One branch-free pass of selects and `&` folds,
    /// which vectorizes. Each step of `raw` is a correctly rounded,
    /// monotone operation, so a lane clamped in the direction of travel
    /// keeps its bound for every `u` beyond. A lane with `kⱼ = 0` refuses
    /// both sides (and `c = 0` never gets here). The pattern's `kᵀy`,
    /// folded in index order, is the bracket end that
    /// [`BlockConsts::new`] folded from the same bounds.
    fn verify(block: &RankOneDiagQp, rf: &RootFind, left: f64, right: f64) -> Self {
        let n = block.k.len();
        let (c, k, d, g) = (block.c, &block.k[..n], &block.d[..n], &block.g[..n]);
        let (lo, hi) = (&block.lo[..n], &block.hi[..n]);
        let (cl, cr) = (c * left, c * right);
        let (mut ok_left, mut ok_right) = (true, true);
        for j in 0..n {
            let (sl, sr) = (g[j] + cl * k[j], g[j] + cr * k[j]);
            let (rl, rr, l, h) = (-sl / d[j], -sr / d[j], lo[j], hi[j]);
            // With kⱼ > 0, raw falls as u grows: it must stay at hi
            // leftwards (and above lo, which wins ties) and at lo
            // rightwards. kⱼ < 0 mirrors it.
            let pos = k[j] > 0.0;
            let at_hi_l = (rl > l) & (rl >= h);
            let at_hi_r = (rr > l) & (rr >= h);
            let curved_l = if pos { at_hi_l } else { rl <= l };
            let curved_r = if pos { rr <= l } else { at_hi_r };
            // dⱼ = 0 needs a strict sign of s.
            let flat_l = if pos { sl < 0.0 } else { sl > 0.0 };
            let flat_r = if pos { sr > 0.0 } else { sr < 0.0 };
            let curved = d[j] > 0.0;
            let live = k[j] != 0.0;
            ok_left &= live & if curved { curved_l } else { flat_l };
            ok_right &= live & if curved { curved_r } else { flat_r };
        }
        ClampCert {
            left: if ok_left { left } else { Self::NONE.left },
            right: if ok_right { right } else { Self::NONE.right },
            k_left: rf.b,
            k_right: rf.a,
        }
    }

    /// `(φ(u), φ′(u))` if `u` is certified.
    #[inline]
    fn answer(&self, u: f64) -> Option<(f64, f64)> {
        if u <= self.left {
            Some((self.k_left - u, -1.0))
        } else if u >= self.right {
            Some((self.k_right - u, -1.0))
        } else {
            None
        }
    }

    /// φ at `u`: O(1) if certified, else [`RankOneDiagQp::eval`].
    #[inline]
    fn eval(
        &self,
        block: &RankOneDiagQp,
        u: f64,
        w: &[f64],
        y: &mut [f64],
        share: &mut [f64],
    ) -> (f64, f64) {
        self.answer(u).unwrap_or_else(|| block.eval(u, w, y, share))
    }

    /// The closed forms at a certified `u`, without evaluating them:
    /// every lane on the bound the certificate names.
    fn pattern_into(&self, block: &RankOneDiagQp, u: f64, y: &mut [f64]) {
        let left = u <= self.left;
        for (j, yj) in y.iter_mut().enumerate() {
            *yj = if (block.k[j] > 0.0) == left {
                block.hi[j]
            } else {
                block.lo[j]
            };
        }
    }

    /// Once the root find `rf` is done: a certified last iterate left
    /// `y` at an older iterate's closed forms, so write its pattern.
    fn settle(&self, block: &RankOneDiagQp, rf: &RootFind, y: &mut [f64]) {
        if self.answer(rf.last).is_some() {
            self.pattern_into(block, rf.last, y);
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
        validate_fixed(self.c, self.k, self.lo, self.hi);
        validate_varying(self.d, self.g);
    }

    /// The block's constants, derived afresh.
    fn consts(&self) -> BlockConsts {
        BlockConsts::new(self.c, self.k, self.lo, self.hi)
    }

    /// Per-lane curvature `wⱼ = c·kⱼ·kⱼ/dⱼ`: how much a free coordinate
    /// steepens φ. Computed once per block solve; `0.0` where `dⱼ = 0`
    /// (such a lane is never free).
    fn curvatures_into(&self, w: &mut [f64]) {
        let n = w.len();
        let (k, d) = (&self.k[..n], &self.d[..n]);
        for j in 0..n {
            w[j] = if d[j] > 0.0 {
                self.c * k[j] * k[j] / d[j]
            } else {
                0.0
            };
        }
    }

    /// A block solve's set-up before its first iterate: the curvatures
    /// into `w`, and the clamp certificate for the root find `rf`, whose
    /// candidate crossings go into `y` and `share` (free until the first
    /// evaluation overwrites them).
    fn prepare(&self, rf: &RootFind, w: &mut [f64], y: &mut [f64], share: &mut [f64]) -> ClampCert {
        self.curvatures_into(w);
        ClampCert::new(self, rf, y, share)
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
    /// bounds the root-find iterations (each at most O(n); see the
    /// module docs for the O(1) ones). No allocation.
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
        self.solve_with(&self.consts(), y, scratch, tol, max_evals, warm)
    }

    /// [`Self::solve_into`] from the block's constants.
    fn solve_with(
        &self,
        consts: &BlockConsts,
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
        let mut rf = RootFind::new(consts, tol, max_evals, warm);
        let cert = self.prepare(&rf, w, y, share);
        let w = &*w;
        let solve = rf.finish(|u| cert.eval(self, u, w, y, share));
        cert.settle(self, &rf, y);
        solve
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
    /// The projection is `f64::clamp` spelled as two selects, without
    /// its per-lane `lo ≤ hi` assert, so the pass vectorizes.
    pub fn kkt_residual(&self, y: &[f64]) -> f64 {
        let ky = crate::linalg::dot(self.k, y);
        let n = y.len();
        let (k, d, g) = (&self.k[..n], &self.d[..n], &self.g[..n]);
        let (lo, hi) = (&self.lo[..n], &self.hi[..n]);
        fold4(n, 0.0, f64::max, |j| {
            let grad = d[j] * y[j] + self.c * ky * k[j] + g[j];
            let step = y[j] - grad;
            let moved = if step < lo[j] { lo[j] } else { step };
            let moved = if moved > hi[j] { hi[j] } else { moved };
            (y[j] - moved).abs()
        })
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

/// Solve two blocks sharing `k` in lockstep. A round in which both
/// iterates need a full evaluation runs pass 1 of both, one fused
/// pass 2 (four independent chains: both blocks' `kᵀy` and slopes, each
/// folded in index order, exactly as [`RankOneDiagQp::eval`] folds
/// them), then steps both root finds. A round in which a clamp
/// certificate covers either iterate answers that block in O(1) and
/// evaluates the other alone. When one block finishes, the other
/// continues alone. `scratch` holds `4n` values: the first block's
/// curvatures and shares, then the second's.
#[allow(clippy::too_many_arguments)] // a pair of blocks, each with its constants, solution slice and hint
fn solve_pair(
    p: &RankOneDiagQp,
    q: &RankOneDiagQp,
    consts: [BlockConsts; 2],
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
    let mut rp = RootFind::new(&consts[0], tol, max_evals, warm[0]);
    let mut rq = RootFind::new(&consts[1], tol, max_evals, warm[1]);
    let (cp, cq) = (
        p.prepare(&rp, wp, yp, share_p),
        q.prepare(&rq, wq, yq, share_q),
    );
    let (wp, wq) = (&*wp, &*wq);
    while !rp.done && !rq.done {
        let (ep, eq) = (cp.answer(rp.u), cq.answer(rq.u));
        if ep.is_some() || eq.is_some() {
            let (phi, slope) = ep.unwrap_or_else(|| p.eval(rp.u, wp, yp, share_p));
            rp.step(phi, slope);
            let (phi, slope) = eq.unwrap_or_else(|| q.eval(rq.u, wq, yq, share_q));
            rq.step(phi, slope);
            continue;
        }
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
    let solves = [
        rp.finish(|u| cp.eval(p, u, wp, yp, share_p)),
        rq.finish(|u| cq.eval(q, u, wq, yq, share_q)),
    ];
    cp.settle(p, &rp, yp);
    cq.settle(q, &rq, yq);
    solves
}

/// Solve `blocks` independent [`RankOneDiagQp`] blocks laid out
/// contiguously in `d`/`g`/`lo`/`hi`/`x` (block `b` owns
/// `[b·n, (b+1)·n)`), all sharing the gain vector `k`. Returns the
/// summed evaluation count, the worst per-block convergence flag, and the
/// overall projected-KKT residual of `x`: O(n·blocks) total, zero
/// allocation. Blocks `2i` and `2i + 1` run in lockstep (see the module
/// docs) and an odd last block runs alone; `scratch` holds at least
/// `4n` values (`2n` for a single block). Every block is validated, and
/// its constants derived, on every call. The MPC hot path runs the same
/// solve from constants it derived once, when the controller was built.
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
    warm: Option<&mut [f64]>,
) -> (usize, bool, f64) {
    let problem = Blocks { c, k, d, g, lo, hi };
    let block_consts = |b: usize| {
        let block = problem.block(b);
        block.validate();
        block.consts()
    };
    solve_blocks(problem, block_consts, x, scratch, tol, max_evals, warm)
}

/// A multi-block problem laid out as [`solve_blocks_into`] takes it:
/// one `c` per block, the shared `k`, and block `b`'s lanes of `d`, `g`,
/// `lo` and `hi` at `[b·n, (b+1)·n)`.
#[derive(Clone, Copy)]
struct Blocks<'a> {
    c: &'a [f64],
    k: &'a [f64],
    d: &'a [f64],
    g: &'a [f64],
    lo: &'a [f64],
    hi: &'a [f64],
}

impl<'a> Blocks<'a> {
    fn block(&self, b: usize) -> RankOneDiagQp<'a> {
        let r = b * self.k.len()..(b + 1) * self.k.len();
        RankOneDiagQp {
            c: self.c[b],
            k: self.k,
            d: &self.d[r.clone()],
            g: &self.g[r.clone()],
            lo: &self.lo[r.clone()],
            hi: &self.hi[r],
        }
    }
}

/// The one solve behind [`solve_blocks_into`] and
/// `FixedBlocks::solve_into`: `block_consts(b)` yields block `b`'s
/// constants, once per block.
fn solve_blocks(
    problem: Blocks,
    block_consts: impl Fn(usize) -> BlockConsts,
    x: &mut [f64],
    scratch: &mut [f64],
    tol: f64,
    max_evals: usize,
    mut warm: Option<&mut [f64]>,
) -> (usize, bool, f64) {
    let Blocks { c, k, d, g, lo, hi } = problem;
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
    let mut evals = 0;
    let mut converged = true;
    let mut res = 0.0_f64;
    for (pair, xs) in x.chunks_mut(2 * n).enumerate() {
        let b = 2 * pair;
        let hint = |b: usize| warm.as_deref().map(|w| w[b]);
        let (yp, yq) = xs.split_at_mut(n);
        let p = problem.block(b);
        let solves = if yq.is_empty() {
            let solve = p.solve_with(&block_consts(b), yp, scratch, tol, max_evals, hint(b));
            [Some(solve), None]
        } else {
            let consts = [block_consts(b), block_consts(b + 1)];
            let hints = [hint(b), hint(b + 1)];
            let q = problem.block(b + 1);
            solve_pair(&p, &q, consts, yp, yq, scratch, tol, max_evals, hints).map(Some)
        };
        for (i, (y, s)) in xs.chunks(n).zip(solves.into_iter().flatten()).enumerate() {
            if let Some(w) = warm.as_deref_mut() {
                w[b + i] = s.u;
            }
            evals += s.evals;
            converged &= s.converged;
            res = res.max(problem.block(b + i).kkt_residual(y));
        }
    }
    (evals, converged, res)
}

/// The fixed half of a [`solve_blocks_into`] problem: each block's
/// coupling weight `c`, the shared gains `k` and the box, validated once
/// and held with the constants a block solve derives from them alone
/// (see the module docs). An Eq. (8) MPC controller builds one and
/// never changes it. [`Self::solve_into`] then solves any number of
/// periods with fresh `d` and `g` on the code of [`solve_blocks_into`],
/// bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct FixedBlocks {
    c: Vec<f64>,
    k: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    consts: Vec<BlockConsts>,
}

impl FixedBlocks {
    /// Blocks laid out as [`solve_blocks_into`] takes them: one `c` per
    /// block, and `lo`/`hi` of `n` values per block for the `n` gains.
    /// Panics on a shape error and on what [`RankOneDiagQp::validate`]
    /// rejects in these inputs: a non-finite value, `lo > hi`, or a
    /// negative or non-finite `c`.
    pub(crate) fn new(c: Vec<f64>, k: Vec<f64>, lo: Vec<f64>, hi: Vec<f64>) -> Self {
        let n = k.len();
        assert!(n > 0 && !c.is_empty(), "empty structured problem");
        assert!(
            lo.len() == n * c.len() && hi.len() == lo.len(),
            "structured problem shape mismatch"
        );
        let consts = (0..c.len())
            .map(|b| {
                let r = b * n..(b + 1) * n;
                let (lo, hi) = (&lo[r.clone()], &hi[r]);
                validate_fixed(c[b], &k, lo, hi);
                BlockConsts::new(c[b], &k, lo, hi)
            })
            .collect();
        FixedBlocks {
            c,
            k,
            lo,
            hi,
            consts,
        }
    }

    /// The shared gain vector.
    pub(crate) fn k(&self) -> &[f64] {
        &self.k
    }

    /// [`solve_blocks_into`] with this problem's `c`, `k`, `lo` and `hi`
    /// and the period's `d` and `g`, which are validated on every call.
    #[allow(clippy::too_many_arguments)] // solve_blocks_into's arguments, less the fixed ones
    pub(crate) fn solve_into(
        &self,
        d: &[f64],
        g: &[f64],
        x: &mut [f64],
        scratch: &mut [f64],
        tol: f64,
        max_evals: usize,
        warm: Option<&mut [f64]>,
    ) -> (usize, bool, f64) {
        validate_varying(d, g);
        let problem = Blocks {
            c: &self.c,
            k: &self.k,
            d,
            g,
            lo: &self.lo,
            hi: &self.hi,
        };
        solve_blocks(
            problem,
            |b| self.consts[b],
            x,
            scratch,
            tol,
            max_evals,
            warm,
        )
    }
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

        /// Bit-identity oracle for [`Self::kkt_residual`]: the in-order
        /// running max its four-accumulator fold replaced.
        fn kkt_residual_scalar(&self, y: &[f64]) -> f64 {
            let ky = crate::linalg::dot(self.k, y);
            let mut res = 0.0_f64;
            for (j, &yj) in y.iter().enumerate() {
                let grad = self.d[j] * yj + self.c * ky * self.k[j] + self.g[j];
                let moved = (yj - grad).clamp(self.lo[j], self.hi[j]);
                res = res.max((yj - moved).abs());
            }
            res
        }

        /// [`Self::solve_into`] driven by the scalar oracle; appends each
        /// evaluated iterate and its slope φ′ to `iterates`.
        fn solve_scalar(
            &self,
            y: &mut [f64],
            tol: f64,
            max_evals: usize,
            warm: Option<f64>,
            iterates: &mut Vec<(f64, f64)>,
        ) -> BlockSolve {
            RootFind::new(&self.consts(), tol, max_evals, warm).finish(|u| {
                let (phi, slope) = self.eval_scalar(u, y);
                iterates.push((u, slope));
                (phi, slope)
            })
        }

        /// The clamp certificate a solve from `warm` builds, with the
        /// production tolerance.
        fn cert(&self, max_evals: usize, warm: Option<f64>) -> ClampCert {
            let rf = RootFind::new(&self.consts(), 1e-7, max_evals, warm);
            let n = self.k.len();
            ClampCert::new(self, &rf, &mut vec![0.0; n], &mut vec![0.0; n])
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
    /// (against boxes that hold, exclude or touch zero), `lo = hi` pins
    /// (some of them `[−0.0, 0.0]` with `raw = −0.0`), and lanes whose
    /// unclamped `raw` lands exactly on `lo` or `hi` (some with `k = 0`).
    /// Gains take both signs; `huge` widens the ordinary boxes to ±1e12.
    /// Further blocks share `k` and scale `c` by `b + 1`, so only block 0
    /// is guaranteed to sit on its edges at `u`.
    struct EdgeBlock {
        /// One coupling weight per block.
        c: Vec<f64>,
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
                c: (1..=blocks).map(|m| c * m as f64).collect(),
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
                        5 if r() < 0.0 => hi = lo,
                        5 => {
                            // A ±0 pin with raw = −0.0 at u: the lane
                            // takes lo there and hi just left of it.
                            (lo, hi) = (-0.0, 0.0);
                            g = -(cu * kj);
                        }
                        6 | 7 => {
                            // A quarter of these lanes carry no gain, so
                            // raw sits on the same bound at every u.
                            if r() < -0.5 {
                                b.k[j] = 0.0;
                            }
                            let raw = -(g + cu * b.k[j]) / d;
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

        /// MPC-shaped blocks, laid out as the Eq. (8) assembly builds them
        /// (q = 1, r_scale = 8, a horizon of 8 steps over `blocks` control
        /// blocks): positive gains, equal within groups of 4 lanes;
        /// `c = 2·steps`; `d = 2·r_scale·max(r, 0.05)·share`; the box
        /// [0.2, 1.0]; and `g = −c·t·k − d`, which puts the steep part of
        /// block `b`'s φ just above its tracking target `t[b]` (returned).
        /// Targets span 0.1–1.1× `Σk`, so some roots sit at a bracket end.
        fn mpc(seed: u64, n: usize, blocks: usize) -> (Self, Vec<f64>) {
            let mut r = xorshift(seed);
            let mut gain = 0.0;
            let k: Vec<f64> = (0..n)
                .map(|j| {
                    if j % 4 == 0 {
                        gain = 5.0 + 20.0 * r().abs();
                    }
                    gain
                })
                .collect();
            let sum_k: f64 = k.iter().sum();
            let lp = 8.max(blocks);
            let mut e = EdgeBlock {
                c: Vec::new(),
                k,
                d: Vec::new(),
                g: Vec::new(),
                lo: vec![0.2; n * blocks],
                hi: vec![1.0; n * blocks],
            };
            let mut targets = Vec::new();
            for b in 0..blocks {
                let steps = if b + 1 < blocks { 1 } else { lp + 1 - blocks };
                let c = 2.0 * steps as f64;
                let t = sum_k * (0.1 + r().abs());
                let share = steps as f64 / lp as f64;
                for j in 0..n {
                    let d = 2.0 * 8.0 * r().abs().max(0.05) * share;
                    e.d.push(d);
                    e.g.push(-c * t * e.k[j] - d);
                }
                e.c.push(c);
                targets.push(t);
            }
            (e, targets)
        }

        fn block(&self, b: usize) -> RankOneDiagQp<'_> {
            let r = b * self.k.len()..(b + 1) * self.k.len();
            RankOneDiagQp {
                c: self.c[b],
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

    /// The neighbouring double of a finite `x`, upwards or downwards.
    fn next_double(x: f64, up: bool) -> f64 {
        if x == 0.0 {
            let tiny = f64::from_bits(1);
            return if up { tiny } else { -tiny };
        }
        let b = x.to_bits();
        f64::from_bits(if (x > 0.0) == up { b + 1 } else { b - 1 })
    }

    /// Check `cert` against the closed forms of `block` at each finite
    /// boundary, one ulp beyond it and `far`-scaled points beyond it (up
    /// to 1e6× further): `y` is the pattern bit for bit, every share is
    /// +0.0, the in-order fold of kᵀy is the certified bracket end, and
    /// `(φ, φ′)` is the O(1) answer.
    fn check_clamp_cert(
        block: &RankOneDiagQp,
        cert: &ClampCert,
        far: f64,
    ) -> Result<(), TestCaseError> {
        let n = block.k.len();
        let mut w = vec![0.0; n];
        block.curvatures_into(&mut w);
        for (edge, up, sum) in [
            (cert.left, false, cert.k_left),
            (cert.right, true, cert.k_right),
        ] {
            if !edge.is_finite() {
                continue;
            }
            let step = if up { 1.0 } else { -1.0 } * far * (1.0 + edge.abs());
            for at in [edge, next_double(edge, up), edge + step, edge + 1e6 * step] {
                let (mut y, mut share, mut pattern) =
                    (vec![f64::NAN; n], vec![f64::NAN; n], vec![f64::NAN; n]);
                let (phi, slope) = block.eval(at, &w, &mut y, &mut share);
                cert.pattern_into(block, at, &mut pattern);
                let fold = block.k.iter().zip(&y).fold(0.0, |acc, (k, y)| acc + k * y);
                let case = format!("n={n} edge={edge} at={at}");
                prop_assert!(bits(&y) == bits(&pattern), "{case}: y {y:?} vs {pattern:?}");
                prop_assert!(
                    share.iter().all(|s| s.to_bits() == 0),
                    "{case}: shares {share:?}"
                );
                prop_assert!(
                    fold.to_bits() == sum.to_bits(),
                    "{case}: kᵀy {fold} vs {sum}"
                );
                let answer = cert.answer(at).map(|(p, s)| (p.to_bits(), s.to_bits()));
                prop_assert!(
                    answer == Some((phi.to_bits(), slope.to_bits())),
                    "{case}: φ"
                );
            }
        }
        Ok(())
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
        /// u, eval counts, convergence flags and the KKT residual
        /// (against its in-order running max), from cold, in-bracket and
        /// out-of-bracket warm hints, and again from the roots the first
        /// solve carried. One to five blocks, optionally one of them
        /// uncoupled (`c = 0`), under the production budget and under
        /// budgets of 1–3 evaluations, where a block may stop on its
        /// budget before or after its neighbour and return its
        /// un-evaluated next iterate as `u`. Each case runs
        /// [`EdgeBlock`] blocks (`k = 0` and `d = 0` lanes among them)
        /// and MPC-shaped ones, whose hints land within ±50% of the
        /// tracking target. Both entry points solve every period:
        /// [`solve_blocks_into`], which derives the block constants per
        /// call, and one [`FixedBlocks`] built before the first period,
        /// which keeps them across two further warm periods with fresh
        /// `d` and `g` (`d = 0` lanes stay at zero). Most of the
        /// MPC-shaped iterates must fall in the block's certified clamped
        /// ranges (and leave every lane on a bound there), so the kernel
        /// really answers them in O(1).
        #[test]
        fn whole_solves_are_bitwise_the_scalar_oracle(
            seed in 0u64..1_000_000_000,
            u in -20.0f64..20.0,
            hint in -60.0f64..60.0,
            huge in proptest::bool::ANY,
            uncoupled in 0usize..8,
        ) {
            // MPC-shaped iterates of coupled blocks: certified, all.
            let mut certified = [0usize; 2];
            for n in 1..=70 {
                let blocks = 1 + n % 5;
                let edge = EdgeBlock::new(seed ^ n as u64, n, blocks, u, huge);
                let (mpc, targets) = EdgeBlock::mpc(seed ^ n as u64, n, blocks);
                let mpc_hints = targets.iter().map(|t| t * (1.0 + hint / 120.0)).collect();
                for (shape, (e, hints)) in [(edge, vec![hint; blocks]), (mpc, mpc_hints)].into_iter().enumerate() {
                    let mut c = e.c.clone();
                    if let Some(cb) = c.get_mut(uncoupled) {
                        *cb = 0.0;
                    }
                    let fixed = FixedBlocks::new(c.clone(), e.k.clone(), e.lo.clone(), e.hi.clone());
                    let dim = n * blocks;
                    for max_evals in [1, 2, 3, 200] {
                        let mut warm = hints.clone();
                        warm[0] = f64::NAN;
                        let (mut warm_f, mut warm_s) = (warm.clone(), warm.clone());
                        let (mut d, mut g) = (e.d.clone(), e.g.clone());
                        let mut next = xorshift(seed ^ (n * 4 + max_evals) as u64);
                        for period in 0..4 {
                            if period >= 2 {
                                for (dj, gj) in d.iter_mut().zip(&mut g) {
                                    *dj *= 0.5 + next().abs();
                                    *gj *= 0.8 + 0.4 * next().abs();
                                }
                            }
                            let block = |b: usize| {
                                let r = b * n..(b + 1) * n;
                                RankOneDiagQp { c: c[b], d: &d[r.clone()], g: &g[r], ..e.block(b) }
                            };
                            let mut x = vec![0.0; dim];
                            let mut scratch = vec![0.0; 4 * n];
                            let (evals, converged, res) = solve_blocks_into(
                                &c, &e.k, &d, &g, &e.lo, &e.hi, &mut x, &mut scratch, 1e-7, max_evals,
                                Some(&mut warm),
                            );
                            let mut x_f = vec![0.0; dim];
                            let solve_f = fixed.solve_into(&d, &g, &mut x_f, &mut scratch, 1e-7, max_evals, Some(&mut warm_f));
                            let mut x_s = vec![0.0; dim];
                            let (mut evals_s, mut converged_s, mut res_s) = (0, true, 0.0_f64);
                            for (b, hint_b) in warm_s.iter_mut().enumerate() {
                                let y = &mut x_s[b * n..(b + 1) * n];
                                let mut iterates = Vec::new();
                                let s = block(b).solve_scalar(y, 1e-7, max_evals, Some(*hint_b), &mut iterates);
                                let cert = block(b).cert(max_evals, Some(*hint_b));
                                let mpc = shape == 1 && c[b] > 0.0;
                                for &(u, slope) in &iterates {
                                    let hit = cert.answer(u).is_some();
                                    prop_assert!(!hit || slope == -1.0, "certified u={u} has slope {slope}");
                                    certified[0] += (mpc && hit) as usize;
                                }
                                certified[1] += if mpc { iterates.len() } else { 0 };
                                *hint_b = s.u;
                                evals_s += s.evals;
                                converged_s &= s.converged;
                                res_s = res_s.max(block(b).kkt_residual_scalar(y));
                            }
                            let at = format!("shape={shape} n={n} blocks={blocks} max_evals={max_evals} period={period}");
                            for (path, x, warm, (evals, converged, res)) in [
                                ("per call", &x, &warm, (evals, converged, res)),
                                ("fixed", &x_f, &warm_f, solve_f),
                            ] {
                                prop_assert!(bits(x) == bits(&x_s), "{at} {path}: x");
                                prop_assert!(bits(warm) == bits(&warm_s), "{at} {path}: u");
                                prop_assert!((evals, converged) == (evals_s, converged_s), "{at} {path}: evals");
                                prop_assert!(res.to_bits() == res_s.to_bits(), "{at} {path}: kkt");
                            }
                        }
                    }
                }
            }
            prop_assert!(2 * certified[0] > certified[1], "{certified:?}");
        }

        /// The clamp certificate is sound (see [`check_clamp_cert`]).
        /// Blocks come from [`random_block`], from [`EdgeBlock`] (`d = 0`
        /// lanes, `k = ±0` lanes, `lo = hi` pins, ±0 bounds) and with
        /// `d = g = 0`, where `s` vanishes on every lane at the only
        /// crossing and both sides must be refused. EdgeBlock lanes sit
        /// on their edges at `u`, so each also gets verified alone with
        /// `u` itself as both candidates. A `k = 0` lane refuses both
        /// sides, and some random block must get a certified side.
        #[test]
        fn clamp_certificate_is_sound(
            seed in 0u64..1_000_000_000,
            u in -40.0f64..40.0,
            huge in proptest::bool::ANY,
            far in 0.0f64..1.0,
        ) {
            let mut sides = 0;
            for n in 1..=70 {
                let e = EdgeBlock::new(seed ^ n as u64, n, 1, u, huge);
                let (c, k, d, g, lo, hi) = random_block(seed ^ n as u64, n);
                let random = RankOneDiagQp { c, k: &k, d: &d, g: &g, lo: &lo, hi: &hi };
                let zeros = vec![0.0; n];
                let flat = RankOneDiagQp { d: &zeros, g: &zeros, ..random };
                for (shape, block) in [e.block(0), random, flat].iter().enumerate() {
                    block.validate();
                    let cert = block.cert(200, None);
                    check_clamp_cert(block, &cert, far)?;
                    let refused = cert.left.is_nan() && cert.right.is_nan();
                    prop_assert!(refused || (shape != 2 && block.k.iter().all(|&k| k != 0.0)), "n={n} shape={shape}");
                    sides += (shape == 1) as usize * (cert.left.is_finite() as usize + cert.right.is_finite() as usize);
                }
                for j in 0..n {
                    let lane = RankOneDiagQp {
                        c: e.c[0],
                        k: &e.k[j..=j],
                        d: &e.d[j..=j],
                        g: &e.g[j..=j],
                        lo: &e.lo[j..=j],
                        hi: &e.hi[j..=j],
                    };
                    let rf = RootFind::new(&lane.consts(), 1e-7, 200, None);
                    let cert = ClampCert::verify(&lane, &rf, u, u);
                    check_clamp_cert(&lane, &cert, far)?;
                    let refused = cert.left.is_nan() && cert.right.is_nan();
                    prop_assert!(refused || e.k[j] != 0.0, "n={n} lane {j}: k = 0 was certified");
                }
            }
            prop_assert!(sides > 0, "no random block was certified");
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
    fn validate_rejects_non_finite_inputs() {
        // A 4-lane block (c = 2, k = 1, d = 2, box [0.2, 1]) with one
        // poisoned input. A NaN in g once passed and the solve reported
        // convergence with y₀ = NaN; lo₀ = −∞ passed and gave u = −∞.
        for (input, bad) in [
            (2, f64::NAN),
            (3, f64::NEG_INFINITY),
            (0, f64::NAN),
            (4, f64::INFINITY),
            (1, f64::INFINITY),
        ] {
            let mut v = [
                vec![1.0; 4],
                vec![2.0; 4],
                vec![0.0; 4],
                vec![0.2; 4],
                vec![1.0; 4],
            ];
            v[input][0] = bad;
            let [k, d, g, lo, hi] = &v;
            let block = RankOneDiagQp {
                c: 2.0,
                k,
                d,
                g,
                lo,
                hi,
            };
            let err = std::panic::catch_unwind(|| block.validate())
                .expect_err(&format!("input {input} = {bad} passed validate"));
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "block inputs must be finite", "input {input}");
        }
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
