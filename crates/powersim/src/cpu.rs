//! Per-core CPU model: DVFS frequency scale, core roles, and the cubic
//! core-power law that underlies the server-level measurement model.
//!
//! SprintCon (§IV-D) adapts each core with DVFS. The paper's testbed spans
//! 400 MHz – 2.0 GHz; we model the scale as a quantized ladder of P-states
//! (real governors cannot set arbitrary frequencies), normalized so that
//! `NormFreq(1.0)` is the peak.

use crate::units::{NormFreq, Utilization};

/// Which workload class a core is currently serving.
///
/// SprintCon treats the two classes asymmetrically: interactive cores are
/// pinned at peak frequency during a sprint, batch cores are the actuator
/// of the server power controller (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreRole {
    /// Latency-critical interactive/streaming work; runs at peak frequency
    /// during a sprint.
    Interactive,
    /// Deferrable throughput work with a deadline; DVFS-throttled by the
    /// server power controller.
    Batch,
}

/// A quantized DVFS frequency ladder.
///
/// Frequencies are normalized to the peak; `step` is the granularity in
/// normalized units (e.g. 0.05 ≙ 100 MHz steps on a 2 GHz part).
/// [`Self::quantize`] snaps one request; [`SnapLadder`] tabulates the
/// ladder once so that a controller can snap a whole command vector by
/// error diffusion without a division or a rounding per core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqScale {
    pub min: NormFreq,
    pub max: NormFreq,
    pub step: f64,
    /// Platform peak frequency in MHz (for reporting only; the models are
    /// all in normalized units).
    pub peak_mhz: f64,
}

impl FreqScale {
    /// The paper's testbed ladder: 400 MHz – 2.0 GHz in 100 MHz steps.
    pub fn paper_default() -> Self {
        FreqScale {
            min: NormFreq(0.2),
            max: NormFreq(1.0),
            step: 0.05,
            peak_mhz: 2000.0,
        }
    }

    /// A continuous scale (no quantization) — used by tests and by the
    /// idealized SGCT-V1 baseline, which assumes perfect actuation.
    pub fn continuous() -> Self {
        FreqScale {
            min: NormFreq(0.2),
            max: NormFreq(1.0),
            step: 0.0,
            peak_mhz: 2000.0,
        }
    }

    /// Snap a requested frequency to the nearest representable P-state,
    /// clamping into `[min, max]`.
    pub fn quantize(&self, f: NormFreq) -> NormFreq {
        let clamped = f.clamp(self.min, self.max);
        if self.step <= 0.0 {
            return clamped;
        }
        let steps = ((clamped.0 - self.min.0) / self.step).round();
        NormFreq((self.min.0 + steps * self.step).min(self.max.0))
    }

    /// Number of representable P-states on this ladder.
    pub fn num_states(&self) -> usize {
        if self.step <= 0.0 {
            return usize::MAX;
        }
        (((self.max.0 - self.min.0) / self.step).round() as usize) + 1
    }

    /// All representable P-states, ascending.
    pub fn states(&self) -> Vec<NormFreq> {
        if self.step <= 0.0 {
            return vec![self.min, self.max];
        }
        let n = self.num_states();
        (0..n)
            .map(|i| NormFreq((self.min.0 + i as f64 * self.step).min(self.max.0)))
            .collect()
    }
}

/// Dynamic power law of a single core.
///
/// CPU power under DVFS is cubic in frequency (`P ∝ C·V²·f` with `V ∝ f`),
/// plus a leakage floor that scales only weakly with frequency. We blend
/// the two with `cubic_fraction`: the fraction of the core's peak *active*
/// power that follows the cubic term; the remainder is linear (clock tree,
/// uncore share). §V-A notes the *server*-level aggregate is approximately
/// linear in frequency — that emerges from this per-core law plus the
/// non-CPU power in [`crate::server`]; the controller's linear model is an
/// approximation the plant does not share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorePowerLaw {
    /// Active power of one core at peak frequency and 100% utilization, W.
    pub peak_active_watts: f64,
    /// Fraction of active power following `f³`; the rest follows `f`.
    pub cubic_fraction: f64,
    /// Leakage/idle power of the core when clock-gated, W.
    pub idle_watts: f64,
}

impl CorePowerLaw {
    /// Active power drawn by the core at normalized frequency `f` and
    /// utilization `u` (on top of the idle floor).
    pub fn active_power(&self, f: NormFreq, u: Utilization) -> f64 {
        let fh = f.0.clamp(0.0, 1.0);
        let shape = self.cubic_fraction * fh.powi(3) + (1.0 - self.cubic_fraction) * fh;
        self.peak_active_watts * shape * u.0.clamp(0.0, 1.0)
    }

    /// Total core power including the idle floor.
    pub fn power(&self, f: NormFreq, u: Utilization) -> f64 {
        self.idle_watts + self.active_power(f, u)
    }
}

/// Mutable state of one core inside the simulated plant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreState {
    pub role: CoreRole,
    /// Commanded (and, after quantization, actual) frequency.
    pub freq: NormFreq,
    /// Fraction of cycles doing useful work in the last period.
    pub util: Utilization,
}

impl CoreState {
    pub fn new(role: CoreRole) -> Self {
        CoreState {
            role,
            freq: NormFreq::PEAK,
            util: Utilization::IDLE,
        }
    }

    /// Effective compute throughput of this core, in peak-core units:
    /// a fully-utilized core at peak frequency scores 1.0.
    pub fn throughput(&self) -> f64 {
        self.freq.0 * self.util.0
    }
}

/// Ladders with more P-states than this get no threshold table; their
/// [`SnapLadder::diffuse`] snaps every lane through
/// [`FreqScale::quantize`].
const MAX_TABLE_STATES: usize = 1 << 12;

/// A [`FreqScale`] tabulated for error-diffusion snapping: the same
/// P-states as [`FreqScale::quantize`], found by comparisons instead of
/// a division and a rounding.
///
/// `quantize` clamps, subtracts, divides, rounds, multiply-adds and
/// takes a `min`. Each step is a correctly rounded, monotone operation,
/// so the ladder index `k` it lands on is a non-decreasing step function
/// of the input, and index `k ≥ 1` is reached from exactly one float
/// threshold `T_k` on. The table holds each `T_k`, found by bisection
/// over float bit patterns against `quantize` itself and checked on both
/// sides, and each P-state `P_k = (min + k·step).min(max)` computed as
/// `quantize` computes it. Looking an input up in the table therefore
/// returns `quantize`'s result bit for bit.
///
/// Ladders whose P-states do not strictly increase, with non-finite
/// parameters or with 4096 steps or more between `min` and `max` get no
/// table: every lane then takes the `quantize` fallback of
/// [`Self::diffuse`].
#[derive(Debug, Clone)]
pub struct SnapLadder {
    scale: FreqScale,
    /// `T_k` for `k = −1..=K+2` at index `k + 1`, padded with `−∞` for
    /// `k ≤ 0` and `+∞` for `k > K`, so that every hint `n ∈ 0..=K` has
    /// the window `T_{n−1}..=T_{n+2}`. Four NaNs (which fail every
    /// comparison) for a ladder without a table.
    thresholds: Vec<f64>,
    /// `P_k` for `k = −1..=K+1` at index `k + 1`; the NaN padding is
    /// never selected.
    states: Vec<f64>,
    /// The top ladder index `K`.
    top: usize,
    /// `1/step`, for the per-lane index hint.
    inv_step: f64,
}

/// Map a non-NaN float to an integer with the same order (`−0.0` sits
/// just below `+0.0`), so bisection can walk adjacent floats.
fn order_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// Inverse of [`order_key`].
fn from_order_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

impl SnapLadder {
    /// Tabulate `scale`. A continuous scale (`step ≤ 0`) needs no table.
    pub fn new(scale: FreqScale) -> Self {
        let (min, max, step) = (scale.min.0, scale.max.0, scale.step);
        let mut ladder = SnapLadder {
            scale,
            thresholds: vec![f64::NAN; 4],
            states: vec![f64::NAN; 3],
            top: 0,
            inv_step: 1.0 / step,
        };
        let tabulable = step > 0.0
            && min.is_finite()
            && max.is_finite()
            && step.is_finite()
            && min <= max
            && (max - min) / step < MAX_TABLE_STATES as f64;
        if !tabulable {
            return ladder;
        }
        let states: Vec<f64> = scale.states().into_iter().map(|p| p.0).collect();
        if states.windows(2).any(|p| p[0] >= p[1]) {
            return ladder;
        }
        let top = states.len() - 1;
        let mut thresholds = Vec::with_capacity(top + 4);
        thresholds.extend([f64::NEG_INFINITY; 2]);
        let mut lo = order_key(min);
        for &p_k in &states[1..] {
            // quantize(w) ≥ P_k ⟺ the index of w is at least k, because
            // quantize is monotone and the P-states strictly increase.
            let reaches = |key: u64| scale.quantize(NormFreq(from_order_key(key))).0 >= p_k;
            let mut hi = order_key(max);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if reaches(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            assert!(
                reaches(hi) && !reaches(hi - 1),
                "DVFS snap threshold is not tight"
            );
            thresholds.push(from_order_key(hi));
        }
        thresholds.extend([f64::INFINITY; 2]);
        ladder.states = std::iter::once(f64::NAN)
            .chain(states)
            .chain(std::iter::once(f64::NAN))
            .collect();
        ladder.thresholds = thresholds;
        ladder.top = top;
        ladder
    }

    /// Snap `freqs` onto the ladder by error diffusion, in place: each
    /// lane's rounding error is carried into the next lane, exactly as
    ///
    /// ```text
    /// w = f + carry;  f ← quantize(w);  carry = w − f
    /// ```
    ///
    /// bit for bit, including NaN and infinite lanes. Each lane's own
    /// index is a hint computed from `f` alone, off the carry chain; on
    /// the chain `w` is compared against at most two thresholds to pick
    /// index n−1, n or n+1 of the hint. Anything else (NaN, a carry wider
    /// than one step, a ladder without a table) falls back to
    /// `quantize(w)`. A continuous ladder leaves `freqs` unchanged.
    /// Allocates nothing.
    pub fn diffuse(&self, freqs: &mut [f64]) {
        if self.scale.step <= 0.0 {
            return;
        }
        let (min, inv_step, top) = (self.scale.min.0, self.inv_step, self.top);
        let mut carry = 0.0;
        for f in freqs.iter_mut() {
            // The hint only steers the lookup; the window check below
            // proves the index, so a hint off by one costs a fallback.
            let n = (((*f - min) * inv_step + 0.5) as usize).min(top);
            let t = &self.thresholds[n..n + 4];
            let p = &self.states[n..n + 3];
            let w = *f + carry;
            let snapped = if t[0] <= w && w < t[3] {
                let lower = if w >= t[1] { p[1] } else { p[0] };
                if w >= t[2] {
                    p[2]
                } else {
                    lower
                }
            } else {
                self.scale.quantize(NormFreq(w)).0
            };
            carry = w - snapped;
            *f = snapped;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ladder_has_17_states() {
        let s = FreqScale::paper_default();
        // 400..=2000 MHz in 100 MHz steps → 17 P-states.
        assert_eq!(s.num_states(), 17);
        let states = s.states();
        assert_eq!(states.len(), 17);
        assert_eq!(states[0], NormFreq(0.2));
        assert!((states[16].0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantize_snaps_to_nearest() {
        let s = FreqScale::paper_default();
        // 0.52 is between 0.50 and 0.55; nearer to 0.50.
        assert!((s.quantize(NormFreq(0.52)).0 - 0.50).abs() < 1e-12);
        assert!((s.quantize(NormFreq(0.53)).0 - 0.55).abs() < 1e-12);
        // Clamping.
        assert_eq!(s.quantize(NormFreq(0.0)), NormFreq(0.2));
        assert_eq!(s.quantize(NormFreq(2.0)), NormFreq(1.0));
    }

    #[test]
    fn continuous_scale_does_not_quantize() {
        let s = FreqScale::continuous();
        assert_eq!(s.quantize(NormFreq(0.512345)), NormFreq(0.512345));
    }

    fn ladder(min: f64, max: f64, step: f64) -> FreqScale {
        FreqScale {
            min: NormFreq(min),
            max: NormFreq(max),
            step,
            peak_mhz: 2000.0,
        }
    }

    /// The paper ladder, a step that does not divide `max − min`, a tiny
    /// step with more than 1000 states, a single state, a ladder through
    /// zero, a continuous one and one too fine to tabulate.
    fn fixed_ladders() -> Vec<FreqScale> {
        vec![
            FreqScale::paper_default(),
            ladder(0.2, 1.0, 0.3),
            ladder(0.2, 1.0, 0.0007),
            ladder(0.4, 0.4, 0.05),
            ladder(-0.0, 0.75, 0.1),
            ladder(-0.35, 0.6, 0.125),
            FreqScale::continuous(),
            ladder(0.2, 1.0, 1e-5),
        ]
    }

    /// The loop [`SnapLadder::diffuse`] replaced: the bit-identity oracle.
    fn chained_quantize(scale: &FreqScale, freqs: &mut [f64]) {
        if scale.step <= 0.0 {
            return;
        }
        let mut carry = 0.0;
        for f in freqs.iter_mut() {
            let w = *f + carry;
            let snapped = scale.quantize(NormFreq(w)).0;
            carry = w - snapped;
            *f = snapped;
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn snap_thresholds_are_tight() {
        for scale in fixed_ladders() {
            let snap = SnapLadder::new(scale);
            let (t, p) = (&snap.thresholds, &snap.states);
            let top = snap.top;
            // The oracle's index of w: the P-state quantize lands on.
            let index = |w: f64| {
                let q = scale.quantize(NormFreq(w)).0;
                (0..=top)
                    .find(|&k| p[k + 1].to_bits() == q.to_bits())
                    .expect("quantize lands on a tabulated P-state")
            };
            for k in 1..=top {
                let t_k = t[k + 1];
                assert!(
                    index(t_k) >= k,
                    "{scale:?}: T_{k} = {t_k} is below index {k}"
                );
                assert!(
                    index(t_k.next_down()) < k,
                    "{scale:?}: T_{k} = {t_k} is not tight"
                );
            }
        }
        let sizes: Vec<usize> = fixed_ladders()
            .into_iter()
            .map(|scale| SnapLadder::new(scale).top)
            .collect();
        assert_eq!(sizes[..4], [16, 3, 1143, 0]);
        // The continuous ladder and the over-fine one keep no table.
        assert!(SnapLadder::new(ladder(0.2, 1.0, 1e-5)).thresholds[0].is_nan());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `diffuse` is chained `quantize` bit for bit, on fixed and
        /// random ladders, for 0–70 lanes drawn inside and outside
        /// `[min, max]`, on P-states and midpoints, within a few ulps of
        /// every threshold, and NaN, ±∞ and ±0.
        #[test]
        fn diffuse_is_bitwise_chained_quantize(
            seed in 0u64..1_000_000_000,
            min in -0.5f64..0.8,
            width in 0.0f64..1.5,
            states in 1u64..40,
        ) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut r = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut scales = fixed_ladders();
            scales.push(ladder(min, min + width, width / (states as f64 - 0.5 * r())));
            for scale in scales {
                let snap = SnapLadder::new(scale);
                let (lo, hi) = (scale.min.0, scale.max.0);
                let thresholds = &snap.thresholds[2..snap.top + 2];
                for n in 0..=70 {
                    let want: Vec<f64> = (0..n)
                        .map(|_| match (r() * 12.0) as usize {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => f64::NEG_INFINITY,
                            3 => if r() < 0.5 { 0.0 } else { -0.0 },
                            4 => lo - (hi - lo + 0.1) * r(),
                            5 => hi + (hi - lo + 0.1) * r(),
                            6 => scale.quantize(NormFreq(lo + (hi - lo) * r())).0,
                            7 => lo + scale.step * ((r() * 40.0) as usize as f64 + 0.5),
                            8 | 9 if !thresholds.is_empty() => {
                                let t = thresholds[(r() * thresholds.len() as f64) as usize];
                                let ulps = (r() * 7.0) as i64 - 3;
                                f64::from_bits((t.to_bits() as i64 + ulps) as u64)
                            }
                            _ => lo + (hi - lo) * r(),
                        })
                        .collect();
                    let mut got = want.clone();
                    let mut oracle = want.clone();
                    snap.diffuse(&mut got);
                    chained_quantize(&scale, &mut oracle);
                    proptest::prop_assert!(bits(&got) == bits(&oracle), "{scale:?} n={n}: {want:?}");
                }
            }
        }
    }

    #[test]
    fn core_power_is_monotone_in_freq_and_util() {
        let law = CorePowerLaw {
            peak_active_watts: 15.0,
            cubic_fraction: 0.7,
            idle_watts: 1.0,
        };
        let mut prev = 0.0;
        for i in 0..=10 {
            let f = NormFreq(0.2 + 0.08 * i as f64);
            let p = law.power(f, Utilization::FULL);
            assert!(p > prev, "power must increase with frequency");
            prev = p;
        }
        let p_half = law.power(NormFreq::PEAK, Utilization(0.5));
        let p_full = law.power(NormFreq::PEAK, Utilization::FULL);
        assert!(p_half < p_full);
        // Idle floor present at zero utilization.
        assert!((law.power(NormFreq::PEAK, Utilization::IDLE) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn core_power_superlinear_at_high_freq() {
        // The per-watt-speedup argument of Fig. 1 rests on power growing
        // faster than frequency near the top of the DVFS range.
        let law = CorePowerLaw {
            peak_active_watts: 15.0,
            cubic_fraction: 0.7,
            idle_watts: 1.0,
        };
        let p_08 = law.active_power(NormFreq(0.8), Utilization::FULL);
        let p_10 = law.active_power(NormFreq(1.0), Utilization::FULL);
        // +25% frequency must cost more than +25% power.
        assert!(p_10 / p_08 > 1.25);
    }

    #[test]
    fn throughput_definition() {
        let mut c = CoreState::new(CoreRole::Batch);
        c.freq = NormFreq(0.5);
        c.util = Utilization(0.8);
        assert!((c.throughput() - 0.4).abs() < 1e-12);
    }
}
