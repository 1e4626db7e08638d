//! Frequency → execution-progress model (the progress model of CoScale
//! \[12\] that the power load allocator uses, §IV-B).
//!
//! Execution time splits into a compute-bound part that scales with
//! `1/f` and a memory-bound part that does not scale with core frequency.
//! With `mb` the memory-bound fraction of execution time *at peak
//! frequency*, the normalized execution rate at normalized frequency `f`
//! is
//!
//! ```text
//! rate(f) = 1 / (mb + (1 − mb)/f),     rate(1) = 1
//! ```
//!
//! The model's inputs come from short-term profiling: used CPU cycles and
//! cache misses over millisecond windows (§IV-B), which we expose through
//! [`ProgressModel::from_counters`].

/// Per-workload execution-rate model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressModel {
    /// Fraction of execution time stalled on memory at peak frequency,
    /// in `[0, 1)`.
    pub memory_bound: f64,
}

impl ProgressModel {
    pub fn new(memory_bound: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&memory_bound),
            "memory-bound fraction must be in [0, 1)"
        );
        ProgressModel { memory_bound }
    }

    /// Estimate the memory-bound fraction from performance counters: core
    /// cycles-per-instruction when not stalled, misses per instruction,
    /// and the miss penalty in cycles.
    ///
    /// `mb = stall_cycles / (compute_cycles + stall_cycles)` per
    /// instruction.
    pub fn from_counters(cpi_core: f64, miss_per_instr: f64, miss_latency_cycles: f64) -> Self {
        assert!(cpi_core > 0.0 && miss_per_instr >= 0.0 && miss_latency_cycles >= 0.0);
        let stall = miss_per_instr * miss_latency_cycles;
        Self::new(stall / (cpi_core + stall))
    }

    /// Normalized execution rate at normalized frequency `f`;
    /// `rate(1) = 1`, and `rate` is increasing and concave in `f`.
    pub fn rate(&self, f: f64) -> f64 {
        assert!(f > 0.0, "frequency must be positive");
        1.0 / (self.memory_bound + (1.0 - self.memory_bound) / f)
    }

    /// Speedup of running at `to` instead of `from`.
    pub fn speedup(&self, from: f64, to: f64) -> f64 {
        self.rate(to) / self.rate(from)
    }

    /// The frequency needed to achieve a target normalized rate, or `None`
    /// if the rate is unreachable even at peak (rate > 1 is impossible;
    /// rate below the memory-bound asymptote needs f ≤ 0).
    pub fn freq_for_rate(&self, rate: f64) -> Option<f64> {
        if rate <= 0.0 {
            return Some(0.0);
        }
        if rate > 1.0 + 1e-12 {
            return None;
        }
        // rate = 1/(mb + (1-mb)/f)  ⇒  f = (1-mb) / (1/rate − mb)
        let denom = 1.0 / rate - self.memory_bound;
        if denom <= 0.0 {
            None
        } else {
            Some((1.0 - self.memory_bound) / denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rate_is_one() {
        for mb in [0.0, 0.2, 0.5, 0.9] {
            assert!((ProgressModel::new(mb).rate(1.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn compute_bound_scales_linearly() {
        let m = ProgressModel::new(0.0);
        assert!((m.rate(0.5) - 0.5).abs() < 1e-12);
        assert!((m.rate(0.2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_damps_scaling() {
        // The Fig. 1 argument: memory-bound work gains less from
        // frequency, so per-watt speedup decays faster.
        let light = ProgressModel::new(0.1);
        let heavy = ProgressModel::new(0.5);
        assert!(light.speedup(0.2, 1.0) > heavy.speedup(0.2, 1.0));
        // Heavy memory-bound: 5× frequency gives exactly 3× speedup
        // (time at 0.2 is 0.5 + 0.5/0.2 = 3.0), far below the 5× a
        // compute-bound job would get.
        assert!((heavy.speedup(0.2, 1.0) - 3.0).abs() < 1e-9);
        assert!((light.speedup(0.2, 1.0) - 4.6).abs() < 1e-9);
    }

    #[test]
    fn rate_monotone_and_concave() {
        let m = ProgressModel::new(0.3);
        let fs: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
        let rates: Vec<f64> = fs.iter().map(|&f| m.rate(f)).collect();
        for w in rates.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Concavity: increments shrink.
        for w in rates.windows(3) {
            assert!(w[2] - w[1] < w[1] - w[0] + 1e-12);
        }
    }

    #[test]
    fn freq_for_rate_inverts_rate() {
        let m = ProgressModel::new(0.35);
        for &f in &[0.2, 0.4, 0.7, 1.0] {
            let r = m.rate(f);
            let back = m.freq_for_rate(r).unwrap();
            assert!((back - f).abs() < 1e-9, "f={f} back={back}");
        }
        assert!(m.freq_for_rate(1.2).is_none());
        assert_eq!(m.freq_for_rate(0.0), Some(0.0));
    }

    #[test]
    fn counter_estimation() {
        // 1.0 core CPI, 0.005 misses/instr at 200-cycle penalty →
        // stall = 1.0 cycles/instr → mb = 0.5.
        let m = ProgressModel::from_counters(1.0, 0.005, 200.0);
        assert!((m.memory_bound - 0.5).abs() < 1e-12);
        // No misses → fully compute bound.
        let c = ProgressModel::from_counters(0.8, 0.0, 200.0);
        assert_eq!(c.memory_bound, 0.0);
    }

    #[test]
    #[should_panic(expected = "memory-bound fraction")]
    fn rejects_mb_one() {
        ProgressModel::new(1.0);
    }
}
