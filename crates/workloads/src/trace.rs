//! Fixed-rate time-series containers used for workload traces.
//!
//! The paper drives its simulation from 15-minute execution-data traces
//! (§VI-A). A [`Trace`] stores samples at a fixed period and offers the
//! zero-order-hold sampling, resampling and summary statistics the
//! generators, the allocator, and the metrics code all need.

use powersim::units::Seconds;

/// A uniformly-sampled time series.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Sampling period.
    pub dt: Seconds,
    /// Samples; `values[k]` is the value on `[k·dt, (k+1)·dt)`.
    pub values: Vec<f64>,
}

impl Trace {
    pub fn new(dt: Seconds, values: Vec<f64>) -> Self {
        assert!(dt.0 > 0.0, "trace needs a positive sampling period");
        Trace { dt, values }
    }

    /// A constant trace of `n` samples.
    pub fn constant(dt: Seconds, value: f64, n: usize) -> Self {
        Trace::new(dt, vec![value; n])
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total covered duration.
    pub fn duration(&self) -> Seconds {
        Seconds(self.dt.0 * self.values.len() as f64)
    }

    /// Zero-order-hold sample at time `t`; clamps to the last sample
    /// beyond the end (traces are "held" like the paper's repeated batch
    /// workloads).
    pub fn at(&self, t: Seconds) -> f64 {
        assert!(!self.is_empty(), "sampling an empty trace");
        let idx = (t.0 / self.dt.0).floor();
        let idx = (idx.max(0.0) as usize).min(self.values.len() - 1);
        self.values[idx]
    }

    /// Resample onto a new period via zero-order hold.
    pub fn resample(&self, new_dt: Seconds) -> Trace {
        assert!(new_dt.0 > 0.0);
        let n = (self.duration().0 / new_dt.0).ceil() as usize;
        Trace::new(
            new_dt,
            (0..n)
                .map(|k| self.at(Seconds(k as f64 * new_dt.0)))
                .collect(),
        )
    }

    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.len() as f64
    }

    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Inclusive percentile in `[0, 100]` (nearest-rank on a sorted copy).
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p));
        assert!(!self.is_empty());
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in trace"));
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    /// Fraction of samples strictly above `threshold` — the allocator's
    /// "more than 90% of the time" test (§IV-B factor 2).
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&v| v > threshold).count() as f64 / self.len() as f64
    }

    /// Map every sample.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Trace {
        Trace::new(self.dt, self.values.iter().map(|&v| f(v)).collect())
    }

    /// Trapezoid-free integral (sum of sample × dt); for power traces this
    /// is energy in watt-seconds.
    pub fn integral(&self) -> f64 {
        self.values.iter().sum::<f64>() * self.dt.0
    }
}

/// Sliding-window history with a fixed capacity — used by the allocator to
/// remember recent interactive power samples.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    cap: usize,
    buf: Vec<f64>,
    head: usize,
    filled: bool,
}

impl SlidingWindow {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        SlidingWindow {
            cap,
            buf: Vec::with_capacity(cap),
            head: 0,
            filled: false,
        }
    }

    pub fn push(&mut self, v: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
            if self.buf.len() == self.cap {
                self.filled = true;
            }
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True once the window has seen `cap` samples.
    pub fn is_full(&self) -> bool {
        self.filled
    }

    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.buf.iter().copied()
    }

    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.buf.iter().sum::<f64>() / self.buf.len() as f64
        }
    }

    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        self.buf.iter().filter(|&&v| v > threshold).count() as f64 / self.buf.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Trace {
        Trace::new(Seconds(1.0), vec![1.0, 2.0, 3.0, 4.0])
    }

    #[test]
    fn zero_order_hold_sampling() {
        let tr = t();
        assert_eq!(tr.at(Seconds(0.0)), 1.0);
        assert_eq!(tr.at(Seconds(0.99)), 1.0);
        assert_eq!(tr.at(Seconds(1.0)), 2.0);
        // Clamps beyond the end.
        assert_eq!(tr.at(Seconds(100.0)), 4.0);
    }

    #[test]
    fn resample_downsamples_by_hold() {
        let tr = t();
        let r = tr.resample(Seconds(2.0));
        assert_eq!(r.values, vec![1.0, 3.0]);
        let up = tr.resample(Seconds(0.5));
        assert_eq!(up.len(), 8);
        assert_eq!(up.values[0], 1.0);
        assert_eq!(up.values[1], 1.0);
        assert_eq!(up.values[2], 2.0);
    }

    #[test]
    fn stats() {
        let tr = t();
        assert!((tr.mean() - 2.5).abs() < 1e-12);
        assert_eq!(tr.min(), 1.0);
        assert_eq!(tr.max(), 4.0);
        assert_eq!(tr.percentile(0.0), 1.0);
        assert_eq!(tr.percentile(100.0), 4.0);
        assert_eq!(tr.percentile(50.0), 3.0); // nearest rank of 1.5 → idx 2
        assert!((tr.fraction_above(2.5) - 0.5).abs() < 1e-12);
        assert!((tr.integral() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn duration_and_constant() {
        let c = Trace::constant(Seconds(2.0), 7.0, 5);
        assert_eq!(c.duration(), Seconds(10.0));
        assert_eq!(c.mean(), 7.0);
    }

    #[test]
    fn map_is_pointwise() {
        let doubled = t().map(|v| v * 2.0);
        assert_eq!(doubled.values, vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn sliding_window_wraps() {
        let mut w = SlidingWindow::new(3);
        assert!(w.is_empty());
        w.push(1.0);
        assert!(!w.is_full());
        w.push(2.0);
        w.push(3.0);
        assert!(w.is_full());
        assert!((w.mean() - 2.0).abs() < 1e-12);
        w.push(10.0); // evicts 1.0
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert_eq!(w.len(), 3);
        assert!((w.fraction_above(2.5) - 2.0 / 3.0).abs() < 1e-12);
    }
}
