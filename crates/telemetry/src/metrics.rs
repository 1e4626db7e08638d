//! Lock-light metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Metric cells are plain atomics, so the per-update cost on the control
//! hot path is one hash lookup under a read lock plus one atomic RMW. The
//! registry itself only takes its write lock the first time a name is seen.
//!
//! Snapshots ([`MetricsSnapshot`]) are taken with names sorted, so two
//! snapshots of identical runs compare equal and sweep aggregation stays
//! deterministic.

use crate::sink::json_string;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An f64 gauge cell supporting plain set plus running min/max tracking.
/// Unset cells read as `None`; f64 payloads live in an `AtomicU64` as bits.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
    set: AtomicU64, // 0 = never written
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
            set: AtomicU64::new(0),
        }
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.set.store(1, Ordering::Release);
    }

    /// Keep the smallest value ever observed.
    pub fn track_min(&self, v: f64) {
        self.track_by(v, |cur, new| new < cur);
    }

    /// Keep the largest value ever observed.
    pub fn track_max(&self, v: f64) {
        self.track_by(v, |cur, new| new > cur);
    }

    fn track_by(&self, v: f64, better: impl Fn(f64, f64) -> bool) {
        if self.set.load(Ordering::Acquire) == 0 {
            // First writer wins the initialization race; a lost race falls
            // through to the CAS loop below.
            self.bits.store(v.to_bits(), Ordering::Relaxed);
            self.set.store(1, Ordering::Release);
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            if !better(f64::from_bits(cur), v) {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> Option<f64> {
        if self.set.load(Ordering::Acquire) == 0 {
            None
        } else {
            Some(f64::from_bits(self.bits.load(Ordering::Relaxed)))
        }
    }
}

/// Fixed-bucket histogram: counts per upper bound, plus overflow, count and
/// sum (sum as f64 bits updated by CAS).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    pub fn with_buckets(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = bounds.iter().map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Default layout: 16 exponential buckets from 1 up — fits iteration
    /// counts and nanosecond durations alike.
    pub fn exponential_default() -> Self {
        let mut bounds = Vec::with_capacity(16);
        let mut b = 1.0f64;
        for _ in 0..16 {
            bounds.push(b);
            b *= 4.0;
        }
        Histogram::with_buckets(bounds)
    }

    pub fn observe(&self, v: f64) {
        match self.bounds.iter().position(|&ub| v <= ub) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .bounds
                .iter()
                .zip(&self.buckets)
                .map(|(&ub, c)| (ub, c.load(Ordering::Relaxed)))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of a histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// `(upper_bound, count)` per bucket.
    pub buckets: Vec<(f64, u64)>,
    pub overflow: u64,
    pub count: u64,
    pub sum: f64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The metrics registry: string-keyed families of the three metric kinds.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    /// Span-duration histograms keyed by span name: the same cells as the
    /// `<name>.ns` entries of `histograms`, cached so that timing a span
    /// neither formats the suffixed name nor allocates.
    spans: RwLock<HashMap<&'static str, Arc<Histogram>>>,
}

fn get_or_insert<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().expect("metrics registry poisoned").get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().expect("metrics registry poisoned");
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl MetricsRegistry {
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// Histograms default to the exponential layout; use
    /// [`MetricsRegistry::histogram_with_buckets`] to pre-register a
    /// custom one before the first observation.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .expect("metrics registry poisoned")
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut w = self.histograms.write().expect("metrics registry poisoned");
        Arc::clone(
            w.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::exponential_default())),
        )
    }

    /// Observe `nanos` into span `name`'s `<name>.ns` histogram. Only the
    /// first observation of a name formats and registers `<name>.ns`;
    /// later ones are one read-locked lookup and allocate nothing.
    pub(crate) fn observe_span(&self, name: &'static str, nanos: f64) {
        if let Some(h) = self
            .spans
            .read()
            .expect("metrics registry poisoned")
            .get(name)
        {
            h.observe(nanos);
            return;
        }
        let h = self.histogram(&format!("{name}.ns"));
        h.observe(nanos);
        self.spans
            .write()
            .expect("metrics registry poisoned")
            .insert(name, h);
    }

    pub fn histogram_with_buckets(&self, name: &str, bounds: Vec<f64>) -> Arc<Histogram> {
        let mut w = self.histograms.write().expect("metrics registry poisoned");
        Arc::clone(
            w.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::with_buckets(bounds))),
        )
    }

    /// Deterministic (name-sorted) snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .read()
            .expect("metrics registry poisoned")
            .iter()
            .filter_map(|(k, v)| v.get().map(|g| (k.clone(), g)))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .read()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Everything the registry knew at one instant, name-sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self` (sweep aggregation). Deterministic given
    /// a deterministic fold order:
    ///
    /// * counters add;
    /// * histograms with identical bucket layouts add element-wise
    ///   (mismatched layouts keep `self`'s buckets and only fold count,
    ///   sum and overflow);
    /// * gauges follow their name: `*_min` keeps the minimum, `*_max`
    ///   the maximum, anything else takes `other`'s (latest) value.
    ///
    /// Name lists stay sorted, so merging equal runs in the same order
    /// yields identical snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self
                .counters
                .binary_search_by(|(k, _)| k.as_str().cmp(name))
            {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
                Ok(i) => {
                    let cur = self.gauges[i].1;
                    self.gauges[i].1 = if name.ends_with("_min") {
                        cur.min(*v)
                    } else if name.ends_with("_max") {
                        cur.max(*v)
                    } else {
                        *v
                    };
                }
                Err(i) => self.gauges.insert(i, (name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self
                .histograms
                .binary_search_by(|(k, _)| k.as_str().cmp(name))
            {
                Ok(i) => {
                    let mine = &mut self.histograms[i].1;
                    let same_layout = mine.buckets.len() == h.buckets.len()
                        && mine
                            .buckets
                            .iter()
                            .zip(&h.buckets)
                            .all(|((a, _), (b, _))| a == b);
                    if same_layout {
                        for (slot, (_, c)) in mine.buckets.iter_mut().zip(&h.buckets) {
                            slot.1 += c;
                        }
                        mine.overflow += h.overflow;
                    } else {
                        mine.overflow += h.buckets.iter().map(|(_, c)| c).sum::<u64>() + h.overflow;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                }
                Err(i) => self.histograms.insert(i, (name.clone(), h.clone())),
            }
        }
    }

    /// Render as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(k));
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(k));
            if v.is_finite() {
                out.push_str(&format!(":{v}"));
            } else {
                out.push_str(":null");
            }
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(k));
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"overflow\":{},\"buckets\":[",
                h.count,
                if h.sum.is_finite() {
                    format!("{}", h.sum)
                } else {
                    "null".to_string()
                },
                h.overflow
            ));
            for (j, (ub, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{ub},{c}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::default();
        r.counter("a").add(2);
        r.counter("a").add(3);
        r.counter("b").add(1);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), 5);
        assert_eq!(s.counter("b"), 1);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn gauges_track_min_and_max() {
        let r = MetricsRegistry::default();
        assert_eq!(r.gauge("m").get(), None);
        r.gauge("m").track_min(0.8);
        r.gauge("m").track_min(0.3);
        r.gauge("m").track_min(0.5);
        assert_eq!(r.gauge("m").get(), Some(0.3));
        r.gauge("x").track_max(1.0);
        r.gauge("x").track_max(4.0);
        r.gauge("x").track_max(2.0);
        assert_eq!(r.gauge("x").get(), Some(4.0));
        r.gauge("s").set(7.0);
        r.gauge("s").set(-1.0);
        assert_eq!(r.gauge("s").get(), Some(-1.0));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::with_buckets(vec![1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.buckets, vec![(1.0, 1), (10.0, 2), (100.0, 1)]);
        assert_eq!(s.overflow, 1);
        assert!((s.sum - 560.5).abs() < 1e-9);
        assert!((s.mean() - 112.1).abs() < 1e-9);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let r = MetricsRegistry::default();
        r.counter("zeta").add(1);
        r.counter("alpha").add(1);
        r.gauge("mid").set(0.5);
        r.histogram("h").observe(3.0);
        let a = r.snapshot();
        let b = r.snapshot();
        assert_eq!(a, b);
        assert_eq!(a.counters[0].0, "alpha");
        assert_eq!(a.counters[1].0, "zeta");
    }

    #[test]
    fn snapshot_json_is_wellformed_enough() {
        let r = MetricsRegistry::default();
        r.counter("c").add(4);
        r.gauge("g").set(1.25);
        r.histogram_with_buckets("h", vec![1.0, 2.0]).observe(1.5);
        let j = r.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"c\":4"));
        assert!(j.contains("\"g\":1.25"));
        assert!(j.contains("\"buckets\":[[1,0],[2,1]]"));
    }

    #[test]
    fn merge_adds_counters_and_histograms_and_respects_gauge_suffixes() {
        let a = MetricsRegistry::default();
        a.counter("runs").add(1);
        a.gauge("headroom_min").set(0.4);
        a.gauge("duty_max").set(0.2);
        a.gauge("last").set(1.0);
        a.histogram_with_buckets("h", vec![1.0, 10.0]).observe(5.0);
        let b = MetricsRegistry::default();
        b.counter("runs").add(2);
        b.counter("only_b").add(7);
        b.gauge("headroom_min").set(0.1);
        b.gauge("duty_max").set(0.9);
        b.gauge("last").set(2.0);
        b.histogram_with_buckets("h", vec![1.0, 10.0]).observe(0.5);

        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("runs"), 3);
        assert_eq!(m.counter("only_b"), 7);
        assert_eq!(m.gauge("headroom_min"), Some(0.1));
        assert_eq!(m.gauge("duty_max"), Some(0.9));
        assert_eq!(m.gauge("last"), Some(2.0));
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets, vec![(1.0, 1), (10.0, 1)]);
        // Deterministic: same merges in the same order compare equal.
        let mut m2 = a.snapshot();
        m2.merge(&b.snapshot());
        assert_eq!(m, m2);
        // And the name lists stay sorted.
        assert!(m.counters.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn span_observations_land_in_the_suffixed_histogram() {
        let r = MetricsRegistry::default();
        // A pre-registered layout is the one spans feed.
        r.histogram_with_buckets("tick.ns", vec![10.0, 100.0]);
        for v in [5.0, 50.0, 500.0] {
            r.observe_span("tick", v);
        }
        r.observe_span("other", 1.0);
        let s = r.snapshot();
        let h = s.histogram("tick.ns").unwrap();
        assert_eq!(h.buckets, vec![(10.0, 1), (100.0, 1)]);
        assert_eq!((h.count, h.overflow, h.sum), (3, 1, 555.0));
        assert_eq!(s.histogram("other.ns").unwrap().count, 1);
        let names: Vec<&str> = s.histograms.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["other.ns", "tick.ns"]);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Arc::new(MetricsRegistry::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..1000 {
                        r.counter("n").add(1);
                        r.gauge("min").track_min(i as f64);
                        r.histogram("h").observe(i as f64);
                    }
                });
            }
        });
        let s = r.snapshot();
        assert_eq!(s.counter("n"), 4000);
        assert_eq!(s.gauge("min"), Some(0.0));
        assert_eq!(s.histogram("h").unwrap().count, 4000);
    }
}
