//! Dependency-free tracing, metrics and profiling for the SprintCon stack.
//!
//! SprintCon's claims are about *controllability* — mode transitions,
//! budget-tracking error, trip-margin headroom — so the control loops must
//! be observable, not just their end states. This crate provides the three
//! pieces the rest of the workspace instruments itself with:
//!
//! 1. **Tracing** — [`event`]/[`span`] emit records to a pluggable
//!    [`Sink`]: [`NullSink`] (drop), [`MemorySink`] (ring buffer for tests
//!    and inspection), [`JsonlSink`] (JSON Lines to a file).
//! 2. **Metrics** — a [`MetricsRegistry`] of counters, gauges (with
//!    min/max tracking) and fixed-bucket histograms, snapshotted
//!    deterministically (name-sorted) via [`MetricsSnapshot`].
//! 3. **Profiling hooks** — [`span`] guards time their scope into
//!    `<name>.ns` histograms, giving per-control-period latency profiles.
//!
//! # Installation model
//!
//! Instrumentation is *free-function* style — `telemetry::counter_add(...)`
//! from anywhere — and routes to the [`Collector`] installed on the
//! calling thread with [`with_collector`], which the experiment harness
//! uses to isolate per-run metrics inside traced parallel sweeps and the
//! CLI to trace its run. With none installed every call is a cheap
//! early-out (one thread-local read). An installed collector is not free: its spans
//! and by-name metric updates cost about 0.8 µs of a 7.4 µs SprintCon
//! rack tick, measured on a 2-vCPU Xeon VM as 135–136k rack-ticks/s with
//! a `NullSink` collector per run against 152–153k without. That is why
//! the simulator's runs are untraced unless asked.
//!
//! ```
//! use std::sync::Arc;
//!
//! let collector = Arc::new(telemetry::Collector::new(Box::new(
//!     telemetry::MemorySink::new(64),
//! )));
//! let snapshot = telemetry::with_collector(Arc::clone(&collector), || {
//!     telemetry::counter_add("qp_solve_total", 1);
//!     telemetry::histogram_observe("qp_solve_iters", 17.0);
//!     telemetry::gauge_track_min("breaker_margin_min", 0.42);
//!     telemetry::event("supervisor.mode_change", &[("to", "cb-protect".into())]);
//!     {
//!         let _span = telemetry::span("controller.period");
//!         // ... timed work ...
//!     }
//!     telemetry::snapshot().unwrap()
//! });
//! assert_eq!(snapshot.counter("qp_solve_total"), 1);
//! assert_eq!(snapshot.histogram("qp_solve_iters").unwrap().count, 1);
//! ```

pub mod collector;
pub mod metrics;
pub mod sink;

pub use collector::{enabled, with_collector, Collector, Span};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use sink::{JsonlSink, MemorySink, NullSink, Record, Sink, Value};

use collector::with_active;

/// Increment counter `name` by `n`. No-op without an installed collector.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    with_active(|c| c.metrics.counter(name).add(n));
}

/// Set gauge `name` to `v`.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    with_active(|c| c.metrics.gauge(name).set(v));
}

/// Keep the running minimum of gauge `name`.
#[inline]
pub fn gauge_track_min(name: &str, v: f64) {
    with_active(|c| c.metrics.gauge(name).track_min(v));
}

/// Observe `v` into histogram `name` (exponential buckets by default).
#[inline]
pub fn histogram_observe(name: &str, v: f64) {
    with_active(|c| c.metrics.histogram(name).observe(v));
}

/// Emit a point-in-time trace event with named fields.
///
/// The field slice is only materialized into owned records when a
/// collector is actually installed, so call sites may pass freshly built
/// values without a fast-path cost — but prefer constructing expensive
/// field values behind [`enabled`] checks.
#[inline]
pub fn event(name: &str, fields: &[(&str, Value)]) {
    with_active(|c| {
        let owned: Vec<(String, Value)> = fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        c.emit_event(name, owned);
    });
}

/// Start an RAII span; its wall time is recorded on drop into the
/// `<name>.ns` histogram and the trace sink.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::start(name)
}

/// Snapshot the active collector's metrics, if one is installed.
pub fn snapshot() -> Option<MetricsSnapshot> {
    with_active(|c| c.metrics.snapshot())
}

/// Flush the active collector's sink, if one is installed.
pub fn flush() {
    with_active(|c| c.flush());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn free_functions_are_noops_without_collector() {
        counter_add("nope", 1);
        gauge_set("nope", 1.0);
        histogram_observe("nope", 1.0);
        event("nope", &[("k", 1.0.into())]);
        assert!(snapshot().is_none());
        assert!(!enabled());
    }

    #[test]
    fn per_run_isolation_across_threads() {
        // The sweep pattern: each worker installs its own collector; the
        // per-run snapshots must not bleed into each other.
        let snapshots: Vec<MetricsSnapshot> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|i| {
                    s.spawn(move || {
                        let c = Arc::new(Collector::null());
                        with_collector(Arc::clone(&c), || {
                            counter_add("runs", i + 1);
                            snapshot().unwrap()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut counts: Vec<u64> = snapshots.iter().map(|s| s.counter("runs")).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2, 3, 4]);
    }

    #[test]
    fn events_reach_the_installed_sink() {
        let sink = Arc::new(MemorySink::new(16));
        struct Fwd(Arc<MemorySink>);
        impl Sink for Fwd {
            fn record(&self, rec: &Record) {
                self.0.record(rec);
            }
        }
        let c = Arc::new(Collector::new(Box::new(Fwd(Arc::clone(&sink)))));
        with_collector(c, || {
            event(
                "supervisor.mode_change",
                &[("from", "sprint".into()), ("to", "ended".into())],
            );
        });
        let recs = sink.records();
        assert_eq!(recs.len(), 1);
        match &recs[0] {
            Record::Event { name, fields, .. } => {
                assert_eq!(name, "supervisor.mode_change");
                assert_eq!(fields[0], ("from".to_string(), Value::from("sprint")));
            }
            other => panic!("expected event, got {other:?}"),
        }
    }
}
