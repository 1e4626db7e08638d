//! The [`Collector`] pairs a metrics registry with a trace sink, and
//! [`with_collector`] installs one for the calling thread: this is how
//! the experiment harness isolates per-run metrics inside parallel
//! sweeps, and how the CLI traces its run. Instrumentation reaches the
//! innermost collector installed on its own thread, and nothing else.
//!
//! With no collector installed, the fast path is one thread-local read.
//! An installed collector is not free: its spans read the clock and every
//! by-name update takes a read-locked hash lookup, about a tenth of a
//! SprintCon rack tick in all (see the crate docs for the measurement),
//! so the simulator installs one only for traced runs.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::sink::{NullSink, Record, Sink, Value};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A metrics registry plus a trace sink, with a sequence counter stamping
/// every record.
pub struct Collector {
    pub metrics: MetricsRegistry,
    sink: Box<dyn Sink>,
    seq: AtomicU64,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").finish_non_exhaustive()
    }
}

impl Collector {
    pub fn new(sink: Box<dyn Sink>) -> Self {
        Collector {
            metrics: MetricsRegistry::default(),
            sink,
            seq: AtomicU64::new(0),
        }
    }

    /// Metrics only; trace records are dropped.
    pub fn null() -> Self {
        Collector::new(Box::new(NullSink))
    }

    pub fn emit_event(&self, name: &str, fields: Vec<(String, Value)>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.sink.record(&Record::Event {
            seq,
            name: name.to_string(),
            fields,
        });
    }

    pub fn emit_span(&self, name: &'static str, nanos: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.sink.record(&Record::Span { seq, name, nanos });
    }

    pub fn flush(&self) {
        self.sink.flush();
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

thread_local! {
    static SCOPED: RefCell<Option<Arc<Collector>>> = const { RefCell::new(None) };
}

/// Run `f` with `c` installed as this thread's collector, restoring the
/// previous scoped collector afterwards (re-entrant).
pub fn with_collector<R>(c: Arc<Collector>, f: impl FnOnce() -> R) -> R {
    // Restores the previous collector even if `f` panics, so a poisoned
    // worker cannot leak its collector into unrelated runs.
    struct Restore(Option<Arc<Collector>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            SCOPED.with(|s| *s.borrow_mut() = prev);
        }
    }
    let prev = SCOPED.with(|s| s.borrow_mut().replace(c));
    let _restore = Restore(prev);
    f()
}

/// Apply `f` to this thread's collector, if any. This is the single gate
/// all instrumentation goes through; with nothing installed it costs a
/// thread-local borrow.
#[inline]
pub fn with_active<R>(f: impl FnOnce(&Collector) -> R) -> Option<R> {
    SCOPED.with(|s| s.borrow().as_deref().map(f))
}

/// True if a collector is installed on this thread.
#[inline]
pub fn enabled() -> bool {
    with_active(|_| ()).is_some()
}

/// RAII span guard: measures wall time from construction to drop, feeding a
/// duration histogram (`<name>.ns`) and the trace sink. Inert (no clock
/// read) when no collector is installed. With one installed, a span whose
/// name has been seen before allocates nothing.
#[must_use = "a span measures until it is dropped"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    pub fn start(name: &'static str) -> Self {
        let start = if enabled() {
            Some(Instant::now())
        } else {
            None
        };
        Span { name, start }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            with_active(|c| {
                c.metrics.observe_span(self.name, nanos as f64);
                c.emit_span(self.name, nanos);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn scoped_collector_shadows_and_restores() {
        assert!(!enabled());
        let outer = Arc::new(Collector::null());
        let inner = Arc::new(Collector::null());
        with_collector(Arc::clone(&outer), || {
            with_active(|c| c.metrics.counter("hits").add(1));
            with_collector(Arc::clone(&inner), || {
                with_active(|c| c.metrics.counter("hits").add(10));
            });
            with_active(|c| c.metrics.counter("hits").add(1));
        });
        assert_eq!(outer.snapshot().counter("hits"), 2);
        assert_eq!(inner.snapshot().counter("hits"), 10);
        assert!(!enabled());
    }

    #[test]
    fn scoped_collector_survives_panics() {
        let c = Arc::new(Collector::null());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_collector(Arc::clone(&c), || panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(!enabled(), "panic must not leak the scoped collector");
    }

    #[test]
    fn spans_record_duration_and_trace() {
        let sink = Arc::new(MemorySink::new(8));
        struct Fwd(Arc<MemorySink>);
        impl Sink for Fwd {
            fn record(&self, rec: &Record) {
                self.0.record(rec);
            }
        }
        let c = Arc::new(Collector::new(Box::new(Fwd(Arc::clone(&sink)))));
        with_collector(Arc::clone(&c), || {
            let _s = Span::start("tick");
        });
        let recs = sink.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name(), "tick");
        assert_eq!(c.snapshot().histogram("tick.ns").unwrap().count, 1);
    }

    #[test]
    fn spans_are_inert_without_a_collector() {
        let s = Span::start("noop");
        assert!(s.start.is_none());
    }

    #[test]
    fn collector_seq_orders_records() {
        let sink = Arc::new(MemorySink::new(8));
        struct Fwd(Arc<MemorySink>);
        impl Sink for Fwd {
            fn record(&self, rec: &Record) {
                self.0.record(rec);
            }
        }
        let c = Collector::new(Box::new(Fwd(Arc::clone(&sink))));
        c.emit_event("a", vec![]);
        c.emit_span("b", 5);
        let recs = sink.records();
        assert_eq!(recs[0].seq(), 0);
        assert_eq!(recs[1].seq(), 1);
    }
}
