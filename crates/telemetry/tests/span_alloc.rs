//! A warmed-up span costs no heap allocation under `NullSink`.
//!
//! Every run installs a collector, so spans are always timed; this binary
//! holds a single test because it swaps in a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations made by the current thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` without a destructor, so updating
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees on `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn warmed_up_spans_allocate_nothing() {
    let collector = Arc::new(telemetry::Collector::null());
    telemetry::with_collector(Arc::clone(&collector), || {
        let nested = || {
            let _tick = telemetry::span("tick");
            let _control = telemetry::span("control");
        };
        nested(); // first sight of each name registers its histogram
        let before = ALLOCS.with(Cell::get);
        for _ in 0..100 {
            nested();
        }
        assert_eq!(
            ALLOCS.with(Cell::get) - before,
            0,
            "span start/drop allocated"
        );
    });
    let snapshot = collector.snapshot();
    assert_eq!(snapshot.histogram("tick.ns").unwrap().count, 101);
    assert_eq!(snapshot.histogram("control.ns").unwrap().count, 101);
}
