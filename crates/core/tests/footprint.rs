//! One rack's controller holds only the state its solver runs.
//!
//! A datacenter floor builds one `SprintCon` per rack, so its footprint
//! multiplies by the rack count. This binary holds a single test because
//! it swaps in a counting global allocator.

use sprintcon::{SprintCon, SprintConConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts the live bytes and the allocations of the current thread.
struct Counting;

fn track(bytes: isize, allocs: u64) {
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + bytes));
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counters are
// const-initialised thread-local `Cell`s without a destructor, so updating
// them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize, 1);
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize), 0);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize, 1);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's guarantees on `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn one_rack_controller_fits_in_16_kib() {
    let (bytes_before, allocs_before) = (LIVE_BYTES.with(Cell::get), ALLOCS.with(Cell::get));
    let controller = SprintCon::new(SprintConConfig::paper_default());
    let live = LIVE_BYTES.with(Cell::get) - bytes_before;
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    println!("one paper-default SprintCon: {live} B live after {allocs} allocations");
    // A structured MPC over 64 batch cores needs ≈10 KiB of bounds and
    // solver buffers; a dense 128×128 Hessian alone would be 128 KiB.
    assert!(live <= 16 * 1024, "{live} B live");
    // Each model fit builds a probe server and its sample vectors, so
    // refitting per server would cost hundreds of allocations.
    assert!(allocs <= 128, "{allocs} allocations");
    drop(controller);
}
