//! An empty histogram, an empty report and the report of a run that
//! recorded nothing own no heap allocation: the sweep memo holds one
//! report per run set, and most study run sets keep an empty one.
//!
//! Counts this thread's allocations with a wrapping global allocator, so
//! the one test in this binary reads only its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use amp_telemetry::{LatencyHistogram, Telemetry, TelemetryReport};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the thread-local counter allocates nothing and is skipped once the
// thread's locals are torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` comes from the caller, who upholds `alloc`'s
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while running `f`.
fn allocations_of<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    drop(std::hint::black_box(f()));
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn empty_histograms_and_reports_allocate_nothing() {
    assert_eq!(allocations_of(LatencyHistogram::new), 0);
    assert_eq!(allocations_of(LatencyHistogram::default), 0);
    assert_eq!(allocations_of(TelemetryReport::default), 0);
    assert_eq!(allocations_of(|| TelemetryReport::new().clone()), 0);
    assert_eq!(
        allocations_of(|| {
            let mut pooled = TelemetryReport::new();
            pooled.absorb(&TelemetryReport::default());
            pooled
        }),
        0
    );
    // A run with the ring off that recorded nothing packs to nothing.
    assert_eq!(allocations_of(|| Telemetry::new(0).finish()), 0);
    // The counter does see a histogram that stores a bucket.
    assert_eq!(
        allocations_of(|| [amp_types::SimDuration::from_nanos(5)]
            .into_iter()
            .collect::<LatencyHistogram>()),
        2,
        "one recorder vector, one packed entry"
    );
}
