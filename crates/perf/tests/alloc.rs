//! A trained speedup model predicts without allocating: COLAB and WASH
//! call it for every thread on every tick, and the engine's per-tick
//! allocation is bounded by reused buffers.
//!
//! Counts this thread's allocations with a wrapping global allocator, so
//! the one test in this binary reads only its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use amp_perf::{ExecutionProfile, SpeedupModel, TrainingSet};
use amp_types::CoreKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

#[test]
fn trained_model_predicts_without_allocating() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut set = TrainingSet::new();
    for seq in 0..200 {
        let profile = ExecutionProfile::sample(&mut rng);
        let pmu = profile.synthesize_counters(CoreKind::Big, 2e6, 1.6e6, seq, &mut rng);
        set.push(pmu, profile.true_speedup());
    }
    let model = SpeedupModel::train(&set, 6).expect("200 rows fit 6 features");
    assert_eq!(model.selected_counters().len(), 6);

    let pmu =
        ExecutionProfile::balanced().synthesize_counters(CoreKind::Little, 2e6, 1e6, 0, &mut rng);
    let before = ALLOCATIONS.with(Cell::get);
    let predicted = std::hint::black_box(&model).predict(std::hint::black_box(&pmu));
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocations, 0, "predict allocated {allocations} times");
    assert!(predicted.is_finite());
}
