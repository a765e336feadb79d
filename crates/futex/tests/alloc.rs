//! A wake into a reused list allocates nothing: the simulator keeps one
//! wake list for a whole run, so once it and the futex queue have grown
//! to a barrier's size, releasing that barrier again costs no allocation.
//!
//! Counts this thread's allocations with a wrapping global allocator, so
//! the one test in this binary reads only its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use amp_futex::{OpResult, SyncObjects};
use amp_types::{SimTime, ThreadId};

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
fn releasing_a_barrier_into_a_reused_list_allocates_nothing() {
    const PARTIES: u32 = 8;
    let mut sync = SyncObjects::new(PARTIES as usize);
    let barrier = sync.add_barrier(PARTIES);
    let mut woken = Vec::new();
    let release = |sync: &mut SyncObjects, woken: &mut Vec<ThreadId>, ms: u64| {
        woken.clear();
        for t in 0..PARTIES - 1 {
            let result =
                sync.barrier_arrive(barrier, ThreadId::new(t), SimTime::from_millis(ms), woken);
            assert_eq!(result, OpResult::Block);
        }
        let last = ThreadId::new(PARTIES - 1);
        allocations_of(|| {
            let result = sync.barrier_arrive(barrier, last, SimTime::from_millis(ms + 1), woken);
            assert_eq!(result, OpResult::Proceed);
        })
    };

    // The first release grows the list to seven threads.
    release(&mut sync, &mut woken, 0);
    assert_eq!(woken.len(), PARTIES as usize - 1);
    let second = release(&mut sync, &mut woken, 10);
    assert_eq!(second, 0, "second release allocated {second} times");
    assert_eq!(
        woken,
        (0..PARTIES - 1).map(ThreadId::new).collect::<Vec<_>>()
    );
}
