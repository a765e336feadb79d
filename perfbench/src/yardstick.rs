//! A fixed reference workload that uses no code of the repository, timed
//! beside the batches to measure how fast the host runs at the moment.
//!
//! Other tenants of a shared host slow every run for minutes at a time,
//! mostly by contending for the caches, so a whole run can land in a slow
//! phase; timing the fastest repeats cannot undo that. The yardstick slows
//! with the simulator, if not always by as much, and no change to the
//! repository can move it, so the end-to-end timings are scaled by it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Events one timing processes.
const EVENTS: u32 = 100_000;
/// Entries of the table the events update: 2 MiB, the size of a core's
/// L2 cache on the host the bounds were set on.
const TABLE: usize = 1 << 18;
/// Entries of the buffer swept before each timing to push the table out
/// of L2, as the batch before it does: 4 MiB.
const SCRUB: usize = 1 << 19;
/// Threads the event loop keeps in flight.
const THREADS: u32 = 64;

/// The yardstick's state, allocated once so no timing includes page
/// faults.
pub struct Yardstick {
    table: Vec<u64>,
    scrub: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut yardstick = Yardstick {
            table: vec![1; TABLE],
            scrub: vec![1; SCRUB],
            queue: BinaryHeap::with_capacity(THREADS as usize),
        };
        yardstick.time();
        yardstick
    }

    /// Memory the yardstick keeps resident from its creation on, in MiB.
    pub fn resident_mb(&self) -> f64 {
        let words = self.table.capacity() + self.scrub.capacity();
        (words * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Sweeps the scrub buffer, then runs the reference workload once;
    /// returns the host time of the run alone, in ns.
    pub fn time(&mut self) -> u64 {
        for word in &mut self.scrub {
            *word = word.wrapping_add(1);
        }
        black_box(&mut self.scrub);
        let start = Instant::now();
        black_box(self.run());
        start.elapsed().as_nanos() as u64
    }

    /// A small discrete-event loop, like the simulator's: pop the earliest
    /// event, update a random table entry, schedule the thread again.
    fn run(&mut self) -> u64 {
        self.queue.clear();
        self.queue
            .extend((0..THREADS).map(|id| Reverse((u64::from(id), id))));
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        let mut sum = 0_u64;
        for _ in 0..EVENTS {
            let Some(Reverse((time, id))) = self.queue.pop() else {
                break;
            };
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let slot = &mut self.table[rng as usize & (TABLE - 1)];
            *slot = slot.wrapping_mul(31).wrapping_add(time ^ u64::from(id));
            sum = sum.wrapping_add(*slot);
            self.queue.push(Reverse((time + 1 + (rng >> 54), id)));
        }
        sum
    }
}
