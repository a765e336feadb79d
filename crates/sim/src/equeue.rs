//! The engine's indexed event queue: one `Vec` sorted by `(time, seq)`
//! with O(1) pop and cheap keyed cancellation.
//!
//! The discrete-event loop is the hottest code in the repository: every
//! sweep cell pushes and pops millions of events. A `BinaryHeap` of
//! `Reverse<(u64, u64, Event)>` tuples works, but pays `log n` sift
//! swaps of 24-byte keys on every operation and gives no way to remove
//! a superseded event — stale `CoreDone` events sit in the heap until
//! their turn comes and are then discarded by a token check, each one
//! costing a full loop iteration.
//!
//! The replacement exploits the engine's actual event population. With
//! eager cancellation (see [`cancel`](EventQueue::cancel)) the queue
//! holds at most one in-flight `CoreDone` per core, one `Tick`, the
//! pending fault events and the not-yet-arrived application `Arrival`s:
//! at most 5, 18 and 39 events on the three benchmark workloads, not
//! thousands. So the queue is a single `Vec`:
//!
//! * it is sorted by `(time, seq)` **descending**, so the minimum is the
//!   last element: [`pop`](EventQueue::pop) is a `Vec::pop` — O(1), no
//!   scan, no rebalancing;
//! * [`push`](EventQueue::push) insertion-sorts from the back. The
//!   engine schedules at `now + delta`, so most pushes land at or near
//!   the end, and the shift is a short in-L1 `memmove` of a few cache
//!   lines (measurably cheaper than a heap sift at these sizes);
//! * [`cancel`](EventQueue::cancel) locates an event by its
//!   [`EventKey`] with a backward scan (cancelled events are recently
//!   pushed `CoreDone`s, which sit near the insertion end of the
//!   descending order) and removes it in place.
//!
//! The `Vec` retains its capacity, so a steady-state simulation performs
//! **zero allocation per event**.
//!
//! # Ordering contract
//!
//! [`pop`](EventQueue::pop) returns events in **exactly** ascending
//! `(time, seq)` order, where `seq` is the queue's internal push
//! counter. This is bit-for-bit the order the previous `BinaryHeap`
//! implementation produced, which is what keeps the golden sweep CSVs
//! byte-identical across the swap (`tests/golden_sweep.rs` enforces
//! it); the differential test below proves the equivalence over random
//! interleavings of pushes, pops, and cancels.

/// Handle to a queued event, for [`EventQueue::cancel`].
///
/// The `(time, seq)` pair is the event's unique ordering key; the handle
/// stays valid until the event is popped or cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKey {
    time: u64,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// A popped event: its time, its unique sequence number, and the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Popped<T> {
    /// Scheduled time in nanoseconds.
    pub time: u64,
    /// The queue-assigned sequence number (FIFO tie-break at equal times).
    pub seq: u64,
    /// The event payload.
    pub item: T,
}

/// A monotone event queue ordered by `(time, seq)`.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Queued events sorted by `(time, seq)` descending — the minimum is
    /// `entries.last()`.
    entries: Vec<Entry<T>>,
    /// Monotone push counter; the FIFO tie-break at equal times.
    seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            entries: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `item` at `time` (nanoseconds) and returns its handle.
    pub fn push(&mut self, time: u64, item: T) -> EventKey {
        self.seq += 1;
        let seq = self.seq;
        // Insertion-sort from the back of the descending order. The
        // engine schedules at `now + delta`, so the common case lands at
        // or near the end: zero or a few slot shifts.
        let mut at = self.entries.len();
        while at > 0 && self.entries[at - 1].key() < (time, seq) {
            at -= 1;
        }
        self.entries.insert(at, Entry { time, seq, item });
        EventKey { time, seq }
    }

    /// Removes and returns the minimum-`(time, seq)` event.
    pub fn pop(&mut self) -> Option<Popped<T>> {
        let entry = self.entries.pop()?;
        Some(Popped {
            time: entry.time,
            seq: entry.seq,
            item: entry.item,
        })
    }

    /// Removes the event identified by `key`, returning its payload if it
    /// was still queued.
    pub fn cancel(&mut self, key: EventKey) -> Option<T> {
        let at = self.entries.iter().rposition(|e| e.seq == key.seq)?;
        Some(self.entries.remove(at).item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn empty_queue() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.entries.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(300, 'c');
        q.push(100, 'a');
        q.push(200, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|p| p.item)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(5_000, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|p| p.item)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_cross_the_window() {
        let mut q = EventQueue::new();
        // Schedule out of order across more than a second.
        let times = [5u64, 10_000_000, 50_000_000, 500_000_000, 20_000];
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut sorted: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        sorted.sort_unstable();
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|p| (p.time, p.item))).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn cancel_removes_only_its_event() {
        let mut q = EventQueue::new();
        let a = q.push(100, "a");
        let b = q.push(100, "b");
        let late = q.push(1 << 40, "late");
        assert_eq!(q.cancel(a), Some("a"));
        assert_eq!(q.cancel(a), None, "double cancel is a no-op");
        assert_eq!(q.pop().unwrap().item, "b");
        assert_eq!(q.cancel(late), Some("late"));
        assert_eq!(q.cancel(b), None, "popped events cannot be cancelled");
        assert!(q.entries.is_empty());
    }

    #[test]
    fn interleaved_push_pop_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(1_000, 0u64);
        let mut last = 0;
        let mut popped = 0;
        // Tick-like chain: each pop schedules the next event further out,
        // exactly like the engine's CoreDone/Tick feedback loop.
        while let Some(p) = q.pop() {
            assert!(p.time >= last, "time went backwards");
            last = p.time;
            popped += 1;
            if popped < 500 {
                q.push(p.time + 7_321, popped);
                if popped % 10 == 0 {
                    q.push(p.time + 10_000_000, popped * 1000);
                }
            }
        }
        assert!(popped >= 500);
    }

    /// The determinism contract: the queue must reproduce the pop order
    /// of `BinaryHeap<Reverse<(time, seq, item)>>` exactly, for pushes
    /// spanning nanoseconds to ~100 ms and equal times — including
    /// interleaved cancels.
    #[test]
    fn differential_against_binary_heap() {
        // Deterministic xorshift so the test needs no rng dependency.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        for round in 0..50 {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut live: Vec<EventKey> = Vec::new();
            let mut now = 0u64;
            let mut heap_seq = 0u64;
            for op in 0..2_000 {
                match rand() % 10 {
                    // 60% push at now + delta, deltas spanning ns..100ms
                    0..=5 => {
                        let magnitude = rand() % 27;
                        let delta = rand() % (1u64 << magnitude).max(1);
                        let t = now + delta;
                        let key = q.push(t, op);
                        heap_seq += 1;
                        heap.push(Reverse((t, heap_seq, op)));
                        live.push(key);
                    }
                    // 30% pop
                    6..=8 => {
                        let ours = q.pop();
                        let theirs = heap.pop();
                        match (ours, theirs) {
                            (None, None) => {}
                            (Some(p), Some(Reverse((t, s, item)))) => {
                                assert_eq!(
                                    (p.time, p.seq, p.item),
                                    (t, s, item),
                                    "round {round} op {op} diverged"
                                );
                                now = t;
                                live.retain(|k| k.seq != s);
                            }
                            (ours, theirs) => {
                                panic!("round {round} op {op}: {ours:?} vs {theirs:?}")
                            }
                        }
                    }
                    // 10% cancel a random live event
                    _ => {
                        if !live.is_empty() {
                            let at = (rand() as usize) % live.len();
                            let key = live.swap_remove(at);
                            assert!(q.cancel(key).is_some(), "live event must cancel");
                            heap.retain(|&Reverse((_, s, _))| s != key.seq);
                        }
                    }
                }
            }
            // Drain both to the end.
            loop {
                let ours = q.pop();
                let theirs = heap.pop();
                match (ours, theirs) {
                    (None, None) => break,
                    (Some(p), Some(Reverse((t, s, item)))) => {
                        assert_eq!((p.time, p.seq, p.item), (t, s, item));
                    }
                    (ours, theirs) => panic!("drain diverged: {ours:?} vs {theirs:?}"),
                }
            }
        }
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let mut q = EventQueue::new();
        // Spin an engine-like event chain over ~90 s of simulated time;
        // the queue must stay at its small steady-state capacity (no
        // per-event allocation).
        let mut t = 0u64;
        for i in 0..10_000u64 {
            q.push(t + 9_000_000, i);
            let p = q.pop().unwrap();
            t = p.time;
        }
        assert!(q.entries.is_empty());
        assert!(
            q.entries.capacity() <= 16,
            "queue grew: {}",
            q.entries.capacity()
        );
    }
}
