//! Raw futex wait queues and the caused-wait ledger.

use std::collections::VecDeque;
use std::fmt;

use amp_types::{InlineVec, SimDuration, SimTime, ThreadId};

/// Threads released by one wake operation, in wake order.
///
/// Almost every wake releases zero or one thread (lock handoff, channel
/// transfer); a barrier release wakes all parties at once and spills.
/// Inline storage keeps the per-operation path allocation-free.
pub type WakeList = InlineVec<ThreadId, 4>;

/// Identifies one futex word (one wait queue).
///
/// Higher-level synchronization objects allocate one or more keys each, the
/// way a pthreads mutex occupies one word of memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FutexKey(u32);

impl FutexKey {
    /// Creates a key from a raw word index.
    pub const fn new(word: u32) -> FutexKey {
        FutexKey(word)
    }

    /// The raw word index.
    pub const fn word(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FutexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "futex#{}", self.0)
    }
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    thread: ThreadId,
    since: SimTime,
}

#[derive(Debug, Clone, Copy, Default)]
struct ThreadLedger {
    /// Set while the thread is parked on some futex.
    waiting_on: Option<FutexKey>,
    /// When the current wait began.
    wait_start: SimTime,
    /// Cumulative time this thread has *caused others* to wait — the
    /// paper's criticality metric, charged at wake.
    caused_wait: SimDuration,
    /// Cumulative time this thread has itself spent waiting.
    waited: SimDuration,
    /// Number of completed waits.
    wait_count: u64,
}

/// Futex wait queues plus per-thread blocking accounting.
///
/// See the [crate-level documentation](crate) for the accounting contract
/// and an example.
#[derive(Debug, Clone)]
pub struct FutexTable {
    /// Wait queues indexed directly by futex word. Words are allocated
    /// densely by `SyncObjects`, so a flat `Vec` replaces hashing on
    /// every operation; emptied queues keep their buffer (pooled), so a
    /// steady-state wait/wake cycle never allocates.
    queues: Vec<VecDeque<Waiter>>,
    ledger: Vec<ThreadLedger>,
}

impl FutexTable {
    /// Creates a table able to account for `num_threads` threads
    /// (ids `0..num_threads`).
    pub fn new(num_threads: usize) -> FutexTable {
        FutexTable {
            queues: Vec::new(),
            ledger: vec![ThreadLedger::default(); num_threads],
        }
    }

    fn queue_mut(&mut self, key: FutexKey) -> &mut VecDeque<Waiter> {
        let word = key.word() as usize;
        if word >= self.queues.len() {
            self.queues.resize_with(word + 1, VecDeque::new);
        }
        &mut self.queues[word]
    }

    /// Parks `thread` on `key` at time `now` (the paper's
    /// `futex_wait_queue_me` instrumentation point).
    ///
    /// # Panics
    ///
    /// Panics if the thread is already waiting on a futex — a thread can
    /// block on at most one futex at a time.
    pub fn wait(&mut self, key: FutexKey, thread: ThreadId, now: SimTime) {
        let entry = &mut self.ledger[thread.index()];
        assert!(
            entry.waiting_on.is_none(),
            "{thread} is already waiting on {}",
            entry.waiting_on.expect("checked above")
        );
        entry.waiting_on = Some(key);
        entry.wait_start = now;
        self.queue_mut(key).push_back(Waiter { thread, since: now });
    }

    /// Wakes up to `n` threads parked on `key`, FIFO, charging their
    /// accumulated waiting time to `waker` (the paper's `wake_futex`
    /// instrumentation point). Returns the woken threads in wake order.
    pub fn wake(&mut self, key: FutexKey, n: usize, waker: ThreadId, now: SimTime) -> WakeList {
        let mut woken = WakeList::new();
        let Some(queue) = self.queues.get_mut(key.word() as usize) else {
            return woken;
        };
        for _ in 0..n {
            let Some(waiter) = queue.pop_front() else {
                break;
            };
            let waited = now.saturating_since(waiter.since);
            let entry = &mut self.ledger[waiter.thread.index()];
            entry.waiting_on = None;
            entry.waited += waited;
            entry.wait_count += 1;
            woken.push(waiter.thread);

            let waker_entry = &mut self.ledger[waker.index()];
            waker_entry.caused_wait += waited;
        }
        woken
    }

    /// Removes `thread` from whatever futex it waits on without charging
    /// anyone (models a timed-out or cancelled wait). Returns the key it
    /// was waiting on, if any. The thread's own waited time still accrues.
    pub fn cancel_wait(&mut self, thread: ThreadId, now: SimTime) -> Option<FutexKey> {
        let entry = &mut self.ledger[thread.index()];
        let key = entry.waiting_on.take()?;
        let since = entry.wait_start;
        entry.waited += now.saturating_since(since);
        entry.wait_count += 1;
        if let Some(queue) = self.queues.get_mut(key.word() as usize) {
            queue.retain(|w| w.thread != thread);
        }
        Some(key)
    }

    /// The futex `thread` is currently parked on, if any.
    pub fn waiting_on(&self, thread: ThreadId) -> Option<FutexKey> {
        self.ledger[thread.index()].waiting_on
    }

    /// Number of threads parked on `key`.
    pub fn queue_len(&self, key: FutexKey) -> usize {
        self.queues.get(key.word() as usize).map_or(0, VecDeque::len)
    }

    /// Total threads parked across all futexes.
    pub fn total_waiters(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Cumulative time `thread` has caused other threads to wait — the
    /// paper's criticality metric.
    pub fn caused_wait(&self, thread: ThreadId) -> SimDuration {
        self.ledger[thread.index()].caused_wait
    }

    /// Cumulative time `thread` has itself spent in completed waits
    /// (excludes any wait still in progress).
    pub fn waited(&self, thread: ThreadId) -> SimDuration {
        self.ledger[thread.index()].waited
    }

    /// Completed waits for `thread`.
    pub fn wait_count(&self, thread: ThreadId) -> u64 {
        self.ledger[thread.index()].wait_count
    }

    /// Number of threads the table accounts for.
    pub fn num_threads(&self) -> usize {
        self.ledger.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn fifo_wake_order() {
        let mut table = FutexTable::new(4);
        let key = FutexKey::new(9);
        table.wait(key, t(1), ms(1));
        table.wait(key, t(2), ms(2));
        table.wait(key, t(3), ms(3));
        assert_eq!(table.queue_len(key), 3);
        let woken = table.wake(key, 2, t(0), ms(10));
        assert_eq!(woken, vec![t(1), t(2)]);
        assert_eq!(table.queue_len(key), 1);
        assert_eq!(table.wake(key, 5, t(0), ms(11)), vec![t(3)]);
        assert_eq!(table.total_waiters(), 0);
    }

    #[test]
    fn caused_wait_charged_to_waker() {
        let mut table = FutexTable::new(3);
        let key = FutexKey::new(0);
        table.wait(key, t(1), ms(2));
        table.wait(key, t(2), ms(4));
        table.wake(key, 2, t(0), ms(10));
        // t0 caused (10-2) + (10-4) = 14ms of waiting.
        assert_eq!(table.caused_wait(t(0)), SimDuration::from_millis(14));
        assert_eq!(table.waited(t(1)), SimDuration::from_millis(8));
        assert_eq!(table.waited(t(2)), SimDuration::from_millis(6));
        assert_eq!(table.wait_count(t(1)), 1);
    }

    #[test]
    fn wake_on_empty_futex_is_noop() {
        let mut table = FutexTable::new(2);
        assert!(table.wake(FutexKey::new(5), 3, t(0), ms(1)).is_empty());
        assert_eq!(table.caused_wait(t(0)), SimDuration::ZERO);
    }

    #[test]
    fn waiting_on_tracks_state() {
        let mut table = FutexTable::new(2);
        let key = FutexKey::new(1);
        assert_eq!(table.waiting_on(t(1)), None);
        table.wait(key, t(1), ms(0));
        assert_eq!(table.waiting_on(t(1)), Some(key));
        table.wake(key, 1, t(0), ms(1));
        assert_eq!(table.waiting_on(t(1)), None);
    }

    #[test]
    #[should_panic(expected = "already waiting")]
    fn double_wait_panics() {
        let mut table = FutexTable::new(1);
        table.wait(FutexKey::new(0), t(0), ms(0));
        table.wait(FutexKey::new(1), t(0), ms(1));
    }

    #[test]
    fn cancel_wait_removes_without_charging() {
        let mut table = FutexTable::new(2);
        let key = FutexKey::new(0);
        table.wait(key, t(1), ms(1));
        assert_eq!(table.cancel_wait(t(1), ms(5)), Some(key));
        assert_eq!(table.waiting_on(t(1)), None);
        assert_eq!(table.queue_len(key), 0);
        assert_eq!(table.waited(t(1)), SimDuration::from_millis(4));
        // Nobody gets criticality credit for a cancelled wait.
        assert_eq!(table.caused_wait(t(0)), SimDuration::ZERO);
        assert_eq!(table.cancel_wait(t(1), ms(6)), None);
    }

    #[test]
    fn distinct_futexes_are_independent() {
        let mut table = FutexTable::new(3);
        table.wait(FutexKey::new(0), t(1), ms(0));
        table.wait(FutexKey::new(1), t(2), ms(0));
        let woken = table.wake(FutexKey::new(0), 10, t(0), ms(1));
        assert_eq!(woken, vec![t(1)]);
        assert_eq!(table.waiting_on(t(2)), Some(FutexKey::new(1)));
    }
}
