//! Locks, barriers, and bounded channels built on the futex table.
//!
//! On Linux "synchronization primitives are almost always implemented using
//! kernel futexes, regardless of the threading library used" (§4.1). The
//! workload layer therefore never touches the futex table directly: it
//! acquires [`SyncObjects`] locks, arrives at barriers, and pushes/pops
//! pipeline channels, and every blocking edge flows through
//! [`FutexTable::wait`]/[`FutexTable::wake`] where criticality is accounted.
//!
//! Semantics contract with the simulator: when an operation returns
//! [`OpResult::Block`] the calling thread must be descheduled. An operation
//! that releases other threads appends them, in wake order, to the caller's
//! `woken` list; each such thread's blocking operation *has completed* (lock
//! handed off, barrier passed, item transferred) and it resumes at its next
//! action. Only an operation that returns [`OpResult::Proceed`] wakes
//! anyone.

use amp_types::{BarrierId, ChannelId, LockId, SimTime, ThreadId};

use crate::table::{FutexKey, FutexTable};

/// Outcome of a potentially blocking synchronization operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// The calling thread proceeds; any threads it released were
    /// appended to the caller's `woken` list.
    Proceed,
    /// The calling thread must block.
    Block,
}

#[derive(Debug, Clone)]
struct LockState {
    owner: Option<ThreadId>,
    key: FutexKey,
}

#[derive(Debug, Clone)]
struct BarrierState {
    parties: u32,
    arrived: u32,
    key: FutexKey,
}

#[derive(Debug, Clone)]
struct ChannelState {
    capacity: u32,
    occupied: u32,
    producers: FutexKey,
    consumers: FutexKey,
}

/// All synchronization objects of one simulation, sharing one futex table.
///
/// # Examples
///
/// ```
/// use amp_futex::{SyncObjects, OpResult};
/// use amp_types::{SimTime, ThreadId};
///
/// let mut sync = SyncObjects::new(2);
/// let lock = sync.add_lock();
/// let (a, b) = (ThreadId::new(0), ThreadId::new(1));
/// let t0 = SimTime::ZERO;
///
/// assert_eq!(sync.lock(lock, a, t0), OpResult::Proceed);
/// assert_eq!(sync.lock(lock, b, t0), OpResult::Block);
/// // Unlock hands the lock to b and charges a with b's waiting time.
/// let mut woken = Vec::new();
/// sync.unlock(lock, a, SimTime::from_millis(1), &mut woken);
/// assert_eq!(woken, [b]);
/// assert_eq!(sync.lock_owner(lock), Some(b));
/// ```
#[derive(Debug, Clone)]
pub struct SyncObjects {
    table: FutexTable,
    locks: Vec<LockState>,
    barriers: Vec<BarrierState>,
    channels: Vec<ChannelState>,
    next_word: u32,
}

impl SyncObjects {
    /// Creates the subsystem for `num_threads` threads.
    pub fn new(num_threads: usize) -> SyncObjects {
        SyncObjects {
            table: FutexTable::new(num_threads),
            locks: Vec::new(),
            barriers: Vec::new(),
            channels: Vec::new(),
            next_word: 0,
        }
    }

    fn fresh_key(&mut self) -> FutexKey {
        let key = FutexKey::new(self.next_word);
        self.next_word += 1;
        key
    }

    /// Allocates a mutual-exclusion lock.
    pub fn add_lock(&mut self) -> LockId {
        let key = self.fresh_key();
        self.locks.push(LockState { owner: None, key });
        LockId::new(self.locks.len() as u32 - 1)
    }

    /// Allocates a barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`.
    pub fn add_barrier(&mut self, parties: u32) -> BarrierId {
        assert!(parties > 0, "a barrier needs at least one party");
        let key = self.fresh_key();
        self.barriers.push(BarrierState {
            parties,
            arrived: 0,
            key,
        });
        BarrierId::new(self.barriers.len() as u32 - 1)
    }

    /// Allocates a bounded channel; `capacity == 0` gives rendezvous
    /// semantics (every push waits for a pop and vice versa).
    pub fn add_channel(&mut self, capacity: u32) -> ChannelId {
        let producers = self.fresh_key();
        let consumers = self.fresh_key();
        self.channels.push(ChannelState {
            capacity,
            occupied: 0,
            producers,
            consumers,
        });
        ChannelId::new(self.channels.len() as u32 - 1)
    }

    /// Attempts to acquire `lock`.
    pub fn lock(&mut self, lock: LockId, thread: ThreadId, now: SimTime) -> OpResult {
        let state = &mut self.locks[lock.index()];
        match state.owner {
            None => {
                state.owner = Some(thread);
                OpResult::Proceed
            }
            Some(owner) => {
                debug_assert_ne!(owner, thread, "{thread} relocking a lock it owns");
                self.table.wait(state.key, thread, now);
                OpResult::Block
            }
        }
    }

    /// Releases `lock`; if a waiter exists, ownership is handed directly to
    /// the FIFO-first waiter, whose accumulated waiting time is charged to
    /// the releaser. Appends the woken thread, if any, to `woken`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` does not own the lock.
    pub fn unlock(
        &mut self,
        lock: LockId,
        thread: ThreadId,
        now: SimTime,
        woken: &mut Vec<ThreadId>,
    ) {
        let key = {
            let state = &self.locks[lock.index()];
            assert_eq!(
                state.owner,
                Some(thread),
                "{thread} releasing {lock} it does not own"
            );
            state.key
        };
        let first = woken.len();
        self.table.wake(key, 1, thread, now, woken);
        self.locks[lock.index()].owner = woken.get(first).copied();
    }

    /// Arrives at `barrier`. The last arriver releases everyone, appending
    /// them to `woken`, and is charged all of their accumulated waiting
    /// time (it *was* the bottleneck); earlier arrivers block.
    pub fn barrier_arrive(
        &mut self,
        barrier: BarrierId,
        thread: ThreadId,
        now: SimTime,
        woken: &mut Vec<ThreadId>,
    ) -> OpResult {
        let (key, full) = {
            let state = &mut self.barriers[barrier.index()];
            state.arrived += 1;
            (state.key, state.arrived == state.parties)
        };
        if full {
            self.barriers[barrier.index()].arrived = 0;
            self.table.wake(key, usize::MAX, thread, now, woken);
            OpResult::Proceed
        } else {
            self.table.wait(key, thread, now);
            OpResult::Block
        }
    }

    /// Pushes one item into `channel`.
    ///
    /// If a consumer is parked the item is handed to it directly (it wakes,
    /// its pop complete, and is appended to `woken`). Otherwise the item is
    /// buffered if space remains, or the producer blocks on a full channel.
    pub fn push(
        &mut self,
        channel: ChannelId,
        thread: ThreadId,
        now: SimTime,
        woken: &mut Vec<ThreadId>,
    ) -> OpResult {
        let (consumers, producers, capacity) = {
            let c = &self.channels[channel.index()];
            (c.consumers, c.producers, c.capacity)
        };
        if self.table.queue_len(consumers) > 0 {
            self.table.wake(consumers, 1, thread, now, woken);
            return OpResult::Proceed;
        }
        let state = &mut self.channels[channel.index()];
        if state.occupied < capacity {
            state.occupied += 1;
            OpResult::Proceed
        } else {
            self.table.wait(producers, thread, now);
            OpResult::Block
        }
    }

    /// Pops one item from `channel`.
    ///
    /// Taking a buffered item may unblock a parked producer (whose deferred
    /// push lands immediately, keeping the buffer full). On an empty
    /// channel, a parked producer (rendezvous case) is woken directly;
    /// otherwise the consumer blocks. A woken producer is appended to
    /// `woken`.
    pub fn pop(
        &mut self,
        channel: ChannelId,
        thread: ThreadId,
        now: SimTime,
        woken: &mut Vec<ThreadId>,
    ) -> OpResult {
        let (producers, consumers, occupied) = {
            let c = &self.channels[channel.index()];
            (c.producers, c.consumers, c.occupied)
        };
        if occupied > 0 {
            let before = woken.len();
            self.table.wake(producers, 1, thread, now, woken);
            if woken.len() == before {
                // No parked producer: the slot stays free. Otherwise the
                // woken producer's push lands in it.
                self.channels[channel.index()].occupied -= 1;
            }
            return OpResult::Proceed;
        }
        if self.table.queue_len(producers) > 0 {
            // Rendezvous: take the item straight from a parked producer.
            self.table.wake(producers, 1, thread, now, woken);
            return OpResult::Proceed;
        }
        self.table.wait(consumers, thread, now);
        OpResult::Block
    }

    /// Current owner of `lock`, if held.
    pub fn lock_owner(&self, lock: LockId) -> Option<ThreadId> {
        self.locks[lock.index()].owner
    }

    /// Buffered items in `channel`.
    pub fn channel_occupied(&self, channel: ChannelId) -> u32 {
        self.channels[channel.index()].occupied
    }

    /// Read access to the underlying futex table (criticality queries).
    pub fn futex(&self) -> &FutexTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_types::SimDuration;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn uncontended_lock_round_trip() {
        let mut sync = SyncObjects::new(1);
        let l = sync.add_lock();
        assert_eq!(sync.lock(l, t(0), ms(0)), OpResult::Proceed);
        assert_eq!(sync.lock_owner(l), Some(t(0)));
        let mut woken = Vec::new();
        sync.unlock(l, t(0), ms(1), &mut woken);
        assert!(woken.is_empty());
        assert_eq!(sync.lock_owner(l), None);
    }

    #[test]
    fn contended_lock_hands_off_fifo() {
        let mut sync = SyncObjects::new(3);
        let l = sync.add_lock();
        let mut woken = Vec::new();
        assert_eq!(sync.lock(l, t(0), ms(0)), OpResult::Proceed);
        assert_eq!(sync.lock(l, t(1), ms(1)), OpResult::Block);
        assert_eq!(sync.lock(l, t(2), ms(2)), OpResult::Block);
        sync.unlock(l, t(0), ms(5), &mut woken);
        assert_eq!(woken, [t(1)]);
        assert_eq!(sync.lock_owner(l), Some(t(1)));
        // The list is appended to: the new owner is the thread this
        // unlock woke, not the list's first entry.
        sync.unlock(l, t(1), ms(7), &mut woken);
        assert_eq!(woken, [t(1), t(2)]);
        assert_eq!(sync.lock_owner(l), Some(t(2)));
        sync.unlock(l, t(2), ms(8), &mut woken);
        assert_eq!(woken, [t(1), t(2)]);
        assert_eq!(sync.lock_owner(l), None);
        // Criticality: t0 held 4ms of t1's waiting, t1 held 5ms of t2's.
        assert_eq!(sync.futex().caused_wait(t(0)), SimDuration::from_millis(4));
        assert_eq!(sync.futex().caused_wait(t(1)), SimDuration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "does not own")]
    fn unlock_by_non_owner_panics() {
        let mut sync = SyncObjects::new(2);
        let l = sync.add_lock();
        sync.lock(l, t(0), ms(0));
        sync.unlock(l, t(1), ms(1), &mut Vec::new());
    }

    #[test]
    fn barrier_releases_all_and_charges_last() {
        let mut sync = SyncObjects::new(3);
        let b = sync.add_barrier(3);
        let mut woken = Vec::new();
        assert_eq!(
            sync.barrier_arrive(b, t(0), ms(0), &mut woken),
            OpResult::Block
        );
        assert_eq!(
            sync.barrier_arrive(b, t(1), ms(2), &mut woken),
            OpResult::Block
        );
        assert!(woken.is_empty());
        assert_eq!(
            sync.barrier_arrive(b, t(2), ms(6), &mut woken),
            OpResult::Proceed,
            "last arriver must proceed"
        );
        assert_eq!(woken, [t(0), t(1)]);
        // Straggler t2 caused 6 + 4 = 10ms of waiting.
        assert_eq!(sync.futex().caused_wait(t(2)), SimDuration::from_millis(10));
        // Barrier resets for the next generation: a fresh arrival blocks.
        assert_eq!(
            sync.barrier_arrive(b, t(0), ms(7), &mut woken),
            OpResult::Block
        );
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let mut sync = SyncObjects::new(1);
        let b = sync.add_barrier(1);
        let mut woken = Vec::new();
        assert_eq!(
            sync.barrier_arrive(b, t(0), ms(0), &mut woken),
            OpResult::Proceed
        );
        assert!(woken.is_empty());
    }

    #[test]
    fn channel_buffers_until_capacity() {
        let mut sync = SyncObjects::new(2);
        let q = sync.add_channel(2);
        let mut woken = Vec::new();
        assert_eq!(sync.push(q, t(0), ms(0), &mut woken), OpResult::Proceed);
        assert_eq!(sync.push(q, t(0), ms(1), &mut woken), OpResult::Proceed);
        assert_eq!(sync.channel_occupied(q), 2);
        assert_eq!(sync.push(q, t(0), ms(2), &mut woken), OpResult::Block);
        assert!(woken.is_empty());
    }

    #[test]
    fn pop_unblocks_parked_producer_and_keeps_buffer_full() {
        let mut sync = SyncObjects::new(2);
        let q = sync.add_channel(1);
        let mut woken = Vec::new();
        sync.push(q, t(0), ms(0), &mut woken);
        assert_eq!(sync.push(q, t(0), ms(1), &mut woken), OpResult::Block);
        assert_eq!(
            sync.pop(q, t(1), ms(5), &mut woken),
            OpResult::Proceed,
            "pop from non-empty channel must proceed"
        );
        assert_eq!(woken, [t(0)]);
        // The producer's deferred push landed: still 1 item buffered.
        assert_eq!(sync.channel_occupied(q), 1);
        // The consumer is charged for the producer's wait.
        assert_eq!(sync.futex().caused_wait(t(1)), SimDuration::from_millis(4));
    }

    #[test]
    fn push_hands_item_to_parked_consumer() {
        let mut sync = SyncObjects::new(2);
        let q = sync.add_channel(4);
        let mut woken = Vec::new();
        assert_eq!(sync.pop(q, t(1), ms(0), &mut woken), OpResult::Block);
        assert_eq!(
            sync.push(q, t(0), ms(3), &mut woken),
            OpResult::Proceed,
            "push with parked consumer must proceed"
        );
        assert_eq!(woken, [t(1)]);
        // Direct handoff: nothing buffered.
        assert_eq!(sync.channel_occupied(q), 0);
        assert_eq!(sync.futex().caused_wait(t(0)), SimDuration::from_millis(3));
    }

    #[test]
    fn rendezvous_channel_pairs_operations() {
        let mut sync = SyncObjects::new(2);
        let q = sync.add_channel(0);
        let mut woken = Vec::new();
        assert_eq!(sync.push(q, t(0), ms(0), &mut woken), OpResult::Block);
        assert_eq!(
            sync.pop(q, t(1), ms(2), &mut woken),
            OpResult::Proceed,
            "pop must pair with parked producer"
        );
        assert_eq!(woken, [t(0)]);
        assert_eq!(sync.channel_occupied(q), 0);
        // Reverse order: consumer first.
        woken.clear();
        assert_eq!(sync.pop(q, t(1), ms(3), &mut woken), OpResult::Block);
        assert_eq!(
            sync.push(q, t(0), ms(4), &mut woken),
            OpResult::Proceed,
            "push must pair with parked consumer"
        );
        assert_eq!(woken, [t(1)]);
    }

    #[test]
    fn object_ids_are_dense_per_kind() {
        let mut sync = SyncObjects::new(1);
        assert_eq!(sync.add_lock(), LockId::new(0));
        assert_eq!(sync.add_lock(), LockId::new(1));
        assert_eq!(sync.add_barrier(2), BarrierId::new(0));
        assert_eq!(sync.add_channel(1), ChannelId::new(0));
    }
}
