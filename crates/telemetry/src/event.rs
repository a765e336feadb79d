//! Structured scheduler events and the bounded flight-recorder ring.

use amp_types::{CoreId, SimDuration, SimTime, ThreadId};

use crate::counters::{ClusterDirection, LabelClass, PreemptCause};

/// One scheduler decision, with enough payload to reconstruct *why* a
/// run unfolded the way it did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedEvent {
    /// `thread` started running on a different core than it last ran on.
    Migrate {
        /// The migrating thread.
        thread: ThreadId,
        /// Core it last ran on.
        from: CoreId,
        /// Core it now runs on.
        to: CoreId,
        /// Cluster direction of the move.
        direction: ClusterDirection,
    },
    /// `victim` was descheduled before its slice expired.
    Preempt {
        /// The preempted thread.
        victim: ThreadId,
        /// What triggered the preemption.
        cause: PreemptCause,
    },
    /// A labelling policy moved `thread` between label classes.
    Relabel {
        /// The relabelled thread.
        thread: ThreadId,
        /// Previous class.
        from: LabelClass,
        /// New class.
        to: LabelClass,
    },
    /// A policy predicted `thread`'s speedup while sizing its time slice.
    SlicePredict {
        /// The thread the slice is for.
        thread: ThreadId,
        /// Predicted big-vs-little speedup used for the decision.
        predicted_speedup: f64,
        /// The slice the policy granted.
        slice: SimDuration,
    },
    /// `waker` released `woken` from a futex wait.
    FutexWake {
        /// The thread that performed the wake.
        waker: ThreadId,
        /// The thread released from its wait.
        woken: ThreadId,
        /// How long `woken` had been blocked.
        blocked: SimDuration,
    },
    /// An idle core pulled `thread` away from busy core `from`.
    IdleSteal {
        /// The stolen thread.
        thread: ThreadId,
        /// The core it was pulled from.
        from: CoreId,
    },
    /// A fault hot-unplugged `core`; its work was forcibly migrated.
    CoreOffline {
        /// The core that went away.
        core: CoreId,
    },
    /// A fault brought `core` back online.
    CoreOnline {
        /// The revived core.
        core: CoreId,
    },
    /// A fault rescaled `core`'s clock to `factor` × nominal.
    Throttle {
        /// The rescaled core.
        core: CoreId,
        /// Multiplier on the nominal clock (1.0 = restored).
        factor: f64,
    },
}

impl SchedEvent {
    /// Short lowercase tag for CSV / trace export.
    pub fn kind(&self) -> &'static str {
        match self {
            SchedEvent::Migrate { .. } => "migrate",
            SchedEvent::Preempt { .. } => "preempt",
            SchedEvent::Relabel { .. } => "relabel",
            SchedEvent::SlicePredict { .. } => "slice_predict",
            SchedEvent::FutexWake { .. } => "futex_wake",
            SchedEvent::IdleSteal { .. } => "idle_steal",
            SchedEvent::CoreOffline { .. } => "core_offline",
            SchedEvent::CoreOnline { .. } => "core_online",
            SchedEvent::Throttle { .. } => "throttle",
        }
    }
}

/// A recorded event: when, where, and its per-core sequence number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StampedEvent {
    /// Simulation time of the decision.
    pub at: SimTime,
    /// Core the decision was made for.
    pub core: CoreId,
    /// Sequence number of this event *on that core* (monotone per core,
    /// assigned even when earlier events have been overwritten, so gaps
    /// in a drained ring are detectable).
    pub seq: u64,
    /// The decision itself.
    pub event: SchedEvent,
}

/// Bounded flight recorder: keeps the most recent `capacity` events,
/// overwriting the oldest once full (drop-oldest). A capacity of zero
/// disables recording — `push` returns immediately without stamping.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<StampedEvent>,
    capacity: usize,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    /// Total events offered (recorded + overwritten).
    seen: u64,
    /// Per-core sequence counters, grown on demand.
    core_seq: Vec<u64>,
}

impl EventRing {
    /// An empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            seen: 0,
            core_seq: Vec::new(),
        }
    }

    /// Currently retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events offered to the ring.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.seen - self.buf.len() as u64
    }

    /// Appends an event, overwriting the oldest if full. No-op (and no
    /// sequence number is consumed) when capacity is zero.
    pub fn push(&mut self, at: SimTime, core: CoreId, event: SchedEvent) {
        if self.capacity == 0 {
            return;
        }
        let core_idx = core.0 as usize;
        if core_idx >= self.core_seq.len() {
            self.core_seq.resize(core_idx + 1, 0);
        }
        let seq = self.core_seq[core_idx];
        self.core_seq[core_idx] += 1;
        self.seen += 1;

        let stamped = StampedEvent {
            at,
            core,
            seq,
            event,
        };
        if self.buf.len() < self.capacity {
            self.buf.push(stamped);
        } else {
            self.buf[self.head] = stamped;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &StampedEvent> {
        let (wrapped, linear) = self.buf.split_at(self.head);
        linear.iter().chain(wrapped.iter())
    }

    /// Consumes the ring into its retained events, oldest first: the same
    /// sequence as [`iter`](EventRing::iter), in the ring's own buffer
    /// (rotated in place if it has wrapped) rather than a copy.
    pub fn into_events(self) -> Vec<StampedEvent> {
        let mut buf = self.buf;
        buf.rotate_left(self.head);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_types::ThreadId;

    fn ev(t: u32) -> SchedEvent {
        SchedEvent::IdleSteal {
            thread: ThreadId(t),
            from: CoreId(0),
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut ring = EventRing::new(3);
        for i in 0..5u32 {
            ring.push(SimTime::from_nanos(i as u64), CoreId(0), ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.seen(), 5);
        assert_eq!(ring.dropped(), 2);
        let threads: Vec<u32> = ring
            .iter()
            .map(|s| match s.event {
                SchedEvent::IdleSteal { thread, .. } => thread.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(threads, vec![2, 3, 4]);
        // Per-core seqs keep counting through drops.
        let seqs: Vec<u64> = ring.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn per_core_sequences_are_independent() {
        let mut ring = EventRing::new(8);
        ring.push(SimTime::ZERO, CoreId(0), ev(0));
        ring.push(SimTime::ZERO, CoreId(1), ev(1));
        ring.push(SimTime::ZERO, CoreId(0), ev(2));
        let seqs: Vec<(u32, u64)> = ring.iter().map(|s| (s.core.0, s.seq)).collect();
        assert_eq!(seqs, vec![(0, 0), (1, 0), (0, 1)]);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut ring = EventRing::new(0);
        ring.push(SimTime::ZERO, CoreId(0), ev(0));
        assert!(ring.is_empty());
        assert_eq!(ring.seen(), 0);
        assert_eq!(ring.dropped(), 0);
    }
}
