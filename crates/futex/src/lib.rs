//! The futex subsystem with blocking-time accounting.
//!
//! The COLAB paper identifies bottleneck threads by instrumenting the Linux
//! futex layer: code added at `futex_wait_queue_me()` records when a thread
//! starts waiting, and code at `wake_futex()` charges the *accumulated
//! waiting time of every thread it wakes* to the waker. The cumulative time
//! a thread has caused others to wait is the paper's thread-criticality
//! metric.
//!
//! This crate reproduces that choke point for the simulator:
//!
//! * [`FutexTable`] — raw wait queues keyed by futex word, FIFO wakeups,
//!   and the caused-wait ledger ([`FutexTable::caused_wait`]);
//! * [`SyncObjects`] — pthreads-style locks, barriers and bounded channels
//!   implemented *on top of* futexes, exactly as user-space threading
//!   libraries are, so every blocking interaction flows through the same
//!   accounting point.
//!
//! An operation that wakes threads appends them, in wake order, to a
//! `Vec<ThreadId>` the caller passes in. The simulator keeps one such list
//! for a whole run and clears it after each operation, so no wake
//! allocates.
//!
//! # Examples
//!
//! ```
//! use amp_futex::{FutexTable, FutexKey};
//! use amp_types::{SimTime, SimDuration, ThreadId};
//!
//! let mut table = FutexTable::new(2);
//! let (a, b) = (ThreadId::new(0), ThreadId::new(1));
//! let word = FutexKey::new(0);
//!
//! // Thread b waits at t=1ms; thread a wakes it at t=5ms.
//! table.wait(word, b, SimTime::from_millis(1));
//! let mut woken = Vec::new();
//! table.wake(word, 1, a, SimTime::from_millis(5), &mut woken);
//! assert_eq!(woken, [b]);
//! // a is charged the 4ms it made b wait: the criticality metric.
//! assert_eq!(table.caused_wait(a), SimDuration::from_millis(4));
//! ```

#![warn(missing_docs)]

mod objects;
mod table;

pub use objects::{OpResult, SyncObjects};
pub use table::{FutexKey, FutexTable};
