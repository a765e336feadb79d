//! Fluent construction of custom applications.
//!
//! The benchmark models cover the paper's suites; [`AppBuilder`] is for
//! everything else — tests, examples, and downstream users composing their
//! own thread structures without hand-assembling [`AppSpec`]s. Declared
//! synchronization objects are checked at build time via
//! [`AppSpec::validate`].
//!
//! # Examples
//!
//! ```
//! use amp_perf::ExecutionProfile;
//! use amp_types::SimDuration;
//! use amp_workloads::AppBuilder;
//!
//! // Two workers exchanging one item per iteration through a channel,
//! // then meeting at a barrier.
//! let mut app = AppBuilder::new("pingpong");
//! let q = app.channel(1);
//! let done = app.barrier(2);
//! app.thread("producer", ExecutionProfile::compute_bound())
//!     .repeat(10, |body| {
//!         body.compute(SimDuration::from_micros(50)).push(q);
//!     })
//!     .barrier(done);
//! app.thread("consumer", ExecutionProfile::memory_bound())
//!     .repeat(10, |body| {
//!         body.pop(q).compute(SimDuration::from_micros(20));
//!     })
//!     .barrier(done);
//! let spec = app.build().unwrap();
//! assert_eq!(spec.threads.len(), 2);
//! ```

use std::ops::{Deref, DerefMut};

use amp_perf::ExecutionProfile;
use amp_types::{BarrierId, ChannelId, LockId, Result, SimDuration};

use crate::benchmarks::BenchmarkId;
use crate::program::{Op, Program};
use crate::spec::{AppSpec, ThreadSpec};

/// Builder for one custom application.
#[derive(Debug)]
pub struct AppBuilder {
    name: String,
    threads: Vec<ThreadSpec>,
    num_locks: u32,
    barrier_parties: Vec<u32>,
    channel_capacities: Vec<u32>,
}

impl AppBuilder {
    /// Starts a new application.
    pub fn new(name: impl Into<String>) -> AppBuilder {
        AppBuilder {
            name: name.into(),
            threads: Vec::new(),
            num_locks: 0,
            barrier_parties: Vec::new(),
            channel_capacities: Vec::new(),
        }
    }

    /// Declares a lock; returns its app-local id.
    pub fn lock(&mut self) -> LockId {
        self.num_locks += 1;
        LockId::new(self.num_locks - 1)
    }

    /// Declares a barrier for `parties` threads; returns its id.
    pub fn barrier(&mut self, parties: u32) -> BarrierId {
        self.barrier_parties.push(parties);
        BarrierId::new(self.barrier_parties.len() as u32 - 1)
    }

    /// Declares a bounded channel (0 = rendezvous); returns its id.
    pub fn channel(&mut self, capacity: u32) -> ChannelId {
        self.channel_capacities.push(capacity);
        ChannelId::new(self.channel_capacities.len() as u32 - 1)
    }

    /// Adds a thread and returns a body builder for its program.
    pub fn thread(
        &mut self,
        name: impl Into<String>,
        profile: ExecutionProfile,
    ) -> ThreadBuilder<'_> {
        self.threads.push(ThreadSpec {
            name: name.into(),
            profile,
            program: Program::default(),
        });
        let index = self.threads.len() - 1;
        ThreadBuilder {
            app: self,
            index,
            body: LoopBuilder { ops: Vec::new() },
        }
    }

    /// Finalizes and validates the application.
    ///
    /// # Errors
    ///
    /// Returns [`amp_types::Error::InvalidConfig`] when the declared
    /// structure is inconsistent (see [`AppSpec::validate`]).
    pub fn build(self) -> Result<AppSpec> {
        let spec = AppSpec {
            name: self.name,
            // Custom apps borrow a neutral benchmark id; experiment code
            // never groups on it.
            benchmark: BenchmarkId::Blackscholes,
            threads: self.threads,
            num_locks: self.num_locks,
            barrier_parties: self.barrier_parties,
            channel_capacities: self.channel_capacities,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Builds one thread's program; drop it (or call
/// [`done`](LoopBuilder::done)) to commit the ops to the owning
/// [`AppBuilder`]. The op-appending methods are [`LoopBuilder`]'s,
/// reached through `Deref`.
#[derive(Debug)]
pub struct ThreadBuilder<'a> {
    app: &'a mut AppBuilder,
    index: usize,
    body: LoopBuilder,
}

impl Deref for ThreadBuilder<'_> {
    type Target = LoopBuilder;

    fn deref(&self) -> &LoopBuilder {
        &self.body
    }
}

impl DerefMut for ThreadBuilder<'_> {
    fn deref_mut(&mut self) -> &mut LoopBuilder {
        &mut self.body
    }
}

impl Drop for ThreadBuilder<'_> {
    fn drop(&mut self) {
        self.app.threads[self.index].program = Program::new(std::mem::take(&mut self.body.ops));
    }
}

/// Appends ops to a thread's program or a loop body (loops nest).
#[derive(Debug)]
pub struct LoopBuilder {
    ops: Vec<Op>,
}

impl LoopBuilder {
    /// Appends a compute segment (big-core time).
    pub fn compute(&mut self, work: SimDuration) -> &mut Self {
        self.ops.push(Op::Compute(work));
        self
    }

    /// Appends a lock acquisition.
    pub fn lock(&mut self, lock: LockId) -> &mut Self {
        self.ops.push(Op::Lock(lock));
        self
    }

    /// Appends a lock release.
    pub fn unlock(&mut self, lock: LockId) -> &mut Self {
        self.ops.push(Op::Unlock(lock));
        self
    }

    /// Appends a barrier arrival.
    pub fn barrier(&mut self, barrier: BarrierId) -> &mut Self {
        self.ops.push(Op::Barrier(barrier));
        self
    }

    /// Appends a channel push.
    pub fn push(&mut self, channel: ChannelId) -> &mut Self {
        self.ops.push(Op::Push(channel));
        self
    }

    /// Appends a channel pop.
    pub fn pop(&mut self, channel: ChannelId) -> &mut Self {
        self.ops.push(Op::Pop(channel));
        self
    }

    /// Appends a critical section: lock, compute `held`, unlock.
    pub fn critical(&mut self, lock: LockId, held: SimDuration) -> &mut Self {
        self.lock(lock).compute(held).unlock(lock)
    }

    /// Appends a phase change: subsequent compute uses `profile`.
    pub fn phase(&mut self, profile: ExecutionProfile) -> &mut Self {
        self.ops.push(Op::SetProfile(profile));
        self
    }

    /// Appends a counted loop; `fill` receives a nested builder for the
    /// body.
    pub fn repeat(&mut self, count: u32, fill: impl FnOnce(&mut LoopBuilder)) -> &mut Self {
        let mut body = LoopBuilder { ops: Vec::new() };
        fill(&mut body);
        self.ops.push(Op::Loop {
            count,
            body: body.ops,
        });
        self
    }

    /// Ends a builder chain explicitly; a thread's program is committed
    /// when its [`ThreadBuilder`] drops.
    pub fn done(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn builds_a_lock_workload() {
        let mut app = AppBuilder::new("locky");
        let l = app.lock();
        for i in 0..3 {
            app.thread(format!("w{i}"), ExecutionProfile::balanced())
                .repeat(5, |b| {
                    b.compute(us(10)).critical(l, us(2));
                });
        }
        let spec = app.build().unwrap();
        assert_eq!(spec.threads.len(), 3);
        assert_eq!(spec.num_locks, 1);
        let census = spec.threads[0].program.action_census();
        assert_eq!(census.1, 5, "five acquisitions");
        assert_eq!(census.1, census.2);
    }

    #[test]
    fn rejects_unbalanced_channels() {
        let mut app = AppBuilder::new("bad");
        let q = app.channel(1);
        app.thread("only-pushes", ExecutionProfile::balanced())
            .push(q)
            .done();
        assert!(app.build().is_err());
    }

    #[test]
    fn nested_loops_compose() {
        let mut app = AppBuilder::new("nested");
        app.thread("t", ExecutionProfile::balanced())
            .repeat(3, |outer| {
                outer.repeat(4, |inner| {
                    inner.compute(us(1));
                });
            });
        let spec = app.build().unwrap();
        assert_eq!(spec.threads[0].program.flat_len(), 12);
    }

    #[test]
    fn barrier_parties_are_checked() {
        let mut app = AppBuilder::new("barrier");
        let b = app.barrier(2);
        app.thread("a", ExecutionProfile::balanced())
            .barrier(b)
            .done();
        app.thread("b", ExecutionProfile::balanced())
            .barrier(b)
            .done();
        app.build().unwrap();

        let mut bad = AppBuilder::new("barrier-bad");
        let b = bad.barrier(3);
        bad.thread("a", ExecutionProfile::balanced())
            .barrier(b)
            .done();
        assert!(bad.build().is_err());
    }

    #[test]
    fn built_apps_run_end_to_end() {
        // Smoke: the doc example's shape runs in the simulator.
        let mut app = AppBuilder::new("pingpong");
        let q = app.channel(1);
        let done = app.barrier(2);
        app.thread("producer", ExecutionProfile::compute_bound())
            .repeat(10, |b| {
                b.compute(us(50)).push(q);
            })
            .barrier(done);
        app.thread("consumer", ExecutionProfile::memory_bound())
            .repeat(10, |b| {
                b.pop(q).compute(us(20));
            })
            .barrier(done);
        let spec = app.build().unwrap();
        assert_eq!(spec.total_compute(), us(700));
    }
}
