//! The scheduling policies of the paper's evaluation and its extensions.
//!
//! * [`CfsScheduler`] — a reimplementation of the relevant subset of the
//!   Linux Completely Fair Scheduler: per-core runqueues ordered by
//!   `(vruntime, tid)` (a `BTreeSet` standing in for the kernel's
//!   red-black timeline), minimum-vruntime placement on wakeup, wakeup
//!   preemption with a granularity threshold, idle stealing, and
//!   periodic load balancing. [`CfsScheduler::new`] is plain CFS, the
//!   paper's AMP-*agnostic* `LINUX` baseline. The same type runs the
//!   policies that steer CFS only through where a thread may run or how
//!   its time is charged:
//!   - [`CfsScheduler::wash`] — the paper's re-implementation of WASH
//!     (Jibaja et al., CGO 2016): a 10 ms pass scores every thread on
//!     predicted speedup + blocking + fairness *jointly* and binds the
//!     top-scoring threads to big cores. WASH controls **affinity only**;
//!     thread selection stays CFS — exactly the limitation the paper's
//!     motivating example targets.
//!   - [`CfsScheduler::gts`] — ARM's Global Task Scheduling (Table 1's
//!     remaining general-purpose comparator, an extension): load-average
//!     affinity with up/down-migration hysteresis.
//!   - [`CfsScheduler::equal_progress`] — equal-progress scheduling (Van
//!     Craeynest et al., PACT 2013, an extension): little-core time is
//!     charged in big-core equivalents.
//!
//! * [`ColabScheduler`] — COLAB (Algorithm 1): collaborating heuristics
//!   that split the decision space. A multi-factor labeller marks threads
//!   high-speedup / non-critical / flexible; a hierarchical round-robin
//!   **core allocator** routes each label to the right cluster; a
//!   biased-global **thread selector** always runs the most-blocking ready
//!   thread, lets idle big cores pull from anywhere and even preempt
//!   little cores; and **speedup-scaled time slices** keep heterogeneous
//!   progress fair.
//!
//! All policies implement the [`Scheduler`] trait from `amp-sim`
//! (re-exported here), whose hooks mirror the kernel functions the paper
//! overrides.
//!
//! # Examples
//!
//! ```
//! use amp_sched::{CfsScheduler, ColabScheduler, Scheduler};
//! use amp_perf::SpeedupModel;
//! use amp_types::{CoreOrder, MachineConfig};
//!
//! let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
//! let cfs = CfsScheduler::new(&machine);
//! let wash = CfsScheduler::wash(&machine, SpeedupModel::heuristic());
//! let colab = ColabScheduler::new(&machine, SpeedupModel::heuristic());
//! assert_eq!(cfs.name(), "linux");
//! assert_eq!(wash.name(), "wash");
//! assert_eq!(colab.name(), "colab");
//! ```

#![warn(missing_docs)]

mod cfs;
mod colab;

pub use amp_sim::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason, ThreadPhase};
pub use cfs::CfsScheduler;
pub use colab::{ColabConfig, ColabScheduler, Label};
