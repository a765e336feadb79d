//! The three scheduling policies of the paper's evaluation.
//!
//! * [`CfsScheduler`] — a reimplementation of the relevant subset of the
//!   Linux Completely Fair Scheduler: per-core runqueues ordered by
//!   `(vruntime, tid)` (a `BTreeSet` standing in for the kernel's
//!   red-black timeline), minimum-vruntime placement on wakeup, wakeup
//!   preemption with a granularity threshold, idle stealing, and
//!   periodic load balancing. It is AMP-*agnostic*: a big-core millisecond
//!   and a little-core millisecond count the same. This is the paper's
//!   `LINUX` baseline.
//!
//! * [`WashScheduler`] — the paper's re-implementation of WASH (Jibaja et
//!   al., CGO 2016): the same CFS machinery, plus a 10 ms heuristic pass
//!   that scores every thread on predicted speedup + blocking + fairness
//!   *jointly* and gives the top-scoring threads big-core-only affinity.
//!   WASH controls **affinity only**; thread selection stays CFS — exactly
//!   the limitation the paper's motivating example targets.
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
//! As an extension, [`GtsScheduler`] implements ARM's Global Task
//! Scheduling (Table 1's remaining general-purpose comparator):
//! load-average-driven affinity with up/down-migration hysteresis, again
//! over the shared CFS mechanics.
//!
//! All policies implement the [`Scheduler`] trait from `amp-sim`
//! (re-exported here), whose hooks mirror the kernel functions the paper
//! overrides.
//!
//! # Examples
//!
//! ```
//! use amp_sched::{CfsScheduler, ColabScheduler, Scheduler, WashScheduler};
//! use amp_perf::SpeedupModel;
//! use amp_types::{CoreOrder, MachineConfig};
//!
//! let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
//! let cfs = CfsScheduler::new(&machine);
//! let wash = WashScheduler::new(&machine, SpeedupModel::heuristic());
//! let colab = ColabScheduler::new(&machine, SpeedupModel::heuristic());
//! assert_eq!(cfs.name(), "linux");
//! assert_eq!(wash.name(), "wash");
//! assert_eq!(colab.name(), "colab");
//! ```

#![warn(missing_docs)]

mod cfs;
mod colab;
mod equal_progress;
mod gts;
mod wash;

pub use amp_sim::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason, ThreadPhase};
pub use cfs::CfsScheduler;
pub use colab::{ColabConfig, ColabScheduler, Label};
pub use equal_progress::EqualProgressScheduler;
pub use gts::{GtsConfig, GtsScheduler};
pub use wash::{WashConfig, WashScheduler};
