//! Synthetic models of the paper's PARSEC 3.0 / SPLASH-2 workloads.
//!
//! The paper evaluates 15 benchmarks (Table 3) combined into 26
//! multiprogrammed workloads (Table 4). Running the real suites requires a
//! full-system gem5 checkpoint; what the *schedulers* observe, however, is
//! only each benchmark's parallel structure (barriers, pipelines, locks,
//! task queues), its futex blocking pattern, and its per-thread performance
//! counters. This crate models exactly those observables:
//!
//! * [`Program`] / [`Op`] / [`Cursor`] — a thread's behaviour as a small
//!   structured program over compute segments and synchronization actions;
//! * [`skeletons`] — reusable parallel-structure generators (data-parallel
//!   with barriers, pipeline, lock-intensive, task queue, fork-join);
//! * [`BenchmarkId`] — the 15 benchmarks with Table 3 categorisation and a
//!   behaviour generator each;
//! * [`PaperWorkload`] — the 26 named compositions of Table 4, plus the
//!   grouping predicates used by Figures 5–9.
//!
//! # Examples
//!
//! ```
//! use amp_workloads::{BenchmarkId, WorkloadSpec, Scale};
//!
//! // The Sync-2 style mix: dedup + fluidanimate.
//! let spec = WorkloadSpec::named(
//!     "custom-mix",
//!     vec![(BenchmarkId::Dedup, 10), (BenchmarkId::Fluidanimate, 8)],
//! );
//! assert_eq!(spec.total_threads(), 18);
//! let apps = spec.instantiate(7, Scale::default());
//! assert_eq!(apps.len(), 2);
//! assert_eq!(apps[0].threads.len(), 10);
//! ```

#![warn(missing_docs)]

mod benchmarks;
mod builder;
pub mod compiled;
mod compositions;
mod program;
pub mod skeletons;
mod spec;

pub use benchmarks::{BenchmarkId, BenchmarkInfo, CommCompRatio, SyncRate};
pub use builder::{AppBuilder, LoopBuilder, ThreadBuilder};
pub use compiled::{CompiledApp, CompiledProgram, CompiledThread, CompiledWorkload, SegPos};
pub use compositions::{PaperWorkload, WorkloadClass};
pub use program::{Action, Cursor, Op, Program};
pub use spec::{AppSpec, Scale, ThreadSpec, WorkloadSpec};
