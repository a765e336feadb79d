//! Discrete-event simulator of an asymmetric multicore machine.
//!
//! This crate is the reproduction's substitute for gem5 + the Linux kernel
//! runtime: it executes multiprogrammed workloads (from `amp-workloads`) on
//! a configurable big.LITTLE machine (from `amp-types`), routing every
//! blocking interaction through the futex subsystem (`amp-futex`) and
//! synthesizing per-thread PMU counters (`amp-perf`) every 10 ms — the same
//! sampling period the paper's runtime uses.
//!
//! Scheduling policy is pluggable through the [`Scheduler`] trait, whose
//! hooks mirror the kernel functions the paper overrides:
//!
//! | Kernel function                | Trait hook                  |
//! |--------------------------------|-----------------------------|
//! | `select_task_rq_fair()`        | [`Scheduler::enqueue`]      |
//! | `pick_next_task_fair()`        | [`Scheduler::pick_next`]    |
//! | `wakeup_preempt_entity()`      | [`Scheduler::should_preempt`] + [`Scheduler::time_slice`] |
//! | 10 ms labelling in `__sched__schedule()` | [`Scheduler::on_tick`] |
//!
//! # Examples
//!
//! A run is built in one place —
//! [`Simulation::from_compiled_with_params`] over compiled apps — and
//! optionally staggered ([`Simulation::with_arrivals`]) or disturbed
//! ([`Simulation::with_fault_plan`]) before it runs:
//!
//! ```
//! use amp_sim::{FaultPlan, RoundRobin, SimParams, Simulation};
//! use amp_types::{CoreOrder, MachineConfig, SimDuration, SimTime};
//! use amp_workloads::{BenchmarkId, CompiledWorkload, Scale, WorkloadSpec};
//!
//! let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
//! let workload = WorkloadSpec::named(
//!     "pair",
//!     vec![(BenchmarkId::Blackscholes, 2), (BenchmarkId::Ferret, 6)],
//! );
//! let compiled = CompiledWorkload::compile(&workload, 1, Scale::quick()).unwrap();
//! let plan = FaultPlan::random(&machine, 1, 1.0, SimDuration::from_millis(50));
//! let outcome = Simulation::from_compiled_with_params(
//!     &machine,
//!     compiled.apps().to_vec(),
//!     1,
//!     SimParams::default(),
//! )
//! .and_then(|sim| sim.with_arrivals(vec![SimTime::ZERO, SimTime::from_millis(5)]))
//! .and_then(|sim| sim.with_fault_plan(plan))
//! .unwrap()
//! .run(&mut RoundRobin::new())
//! .unwrap();
//! assert!(outcome.makespan > SimTime::ZERO);
//! assert_eq!(outcome.apps.len(), 2);
//! ```
//!
//! [`Simulation::build_scaled`] is the shortcut for a paper workload at
//! default parameters.

#![warn(missing_docs)]

mod engine;
mod equeue;
mod outcome;
mod params;
mod rr;
mod sched;
mod trace;

pub use amp_faults as faults;
pub use amp_faults::{FaultEvent, FaultKind, FaultPlan};
pub use amp_telemetry as telemetry;
pub use engine::Simulation;
pub use outcome::{AppOutcome, DegradationReport, EnergyReport, SimulationOutcome, ThreadStats};
pub use params::SimParams;
pub use rr::RoundRobin;
pub use sched::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason, ThreadPhase};
pub use trace::{Trace, TraceEvent};
