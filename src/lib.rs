//! # colab-suite — facade for the COLAB (CGO'20) reproduction
//!
//! This crate re-exports the public API of the whole workspace so examples,
//! integration tests, and downstream users can depend on a single package.
//!
//! The reproduction implements **"COLAB: A Collaborative Multi-factor
//! Scheduler for Asymmetric Multicore Processors"** (Yu, Petoumenos, Janjic,
//! Leather, Thomson — CGO 2020): a discrete-event asymmetric multicore
//! simulator, synthetic PARSEC/SPLASH-2 workload models, a futex subsystem
//! with blocking-time accounting, a PCA + linear-regression speedup model,
//! and the schedulers — COLAB, and one CFS scheduler that runs the
//! Linux-CFS baseline, WASH, and (as extensions) ARM GTS and
//! equal-progress — together with the harness that regenerates every
//! table and figure of the paper.
//!
//! # Examples
//!
//! ```
//! use colab_suite::prelude::*;
//!
//! // Run one small mixed workload under COLAB on a 2-big 2-little machine.
//! let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
//! let workload = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
//! let model = SpeedupModel::heuristic();
//! let outcome = Simulation::build_scaled(&machine, &workload, 42, Scale::default())
//!     .expect("valid workload")
//!     .run(&mut ColabScheduler::new(&machine, model))
//!     .expect("simulation completes");
//! assert!(outcome.makespan > SimTime::ZERO);
//! ```

#![warn(missing_docs)]

pub use amp_futex as futex;
pub use amp_metrics as metrics;
pub use amp_perf as perf;
pub use amp_sched as sched;
pub use amp_sim as sim;
pub use amp_types as types;
pub use amp_workloads as workloads;
pub use colab as experiments;

/// One-stop imports for examples and downstream code.
pub mod prelude {
    pub use amp_metrics::{h_antt, h_ntt, h_stp, MixSummary};
    pub use amp_perf::{PmuCounters, SpeedupModel};
    pub use amp_sched::{CfsScheduler, ColabScheduler, Scheduler};
    pub use amp_sim::{Simulation, SimulationOutcome};
    pub use amp_types::{
        AppId, CoreId, CoreKind, CoreOrder, MachineConfig, SimDuration, SimTime, ThreadId,
    };
    pub use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};
    pub use colab::{ExperimentConfig, Harness};
}
