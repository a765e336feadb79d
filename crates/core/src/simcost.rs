//! Process-wide wall-clock cost accounting for experiment-cell runs.
//!
//! Every paper-protocol cell (`SweepCell::is_paper`) records, for each
//! individual `Simulation::run`, the wall time spent building the
//! simulation, the wall time inside the event loop, and the number of
//! events the loop processed — keyed by scheduler policy. The counters
//! are lock-free atomics, so the parallel sweep executor's workers
//! record concurrently without coordination; `repro --bench-json` snapshots
//! them at exit to derive events/sec and per-policy decision costs.
//!
//! Only paper-protocol cells are counted. Isolated-baseline and
//! model-training runs use the CFS scheduler as measurement machinery,
//! not as a policy under evaluation, and would skew the per-policy
//! numbers; the extension studies' cells are not counted yet.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::SchedulerKind;

/// Number of [`SchedulerKind`] variants (the per-policy array length).
const KINDS: usize = 5;

/// Display names indexed by `SchedulerKind as usize`; checked against
/// [`SchedulerKind::name`] by a test.
const KIND_NAMES: [&str; KINDS] = ["linux", "wash", "colab", "gts", "equal-progress"];

static BUILD_NS: AtomicU64 = AtomicU64::new(0);
static RUN_NS: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
static EVENTS: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
static RUNS: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
static LEAVES: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
static SEGMENTS: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];

/// Adds one simulation run's costs to the process-wide totals. `leaves`
/// and `segments` are the run's compute-leaf and compute-event counts
/// (see [`SimulationOutcome`](amp_sim::SimulationOutcome)).
pub(crate) fn record(
    kind: SchedulerKind,
    build_ns: u64,
    run_ns: u64,
    events: u64,
    leaves: u64,
    segments: u64,
) {
    let k = kind as usize;
    BUILD_NS.fetch_add(build_ns, Ordering::Relaxed);
    RUN_NS[k].fetch_add(run_ns, Ordering::Relaxed);
    EVENTS[k].fetch_add(events, Ordering::Relaxed);
    RUNS[k].fetch_add(1, Ordering::Relaxed);
    LEAVES[k].fetch_add(leaves, Ordering::Relaxed);
    SEGMENTS[k].fetch_add(segments, Ordering::Relaxed);
}

/// One policy's accumulated simulation cost.
#[derive(Debug, Clone, Copy)]
pub struct KindCost {
    /// Policy display name (matches [`SchedulerKind::name`]).
    pub name: &'static str,
    /// Wall nanoseconds inside `Simulation::run` under this policy.
    pub run_ns: u64,
    /// Events processed by those runs.
    pub events: u64,
    /// Individual simulation runs recorded.
    pub runs: u64,
    /// Compute leaves retired (flat `Compute` actions).
    pub leaves: u64,
    /// Compute `CoreDone` events armed — one per leaf, plus one per
    /// resumption of an interrupted leaf.
    pub segments: u64,
}

impl KindCost {
    /// Event-loop throughput in events per second of run wall time.
    pub fn events_per_sec(&self) -> f64 {
        if self.run_ns == 0 {
            0.0
        } else {
            self.events as f64 / (self.run_ns as f64 / 1e9)
        }
    }

    /// Compute events armed per second of run wall time.
    pub fn segments_per_sec(&self) -> f64 {
        if self.run_ns == 0 {
            0.0
        } else {
            self.segments as f64 / (self.run_ns as f64 / 1e9)
        }
    }
}

/// A point-in-time copy of the process-wide counters.
#[derive(Debug, Clone)]
pub struct CostSnapshot {
    /// Wall nanoseconds spent constructing simulations.
    pub build_ns: u64,
    /// Per-policy costs, in `SchedulerKind` declaration order; policies
    /// with zero recorded runs are included (with zero fields).
    pub kinds: Vec<KindCost>,
}

impl CostSnapshot {
    /// Total event-loop wall nanoseconds across all policies.
    pub fn run_ns(&self) -> u64 {
        self.kinds.iter().map(|k| k.run_ns).sum()
    }

    /// Total events processed across all policies.
    pub fn events(&self) -> u64 {
        self.kinds.iter().map(|k| k.events).sum()
    }

    /// Total simulation runs recorded across all policies.
    pub fn runs(&self) -> u64 {
        self.kinds.iter().map(|k| k.runs).sum()
    }

    /// Total compute leaves retired across all policies.
    pub fn leaves(&self) -> u64 {
        self.kinds.iter().map(|k| k.leaves).sum()
    }

    /// Total compute events armed across all policies.
    pub fn segments(&self) -> u64 {
        self.kinds.iter().map(|k| k.segments).sum()
    }

    /// Aggregate event-loop throughput in events per second.
    pub fn events_per_sec(&self) -> f64 {
        let run_ns = self.run_ns();
        if run_ns == 0 {
            0.0
        } else {
            self.events() as f64 / (run_ns as f64 / 1e9)
        }
    }

    /// Aggregate compute-event throughput in events per second.
    pub fn segments_per_sec(&self) -> f64 {
        let run_ns = self.run_ns();
        if run_ns == 0 {
            0.0
        } else {
            self.segments() as f64 / (run_ns as f64 / 1e9)
        }
    }
}

/// Snapshots the process-wide counters.
pub fn snapshot() -> CostSnapshot {
    CostSnapshot {
        build_ns: BUILD_NS.load(Ordering::Relaxed),
        kinds: (0..KINDS)
            .map(|k| KindCost {
                name: KIND_NAMES[k],
                run_ns: RUN_NS[k].load(Ordering::Relaxed),
                events: EVENTS[k].load(Ordering::Relaxed),
                runs: RUNS[k].load(Ordering::Relaxed),
                leaves: LEAVES[k].load(Ordering::Relaxed),
                segments: SEGMENTS[k].load(Ordering::Relaxed),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_scheduler_kind() {
        let all = [
            SchedulerKind::Linux,
            SchedulerKind::Wash,
            SchedulerKind::Colab,
            SchedulerKind::Gts,
            SchedulerKind::EqualProgress,
        ];
        for kind in all {
            assert_eq!(KIND_NAMES[kind as usize], kind.name());
        }
    }

    #[test]
    fn record_accumulates_under_the_right_kind() {
        // Statics are process-wide and other tests may also record, so
        // assert on deltas.
        let before = snapshot();
        record(SchedulerKind::Gts, 10, 250, 7, 40, 8);
        record(SchedulerKind::Gts, 5, 750, 3, 20, 2);
        let after = snapshot();
        let k = SchedulerKind::Gts as usize;
        assert_eq!(after.build_ns - before.build_ns, 15);
        assert_eq!(after.kinds[k].run_ns - before.kinds[k].run_ns, 1000);
        assert_eq!(after.kinds[k].events - before.kinds[k].events, 10);
        assert_eq!(after.kinds[k].runs - before.kinds[k].runs, 2);
        assert_eq!(after.kinds[k].leaves - before.kinds[k].leaves, 60);
        assert_eq!(after.kinds[k].segments - before.kinds[k].segments, 10);
    }

    #[test]
    fn throughput_math() {
        let k = KindCost {
            name: "x",
            run_ns: 2_000_000_000,
            events: 10,
            runs: 1,
            leaves: 30,
            segments: 6,
        };
        assert!((k.events_per_sec() - 5.0).abs() < 1e-12);
        assert!((k.segments_per_sec() - 3.0).abs() < 1e-12);
        let z = KindCost { name: "x", run_ns: 0, events: 0, runs: 0, leaves: 0, segments: 0 };
        assert_eq!(z.events_per_sec(), 0.0);
        assert_eq!(z.segments_per_sec(), 0.0);
    }
}
