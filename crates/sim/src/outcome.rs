//! Results of a completed simulation.

use amp_perf::PmuCounters;
use amp_telemetry::TelemetryReport;
use amp_types::{AppId, SimDuration, SimTime, ThreadId};

/// Per-thread accounting at the end of a run.
#[derive(Debug, Clone)]
pub struct ThreadStats {
    /// The thread.
    pub id: ThreadId,
    /// Owning application.
    pub app: AppId,
    /// Role name from the workload spec.
    pub name: String,
    /// When the thread's program completed.
    pub finish: SimTime,
    /// CPU time consumed (wall time on a core, including both kinds).
    pub run_time: SimDuration,
    /// CPU time on big cores.
    pub big_time: SimDuration,
    /// CPU time on little cores.
    pub little_time: SimDuration,
    /// Big-core-equivalent work retired (the program's compute demand).
    pub work_done: SimDuration,
    /// Time spent blocked on futexes: the futex ledger's completed waits.
    pub blocked_time: SimDuration,
    /// Time spent runnable but queued.
    pub ready_time: SimDuration,
    /// Cumulative time this thread caused others to wait (criticality).
    pub caused_wait: SimDuration,
    /// Completed futex waits.
    pub wait_count: u64,
    /// Lifetime PMU accumulation (training data source).
    pub pmu_total: PmuCounters,
    /// Instructions committed.
    pub insts: f64,
}

/// Per-application outcome.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// The application.
    pub id: AppId,
    /// Application name (benchmark name).
    pub name: String,
    /// Turnaround time: start (t=0) to last thread completion.
    pub turnaround: SimDuration,
}

/// Energy accounting for one run, from A57/A53-calibrated per-core power
/// draw: every core draws its active power while busy and its idle power
/// for the rest of the makespan.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// Joules per core, indexed by core id.
    pub per_core_joules: Vec<f64>,
    /// Joules spent executing.
    pub active_joules: f64,
    /// Joules spent idling (leakage + clock-gated floor).
    pub idle_joules: f64,
}

impl EnergyReport {
    /// Total energy of the run.
    pub fn total_joules(&self) -> f64 {
        self.active_joules + self.idle_joules
    }
}

/// How a faulted run degraded relative to the fault-free machine: the
/// disturbances that actually landed and the scheduling work they forced.
/// All-zero (== `Default`) for runs with an empty
/// [`FaultPlan`](amp_faults::FaultPlan).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationReport {
    /// Fault events consumed from the plan.
    pub faults_injected: u64,
    /// Counter-degradation faults applied.
    pub counter_faults: u64,
    /// Migration-cost-spike faults applied.
    pub migration_spikes: u64,
    /// Threads forcibly migrated because their core went offline or was
    /// rescaled mid-run (the "re-migrations triggered" of the fault study).
    pub forced_migrations: u64,
    /// Times a scheduler routed a runnable thread to an offline core —
    /// the chaos-layer invariant; always zero for a hardened policy.
    pub stranded_enqueues: u64,
    /// Total core-time lost to offline cores (summed per-core downtime,
    /// clipped to the makespan).
    pub offline_core_time: SimDuration,
}

impl DegradationReport {
    /// Whether the run saw no faults at all.
    pub fn is_clean(&self) -> bool {
        *self == DegradationReport::default()
    }
}

/// Everything measured from one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Name of the scheduling policy that produced this run.
    pub scheduler: String,
    /// Completion time of the whole workload.
    pub makespan: SimTime,
    /// Per-application turnarounds, indexed by [`AppId`].
    pub apps: Vec<AppOutcome>,
    /// Per-thread accounting, indexed by [`ThreadId`].
    pub threads: Vec<ThreadStats>,
    /// Context switches across all cores.
    pub context_switches: u64,
    /// Thread migrations across all cores: the telemetry counters'
    /// [`total_migrations`](amp_telemetry::Counters::total_migrations).
    pub migrations: u64,
    /// Discrete events processed by the engine loop (the denominator of
    /// the events/sec throughput metric in `BENCH_*.json`).
    pub events_processed: u64,
    /// Compute leaves retired — one per flat `Compute` action in the
    /// workload.
    pub compute_leaves: u64,
    /// Compute `CoreDone` events armed: one per nonzero leaf, plus one
    /// more each time a leaf resumes after a tick, preemption or quantum
    /// end.
    pub compute_events: u64,
    /// Per-core busy time, indexed by core id.
    pub core_busy: Vec<SimDuration>,
    /// Energy accounting (see [`EnergyReport`]).
    pub energy: EnergyReport,
    /// Execution trace, one slice per stint (empty unless
    /// [`SimParams::trace_capacity`](crate::SimParams) was set).
    pub trace: crate::Trace,
    /// Scheduler decision telemetry: counters, latency histograms, and
    /// event-ring totals (the ring itself records only when
    /// [`SimParams::event_capacity`](crate::SimParams) was set).
    pub telemetry: TelemetryReport,
    /// The drained telemetry event ring, oldest first (empty unless
    /// [`SimParams::event_capacity`](crate::SimParams) was set; when the
    /// run overflowed the ring these are the most recent events and
    /// [`TelemetryReport::events_dropped`] counts the overwritten rest).
    pub telemetry_events: Vec<amp_telemetry::StampedEvent>,
    /// Fault-injection impact summary (all-zero for fault-free runs).
    pub degradation: DegradationReport,
}

impl SimulationOutcome {
    /// Turnaround of one application.
    ///
    /// # Panics
    ///
    /// Panics if `app` is out of range.
    pub fn turnaround(&self, app: AppId) -> SimDuration {
        self.apps[app.index()].turnaround
    }

    /// Overall CPU utilization in `[0, 1]`: busy core-time over
    /// `makespan × cores`.
    pub fn utilization(&self) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 0.0;
        }
        let busy: f64 = self.core_busy.iter().map(|d| d.as_secs_f64()).sum();
        busy / (self.makespan.as_secs_f64() * self.core_busy.len() as f64)
    }

    /// Total big-core-equivalent work retired by all threads.
    pub fn total_work(&self) -> SimDuration {
        self.threads.iter().map(|t| t.work_done).sum()
    }

    /// Energy-delay product in joule-seconds — the energy-efficiency
    /// figure of merit for AMP scheduling.
    pub fn edp(&self) -> f64 {
        self.energy.total_joules() * self.makespan.as_secs_f64()
    }
}
