//! Tunable simulation constants.

use amp_types::SimDuration;

/// Cost and cadence parameters of the simulated machine and runtime.
///
/// Defaults model the paper's environment: a 10 ms performance-model update
/// period (§4.1), a few-microsecond context-switch cost ("around 100 cycles"
/// for counter access plus kernel switch overhead), and a cache-warmup
/// penalty for migrations that grows when a thread changes cluster —
/// the overhead that makes aggressive migration counterproductive for
/// thread-oversubscribed workloads (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Scheduler bookkeeping period (labels, counters, load balance).
    pub tick: SimDuration,
    /// Cost of switching a core to a different thread.
    pub context_switch: SimDuration,
    /// Extra cost when the incoming thread last ran on another core of the
    /// same kind (cache warmup).
    pub migration_same_kind: SimDuration,
    /// Extra cost when the incoming thread changes core kind
    /// (big↔little cluster move).
    pub migration_cross_kind: SimDuration,
    /// Hard wall-clock limit; exceeding it aborts with an error.
    pub horizon: amp_types::SimTime,
    /// Maximum execution slices the trace records (0 = tracing off).
    pub trace_capacity: usize,
    /// Maximum telemetry events the flight-recorder ring retains
    /// (0 = event recording off; decision counters and latency
    /// histograms are always collected).
    pub event_capacity: usize,
}

impl SimParams {
    /// The paper-calibrated defaults.
    pub fn paper() -> SimParams {
        SimParams {
            tick: SimDuration::from_millis(10),
            context_switch: SimDuration::from_micros(3),
            migration_same_kind: SimDuration::from_micros(10),
            migration_cross_kind: SimDuration::from_micros(20),
            horizon: amp_types::SimTime::from_millis(120_000),
            trace_capacity: 0,
            event_capacity: 0,
        }
    }
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_cadence() {
        let p = SimParams::default();
        assert_eq!(p.tick, SimDuration::from_millis(10));
        assert!(p.migration_cross_kind > p.migration_same_kind);
        assert!(p.context_switch < p.migration_same_kind);
    }
}
