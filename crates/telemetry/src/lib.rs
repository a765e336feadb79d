//! Scheduler decision telemetry for the COLAB reproduction.
//!
//! The simulator and every policy answer "who runs where, when" millions
//! of times per sweep; this crate captures *why* the answers came out the
//! way they did, without perturbing them. Three layers, all write-only
//! from the decision path so determinism is preserved:
//!
//! 1. **Structured events** ([`SchedEvent`]) in a bounded flight-recorder
//!    ring ([`EventRing`]) with per-core sequence numbers. Recording is a
//!    no-op when the ring capacity is zero, so sweeps pay nothing.
//! 2. **Decision counters** ([`Counters`]) — migrations by cluster
//!    direction, preemptions by cause, label transitions as a 3×3 matrix,
//!    and speedup-model prediction-error accumulators. Counters are
//!    always on (a handful of integer adds per decision).
//! 3. **Latency histograms** ([`LatencyHistogram`]) — log-bucketed
//!    HDR-style, for wakeup-to-run latency, runqueue wait, and futex
//!    block duration, exported as p50/p95/p99. A run records each into a
//!    dense bucket vector and packs it, once, into a histogram that
//!    stores only its non-empty buckets.
//!
//! [`Telemetry`] is the live collector owned by a simulation;
//! [`TelemetryReport`] is the mergeable end-of-run snapshot that rides in
//! the simulation outcome. [`chrome::ChromeTrace`] renders Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`).

pub mod chrome;
mod counters;
mod event;
mod histogram;
mod report;

pub use counters::{ClusterDirection, Counters, LabelClass, PredictionError, PreemptCause};
pub use event::{EventRing, SchedEvent, StampedEvent};
use histogram::HistogramRecorder;
pub use histogram::{HistogramSummary, LatencyHistogram};
pub use report::TelemetryReport;

use amp_types::{CoreId, SimDuration, SimTime, ThreadId};

/// Live per-run collector: counters, histograms, and the event ring.
///
/// One instance per simulation run. Everything here is written by the
/// engine and the schedulers and read only after the run ends, so the
/// collector can never influence a scheduling decision.
#[derive(Debug)]
pub struct Telemetry {
    /// Decision counters (always on).
    pub counters: Counters,
    /// Wakeup-to-first-run latency per wakeup.
    wakeup_to_run: HistogramRecorder,
    /// Time runnable threads sat queued before dispatch.
    runqueue_wait: HistogramRecorder,
    /// Time threads spent blocked on a futex word.
    futex_block: HistogramRecorder,
    ring: EventRing,
    /// Latest speedup prediction per thread, indexed by thread id and
    /// grown on demand, matched against measured speedups as the engine
    /// observes them. `None` until the policy predicts for that thread.
    pending_predictions: Vec<Option<f64>>,
}

impl Telemetry {
    /// Creates a collector whose event ring holds up to `event_capacity`
    /// events (0 disables event recording entirely; counters and
    /// histograms still collect).
    pub fn new(event_capacity: usize) -> Self {
        Telemetry {
            counters: Counters::default(),
            wakeup_to_run: HistogramRecorder::new(),
            runqueue_wait: HistogramRecorder::new(),
            futex_block: HistogramRecorder::new(),
            ring: EventRing::new(event_capacity),
            pending_predictions: Vec::new(),
        }
    }

    /// Records one decision event: updates the derived counters, then
    /// appends to the ring if event recording is enabled.
    pub fn record(&mut self, at: SimTime, core: CoreId, event: SchedEvent) {
        self.counters.apply(&event);
        if let SchedEvent::SlicePredict { thread, predicted_speedup, .. } = event {
            let slot = thread.index();
            if slot >= self.pending_predictions.len() {
                self.pending_predictions.resize(slot + 1, None);
            }
            self.pending_predictions[slot] = Some(predicted_speedup);
        }
        self.ring.push(at, core, event);
    }

    /// Feeds the ground-truth speedup the engine measured for `thread`;
    /// if a policy prediction is outstanding, accumulates the error.
    /// The prediction stays armed: each subsequent observation scores the
    /// latest prediction until the policy issues a new one.
    pub fn observe_actual_speedup(&mut self, thread: ThreadId, actual: f64) {
        if let Some(&Some(predicted)) = self.pending_predictions.get(thread.index()) {
            self.counters.prediction.observe(predicted, actual);
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &StampedEvent> {
        self.ring.iter()
    }

    /// Whether event recording is enabled (ring capacity > 0).
    pub fn events_enabled(&self) -> bool {
        self.ring.capacity() > 0
    }

    /// Total events offered to the ring (recorded + overwritten).
    pub fn events_seen(&self) -> u64 {
        self.ring.seen()
    }

    /// Events overwritten because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Ends the run: moves the counters into a report, packs each
    /// histogram into it (its non-empty buckets only, exactly sized) and
    /// moves the ring's buffer into the returned events, oldest first.
    /// The ring's totals travel in the report.
    pub fn finish(self) -> (TelemetryReport, Vec<StampedEvent>) {
        let report = TelemetryReport {
            runs: 1,
            counters: self.counters,
            wakeup_to_run: self.wakeup_to_run.finish(),
            runqueue_wait: self.runqueue_wait.finish(),
            futex_block: self.futex_block.finish(),
            events_seen: self.ring.seen(),
            events_dropped: self.ring.dropped(),
        };
        (report, self.ring.into_events())
    }

    /// Convenience: records a wakeup-to-run latency sample.
    pub fn observe_wakeup_latency(&mut self, latency: SimDuration) {
        self.wakeup_to_run.record(latency);
    }

    /// Convenience: records a runqueue-wait sample.
    pub fn observe_runqueue_wait(&mut self, wait: SimDuration) {
        self.runqueue_wait.record(wait);
    }

    /// Convenience: records a futex block-duration sample.
    pub fn observe_futex_block(&mut self, blocked: SimDuration) {
        self.futex_block.record(blocked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_types::CoreKind;

    #[test]
    fn record_updates_counters_and_ring() {
        let mut tel = Telemetry::new(4);
        let t = ThreadId(1);
        tel.record(
            SimTime::from_millis(1),
            CoreId(0),
            SchedEvent::Migrate {
                thread: t,
                from: CoreId(2),
                to: CoreId(0),
                direction: ClusterDirection::from_kinds(CoreKind::Little, CoreKind::Big),
            },
        );
        assert_eq!(tel.counters.migrations[ClusterDirection::LittleToBig as usize], 1);
        assert_eq!(tel.events().count(), 1);
    }

    #[test]
    fn disabled_ring_still_counts() {
        let mut tel = Telemetry::new(0);
        tel.record(
            SimTime::ZERO,
            CoreId(0),
            SchedEvent::IdleSteal { thread: ThreadId(3), from: CoreId(1) },
        );
        assert_eq!(tel.counters.idle_steals, 1);
        assert_eq!(tel.events().count(), 0);
        assert!(!tel.events_enabled());
    }

    #[test]
    fn prediction_error_scores_latest_prediction() {
        let mut tel = Telemetry::new(0);
        let t = ThreadId(7);
        // No prediction armed: observation is ignored.
        tel.observe_actual_speedup(t, 1.5);
        assert_eq!(tel.counters.prediction.samples, 0);

        tel.record(
            SimTime::ZERO,
            CoreId(0),
            SchedEvent::SlicePredict { thread: t, predicted_speedup: 2.0, slice: SimDuration::from_micros(500) },
        );
        tel.observe_actual_speedup(t, 1.5);
        tel.observe_actual_speedup(t, 2.5);
        assert_eq!(tel.counters.prediction.samples, 2);
        assert!((tel.counters.prediction.mean_abs_error() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unpredicted_threads_are_not_scored() {
        let mut tel = Telemetry::new(0);
        tel.record(
            SimTime::ZERO,
            CoreId(0),
            SchedEvent::SlicePredict {
                thread: ThreadId(2),
                predicted_speedup: 2.0,
                slice: SimDuration::from_micros(500),
            },
        );
        // Below the predicted thread's slot, and past every slot seen so far.
        tel.observe_actual_speedup(ThreadId(0), 1.5);
        tel.observe_actual_speedup(ThreadId(3), 1.5);
        tel.observe_actual_speedup(ThreadId(u32::MAX), 1.5);
        assert_eq!(tel.counters.prediction.samples, 0);
        tel.observe_actual_speedup(ThreadId(2), 1.5);
        assert_eq!(tel.counters.prediction.samples, 1);
    }
}
