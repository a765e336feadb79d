//! The mergeable end-of-run telemetry snapshot that rides in simulation
//! outcomes and aggregates across repetitions in the harness.

use std::fmt;

use crate::counters::{ClusterDirection, Counters, LabelClass, PreemptCause};
use crate::histogram::LatencyHistogram;

/// Aggregated telemetry for one run — or, after [`absorb`], for a set of
/// runs (`runs` tracks how many, so counters can be reported per run).
///
/// [`absorb`]: TelemetryReport::absorb
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Number of simulation runs folded into this report.
    pub runs: u64,
    /// Decision counters, summed over runs.
    pub counters: Counters,
    /// Wakeup-to-first-run latency, pooled over runs.
    pub wakeup_to_run: LatencyHistogram,
    /// Runqueue wait before dispatch, pooled over runs.
    pub runqueue_wait: LatencyHistogram,
    /// Futex block duration, pooled over runs.
    pub futex_block: LatencyHistogram,
    /// Events offered to the ring, summed over runs.
    pub events_seen: u64,
    /// Events overwritten by ring wraparound, summed over runs.
    pub events_dropped: u64,
}

impl TelemetryReport {
    /// An empty report covering zero runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another report into this one: counters and event totals
    /// add, histograms pool their samples. The sweep reducer folds
    /// per-cell reports back together with it, in canonical cell order.
    ///
    /// Conservation guarantees (tested in `tests/merge.rs`):
    /// every counter of the result equals the sum of the inputs' counters,
    /// `runs`/`events_seen`/`events_dropped` add, and each histogram's
    /// per-bucket counts add — so merged quantiles stay within one
    /// log-bucket of the quantiles of the pooled samples.
    pub fn absorb(&mut self, other: &TelemetryReport) {
        self.runs += other.runs;
        self.counters.absorb(&other.counters);
        self.wakeup_to_run.absorb(&other.wakeup_to_run);
        self.runqueue_wait.absorb(&other.runqueue_wait);
        self.futex_block.absorb(&other.futex_block);
        self.events_seen += other.events_seen;
        self.events_dropped += other.events_dropped;
    }

    /// A count scaled to per-run terms (identity when `runs <= 1`).
    pub fn per_run(&self, total: u64) -> f64 {
        if self.runs <= 1 {
            total as f64
        } else {
            total as f64 / self.runs as f64
        }
    }
}

impl fmt::Display for TelemetryReport {
    /// Renders the human-readable telemetry block used by
    /// `repro --summary` and `diag`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counters;
        writeln!(
            f,
            "picks {:.0}/run  migrations {:.1}/run  preemptions {:.1}/run  relabels {:.1}/run",
            self.per_run(c.picks),
            self.per_run(c.total_migrations()),
            self.per_run(c.total_preemptions()),
            self.per_run(c.total_relabels()),
        )?;
        write!(f, "migrations:")?;
        for dir in ClusterDirection::ALL {
            write!(
                f,
                " {} {:.1}",
                dir.label(),
                self.per_run(c.migrations[dir as usize])
            )?;
        }
        writeln!(f)?;
        write!(f, "preemptions:")?;
        for cause in PreemptCause::ALL {
            write!(
                f,
                " {} {:.1}",
                cause.label(),
                self.per_run(c.preemptions[cause as usize])
            )?;
        }
        write!(
            f,
            "  futex-wakes {:.1}/run  idle-steals {:.1}/run",
            self.per_run(c.futex_wakes),
            self.per_run(c.idle_steals)
        )?;
        writeln!(f)?;
        if c.total_faults() > 0 {
            writeln!(
                f,
                "faults: offline {:.1}/run online {:.1}/run throttle {:.1}/run",
                self.per_run(c.core_offlines),
                self.per_run(c.core_onlines),
                self.per_run(c.throttles),
            )?;
        }
        if c.total_relabels() > 0 {
            write!(f, "label flows:")?;
            for from in LabelClass::ALL {
                for to in LabelClass::ALL {
                    let n = c.label_matrix[from as usize][to as usize];
                    if n > 0 {
                        write!(
                            f,
                            " {}=>{} {:.1}",
                            from.label(),
                            to.label(),
                            self.per_run(n)
                        )?;
                    }
                }
            }
            writeln!(f)?;
        }
        if c.prediction.samples > 0 {
            writeln!(
                f,
                "speedup model: mean |err| {:.3}  bias {:+.3}  ({} samples)",
                c.prediction.mean_abs_error(),
                c.prediction.bias(),
                c.prediction.samples,
            )?;
        }
        let w = self.wakeup_to_run.summary();
        let r = self.runqueue_wait.summary();
        let b = self.futex_block.summary();
        writeln!(
            f,
            "wakeup->run: p50 {} p95 {} p99 {} max {} (n={})",
            w.p50, w.p95, w.p99, w.max, w.count
        )?;
        writeln!(
            f,
            "runq wait:   p50 {} p95 {} p99 {} max {} (n={})",
            r.p50, r.p95, r.p99, r.max, r.count
        )?;
        writeln!(
            f,
            "futex block: p50 {} p95 {} p99 {} max {} (n={})",
            b.p50, b.p95, b.p99, b.max, b.count
        )?;
        if self.events_dropped > 0 {
            writeln!(
                f,
                "event ring: {} recorded, {} overwritten (oldest dropped)",
                self.events_seen - self.events_dropped,
                self.events_dropped
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_types::SimDuration;

    #[test]
    fn absorb_accumulates_runs_and_pools_histograms() {
        let mut total = TelemetryReport::new();
        for i in 1..=3u64 {
            let mut one = TelemetryReport {
                runs: 1,
                wakeup_to_run: [SimDuration::from_micros(i)].into_iter().collect(),
                ..Default::default()
            };
            one.counters.picks = 10 * i;
            total.absorb(&one);
        }
        assert_eq!(total.runs, 3);
        assert_eq!(total.counters.picks, 60);
        assert_eq!(total.wakeup_to_run.count(), 3);
        assert!((total.per_run(total.counters.picks) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn display_renders_without_panicking() {
        let mut report = TelemetryReport {
            runs: 1,
            wakeup_to_run: [SimDuration::from_micros(30)].into_iter().collect(),
            ..Default::default()
        };
        report.counters.picks = 5;
        report.counters.migrations[1] = 2;
        report.counters.label_matrix[0][2] = 1;
        report.counters.prediction.observe(2.0, 1.5);
        let text = report.to_string();
        assert!(text.contains("migrations"));
        assert!(text.contains("wakeup->run"));
        assert!(text.contains("speedup model"));
    }
}
