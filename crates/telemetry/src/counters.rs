//! The decision-counter registry: cheap always-on aggregates of every
//! scheduling decision, independent of whether event recording is on.

use amp_types::CoreKind;

use crate::event::SchedEvent;

/// Cluster-level direction of a migration on a big.LITTLE machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ClusterDirection {
    /// Big core to big core.
    BigToBig = 0,
    /// Big core down to a little core.
    BigToLittle = 1,
    /// Little core up to a big core.
    LittleToBig = 2,
    /// Little core to little core.
    LittleToLittle = 3,
}

impl ClusterDirection {
    /// All directions, in index order.
    pub const ALL: [ClusterDirection; 4] = [
        ClusterDirection::BigToBig,
        ClusterDirection::BigToLittle,
        ClusterDirection::LittleToBig,
        ClusterDirection::LittleToLittle,
    ];

    /// Classifies a move between core kinds.
    pub fn from_kinds(from: CoreKind, to: CoreKind) -> Self {
        match (from, to) {
            (CoreKind::Big, CoreKind::Big) => ClusterDirection::BigToBig,
            (CoreKind::Big, CoreKind::Little) => ClusterDirection::BigToLittle,
            (CoreKind::Little, CoreKind::Big) => ClusterDirection::LittleToBig,
            (CoreKind::Little, CoreKind::Little) => ClusterDirection::LittleToLittle,
        }
    }

    /// Short label for reports (`big->little` etc.).
    pub fn label(self) -> &'static str {
        match self {
            ClusterDirection::BigToBig => "big->big",
            ClusterDirection::BigToLittle => "big->little",
            ClusterDirection::LittleToBig => "little->big",
            ClusterDirection::LittleToLittle => "little->little",
        }
    }
}

/// Why a running thread was descheduled early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum PreemptCause {
    /// A newly woken or arrived thread outranked the incumbent.
    Wakeup = 0,
    /// A periodic tick decision (rebalance / label change) displaced it.
    Tick = 1,
}

impl PreemptCause {
    /// All causes, in index order.
    pub const ALL: [PreemptCause; 2] = [PreemptCause::Wakeup, PreemptCause::Tick];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PreemptCause::Wakeup => "wakeup",
            PreemptCause::Tick => "tick",
        }
    }
}

/// The three COLAB label classes, used as a common vocabulary for every
/// policy's thread-classification state (binary policies map onto two of
/// the classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum LabelClass {
    /// Speedup-hungry: runs markedly faster on a big core.
    HighSpeedup = 0,
    /// Non-critical: blocks few others, safe to park on a little core.
    NonCritical = 1,
    /// Flexible: neither strongly speedup-biased nor non-critical.
    Flexible = 2,
}

impl LabelClass {
    /// All classes, in index order.
    pub const ALL: [LabelClass; 3] = [
        LabelClass::HighSpeedup,
        LabelClass::NonCritical,
        LabelClass::Flexible,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            LabelClass::HighSpeedup => "high-speedup",
            LabelClass::NonCritical => "non-critical",
            LabelClass::Flexible => "flexible",
        }
    }
}

/// Accumulates model prediction-vs-actual speedup error.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictionError {
    /// Number of scored observations.
    pub samples: u64,
    /// Σ |predicted − actual|.
    pub sum_abs_error: f64,
    /// Σ (predicted − actual), sign-preserving (bias).
    pub sum_error: f64,
}

impl PredictionError {
    /// Scores one prediction against a measured value.
    pub fn observe(&mut self, predicted: f64, actual: f64) {
        let err = predicted - actual;
        self.samples += 1;
        self.sum_abs_error += err.abs();
        self.sum_error += err;
    }

    /// Mean |predicted − actual| (0 when no samples).
    pub fn mean_abs_error(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_abs_error / self.samples as f64
        }
    }

    /// Mean signed error: positive means the model over-predicts.
    pub fn bias(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_error / self.samples as f64
        }
    }

    /// Folds another accumulator into this one.
    pub fn absorb(&mut self, other: &PredictionError) {
        self.samples += other.samples;
        self.sum_abs_error += other.sum_abs_error;
        self.sum_error += other.sum_error;
    }
}

/// The decision-counter registry for one run (or, after merging, for a
/// set of runs). Updated by [`Counters::apply`] on every recorded event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Threads a policy picked from its runqueues to run, counted by the
    /// engine at dispatch (steals of running threads count in
    /// [`idle_steals`](Self::idle_steals)). No ring event records them:
    /// every pick is the start of an execution slice.
    pub picks: u64,
    /// Migrations by cluster direction, indexed by [`ClusterDirection`].
    pub migrations: [u64; 4],
    /// Preemptions by cause, indexed by [`PreemptCause`].
    pub preemptions: [u64; 2],
    /// Label transitions: `label_matrix[from][to]`, indexed by
    /// [`LabelClass`]. Row sums equal relabel events out of that class.
    pub label_matrix: [[u64; 3]; 3],
    /// Slice-sizing predictions issued.
    pub slice_predictions: u64,
    /// Futex wakes delivered.
    pub futex_wakes: u64,
    /// Threads pulled to an idle core from a busy one.
    pub idle_steals: u64,
    /// Cores hot-unplugged by fault injection.
    pub core_offlines: u64,
    /// Cores brought back online by fault injection.
    pub core_onlines: u64,
    /// Throttle (clock-rescale) faults applied.
    pub throttles: u64,
    /// Speedup-model prediction error accumulator.
    pub prediction: PredictionError,
}

impl Counters {
    /// Updates the registry for one event.
    pub fn apply(&mut self, event: &SchedEvent) {
        match *event {
            SchedEvent::Migrate { direction, .. } => {
                self.migrations[direction as usize] += 1;
            }
            SchedEvent::Preempt { cause, .. } => {
                self.preemptions[cause as usize] += 1;
            }
            SchedEvent::Relabel { from, to, .. } => {
                self.label_matrix[from as usize][to as usize] += 1;
            }
            SchedEvent::SlicePredict { .. } => self.slice_predictions += 1,
            SchedEvent::FutexWake { .. } => self.futex_wakes += 1,
            SchedEvent::IdleSteal { .. } => self.idle_steals += 1,
            SchedEvent::CoreOffline { .. } => self.core_offlines += 1,
            SchedEvent::CoreOnline { .. } => self.core_onlines += 1,
            SchedEvent::Throttle { .. } => self.throttles += 1,
        }
    }

    /// Total fault events (hotplug transitions + throttles).
    pub fn total_faults(&self) -> u64 {
        self.core_offlines + self.core_onlines + self.throttles
    }

    /// Total migrations across all directions.
    pub fn total_migrations(&self) -> u64 {
        self.migrations.iter().sum()
    }

    /// Total preemptions across all causes.
    pub fn total_preemptions(&self) -> u64 {
        self.preemptions.iter().sum()
    }

    /// Total label transitions (sum of the whole matrix).
    pub fn total_relabels(&self) -> u64 {
        self.label_matrix.iter().flatten().sum()
    }

    /// Folds another registry into this one.
    pub fn absorb(&mut self, other: &Counters) {
        self.picks += other.picks;
        for (a, b) in self.migrations.iter_mut().zip(other.migrations.iter()) {
            *a += b;
        }
        for (a, b) in self.preemptions.iter_mut().zip(other.preemptions.iter()) {
            *a += b;
        }
        for (row_a, row_b) in self.label_matrix.iter_mut().zip(other.label_matrix.iter()) {
            for (a, b) in row_a.iter_mut().zip(row_b.iter()) {
                *a += b;
            }
        }
        self.slice_predictions += other.slice_predictions;
        self.futex_wakes += other.futex_wakes;
        self.idle_steals += other.idle_steals;
        self.core_offlines += other.core_offlines;
        self.core_onlines += other.core_onlines;
        self.throttles += other.throttles;
        self.prediction.absorb(&other.prediction);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_types::{CoreId, SimDuration, ThreadId};

    #[test]
    fn direction_classification() {
        assert_eq!(
            ClusterDirection::from_kinds(CoreKind::Little, CoreKind::Big),
            ClusterDirection::LittleToBig
        );
    }

    #[test]
    fn apply_routes_every_event_kind() {
        let mut c = Counters::default();
        let t = ThreadId(0);
        c.apply(&SchedEvent::Migrate {
            thread: t,
            from: CoreId(0),
            to: CoreId(1),
            direction: ClusterDirection::BigToLittle,
        });
        c.apply(&SchedEvent::Preempt {
            victim: t,
            cause: PreemptCause::Wakeup,
        });
        c.apply(&SchedEvent::Relabel {
            thread: t,
            from: LabelClass::Flexible,
            to: LabelClass::HighSpeedup,
        });
        c.apply(&SchedEvent::SlicePredict {
            thread: t,
            predicted_speedup: 1.8,
            slice: SimDuration::from_micros(250),
        });
        c.apply(&SchedEvent::FutexWake {
            waker: t,
            woken: ThreadId(1),
            blocked: SimDuration::ZERO,
        });
        c.apply(&SchedEvent::IdleSteal {
            thread: t,
            from: CoreId(0),
        });
        c.apply(&SchedEvent::CoreOffline { core: CoreId(1) });
        c.apply(&SchedEvent::CoreOnline { core: CoreId(1) });
        c.apply(&SchedEvent::Throttle {
            core: CoreId(0),
            factor: 0.5,
        });

        assert_eq!(c.total_migrations(), 1);
        assert_eq!(c.total_preemptions(), 1);
        assert_eq!(c.total_relabels(), 1);
        assert_eq!(c.label_matrix[2][0], 1);
        assert_eq!(c.slice_predictions, 1);
        assert_eq!(c.futex_wakes, 1);
        assert_eq!(c.idle_steals, 1);
        assert_eq!(c.core_offlines, 1);
        assert_eq!(c.core_onlines, 1);
        assert_eq!(c.throttles, 1);
        assert_eq!(c.total_faults(), 3);
    }

    #[test]
    fn absorb_is_elementwise_addition() {
        let mut a = Counters::default();
        let mut b = Counters::default();
        a.migrations[0] = 2;
        b.migrations[0] = 3;
        b.label_matrix[1][2] = 4;
        b.prediction.observe(2.0, 1.0);
        a.absorb(&b);
        assert_eq!(a.migrations[0], 5);
        assert_eq!(a.label_matrix[1][2], 4);
        assert_eq!(a.prediction.samples, 1);
    }
}
