//! Execution tracing.
//!
//! When enabled ([`SimParams::trace_capacity`](crate::SimParams) > 0) the
//! engine records scheduling events — dispatches, stops, wakeups, ticks —
//! into a bounded [`Trace`]. The trace explains *why* an outcome looks the
//! way it does: which core ran which thread when, who preempted whom, and
//! where threads waited. [`Trace::gantt`] renders a per-core text
//! timeline.

use std::fmt::{self, Write as _};

use amp_types::{CoreId, MachineConfig, SimTime, ThreadId};

use crate::sched::StopReason;

/// One recorded scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `thread` started running on `core` (after switch overhead).
    Dispatch {
        /// Event time.
        at: SimTime,
        /// The core.
        core: CoreId,
        /// The thread.
        thread: ThreadId,
    },
    /// `thread` stopped running on `core`.
    Stop {
        /// Event time.
        at: SimTime,
        /// The core.
        core: CoreId,
        /// The thread.
        thread: ThreadId,
        /// Why it stopped.
        reason: StopReason,
    },
    /// `waker` released `woken` from a futex wait.
    Wake {
        /// Event time.
        at: SimTime,
        /// The thread that performed the wake.
        waker: ThreadId,
        /// The released thread.
        woken: ThreadId,
    },
    /// A periodic scheduler tick fired.
    Tick {
        /// Event time.
        at: SimTime,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Dispatch { at, .. }
            | TraceEvent::Stop { at, .. }
            | TraceEvent::Wake { at, .. }
            | TraceEvent::Tick { at } => at,
        }
    }
}

/// A bounded scheduling trace. Recording stops (and `dropped` counts)
/// once `capacity` events have been stored, so long runs stay cheap.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A trace able to hold `capacity` events (0 disables recording).
    pub fn with_capacity(capacity: usize) -> Trace {
        Trace {
            // Grown on demand, like the telemetry ring: reserving the
            // whole capacity up front maps fresh pages on every traced run.
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Whether recording is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    pub(crate) fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else if self.capacity > 0 {
            self.dropped += 1;
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that did not fit in the capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders a per-core text timeline: `width` character columns over
    /// `[0, horizon]`, one row per core, one letter per running thread
    /// (`A` = thread 0, wrapping after `Z`), `.` for idle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `horizon` is the zero instant.
    pub fn gantt(&self, machine: &MachineConfig, horizon: SimTime, width: usize) -> String {
        assert!(width > 0, "gantt needs at least one column");
        assert!(horizon > SimTime::ZERO, "gantt needs a positive horizon");
        let cores = machine.num_cores();
        // One row of ASCII glyphs per core, back to back.
        let mut grid = vec![b'.'; cores * width];
        let col_of = |t: SimTime| -> usize {
            ((t.as_nanos() as u128 * width as u128 / horizon.as_nanos().max(1) as u128)
                as usize)
                .min(width - 1)
        };
        // Pair dispatches with the next stop of the same core.
        let mut open: Vec<Option<(SimTime, ThreadId)>> = vec![None; cores];
        let mut paint = |core: CoreId, from: SimTime, to: SimTime, thread: ThreadId| {
            let glyph = b'A' + (thread.index() % 26) as u8;
            let row = core.index() * width;
            grid[row + col_of(from)..=row + col_of(to)].fill(glyph);
        };
        for event in &self.events {
            match *event {
                TraceEvent::Dispatch { at, core, thread } => {
                    open[core.index()] = Some((at, thread));
                }
                TraceEvent::Stop { at, core, thread, .. } => {
                    if let Some((from, t)) = open[core.index()].take() {
                        debug_assert_eq!(t, thread, "stop must match open dispatch");
                        paint(core, from, at, thread);
                    }
                }
                _ => {}
            }
        }
        // Threads still running at the horizon.
        for (ci, entry) in open.iter().enumerate() {
            if let Some((from, thread)) = *entry {
                paint(CoreId::new(ci as u32), from, horizon, thread);
            }
        }

        let mut out = String::with_capacity(cores * (width + 24));
        for (id, spec) in machine.iter() {
            let row = &grid[id.index() * width..][..width];
            let _ = write!(out, "{id} [{:>6}] ", spec.kind.to_string());
            out.push_str(std::str::from_utf8(row).expect("glyphs are ASCII"));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events ({} dropped)",
            self.events.len(),
            self.dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn capacity_bounds_recording() {
        let mut trace = Trace::with_capacity(2);
        for i in 0..5 {
            trace.record(TraceEvent::Tick { at: ms(i) });
        }
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped(), 3);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut trace = Trace::with_capacity(0);
        trace.record(TraceEvent::Tick { at: ms(1) });
        assert!(!trace.is_enabled());
        assert!(trace.events().is_empty());
        assert_eq!(trace.dropped(), 0, "disabled traces do not count drops");
    }

    #[test]
    fn gantt_paints_dispatch_stop_pairs() {
        let machine = MachineConfig::asymmetric(1, 1, amp_types::CoreOrder::BigFirst);
        let mut trace = Trace::with_capacity(16);
        trace.record(TraceEvent::Dispatch {
            at: ms(0),
            core: CoreId::new(0),
            thread: ThreadId::new(0),
        });
        trace.record(TraceEvent::Stop {
            at: ms(5),
            core: CoreId::new(0),
            thread: ThreadId::new(0),
            reason: StopReason::Finished,
        });
        trace.record(TraceEvent::Dispatch {
            at: ms(5),
            core: CoreId::new(1),
            thread: ThreadId::new(1),
        });
        let art = trace.gantt(&machine, ms(10), 10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("AAAA"), "core 0 ran thread A: {}", lines[0]);
        assert!(lines[1].contains("BBBB"), "open dispatch painted: {}", lines[1]);
        assert!(lines[1].contains('.'), "idle prefix painted: {}", lines[1]);
    }

    #[test]
    fn event_times_accessible() {
        let e = TraceEvent::Wake {
            at: ms(3),
            waker: ThreadId::new(0),
            woken: ThreadId::new(1),
        };
        assert_eq!(e.at(), ms(3));
    }
}
