//! Execution tracing.
//!
//! When enabled ([`SimParams::trace_capacity`](crate::SimParams) > 0) the
//! engine records one [`TraceEvent`] per stint — a thread's run on a core
//! from dispatch to stop — into a bounded [`Trace`], written once when
//! the stint ends. The slices show which core ran which thread when, and
//! why each run stopped; [`Trace::gantt`] renders them as a per-core text
//! timeline.

use std::fmt::Write as _;

use amp_types::{CoreId, MachineConfig, SimTime, ThreadId};

use crate::sched::StopReason;

/// One closed execution slice: `thread` ran on `core` from `from` (its
/// dispatch) to `to`, then stopped for `reason`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The core.
    pub core: CoreId,
    /// The thread.
    pub thread: ThreadId,
    /// When the thread was dispatched (switch overhead included).
    pub from: SimTime,
    /// When it stopped.
    pub to: SimTime,
    /// Why it stopped.
    pub reason: StopReason,
}

/// A bounded execution trace. Recording stops (and `dropped` counts)
/// once `capacity` slices have been stored, so long runs stay cheap.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A trace able to hold `capacity` slices (0 disables recording).
    pub fn with_capacity(capacity: usize) -> Trace {
        Trace {
            // Grown on demand, like the telemetry ring: reserving the
            // whole capacity up front maps fresh pages on every traced run.
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    pub(crate) fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else if self.capacity > 0 {
            self.dropped += 1;
        }
    }

    /// The recorded slices, in the order their stints ended.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Slices that did not fit in the capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders a per-core text timeline: `width` character columns over
    /// `[0, horizon]`, one row per core, one letter per recorded slice's
    /// thread (`A` = thread 0, wrapping after `Z`), `.` for idle. Later
    /// slices paint over earlier ones that share a column.
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
            ((t.as_nanos() as u128 * width as u128 / horizon.as_nanos().max(1) as u128) as usize)
                .min(width - 1)
        };
        for slice in &self.events {
            let glyph = b'A' + (slice.thread.index() % 26) as u8;
            let row = slice.core.index() * width;
            grid[row + col_of(slice.from)..=row + col_of(slice.to)].fill(glyph);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn slice(core: u32, thread: u32, from: u64, to: u64) -> TraceEvent {
        TraceEvent {
            core: CoreId::new(core),
            thread: ThreadId::new(thread),
            from: ms(from),
            to: ms(to),
            reason: StopReason::Finished,
        }
    }

    #[test]
    fn capacity_bounds_recording() {
        let mut trace = Trace::with_capacity(2);
        for i in 0..5 {
            trace.record(slice(0, 0, i, i + 1));
        }
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped(), 3);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut trace = Trace::with_capacity(0);
        trace.record(slice(0, 0, 0, 1));
        assert!(trace.events().is_empty());
        assert_eq!(trace.dropped(), 0, "disabled traces do not count drops");
    }

    #[test]
    fn gantt_paints_each_slice() {
        let machine = MachineConfig::asymmetric(1, 1, amp_types::CoreOrder::BigFirst);
        let mut trace = Trace::with_capacity(16);
        trace.record(slice(0, 0, 0, 5));
        trace.record(slice(1, 1, 5, 8));
        let art = trace.gantt(&machine, ms(10), 10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].ends_with("AAAAAA...."),
            "core 0 ran thread A: {}",
            lines[0]
        );
        assert!(
            lines[1].ends_with(".....BBBB."),
            "core 1 ran thread B: {}",
            lines[1]
        );
    }
}
