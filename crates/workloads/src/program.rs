//! Thread behaviour programs.
//!
//! Each simulated thread executes a [`Program`]: a tree of [`Op`]s where
//! leaves are compute segments or synchronization actions and interior
//! nodes are counted loops. A [`Cursor`] walks the tree and yields the flat
//! [`Action`] stream the simulator consumes, without ever materializing the
//! (potentially huge) unrolled sequence.

use amp_perf::ExecutionProfile;
use amp_types::{BarrierId, ChannelId, LockId, SimDuration};

/// One node of a behaviour program.
///
/// Synchronization ids (`LockId`, `BarrierId`, `ChannelId`) are *app-local*:
/// the simulator remaps them to the global [`amp_futex::SyncObjects`]
/// namespace when a workload is loaded.
///
/// [`amp_futex::SyncObjects`]: https://docs.rs/amp-futex
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Execute for this long on a big core (little cores take
    /// `speedup×` longer, per the thread's execution profile).
    Compute(SimDuration),
    /// Acquire an app-local lock (may block).
    Lock(LockId),
    /// Release an app-local lock (never blocks).
    Unlock(LockId),
    /// Arrive at an app-local barrier (blocks all but the last arriver).
    Barrier(BarrierId),
    /// Push one item into an app-local channel (blocks when full).
    Push(ChannelId),
    /// Pop one item from an app-local channel (blocks when empty).
    Pop(ChannelId),
    /// Enter a new execution phase: subsequent compute runs with this
    /// profile (different IPC, speedup, and counter signature). Models the
    /// program phase changes that motivate the paper's periodic 10 ms
    /// re-sampling — a static prediction would go stale here.
    SetProfile(ExecutionProfile),
    /// Repeat `body` `count` times.
    Loop {
        /// Number of iterations.
        count: u32,
        /// Loop body.
        body: Vec<Op>,
    },
}

/// A flat, executable action — what [`Cursor::next`] yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Run for this much big-core time.
    Compute(SimDuration),
    /// Acquire a lock.
    Lock(LockId),
    /// Release a lock.
    Unlock(LockId),
    /// Arrive at a barrier.
    Barrier(BarrierId),
    /// Push into a channel.
    Push(ChannelId),
    /// Pop from a channel.
    Pop(ChannelId),
    /// Switch to a new execution profile (instantaneous).
    SetProfile(ExecutionProfile),
}

/// A complete thread behaviour.
///
/// # Examples
///
/// ```
/// use amp_workloads::{Program, Op, Action, Cursor};
/// use amp_types::{SimDuration, BarrierId};
///
/// let program = Program::new(vec![Op::Loop {
///     count: 2,
///     body: vec![
///         Op::Compute(SimDuration::from_micros(10)),
///         Op::Barrier(BarrierId::new(0)),
///     ],
/// }]);
/// let mut cursor = Cursor::new();
/// let mut actions = Vec::new();
/// while let Some(a) = cursor.next(&program) {
///     actions.push(a);
/// }
/// assert_eq!(actions.len(), 4);
/// assert_eq!(actions[1], Action::Barrier(BarrierId::new(0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    ops: Vec<Op>,
    /// Cached [`total_compute`](Program::total_compute); the op tree is
    /// immutable after construction, so one walk at build time serves
    /// every harness/report query.
    total_compute: SimDuration,
    /// Cached [`flat_len`](Program::flat_len).
    flat_len: u64,
}

impl Program {
    /// Wraps a top-level op list.
    pub fn new(ops: Vec<Op>) -> Program {
        fn walk(ops: &[Op]) -> (SimDuration, u64) {
            let mut compute = SimDuration::ZERO;
            let mut len = 0u64;
            for op in ops {
                match op {
                    Op::Compute(d) => {
                        compute += *d;
                        len += 1;
                    }
                    Op::Loop { count, body } => {
                        let (c, l) = walk(body);
                        compute += c * u64::from(*count);
                        len += l * u64::from(*count);
                    }
                    _ => len += 1,
                }
            }
            (compute, len)
        }
        let (total_compute, flat_len) = walk(&ops);
        Program {
            ops,
            total_compute,
            flat_len,
        }
    }

    /// The top-level ops.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Total big-core compute time, loops expanded. Precomputed at
    /// construction; O(1).
    pub fn total_compute(&self) -> SimDuration {
        self.total_compute
    }

    /// Number of flat actions the program expands to. Precomputed at
    /// construction; O(1).
    pub fn flat_len(&self) -> u64 {
        self.flat_len
    }

    /// Counts flat occurrences of each action category:
    /// `(computes, locks, unlocks, barriers, pushes, pops)`.
    pub fn action_census(&self) -> (u64, u64, u64, u64, u64, u64) {
        fn walk(ops: &[Op], acc: &mut (u64, u64, u64, u64, u64, u64), mult: u64) {
            for op in ops {
                match op {
                    Op::Compute(_) => acc.0 += mult,
                    Op::Lock(_) => acc.1 += mult,
                    Op::Unlock(_) => acc.2 += mult,
                    Op::Barrier(_) => acc.3 += mult,
                    Op::Push(_) => acc.4 += mult,
                    Op::Pop(_) => acc.5 += mult,
                    Op::SetProfile(_) => {}
                    Op::Loop { count, body } => walk(body, acc, mult * u64::from(*count)),
                }
            }
        }
        let mut acc = (0, 0, 0, 0, 0, 0);
        walk(&self.ops, &mut acc, 1);
        acc
    }

    /// Validates structural sanity: every `Lock` is followed (within the
    /// same nesting level) by a matching `Unlock` before the level ends,
    /// and no `Unlock` appears without a preceding `Lock`.
    ///
    /// Returns a description of the first violation, or `Ok(())`.
    pub fn check_lock_discipline(&self) -> Result<(), String> {
        fn walk(ops: &[Op]) -> Result<(), String> {
            let mut held: Vec<LockId> = Vec::new();
            for op in ops {
                match op {
                    Op::Lock(l) => {
                        if held.contains(l) {
                            return Err(format!("{l} acquired while already held"));
                        }
                        held.push(*l);
                    }
                    Op::Unlock(l) => match held.pop() {
                        Some(top) if top == *l => {}
                        Some(top) => return Err(format!("unlock of {l} but {top} is innermost")),
                        None => return Err(format!("unlock of {l} with no lock held")),
                    },
                    Op::Barrier(_) | Op::Push(_) | Op::Pop(_) => {
                        if let Some(l) = held.first() {
                            return Err(format!("blocking op while holding {l}"));
                        }
                    }
                    Op::Loop { body, .. } => {
                        if !held.is_empty() {
                            return Err("loop entered while holding a lock".into());
                        }
                        walk(body)?;
                    }
                    Op::Compute(_) | Op::SetProfile(_) => {}
                }
            }
            if let Some(l) = held.first() {
                return Err(format!("{l} still held at end of scope"));
            }
            Ok(())
        }
        walk(&self.ops)
    }
}

impl Default for Program {
    fn default() -> Self {
        Program::new(Vec::new())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    /// Index of the next op in this frame's list.
    index: usize,
    /// Remaining iterations (loop frames; unused for the root).
    remaining: u32,
}

/// A resumable walk over a [`Program`]'s flat action stream.
///
/// The cursor holds no reference to the program, so the simulator can store
/// it alongside the thread state; pass the *same* program to every
/// [`next`](Cursor::next) call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cursor {
    /// `stack[0]` is the root frame; deeper frames are nested loops.
    stack: Vec<Frame>,
    started: bool,
}

impl Cursor {
    /// A cursor positioned before the first action.
    pub fn new() -> Cursor {
        Cursor {
            stack: Vec::new(),
            started: false,
        }
    }

    /// Whether the program has been fully consumed.
    pub fn is_finished(&self) -> bool {
        self.started && self.stack.is_empty()
    }

    /// Yields the next flat action, or `None` when the program ends.
    ///
    /// # Panics
    ///
    /// May panic or misbehave if called with a different program than
    /// previous calls.
    pub fn next(&mut self, program: &Program) -> Option<Action> {
        if !self.started {
            self.started = true;
            self.stack.push(Frame {
                index: 0,
                remaining: 1,
            });
        }
        loop {
            let depth = self.stack.len();
            if depth == 0 {
                return None;
            }
            let list = Self::list_at(program, &self.stack);
            let frame = self.stack.last_mut().expect("depth checked above");
            if frame.index >= list.len() {
                // End of this op list: loop back or pop out.
                frame.remaining -= 1;
                if frame.remaining > 0 {
                    frame.index = 0;
                    continue;
                }
                self.stack.pop();
                if let Some(parent) = self.stack.last_mut() {
                    parent.index += 1;
                }
                continue;
            }
            match &list[frame.index] {
                Op::Loop { count, body } => {
                    if *count == 0 || body.is_empty() {
                        frame.index += 1;
                        continue;
                    }
                    let count = *count;
                    self.stack.push(Frame {
                        index: 0,
                        remaining: count,
                    });
                }
                leaf => {
                    let action = match leaf {
                        Op::Compute(d) => Action::Compute(*d),
                        Op::Lock(l) => Action::Lock(*l),
                        Op::Unlock(l) => Action::Unlock(*l),
                        Op::Barrier(b) => Action::Barrier(*b),
                        Op::Push(c) => Action::Push(*c),
                        Op::Pop(c) => Action::Pop(*c),
                        Op::SetProfile(p) => Action::SetProfile(*p),
                        Op::Loop { .. } => unreachable!("loops handled above"),
                    };
                    frame.index += 1;
                    return Some(action);
                }
            }
        }
    }

    /// Resolves the op list the top frame walks, following the loop chain.
    fn list_at<'p>(program: &'p Program, stack: &[Frame]) -> &'p [Op] {
        let mut list: &[Op] = program.ops();
        for frame in &stack[..stack.len() - 1] {
            match &list[frame.index] {
                Op::Loop { body, .. } => list = body,
                other => unreachable!("interior frame must point at a loop, found {other:?}"),
            }
        }
        list
    }
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn drain(program: &Program) -> Vec<Action> {
        let mut cursor = Cursor::new();
        let mut out = Vec::new();
        while let Some(a) = cursor.next(program) {
            out.push(a);
            assert!(out.len() < 100_000, "runaway cursor");
        }
        assert!(cursor.is_finished());
        out
    }

    #[test]
    fn empty_program_yields_nothing() {
        let p = Program::new(vec![]);
        assert_eq!(drain(&p), vec![]);
        assert_eq!(p.flat_len(), 0);
        assert_eq!(p.total_compute(), SimDuration::ZERO);
    }

    #[test]
    fn straight_line_sequence() {
        let p = Program::new(vec![
            Op::Compute(us(5)),
            Op::Lock(LockId::new(0)),
            Op::Unlock(LockId::new(0)),
        ]);
        assert_eq!(
            drain(&p),
            vec![
                Action::Compute(us(5)),
                Action::Lock(LockId::new(0)),
                Action::Unlock(LockId::new(0)),
            ]
        );
    }

    #[test]
    fn loops_repeat_their_bodies() {
        let p = Program::new(vec![Op::Loop {
            count: 3,
            body: vec![Op::Compute(us(1)), Op::Barrier(BarrierId::new(0))],
        }]);
        let actions = drain(&p);
        assert_eq!(actions.len(), 6);
        assert_eq!(p.flat_len(), 6);
        assert_eq!(p.total_compute(), us(3));
    }

    #[test]
    fn nested_loops_multiply() {
        let p = Program::new(vec![Op::Loop {
            count: 4,
            body: vec![
                Op::Loop {
                    count: 5,
                    body: vec![Op::Compute(us(2))],
                },
                Op::Push(ChannelId::new(1)),
            ],
        }]);
        let actions = drain(&p);
        assert_eq!(actions.len(), 4 * 5 + 4);
        assert_eq!(p.total_compute(), us(40));
        let census = p.action_census();
        assert_eq!(census.0, 20);
        assert_eq!(census.4, 4);
    }

    #[test]
    fn zero_count_and_empty_loops_are_skipped() {
        let p = Program::new(vec![
            Op::Loop {
                count: 0,
                body: vec![Op::Compute(us(1))],
            },
            Op::Loop {
                count: 9,
                body: vec![],
            },
            Op::Compute(us(7)),
        ]);
        assert_eq!(drain(&p), vec![Action::Compute(us(7))]);
    }

    #[test]
    fn cursor_is_resumable() {
        let p = Program::new(vec![Op::Loop {
            count: 2,
            body: vec![Op::Compute(us(1)), Op::Compute(us(2))],
        }]);
        let mut cursor = Cursor::new();
        assert_eq!(cursor.next(&p), Some(Action::Compute(us(1))));
        let saved = cursor.clone();
        assert_eq!(cursor.next(&p), Some(Action::Compute(us(2))));
        let mut resumed = saved;
        assert_eq!(resumed.next(&p), Some(Action::Compute(us(2))));
    }

    #[test]
    fn lock_discipline_accepts_proper_nesting() {
        let p = Program::new(vec![Op::Loop {
            count: 2,
            body: vec![
                Op::Compute(us(1)),
                Op::Lock(LockId::new(3)),
                Op::Compute(us(1)),
                Op::Unlock(LockId::new(3)),
                Op::Barrier(BarrierId::new(0)),
            ],
        }]);
        assert_eq!(p.check_lock_discipline(), Ok(()));
    }

    #[test]
    fn lock_discipline_rejects_violations() {
        let unbalanced = Program::new(vec![Op::Lock(LockId::new(0))]);
        assert!(unbalanced.check_lock_discipline().is_err());

        let blocking_while_held = Program::new(vec![
            Op::Lock(LockId::new(0)),
            Op::Barrier(BarrierId::new(0)),
            Op::Unlock(LockId::new(0)),
        ]);
        assert!(blocking_while_held.check_lock_discipline().is_err());

        let stray_unlock = Program::new(vec![Op::Unlock(LockId::new(0))]);
        assert!(stray_unlock.check_lock_discipline().is_err());
    }

    #[test]
    fn flat_len_matches_cursor_output_on_deep_nesting() {
        let p = Program::new(vec![Op::Loop {
            count: 3,
            body: vec![Op::Loop {
                count: 3,
                body: vec![Op::Loop {
                    count: 3,
                    body: vec![Op::Compute(us(1))],
                }],
            }],
        }]);
        assert_eq!(drain(&p).len() as u64, p.flat_len());
        assert_eq!(p.flat_len(), 27);
    }
}
