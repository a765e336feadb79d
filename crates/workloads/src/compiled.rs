//! Segment-compiled thread programs.
//!
//! [`Cursor`](crate::Cursor) re-interprets the op tree on every action: each `next` call
//! re-resolves the loop chain (`list_at`) to yield one leaf. This module
//! lowers a [`Program`] once, at load time, into a flat immutable segment
//! stream:
//!
//! * every leaf op becomes one [`Segment::Action`];
//! * every loop that runs more than once compiles its body once and
//!   replays it through a backward-jump [`Segment::Repeat`], keeping the
//!   compiled form proportional to the source tree, not to the flat
//!   action count; single-pass loops emit only their body, and loops
//!   that yield nothing emit nothing.
//!
//! [`SegPos`] is the compiled-stream analogue of [`Cursor`](crate::Cursor): a resumable
//! position the simulator stores per thread. [`CompiledProgram::next`]
//! yields exactly the same [`Action`] sequence `Cursor::next` would — a
//! property pinned by the unit tests here and the randomized differential
//! test in `tests/compiled_differential.rs`.

use std::sync::Arc;

use amp_perf::ExecutionProfile;
use amp_types::{Result, SimDuration};

use crate::program::{Action, Op, Program};
use crate::spec::{AppSpec, Scale, WorkloadSpec};

/// One element of the compiled stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// A leaf op, yielded as is.
    Action(Action),
    /// Backward jump: replay segments `[body_start, self)` `count` times
    /// total.
    Repeat {
        /// First segment of the loop body.
        body_start: u32,
        /// Total iterations (≥ 2; single-pass loops emit only the body).
        count: u32,
    },
}

/// A resumable position in a compiled stream — the compiled analogue of
/// [`Cursor`](crate::Cursor). Holds no reference to the program; pass the *same*
/// [`CompiledProgram`] to every call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegPos {
    /// Current segment index.
    seg: u32,
    /// Active `Repeat` frames: `(segment index, jumps remaining)`.
    stack: Vec<(u32, u32)>,
}

impl SegPos {
    /// A position before the first action.
    pub fn new() -> SegPos {
        SegPos::default()
    }
}

/// A [`Program`] lowered to a flat segment stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    segments: Vec<Segment>,
    total_compute: SimDuration,
    flat_len: u64,
}

impl CompiledProgram {
    /// Lowers `program`.
    pub fn compile(program: &Program) -> CompiledProgram {
        let mut segments = Vec::new();
        emit_ops(&mut segments, program.ops());
        CompiledProgram {
            segments,
            total_compute: program.total_compute(),
            flat_len: program.flat_len(),
        }
    }

    /// The segment stream.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total big-core compute, loops expanded (copied from the source
    /// program's cached value).
    pub fn total_compute(&self) -> SimDuration {
        self.total_compute
    }

    /// Flat action count (copied from the source program's cached value).
    pub fn flat_len(&self) -> u64 {
        self.flat_len
    }

    /// Whether `pos` has consumed the whole stream.
    pub fn is_finished(&self, pos: &SegPos) -> bool {
        pos.seg as usize >= self.segments.len()
    }

    /// Yields the next flat action, or `None` at the end. Produces exactly
    /// the sequence [`Cursor::next`](crate::Cursor::next) yields for the source program.
    pub fn next(&self, pos: &mut SegPos) -> Option<Action> {
        loop {
            match self.segments.get(pos.seg as usize)? {
                Segment::Action(a) => {
                    pos.seg += 1;
                    return Some(*a);
                }
                Segment::Repeat { body_start, count } => {
                    let here = pos.seg;
                    if pos.stack.last().map(|f| f.0) != Some(here) {
                        // First arrival: `count - 1` jumps remain.
                        pos.stack.push((here, count - 1));
                    }
                    let top = pos.stack.last_mut().expect("frame pushed above");
                    if top.1 > 0 {
                        top.1 -= 1;
                        pos.seg = *body_start;
                    } else {
                        pos.stack.pop();
                        pos.seg += 1;
                    }
                }
            }
        }
    }
}

fn emit_ops(segments: &mut Vec<Segment>, ops: &[Op]) {
    for op in ops {
        let action = match op {
            Op::Compute(d) => Action::Compute(*d),
            Op::Lock(l) => Action::Lock(*l),
            Op::Unlock(l) => Action::Unlock(*l),
            Op::Barrier(b) => Action::Barrier(*b),
            Op::Push(ch) => Action::Push(*ch),
            Op::Pop(ch) => Action::Pop(*ch),
            Op::SetProfile(p) => Action::SetProfile(*p),
            Op::Loop { count, body } => {
                emit_loop(segments, *count, body);
                continue;
            }
        };
        segments.push(Segment::Action(action));
    }
}

/// Compiles the body once, then a backward jump for the further passes.
fn emit_loop(segments: &mut Vec<Segment>, count: u32, body: &[Op]) {
    if count == 0 || !produces_actions(body) {
        return; // Cursor yields nothing for these.
    }
    let body_start = segments.len() as u32;
    emit_ops(segments, body);
    if count > 1 {
        segments.push(Segment::Repeat { body_start, count });
    }
}

/// Whether the op list yields at least one action when walked.
fn produces_actions(ops: &[Op]) -> bool {
    ops.iter().any(|op| match op {
        Op::Loop { count, body } => *count > 0 && produces_actions(body),
        _ => true,
    })
}

/// One thread of a compiled application.
#[derive(Debug, Clone)]
pub struct CompiledThread {
    /// Human-readable role, from [`ThreadSpec::name`](crate::ThreadSpec).
    pub name: String,
    /// Initial execution profile.
    pub profile: ExecutionProfile,
    /// The compiled behaviour, shared across simulations.
    pub program: Arc<CompiledProgram>,
}

/// A validated, compiled application: the load-time form the simulator
/// executes. Compiling runs [`AppSpec::validate`] first, so a
/// `CompiledApp` is structurally sound by construction.
#[derive(Debug, Clone)]
pub struct CompiledApp {
    /// Application name.
    pub name: String,
    /// Compiled threads, index order = app-local thread index.
    pub threads: Vec<CompiledThread>,
    /// Number of app-local locks.
    pub num_locks: u32,
    /// Parties per app-local barrier.
    pub barrier_parties: Vec<u32>,
    /// Capacity per app-local channel.
    pub channel_capacities: Vec<u32>,
}

impl CompiledApp {
    /// Validates and compiles an application spec.
    ///
    /// # Errors
    ///
    /// Propagates [`AppSpec::validate`] failures.
    pub fn compile(spec: &AppSpec) -> Result<CompiledApp> {
        spec.validate()?;
        Ok(CompiledApp {
            name: spec.name.clone(),
            threads: spec
                .threads
                .iter()
                .map(|t| CompiledThread {
                    name: t.name.clone(),
                    profile: t.profile,
                    program: Arc::new(CompiledProgram::compile(&t.program)),
                })
                .collect(),
            num_locks: spec.num_locks,
            barrier_parties: spec.barrier_parties.clone(),
            channel_capacities: spec.channel_capacities.clone(),
        })
    }

    /// Compiles every app of `specs`, `Arc`-wrapped for sharing — the
    /// form `Simulation::from_compiled_with_params` loads.
    ///
    /// # Errors
    ///
    /// Propagates the first [`AppSpec::validate`] failure.
    pub fn compile_all(specs: &[AppSpec]) -> Result<Vec<Arc<CompiledApp>>> {
        specs
            .iter()
            .map(|app| CompiledApp::compile(app).map(Arc::new))
            .collect()
    }
}

/// A fully compiled workload instantiation: what the harness interns and
/// shares (via `Arc`) across every sweep cell that replays the same
/// `(workload, seed, scale)` triple.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    name: String,
    apps: Vec<Arc<CompiledApp>>,
}

impl CompiledWorkload {
    /// Instantiates `spec` at `(seed, scale)` and compiles every app.
    ///
    /// # Errors
    ///
    /// Propagates app validation failures.
    pub fn compile(spec: &WorkloadSpec, seed: u64, scale: Scale) -> Result<CompiledWorkload> {
        Ok(CompiledWorkload {
            name: spec.name().to_string(),
            apps: CompiledApp::compile_all(&spec.instantiate(seed, scale))?,
        })
    }

    /// The workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled applications.
    pub fn apps(&self) -> &[Arc<CompiledApp>] {
        &self.apps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Cursor;
    use amp_types::{BarrierId, LockId};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn cursor_drain(p: &Program) -> Vec<Action> {
        let mut cursor = Cursor::new();
        let mut out = Vec::new();
        while let Some(a) = cursor.next(p) {
            out.push(a);
            assert!(out.len() < 1_000_000, "runaway cursor");
        }
        out
    }

    fn compiled_drain(c: &CompiledProgram) -> Vec<Action> {
        let mut pos = SegPos::new();
        let mut out = Vec::new();
        while let Some(a) = c.next(&mut pos) {
            out.push(a);
            assert!(out.len() < 1_000_000, "runaway stream");
        }
        assert!(c.is_finished(&pos));
        out
    }

    fn assert_equivalent(p: &Program) {
        let c = CompiledProgram::compile(p);
        assert_eq!(compiled_drain(&c), cursor_drain(p), "program {p:?}");
    }

    #[test]
    fn empty_program_compiles_to_nothing() {
        let p = Program::new(vec![]);
        let c = CompiledProgram::compile(&p);
        assert!(c.segments().is_empty());
        assert_equivalent(&p);
    }

    #[test]
    fn compute_structures_compile_equivalently() {
        let p2 = ExecutionProfile::new(0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9);
        let cases = [
            // Adjacent computes.
            vec![Op::Compute(us(1)), Op::Compute(us(2)), Op::Compute(us(3))],
            // An all-compute loop.
            vec![Op::Loop {
                count: 50,
                body: vec![Op::Compute(us(1)), Op::Compute(us(2))],
            }],
            // Nested all-compute loops.
            vec![Op::Loop {
                count: 3,
                body: vec![
                    Op::Loop {
                        count: 4,
                        body: vec![Op::Compute(us(2))],
                    },
                    Op::Compute(us(7)),
                ],
            }],
            // Computes around a single-pass loop.
            vec![
                Op::Compute(us(1)),
                Op::Loop {
                    count: 1,
                    body: vec![Op::Compute(us(2))],
                },
                Op::Compute(us(3)),
            ],
            // A multiplicative nest.
            vec![Op::Loop {
                count: 100,
                body: vec![Op::Loop {
                    count: 100,
                    body: vec![Op::Compute(us(1))],
                }],
            }],
            // A large inner pass.
            vec![Op::Loop {
                count: 3,
                body: vec![Op::Loop {
                    count: 5000,
                    body: vec![Op::Compute(us(1))],
                }],
            }],
            // A profile switch between computes.
            vec![Op::Compute(us(1)), Op::SetProfile(p2), Op::Compute(us(2))],
        ];
        for ops in cases {
            assert_equivalent(&Program::new(ops));
        }
    }

    #[test]
    fn nested_loops_compile_to_bounded_size() {
        // 10^6 flat leaves, but the compiled form stays proportional to
        // the source tree: one leaf and two backward jumps.
        let p = Program::new(vec![Op::Loop {
            count: 1000,
            body: vec![Op::Loop {
                count: 1000,
                body: vec![Op::Compute(us(1))],
            }],
        }]);
        let c = CompiledProgram::compile(&p);
        assert!(c.segments().len() <= 3, "{:?}", c.segments());
        assert_eq!(c.flat_len(), 1_000_000);
    }

    #[test]
    fn blocking_loop_body_compiles_to_repeat() {
        let p = Program::new(vec![Op::Loop {
            count: 3,
            body: vec![Op::Compute(us(1)), Op::Barrier(BarrierId::new(0))],
        }]);
        let c = CompiledProgram::compile(&p);
        assert!(c
            .segments()
            .iter()
            .any(|s| matches!(s, Segment::Repeat { count: 3, .. })));
        assert_equivalent(&p);
    }

    #[test]
    fn single_pass_blocking_loop_emits_no_repeat() {
        let p = Program::new(vec![Op::Loop {
            count: 1,
            body: vec![Op::Compute(us(1)), Op::Barrier(BarrierId::new(0))],
        }]);
        let c = CompiledProgram::compile(&p);
        assert!(!c
            .segments()
            .iter()
            .any(|s| matches!(s, Segment::Repeat { .. })));
        assert_equivalent(&p);
    }

    #[test]
    fn zero_count_and_actionless_loops_disappear() {
        let p = Program::new(vec![
            Op::Loop {
                count: 0,
                body: vec![Op::Compute(us(1))],
            },
            Op::Loop {
                count: 9,
                body: vec![],
            },
            Op::Loop {
                count: 5,
                body: vec![Op::Loop {
                    count: 0,
                    body: vec![Op::Barrier(BarrierId::new(0))],
                }],
            },
            Op::Compute(us(7)),
        ]);
        let c = CompiledProgram::compile(&p);
        assert_eq!(c.segments().len(), 1);
        assert_equivalent(&p);
    }

    #[test]
    fn nested_blocking_loops_replay_correctly() {
        let p = Program::new(vec![Op::Loop {
            count: 2,
            body: vec![
                Op::Compute(us(1)),
                Op::Loop {
                    count: 3,
                    body: vec![
                        Op::Lock(LockId::new(0)),
                        Op::Compute(us(2)),
                        Op::Unlock(LockId::new(0)),
                    ],
                },
                Op::Compute(us(4)),
            ],
        }]);
        assert_equivalent(&p);
    }

    #[test]
    fn benchmark_programs_compile_equivalently() {
        use crate::{BenchmarkId, Scale, WorkloadSpec};
        for id in BenchmarkId::ALL {
            let spec = WorkloadSpec::single(id, 4);
            for app in spec.instantiate(11, Scale::quick()) {
                for t in &app.threads {
                    assert_equivalent(&t.program);
                }
            }
        }
    }

    #[test]
    fn compiled_workload_shares_programs_via_arc() {
        use crate::{BenchmarkId, Scale, WorkloadSpec};
        let spec = WorkloadSpec::single(BenchmarkId::Ferret, 4);
        let w = CompiledWorkload::compile(&spec, 3, Scale::quick()).unwrap();
        assert_eq!(w.apps().len(), 1);
        assert!(!w.apps()[0].threads.is_empty());
        assert_eq!(w.name(), spec.name());
    }
}
