//! A transparent [`Scheduler`] wrapper that times every hook.

use std::cell::Cell;
use std::time::Instant;

use amp_sim::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason};
use amp_types::{CoreId, SimDuration, ThreadId};

/// Hook names, in the index order of [`HookStats`].
pub const HOOKS: [&str; 7] = [
    "enqueue",
    "pick_next",
    "time_slice",
    "should_preempt",
    "on_tick",
    "on_stop",
    "drain_core",
];

const ENQUEUE: usize = 0;
const PICK_NEXT: usize = 1;
const TIME_SLICE: usize = 2;
const SHOULD_PREEMPT: usize = 3;
const ON_TICK: usize = 4;
const ON_STOP: usize = 5;
const DRAIN_CORE: usize = 6;

/// Calls and host time per hook, plus the pick outcomes that are not
/// visible in the simulation outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookStats {
    /// Calls per hook, indexed as [`HOOKS`].
    pub calls: [u64; 7],
    /// Host nanoseconds per hook, indexed as [`HOOKS`].
    pub ns: [u64; 7],
    /// `pick_next` calls that returned [`Pick::Idle`].
    pub idle_picks: u64,
    /// `pick_next` calls that returned [`Pick::StealRunning`].
    pub steal_picks: u64,
}

impl HookStats {
    /// Host time across all hooks.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &HookStats) {
        for i in 0..HOOKS.len() {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
        self.idle_picks += other.idle_picks;
        self.steal_picks += other.steal_picks;
    }
}

/// Per-hook counters behind `Cell`s, because `time_slice` and
/// `should_preempt` take `&self`.
#[derive(Default)]
struct Counters {
    calls: [Cell<u64>; 7],
    ns: [Cell<u64>; 7],
}

fn timed<R>(counters: &Counters, hook: usize, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    counters.calls[hook].set(counters.calls[hook].get() + 1);
    counters.ns[hook].set(counters.ns[hook].get() + elapsed);
    out
}

/// Delegates every hook to the wrapped policy, timing each call. The
/// wrapper makes no decision of its own, so a run under it is identical
/// to a run under the bare policy.
pub struct Timed {
    inner: Box<dyn Scheduler>,
    counters: Counters,
    idle_picks: u64,
    steal_picks: u64,
}

impl Timed {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Scheduler>) -> Timed {
        Timed {
            inner,
            counters: Counters::default(),
            idle_picks: 0,
            steal_picks: 0,
        }
    }

    /// What the hooks cost so far.
    pub fn stats(&self) -> HookStats {
        HookStats {
            calls: std::array::from_fn(|i| self.counters.calls[i].get()),
            ns: std::array::from_fn(|i| self.counters.ns[i].get()),
            idle_picks: self.idle_picks,
            steal_picks: self.steal_picks,
        }
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &SchedCtx<'_>) {
        self.inner.init(ctx);
    }

    fn enqueue(&mut self, ctx: &SchedCtx<'_>, thread: ThreadId, reason: EnqueueReason) -> CoreId {
        let inner = &mut self.inner;
        timed(&self.counters, ENQUEUE, || {
            inner.enqueue(ctx, thread, reason)
        })
    }

    fn pick_next(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Pick {
        let inner = &mut self.inner;
        let pick = timed(&self.counters, PICK_NEXT, || inner.pick_next(ctx, core));
        match pick {
            Pick::Idle => self.idle_picks += 1,
            Pick::StealRunning { .. } => self.steal_picks += 1,
            Pick::Run(_) => {}
        }
        pick
    }

    fn time_slice(&self, ctx: &SchedCtx<'_>, thread: ThreadId, core: CoreId) -> SimDuration {
        timed(&self.counters, TIME_SLICE, || {
            self.inner.time_slice(ctx, thread, core)
        })
    }

    fn should_preempt(
        &self,
        ctx: &SchedCtx<'_>,
        incoming: ThreadId,
        core: CoreId,
        running: ThreadId,
    ) -> bool {
        timed(&self.counters, SHOULD_PREEMPT, || {
            self.inner.should_preempt(ctx, incoming, core, running)
        })
    }

    fn on_tick(&mut self, ctx: &SchedCtx<'_>) {
        let inner = &mut self.inner;
        timed(&self.counters, ON_TICK, || inner.on_tick(ctx));
    }

    fn on_stop(
        &mut self,
        ctx: &SchedCtx<'_>,
        thread: ThreadId,
        core: CoreId,
        ran: SimDuration,
        reason: StopReason,
    ) {
        let inner = &mut self.inner;
        timed(&self.counters, ON_STOP, || {
            inner.on_stop(ctx, thread, core, ran, reason)
        });
    }

    fn drain_core(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Vec<ThreadId> {
        let inner = &mut self.inner;
        timed(&self.counters, DRAIN_CORE, || inner.drain_core(ctx, core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{run_digest, Fnv};
    use amp_perf::SpeedupModel;
    use amp_sim::{FaultPlan, Simulation};
    use amp_types::{CoreOrder, MachineConfig};
    use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};
    use colab::SchedulerKind;

    const ALL_POLICIES: [SchedulerKind; 5] = [
        SchedulerKind::Linux,
        SchedulerKind::Wash,
        SchedulerKind::Colab,
        SchedulerKind::Gts,
        SchedulerKind::EqualProgress,
    ];

    fn digest(outcome: &amp_sim::SimulationOutcome) -> (u64, String) {
        let mut fnv = Fnv::new();
        run_digest(&mut fnv, outcome);
        (fnv.finish(), format!("{:?}", outcome.telemetry.counters))
    }

    #[test]
    fn wrapper_is_transparent_for_every_policy() {
        let machine = MachineConfig::asymmetric(2, 2, CoreOrder::LittleFirst);
        let spec = WorkloadSpec::named(
            "wrapped",
            vec![(BenchmarkId::Ferret, 6), (BenchmarkId::Blackscholes, 2)],
        );
        let model = SpeedupModel::heuristic();
        // A hotplug-heavy plan so drain_core runs too.
        let plan = FaultPlan::random(&machine, 5, 2.0, SimDuration::from_millis(200));
        for kind in ALL_POLICIES {
            let build = || {
                Simulation::build_scaled(&machine, &spec, 3, Scale::quick())
                    .and_then(|sim| sim.with_fault_plan(plan.clone()))
                    .unwrap()
            };
            let bare = build().run(kind.create(&machine, &model).as_mut()).unwrap();
            let mut wrapped = Timed::new(kind.create(&machine, &model));
            let timed = build().run(&mut wrapped).unwrap();
            assert_eq!(digest(&bare), digest(&timed), "{}", kind.name());
            assert_eq!(timed.scheduler, kind.name());
            let stats = wrapped.stats();
            assert!(stats.calls[PICK_NEXT] > 0 && stats.calls[ENQUEUE] > 0);
            assert!(stats.idle_picks + stats.steal_picks <= stats.calls[PICK_NEXT]);
        }
    }
}
