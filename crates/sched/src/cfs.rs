//! The Linux CFS baseline (and the mechanism layer WASH reuses).

use std::collections::BTreeSet;

use amp_sim::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason};
use amp_types::{CoreId, MachineConfig, SimDuration, ThreadId};

/// Linux CFS tunables (defaults match the kernel's).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CfsTunables {
    /// `sched_latency_ns`: the period over which every runnable thread
    /// should run once.
    pub sched_latency: u64,
    /// `sched_min_granularity_ns`: slice floor.
    pub min_granularity: u64,
    /// `sched_wakeup_granularity_ns`: vruntime lead a waking thread needs
    /// to preempt.
    pub wakeup_granularity: u64,
}

impl Default for CfsTunables {
    fn default() -> Self {
        CfsTunables {
            sched_latency: 6_000_000,
            min_granularity: 750_000,
            wakeup_granularity: 1_000_000,
        }
    }
}

/// One per-core runqueue: the timeline ordered by `(vruntime, tid)`,
/// plus the monotone `min_vruntime` reference.
#[derive(Debug, Default, Clone)]
struct CfsRq {
    tree: BTreeSet<(u64, u32)>,
    min_vruntime: u64,
}

/// The reusable CFS mechanism: runqueues, vruntime accounting, placement,
/// stealing, balancing. [`CfsScheduler`] exposes it unmodified;
/// `WashScheduler` drives it through affinity masks.
#[derive(Debug, Clone)]
pub(crate) struct CfsEngine {
    pub tunables: CfsTunables,
    rqs: Vec<CfsRq>,
    vruntime: Vec<u64>,
    /// Which rq each thread sits on (None = running/blocked/finished).
    queued_on: Vec<Option<CoreId>>,
}

impl CfsEngine {
    pub fn new(num_cores: usize) -> CfsEngine {
        CfsEngine {
            tunables: CfsTunables::default(),
            rqs: vec![CfsRq::default(); num_cores],
            vruntime: Vec::new(),
            queued_on: Vec::new(),
        }
    }

    pub fn reset(&mut self, num_threads: usize) {
        for rq in &mut self.rqs {
            rq.tree.clear();
            rq.min_vruntime = 0;
        }
        self.vruntime = vec![0; num_threads];
        self.queued_on = vec![None; num_threads];
    }

    pub fn nr_queued(&self, core: CoreId) -> usize {
        self.rqs[core.index()].tree.len()
    }

    /// Runnable load on a core: queued plus the running thread.
    pub fn load(&self, ctx: &SchedCtx<'_>, core: CoreId) -> usize {
        self.nr_queued(core) + usize::from(ctx.running_on(core).is_some())
    }

    /// `select_task_rq`: least-loaded core among `allowed`, ties to the
    /// lowest id (which is where core-enumeration order enters).
    pub fn select_core(
        &self,
        ctx: &SchedCtx<'_>,
        allowed: impl Iterator<Item = CoreId>,
    ) -> Option<CoreId> {
        allowed.min_by_key(|&c| (self.load(ctx, c), c.index()))
    }

    /// Enqueues with min-vruntime placement (a sleeper's stale vruntime is
    /// forgiven up to the queue's current minimum).
    pub fn enqueue(&mut self, thread: ThreadId, core: CoreId) {
        debug_assert!(self.queued_on[thread.index()].is_none());
        let rq = &mut self.rqs[core.index()];
        let vrt = self.vruntime[thread.index()].max(rq.min_vruntime);
        self.vruntime[thread.index()] = vrt;
        rq.tree.insert((vrt, thread.0));
        self.queued_on[thread.index()] = Some(core);
    }

    /// Removes a specific queued thread (for balancing/stealing).
    pub fn dequeue(&mut self, thread: ThreadId) -> bool {
        let Some(core) = self.queued_on[thread.index()].take() else {
            return false;
        };
        let key = (self.vruntime[thread.index()], thread.0);
        let removed = self.rqs[core.index()].tree.remove(&key);
        debug_assert!(removed, "queued thread must be in its tree");
        removed
    }

    /// Pops the leftmost (minimum-vruntime) thread of a core's queue.
    pub fn pop_local(&mut self, core: CoreId) -> Option<ThreadId> {
        let rq = &mut self.rqs[core.index()];
        let (vrt, tid) = rq.tree.pop_first()?;
        rq.min_vruntime = rq.min_vruntime.max(vrt);
        let thread = ThreadId::new(tid);
        self.queued_on[thread.index()] = None;
        Some(thread)
    }

    /// Empties a core's queue entirely (hot-unplug: the simulator
    /// re-routes the returned threads through `enqueue`).
    pub fn drain(&mut self, core: CoreId) -> Vec<ThreadId> {
        let mut drained = Vec::with_capacity(self.nr_queued(core));
        while let Some(thread) = self.pop_local(core) {
            drained.push(thread);
        }
        drained
    }

    /// Idle balancing: pull the leftmost thread of the most loaded other
    /// queue (among threads passing `allowed`).
    pub fn steal_for(
        &mut self,
        core: CoreId,
        allowed: impl Fn(ThreadId, CoreId) -> bool,
    ) -> Option<ThreadId> {
        let mut best: Option<(usize, CoreId, ThreadId, u64)> = None;
        for (ci, rq) in self.rqs.iter().enumerate() {
            let from = CoreId::new(ci as u32);
            if from == core || rq.tree.is_empty() {
                continue;
            }
            // Leftmost stealable entry of this queue.
            if let Some(&(vrt, tid)) = rq
                .tree
                .iter()
                .find(|&&(_, tid)| allowed(ThreadId::new(tid), core))
            {
                let load = rq.tree.len();
                if best.as_ref().is_none_or(|&(l, ..)| load > l) {
                    best = Some((load, from, ThreadId::new(tid), vrt));
                }
            }
        }
        let (_, from, thread, _) = best?;
        self.dequeue(thread);
        // Normalize vruntime into the destination queue's frame.
        let old_min = self.rqs[from.index()].min_vruntime;
        let new_min = self.rqs[core.index()].min_vruntime;
        let v = &mut self.vruntime[thread.index()];
        *v = v.saturating_sub(old_min).saturating_add(new_min);
        Some(thread)
    }

    /// `sched_slice`: latency divided by runnable tasks, floored.
    pub fn slice(&self, ctx: &SchedCtx<'_>, core: CoreId) -> SimDuration {
        let nr = self.load(ctx, core).max(1) as u64;
        let ns = (self.tunables.sched_latency / nr).max(self.tunables.min_granularity);
        SimDuration::from_nanos(ns)
    }

    /// `wakeup_preempt_entity`: preempt when the runner's vruntime leads
    /// the waker's by more than the wakeup granularity.
    pub fn should_preempt(&self, incoming: ThreadId, running: ThreadId) -> bool {
        let vr = self.vruntime[running.index()];
        let vi = self.vruntime[incoming.index()];
        vr > vi.saturating_add(self.tunables.wakeup_granularity)
    }

    /// Charges consumed CPU time to a thread's vruntime (equal weights —
    /// and, for the baseline, deliberately AMP-agnostic wall time).
    pub fn charge(&mut self, thread: ThreadId, ran: SimDuration) {
        self.vruntime[thread.index()] =
            self.vruntime[thread.index()].saturating_add(ran.as_nanos());
    }

    /// Periodic load balance: move one queued thread from the most loaded
    /// to the least loaded core (when they differ by ≥ 2), respecting
    /// `allowed`.
    pub fn balance(&mut self, ctx: &SchedCtx<'_>, allowed: impl Fn(ThreadId, CoreId) -> bool) {
        let cores = self.rqs.len();
        for _ in 0..cores {
            // Only online cores participate: pushing work to a
            // hot-unplugged core would strand it on a dead queue.
            let Some(busiest) = ctx
                .online_cores()
                .max_by_key(|&c| (self.load(ctx, c), c.index()))
            else {
                return;
            };
            let Some(idlest) = ctx
                .online_cores()
                .min_by_key(|&c| (self.load(ctx, c), c.index()))
            else {
                return;
            };
            if self.load(ctx, busiest) < self.load(ctx, idlest) + 2 {
                return;
            }
            // Migrate the *last* (largest-vruntime) eligible entry: it is
            // the least urgent, as the kernel prefers.
            let candidate = self.rqs[busiest.index()]
                .tree
                .iter()
                .rev()
                .find(|&&(_, tid)| allowed(ThreadId::new(tid), idlest))
                .map(|&(_, tid)| ThreadId::new(tid));
            let Some(thread) = candidate else { return };
            self.dequeue(thread);
            let old_min = self.rqs[busiest.index()].min_vruntime;
            let new_min = self.rqs[idlest.index()].min_vruntime;
            let v = &mut self.vruntime[thread.index()];
            *v = v.saturating_sub(old_min).saturating_add(new_min);
            self.enqueue(thread, idlest);
        }
    }

    /// Core a thread should requeue on: where it last ran, unless that
    /// core has been hot-unplugged, in which case the least-loaded online
    /// core takes it.
    pub fn requeue_core(&self, ctx: &SchedCtx<'_>, thread: ThreadId) -> CoreId {
        match ctx.thread(thread).last_core {
            Some(core) if ctx.core_online(core) => core,
            _ => self
                .select_core(ctx, ctx.online_cores())
                .unwrap_or(CoreId::new(0)),
        }
    }

    /// Current vruntime of a thread (inspection for tests/diagnostics).
    #[cfg(test)]
    pub fn vruntime(&self, thread: ThreadId) -> u64 {
        self.vruntime[thread.index()]
    }
}

/// The paper's `LINUX` baseline: plain CFS, asymmetric-agnostic.
///
/// # Examples
///
/// ```
/// use amp_sched::{CfsScheduler, Scheduler};
/// use amp_sim::Simulation;
/// use amp_types::{CoreOrder, MachineConfig};
/// use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};
///
/// let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
/// let sim = Simulation::build_scaled(
///     &machine,
///     &WorkloadSpec::single(BenchmarkId::Blackscholes, 4),
///     1,
///     Scale::quick(),
/// ).unwrap();
/// let outcome = sim.run(&mut CfsScheduler::new(&machine)).unwrap();
/// assert_eq!(outcome.scheduler, "linux");
/// ```
#[derive(Debug, Clone)]
pub struct CfsScheduler {
    engine: CfsEngine,
}

impl CfsScheduler {
    /// Creates the baseline scheduler for a machine.
    pub fn new(machine: &MachineConfig) -> CfsScheduler {
        CfsScheduler {
            engine: CfsEngine::new(machine.num_cores()),
        }
    }
}

impl Scheduler for CfsScheduler {
    fn name(&self) -> &'static str {
        "linux"
    }

    fn init(&mut self, ctx: &SchedCtx<'_>) {
        self.engine.reset(ctx.num_threads());
    }

    fn enqueue(&mut self, ctx: &SchedCtx<'_>, thread: ThreadId, reason: EnqueueReason) -> CoreId {
        let core = match reason {
            EnqueueReason::Requeue => self.engine.requeue_core(ctx, thread),
            EnqueueReason::Spawn | EnqueueReason::Wake => self
                .engine
                .select_core(ctx, ctx.online_cores())
                .unwrap_or_else(|| self.engine.requeue_core(ctx, thread)),
        };
        self.engine.enqueue(thread, core);
        core
    }

    fn pick_next(&mut self, _ctx: &SchedCtx<'_>, core: CoreId) -> Pick {
        if let Some(t) = self.engine.pop_local(core) {
            return Pick::Run(t);
        }
        // Idle balancing: pull from the busiest queue.
        match self.engine.steal_for(core, |_, _| true) {
            Some(t) => Pick::Run(t),
            None => Pick::Idle,
        }
    }

    fn time_slice(&self, ctx: &SchedCtx<'_>, _thread: ThreadId, core: CoreId) -> SimDuration {
        self.engine.slice(ctx, core)
    }

    fn should_preempt(
        &self,
        _ctx: &SchedCtx<'_>,
        incoming: ThreadId,
        _core: CoreId,
        running: ThreadId,
    ) -> bool {
        self.engine.should_preempt(incoming, running)
    }

    fn on_tick(&mut self, ctx: &SchedCtx<'_>) {
        self.engine.balance(ctx, |_, _| true);
    }

    fn on_stop(
        &mut self,
        _ctx: &SchedCtx<'_>,
        thread: ThreadId,
        _core: CoreId,
        ran: SimDuration,
        _reason: StopReason,
    ) {
        self.engine.charge(thread, ran);
    }

    fn drain_core(&mut self, _ctx: &SchedCtx<'_>, core: CoreId) -> Vec<ThreadId> {
        self.engine.drain(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_sim::Simulation;
    use amp_types::{CoreOrder, SimTime};
    use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};

    fn run_at(bench: BenchmarkId, threads: usize, scale: Scale) -> amp_sim::SimulationOutcome {
        let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
        Simulation::build_scaled(&machine, &WorkloadSpec::single(bench, threads), 5, scale)
            .unwrap()
            .run(&mut CfsScheduler::new(&machine))
            .unwrap()
    }

    #[test]
    fn completes_every_benchmark_shape() {
        for bench in [
            BenchmarkId::Blackscholes,
            BenchmarkId::Ferret,
            BenchmarkId::Fluidanimate,
            BenchmarkId::Swaptions,
            BenchmarkId::Radix,
        ] {
            let outcome = run_at(bench, 6, Scale::quick());
            assert!(outcome.makespan > SimTime::ZERO, "{bench} did not run");
        }
    }

    #[test]
    fn vruntime_fairness_on_identical_threads_symmetric_machine() {
        // On a *symmetric* machine CFS time-fairness implies equal run
        // times for identical threads. (On an AMP it deliberately does
        // not — equal CPU time is unequal progress; that asymmetry-
        // blindness is exactly what the paper exploits.)
        let machine = MachineConfig::all_big(4);
        let outcome = Simulation::build_scaled(
            &machine,
            &WorkloadSpec::single(BenchmarkId::Blackscholes, 8),
            5,
            Scale::new(0.5),
        )
        .unwrap()
        .run(&mut CfsScheduler::new(&machine))
        .unwrap();
        let runs: Vec<f64> = outcome
            .threads
            .iter()
            .map(|t| t.run_time.as_secs_f64())
            .collect();
        let max = runs.iter().cloned().fold(0.0, f64::max);
        let min = runs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 1.35,
            "unfair split under CFS: max {max}, min {min}"
        );
    }

    #[test]
    fn engine_enqueue_dequeue_round_trip() {
        let mut e = CfsEngine::new(2);
        e.reset(3);
        e.enqueue(ThreadId::new(0), CoreId::new(0));
        e.enqueue(ThreadId::new(1), CoreId::new(0));
        assert_eq!(e.nr_queued(CoreId::new(0)), 2);
        assert!(e.dequeue(ThreadId::new(0)));
        assert!(!e.dequeue(ThreadId::new(0)), "double dequeue is a no-op");
        assert_eq!(e.pop_local(CoreId::new(0)), Some(ThreadId::new(1)));
        assert_eq!(e.pop_local(CoreId::new(0)), None);
    }

    #[test]
    fn engine_orders_by_vruntime() {
        let mut e = CfsEngine::new(1);
        e.reset(2);
        e.charge(ThreadId::new(0), SimDuration::from_millis(5));
        e.enqueue(ThreadId::new(0), CoreId::new(0));
        e.enqueue(ThreadId::new(1), CoreId::new(0));
        // Thread 1 has lower vruntime; it goes first.
        assert_eq!(e.pop_local(CoreId::new(0)), Some(ThreadId::new(1)));
    }

    #[test]
    fn equal_vruntimes_pop_lowest_tid_first() {
        let mut e = CfsEngine::new(1);
        e.reset(3);
        for tid in [2, 0, 1] {
            e.enqueue(ThreadId::new(tid), CoreId::new(0));
        }
        let order: Vec<ThreadId> = std::iter::from_fn(|| e.pop_local(CoreId::new(0))).collect();
        assert_eq!(order, [0, 1, 2].map(ThreadId::new));
    }

    #[test]
    fn steal_takes_leftmost_allowed_of_busiest_queue_in_dest_frame() {
        let ms = |n: u64| SimDuration::from_millis(n);
        let (dest, busy, busiest) = (CoreId::new(0), CoreId::new(1), CoreId::new(2));
        let mut e = CfsEngine::new(3);
        e.reset(7);
        // Advance the destination's min_vruntime to 4 ms and the
        // busiest queue's to 10 ms.
        for (tid, core, ran) in [(5, dest, 4), (6, busiest, 10)] {
            e.charge(ThreadId::new(tid), ms(ran));
            e.enqueue(ThreadId::new(tid), core);
            e.pop_local(core);
        }
        // Busiest queue, ordered: t1 (10 ms), t2 (11 ms), t0 (12 ms).
        for (tid, ran) in [(0, 12), (1, 0), (2, 11)] {
            e.charge(ThreadId::new(tid), ms(ran));
            e.enqueue(ThreadId::new(tid), busiest);
        }
        e.enqueue(ThreadId::new(3), busy);
        e.enqueue(ThreadId::new(4), busy);

        let stolen = e.steal_for(dest, |t, _| t != ThreadId::new(1));
        assert_eq!(stolen, Some(ThreadId::new(2)));
        assert_eq!(e.nr_queued(busiest), 2);
        assert_eq!(e.nr_queued(busy), 2);
        // 11 ms in a 10 ms frame becomes 1 ms past the 4 ms minimum.
        assert_eq!(e.vruntime(ThreadId::new(2)), 5_000_000);
    }

    /// Runs `check` on the first context of a real simulation on
    /// `machine` (nothing running, every core online); plain CFS then
    /// schedules the run to completion.
    fn with_initial_ctx(machine: &MachineConfig, check: fn(&SchedCtx<'_>)) {
        struct Probe {
            inner: CfsScheduler,
            check: fn(&SchedCtx<'_>),
        }
        impl Scheduler for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn init(&mut self, ctx: &SchedCtx<'_>) {
                (self.check)(ctx);
                self.inner.init(ctx);
            }
            fn enqueue(&mut self, ctx: &SchedCtx<'_>, t: ThreadId, r: EnqueueReason) -> CoreId {
                self.inner.enqueue(ctx, t, r)
            }
            fn pick_next(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Pick {
                self.inner.pick_next(ctx, core)
            }
            fn time_slice(&self, ctx: &SchedCtx<'_>, t: ThreadId, core: CoreId) -> SimDuration {
                self.inner.time_slice(ctx, t, core)
            }
            fn should_preempt(
                &self,
                ctx: &SchedCtx<'_>,
                incoming: ThreadId,
                core: CoreId,
                running: ThreadId,
            ) -> bool {
                self.inner.should_preempt(ctx, incoming, core, running)
            }
            fn on_tick(&mut self, ctx: &SchedCtx<'_>) {
                self.inner.on_tick(ctx);
            }
            fn on_stop(
                &mut self,
                ctx: &SchedCtx<'_>,
                t: ThreadId,
                core: CoreId,
                ran: SimDuration,
                reason: StopReason,
            ) {
                self.inner.on_stop(ctx, t, core, ran, reason);
            }
        }
        let mut probe = Probe {
            inner: CfsScheduler::new(machine),
            check,
        };
        Simulation::build_scaled(
            machine,
            &WorkloadSpec::single(BenchmarkId::Blackscholes, 2),
            5,
            Scale::quick(),
        )
        .unwrap()
        .run(&mut probe)
        .unwrap();
    }

    #[test]
    fn balance_moves_largest_allowed_vruntime_to_idlest_core() {
        with_initial_ctx(&MachineConfig::all_big(2), |ctx| {
            let (busiest, idlest) = (CoreId::new(0), CoreId::new(1));
            let mut e = CfsEngine::new(2);
            e.reset(3);
            // Busiest queue, ordered: t0 (1 ms), t2 (2 ms), t1 (3 ms).
            for (tid, ran) in [(0, 1), (1, 3), (2, 2)] {
                e.charge(ThreadId::new(tid), SimDuration::from_millis(ran));
                e.enqueue(ThreadId::new(tid), busiest);
            }
            // t1 is the largest but may not move; t2 is the largest that may.
            e.balance(ctx, |t, _| t != ThreadId::new(1));
            assert_eq!(e.nr_queued(busiest), 2, "3 vs 0 moves one; 2 vs 1 stops");
            assert_eq!(e.pop_local(idlest), Some(ThreadId::new(2)));
            assert_eq!(e.pop_local(busiest), Some(ThreadId::new(0)));
            assert_eq!(e.pop_local(busiest), Some(ThreadId::new(1)));
        });
    }

    #[test]
    fn min_vruntime_forgives_long_sleepers() {
        let mut e = CfsEngine::new(1);
        e.reset(2);
        e.charge(ThreadId::new(0), SimDuration::from_millis(100));
        e.enqueue(ThreadId::new(0), CoreId::new(0));
        e.pop_local(CoreId::new(0));
        // min_vruntime advanced to 100ms; a fresh enqueue of thread 1 is
        // placed at the minimum, not at 0 (no starvation of thread 0).
        e.enqueue(ThreadId::new(1), CoreId::new(0));
        assert_eq!(e.vruntime(ThreadId::new(1)), 100_000_000);
    }

    #[test]
    fn wakeup_preemption_threshold() {
        let mut e = CfsEngine::new(1);
        e.reset(2);
        e.charge(ThreadId::new(0), SimDuration::from_millis(3));
        // Incoming thread 1 (vruntime 0) leads by 3 ms > 1 ms granularity.
        assert!(e.should_preempt(ThreadId::new(1), ThreadId::new(0)));
        // The reverse must not preempt.
        assert!(!e.should_preempt(ThreadId::new(0), ThreadId::new(1)));
    }
}
