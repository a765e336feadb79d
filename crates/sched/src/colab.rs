//! COLAB: the collaborative multi-factor scheduler (Algorithm 1).
//!
//! COLAB splits the multi-factor decision space between two collaborating
//! functions instead of mixing all factors into one ranking:
//!
//! * the **core allocator** is driven by core sensitivity: every 10 ms a
//!   labeller marks threads `HighSpeedup` (high priority on big cores),
//!   `NonCritical` (low speedup *and* low blocking → little cores), or
//!   `Flexible` (round-robin over all cores for load balance); allocation
//!   within each group is hierarchical round-robin;
//! * the **thread selector** is driven by thread criticality: a core
//!   always runs the most-blocking ready thread — from its own runqueue
//!   first, then its cluster, and (big cores only) from the little
//!   cluster's queues, finally preempting a little core's *running*
//!   thread to accelerate it; big cores idle only when no ready thread
//!   exists anywhere;
//! * **fairness** comes from speedup-scaled time slices: a thread's slice
//!   on a big core is divided by its predicted speedup, so the selector
//!   fires more often there and progress equalizes across core kinds
//!   (and the wakeup-preemption vruntime check scales the same way).

use amp_perf::SpeedupModel;
use amp_sim::telemetry::{LabelClass, SchedEvent};
use amp_sim::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason, ThreadPhase};
use amp_types::{CoreId, CoreKind, MachineConfig, SimDuration, ThreadId};

use crate::cfs::WAKEUP_GRANULARITY_NS;

/// Thread labels produced by the 10 ms multi-factor labeller (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// High predicted speedup: high priority on big cores.
    HighSpeedup,
    /// Low predicted speedup *and* low blocking: prioritize little cores.
    NonCritical,
    /// Everything else: allocated round-robin over all cores.
    Flexible,
}

impl Label {
    /// The telemetry vocabulary equivalent of this label.
    fn class(self) -> LabelClass {
        match self {
            Label::HighSpeedup => LabelClass::HighSpeedup,
            Label::NonCritical => LabelClass::NonCritical,
            Label::Flexible => LabelClass::Flexible,
        }
    }
}

/// Base time slice (applies unscaled to little cores).
const BASE_SLICE: SimDuration = SimDuration::from_millis(6);
/// Slice floor after speedup scaling on big cores.
const MIN_SLICE: SimDuration = SimDuration::from_micros(500);
/// Blocking EWMA above which a thread counts as a bottleneck.
const BLOCK_THRESHOLD: SimDuration = SimDuration::from_micros(20);
/// Fraction of a standard deviation above the mean predicted speedup
/// required for the `HighSpeedup` label.
const SPEEDUP_SIGMA: f64 = 0.25;
/// A little-core running thread must predict at least this speedup (or
/// be a bottleneck) for an idle big core to preempt-steal it.
const STEAL_SPEEDUP_FLOOR: f64 = 1.25;

/// COLAB's ablation switches: each turns one mechanism off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColabConfig {
    /// Hierarchical label-driven core allocation
    /// (disabled → plain round-robin over all cores).
    pub hierarchical_allocation: bool,
    /// Max-blocking thread selection (disabled → FIFO selection).
    pub blocking_selection: bool,
    /// Speedup-scaled big-core time slices
    /// (disabled → uniform slices on both kinds).
    pub scale_slice: bool,
}

impl Default for ColabConfig {
    /// Every mechanism on: COLAB as the paper evaluates it.
    fn default() -> Self {
        ColabConfig {
            hierarchical_allocation: true,
            blocking_selection: true,
            scale_slice: true,
        }
    }
}

impl ColabConfig {
    /// Ablation: disable the hierarchical label-driven allocator.
    pub fn without_allocation(mut self) -> ColabConfig {
        self.hierarchical_allocation = false;
        self
    }

    /// Ablation: disable max-blocking selection (FIFO instead).
    pub fn without_blocking_selection(mut self) -> ColabConfig {
        self.blocking_selection = false;
        self
    }

    /// Ablation: disable speedup-scaled slices.
    pub fn without_scale_slice(mut self) -> ColabConfig {
        self.scale_slice = false;
        self
    }
}

/// The COLAB scheduling policy.
///
/// # Examples
///
/// ```
/// use amp_perf::SpeedupModel;
/// use amp_sched::{ColabScheduler, Scheduler};
/// use amp_sim::Simulation;
/// use amp_types::{CoreOrder, MachineConfig};
/// use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};
///
/// let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
/// let sim = Simulation::build_scaled(
///     &machine,
///     &WorkloadSpec::single(BenchmarkId::Ferret, 6),
///     1,
///     Scale::quick(),
/// ).unwrap();
/// let outcome = sim
///     .run(&mut ColabScheduler::new(&machine, SpeedupModel::heuristic()))
///     .unwrap();
/// assert_eq!(outcome.scheduler, "colab");
/// ```
#[derive(Debug, Clone)]
pub struct ColabScheduler {
    model: SpeedupModel,
    config: ColabConfig,
    /// Cluster core lists, in machine order.
    big_cores: Vec<CoreId>,
    little_cores: Vec<CoreId>,
    labels: Vec<Label>,
    /// Cached per-thread speedup predictions, refreshed each tick.
    speedup: Vec<f64>,
    vruntime: Vec<u64>,
    /// Per-core FIFO runqueues; selection scans for max blocking.
    rqs: Vec<Vec<ThreadId>>,
    rr_big: usize,
    rr_little: usize,
    rr_all: usize,
    /// Scratch for the tick labelling pass, reused across ticks so
    /// relabelling allocates nothing in steady state.
    live_scratch: Vec<ThreadId>,
}

impl ColabScheduler {
    /// Creates COLAB with every mechanism on.
    pub fn new(machine: &MachineConfig, model: SpeedupModel) -> ColabScheduler {
        ColabScheduler::with_config(machine, model, ColabConfig::default())
    }

    /// Creates COLAB with the ablation switches `config`.
    pub fn with_config(
        machine: &MachineConfig,
        model: SpeedupModel,
        config: ColabConfig,
    ) -> ColabScheduler {
        ColabScheduler {
            model,
            config,
            big_cores: machine.cores_of_kind(CoreKind::Big).collect(),
            little_cores: machine.cores_of_kind(CoreKind::Little).collect(),
            labels: Vec::new(),
            speedup: Vec::new(),
            vruntime: Vec::new(),
            rqs: vec![Vec::new(); machine.num_cores()],
            rr_big: 0,
            rr_little: 0,
            rr_all: 0,
            live_scratch: Vec::new(),
        }
    }

    /// The current label of a thread (tests and diagnostics).
    pub fn label(&self, thread: ThreadId) -> Label {
        self.labels[thread.index()]
    }

    /// Whether a core of the given kind belongs to the cluster group a
    /// label allows.
    fn in_group(&self, label: Label, big: bool) -> bool {
        match label {
            Label::HighSpeedup => big || self.big_cores.is_empty(),
            Label::NonCritical => !big || self.little_cores.is_empty(),
            Label::Flexible => true,
        }
    }

    /// Hierarchical round-robin allocation (`rr_allocator_` in Alg. 1).
    fn allocate(&mut self, thread: ThreadId) -> CoreId {
        if !self.config.hierarchical_allocation {
            // Ablation: flat round-robin over every core.
            let n = self.rqs.len();
            let core = CoreId::new((self.rr_all % n) as u32);
            self.rr_all += 1;
            return core;
        }
        match self.labels[thread.index()] {
            Label::HighSpeedup if !self.big_cores.is_empty() => {
                let core = self.big_cores[self.rr_big % self.big_cores.len()];
                self.rr_big += 1;
                core
            }
            Label::NonCritical if !self.little_cores.is_empty() => {
                let core = self.little_cores[self.rr_little % self.little_cores.len()];
                self.rr_little += 1;
                core
            }
            _ => {
                let n = self.rqs.len();
                let core = CoreId::new((self.rr_all % n) as u32);
                self.rr_all += 1;
                core
            }
        }
    }

    /// Like [`allocate`](Self::allocate), but skips hot-unplugged cores:
    /// the round-robin cursor advances past offline entries (keeping the
    /// rotation deterministic) and falls back to the first online core if
    /// the whole preferred group is down. With every core online this is
    /// exactly one `allocate` call — identical cursor movement.
    fn allocate_online(&mut self, ctx: &SchedCtx<'_>, thread: ThreadId) -> CoreId {
        for _ in 0..self.rqs.len() {
            let core = self.allocate(thread);
            if ctx.core_online(core) {
                return core;
            }
        }
        ctx.online_cores().next().unwrap_or(CoreId::new(0))
    }

    /// Criticality key used by the selector: blocking EWMA, then total
    /// caused-waiting as tie-break.
    fn block_key(&self, ctx: &SchedCtx<'_>, thread: ThreadId) -> (u64, u64) {
        if !self.config.blocking_selection {
            // Ablation: all keys equal → selection degrades to FIFO.
            return (0, 0);
        }
        let v = ctx.thread(thread);
        (v.blocking_ewma.as_nanos(), v.blocking_total.as_nanos())
    }

    /// Removes and returns the max-blocking thread of `core`'s queue.
    fn pop_max_block(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Option<ThreadId> {
        let rq = &self.rqs[core.index()];
        if rq.is_empty() {
            return None;
        }
        let best = rq
            .iter()
            .enumerate()
            .max_by_key(|&(i, &t)| (self.block_key(ctx, t), std::cmp::Reverse(i)))
            .map(|(i, _)| i)?;
        Some(self.rqs[core.index()].remove(best))
    }

    /// Locates (without removing) the max-blocking thread passing
    /// `eligible` across a set of cores' queues.
    ///
    /// Split from the removal (`take_queued`) so callers can pass the
    /// scheduler's own cluster slices — the scan needs only `&self`, so
    /// no defensive clone of the core list is ever required.
    fn find_max_block(
        &self,
        ctx: &SchedCtx<'_>,
        cores: &[CoreId],
        exclude: CoreId,
        eligible: impl Fn(ThreadId) -> bool,
    ) -> Option<(CoreId, usize)> {
        let mut best: Option<((u64, u64), CoreId, usize)> = None;
        for &c in cores {
            if c == exclude {
                continue;
            }
            for (i, &t) in self.rqs[c.index()].iter().enumerate() {
                if !eligible(t) {
                    continue;
                }
                let key = self.block_key(ctx, t);
                if best.as_ref().is_none_or(|&(k, ..)| key > k) {
                    best = Some((key, c, i));
                }
            }
        }
        best.map(|(_, core, index)| (core, index))
    }

    /// Removes a thread found by [`find_max_block`](Self::find_max_block)
    /// from its queue, preserving FIFO order of the remainder.
    fn take_queued(&mut self, core: CoreId, index: usize) -> ThreadId {
        self.rqs[core.index()].remove(index)
    }

    /// Effective vruntime for the preemption check: divided by predicted
    /// speedup when evaluated on a big core (§4.1, scale-slice).
    fn effective_vruntime(&self, thread: ThreadId, on_big: bool) -> u64 {
        let v = self.vruntime[thread.index()];
        if on_big {
            (v as f64 / self.speedup[thread.index()].max(1.0)) as u64
        } else {
            v
        }
    }

    /// The 10 ms multi-factor labelling pass (§3.2).
    fn relabel(&mut self, ctx: &SchedCtx<'_>) {
        let mut live = std::mem::take(&mut self.live_scratch);
        live.clear();
        live.extend(ctx.live_threads());
        if live.is_empty() {
            self.live_scratch = live;
            return;
        }
        for &t in &live {
            self.speedup[t.index()] = self.model.predict(&ctx.thread(t).pmu_window);
        }
        let n = live.len() as f64;
        let mean = live.iter().map(|&t| self.speedup[t.index()]).sum::<f64>() / n;
        let var = live
            .iter()
            .map(|&t| {
                let d = self.speedup[t.index()] - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        let spread = var.sqrt().max(0.15);
        let hi = mean + SPEEDUP_SIGMA * spread;

        for &t in &live {
            let s = self.speedup[t.index()];
            let blocked_others = ctx.thread(t).blocking_ewma >= BLOCK_THRESHOLD;
            let label = if s >= hi {
                Label::HighSpeedup
            } else if s < mean && !blocked_others {
                Label::NonCritical
            } else {
                Label::Flexible
            };
            let old = self.labels[t.index()];
            if old != label {
                let core = ctx.thread(t).last_core.unwrap_or(CoreId::new(0));
                ctx.emit(
                    core,
                    SchedEvent::Relabel {
                        thread: t,
                        from: old.class(),
                        to: label.class(),
                    },
                );
            }
            self.labels[t.index()] = label;
        }
        self.live_scratch = live;
    }
}

impl Scheduler for ColabScheduler {
    fn name(&self) -> &'static str {
        "colab"
    }

    fn init(&mut self, ctx: &SchedCtx<'_>) {
        let n = ctx.num_threads();
        self.labels = vec![Label::Flexible; n];
        self.speedup = vec![1.0; n];
        self.vruntime = vec![0; n];
        for rq in &mut self.rqs {
            rq.clear();
        }
        self.rr_big = 0;
        self.rr_little = 0;
        self.rr_all = 0;
    }

    fn enqueue(&mut self, ctx: &SchedCtx<'_>, thread: ThreadId, reason: EnqueueReason) -> CoreId {
        let core = match reason {
            // Keep requeues local: the allocator places spawned/woken
            // threads, the selector migrates waiting ones when useful.
            // A hot-unplugged last core sends the thread back through the
            // allocator instead.
            EnqueueReason::Requeue => match ctx.thread(thread).last_core {
                Some(last) if ctx.core_online(last) => last,
                _ => self.allocate_online(ctx, thread),
            },
            // Wakes stay cache-warm on their previous core when it lies
            // inside the label's cluster group; the hierarchical RR only
            // re-routes threads whose label demands the other cluster.
            EnqueueReason::Wake => match ctx.thread(thread).last_core {
                Some(last)
                    if ctx.core_online(last)
                        && self.in_group(
                            self.labels[thread.index()],
                            ctx.core_kind(last).is_big(),
                        ) =>
                {
                    last
                }
                _ => self.allocate_online(ctx, thread),
            },
            EnqueueReason::Spawn => self.allocate_online(ctx, thread),
        };
        self.rqs[core.index()].push(thread);
        core
    }

    fn pick_next(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Pick {
        // 1. Local runqueue, most blocking first.
        if let Some(t) = self.pop_max_block(ctx, core) {
            return Pick::Run(t);
        }
        // 2. Same-kind cluster queues.
        let kind = ctx.core_kind(core);
        let found = if kind.is_big() {
            self.find_max_block(ctx, &self.big_cores, core, |_| true)
        } else {
            self.find_max_block(ctx, &self.little_cores, core, |_| true)
        };
        if let Some((c, i)) = found {
            return Pick::Run(self.take_queued(c, i));
        }
        if !kind.is_big() {
            // Work conservation: an idle little core pulls from the big
            // cluster's overflow rather than idling — preferring threads
            // whose label tolerates a little core, taking a HighSpeedup
            // one only when nothing else waits (running it 2× slower
            // still beats running it never).
            if let Some((c, i)) = self.find_max_block(ctx, &self.big_cores, core, |t| {
                self.labels[t.index()] != Label::HighSpeedup
            }) {
                return Pick::Run(self.take_queued(c, i));
            }
            if let Some((c, i)) = self.find_max_block(ctx, &self.big_cores, core, |_| true) {
                return Pick::Run(self.take_queued(c, i));
            }
            return Pick::Idle;
        }
        // 3. Big cores pull waiting threads from little queues.
        if let Some((c, i)) = self.find_max_block(ctx, &self.little_cores, core, |_| true) {
            return Pick::Run(self.take_queued(c, i));
        }
        // 4. Big cores may preempt a little core's *running* thread to
        //    accelerate it; idle only when nothing is worth taking.
        let mut best: Option<((u64, u64), CoreId)> = None;
        for &lc in &self.little_cores {
            let Some(victim) = ctx.running_on(lc) else {
                continue;
            };
            // Preempt-steal only threads worth a cross-cluster
            // migration: they run meaningfully faster on the big core or
            // they are a bottleneck others wait on.
            let worth = self.speedup[victim.index()] >= STEAL_SPEEDUP_FLOOR
                || ctx.thread(victim).blocking_ewma >= BLOCK_THRESHOLD;
            if !worth {
                continue;
            }
            let key = self.block_key(ctx, victim);
            if best.as_ref().is_none_or(|&(k, _)| key > k) {
                best = Some((key, lc));
            }
        }
        match best {
            Some((_, victim)) => Pick::StealRunning { victim },
            None => Pick::Idle,
        }
    }

    fn time_slice(&self, ctx: &SchedCtx<'_>, thread: ThreadId, core: CoreId) -> SimDuration {
        if self.config.scale_slice && ctx.core_kind(core).is_big() {
            // Scale-slice equal progress: shorter slices on big cores, so
            // the selector runs more often there.
            let predicted = self.speedup[thread.index()];
            let slice = BASE_SLICE.div_f64(predicted.max(1.0)).max(MIN_SLICE);
            ctx.emit(
                core,
                SchedEvent::SlicePredict {
                    thread,
                    predicted_speedup: predicted,
                    slice,
                },
            );
            slice
        } else {
            BASE_SLICE
        }
    }

    fn should_preempt(
        &self,
        ctx: &SchedCtx<'_>,
        incoming: ThreadId,
        core: CoreId,
        running: ThreadId,
    ) -> bool {
        let on_big = self.config.scale_slice && ctx.core_kind(core).is_big();
        let vr = self.effective_vruntime(running, on_big);
        let vi = self.effective_vruntime(incoming, on_big);
        vr > vi.saturating_add(WAKEUP_GRANULARITY_NS)
    }

    fn on_tick(&mut self, ctx: &SchedCtx<'_>) {
        self.relabel(ctx);
        // Re-route queued threads whose label no longer matches their
        // queue's cluster (waiting threads only; running ones are the
        // selector's business).
        for ci in 0..self.rqs.len() {
            let kind = ctx.core_kind(CoreId::new(ci as u32));
            let mut i = 0;
            while i < self.rqs[ci].len() {
                let t = self.rqs[ci][i];
                // A thread is only misplaced if its preferred cluster has
                // an *online* core to receive it — otherwise re-routing
                // would bounce it straight back into this queue (and this
                // scan) via the allocator's fallback.
                let misplaced = match self.labels[t.index()] {
                    Label::HighSpeedup => {
                        !kind.is_big() && self.big_cores.iter().any(|&c| ctx.core_online(c))
                    }
                    Label::NonCritical => {
                        kind.is_big() && self.little_cores.iter().any(|&c| ctx.core_online(c))
                    }
                    Label::Flexible => false,
                };
                if misplaced && ctx.thread(t).phase == ThreadPhase::Ready {
                    self.rqs[ci].remove(i);
                    let dest = self.allocate_online(ctx, t);
                    self.rqs[dest.index()].push(t);
                } else {
                    i += 1;
                }
            }
        }
    }

    fn on_stop(
        &mut self,
        _ctx: &SchedCtx<'_>,
        thread: ThreadId,
        _core: CoreId,
        ran: SimDuration,
        _reason: StopReason,
    ) {
        self.vruntime[thread.index()] =
            self.vruntime[thread.index()].saturating_add(ran.as_nanos());
    }

    fn drain_core(&mut self, _ctx: &SchedCtx<'_>, core: CoreId) -> Vec<ThreadId> {
        std::mem::take(&mut self.rqs[core.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_sim::Simulation;
    use amp_types::{CoreOrder, SimTime};
    use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};

    fn machine() -> MachineConfig {
        MachineConfig::paper_2b2s(CoreOrder::BigFirst)
    }

    fn run_colab(spec: &WorkloadSpec, scale: Scale) -> amp_sim::SimulationOutcome {
        let m = machine();
        Simulation::build_scaled(&m, spec, 6, scale)
            .unwrap()
            .run(&mut ColabScheduler::new(&m, SpeedupModel::heuristic()))
            .unwrap()
    }

    #[test]
    fn completes_all_workload_shapes() {
        for bench in [
            BenchmarkId::Blackscholes,
            BenchmarkId::Dedup,
            BenchmarkId::Ferret,
            BenchmarkId::Fluidanimate,
            BenchmarkId::Swaptions,
            BenchmarkId::OceanCp,
        ] {
            let outcome = run_colab(&WorkloadSpec::single(bench, 6), Scale::quick());
            assert!(outcome.makespan > SimTime::ZERO, "{bench}");
        }
    }

    #[test]
    fn multiprogrammed_mix_completes() {
        let spec = WorkloadSpec::named(
            "sync-mix",
            vec![
                (BenchmarkId::Fluidanimate, 4),
                (BenchmarkId::WaterNsquared, 2),
            ],
        );
        let outcome = run_colab(&spec, Scale::quick());
        assert_eq!(outcome.apps.len(), 2);
    }

    #[test]
    fn big_cores_do_not_idle_while_work_waits() {
        // A heavily oversubscribed compute workload: big cores should be
        // busy almost the whole makespan.
        let outcome = run_colab(
            &WorkloadSpec::single(BenchmarkId::Blackscholes, 12),
            Scale::new(0.3),
        );
        let makespan = outcome.makespan.as_secs_f64();
        for (ci, busy) in outcome.core_busy.iter().enumerate().take(2) {
            let util = busy.as_secs_f64() / makespan;
            assert!(util > 0.9, "big core {ci} only {util:.2} utilized");
        }
    }

    #[test]
    fn core_sensitive_threads_get_substantial_big_core_time() {
        // Swaptions: ILP-heavy workers are labelled HighSpeedup and
        // allocated to big cores. (The memory-bound master may *also*
        // accumulate big-core time: on an underloaded machine COLAB's
        // selector deliberately lets idle big cores accelerate the
        // bottleneck — that is a feature, not a violation.)
        let outcome = run_colab(
            &WorkloadSpec::single(BenchmarkId::Swaptions, 5),
            Scale::new(0.5),
        );
        let workers = &outcome.threads[1..];
        let worker_big: f64 = workers
            .iter()
            .map(|w| w.big_time.as_secs_f64() / w.run_time.as_secs_f64().max(1e-12))
            .sum::<f64>()
            / workers.len() as f64;
        assert!(
            worker_big > 0.5,
            "workers only {worker_big:.2} on big cores"
        );
    }

    #[test]
    fn ablation_switches_disable_their_mechanisms() {
        let m = machine();
        let mut flat = ColabScheduler::with_config(
            &m,
            SpeedupModel::heuristic(),
            ColabConfig::default().without_allocation(),
        );
        flat.labels = vec![Label::HighSpeedup];
        flat.speedup = vec![3.0];
        flat.vruntime = vec![0];
        // Without hierarchical allocation even a HighSpeedup thread
        // round-robins over every core.
        let mut cores = std::collections::BTreeSet::new();
        for _ in 0..8 {
            cores.insert(flat.allocate(ThreadId::new(0)));
        }
        assert_eq!(cores.len(), 4, "flat RR must reach all cores");

        // Without scale-slice, big-core slices equal the base slice.
        let plain = ColabConfig::default().without_scale_slice();
        assert!(!plain.scale_slice);
        // Without blocking selection the criticality key collapses.
        let fifo = ColabConfig::default().without_blocking_selection();
        assert!(!fifo.blocking_selection);
    }

    #[test]
    fn allocator_routes_labels_to_clusters() {
        let m = machine(); // big cores 0,1; little cores 2,3
        let mut sched = ColabScheduler::new(&m, SpeedupModel::heuristic());
        sched.labels = vec![Label::HighSpeedup, Label::NonCritical, Label::Flexible];
        sched.speedup = vec![3.0, 1.1, 1.8];
        sched.vruntime = vec![0; 3];
        for _ in 0..4 {
            let big = sched.allocate(ThreadId::new(0));
            assert!(m.core(big).kind.is_big(), "HighSpeedup must go big");
            let little = sched.allocate(ThreadId::new(1));
            assert!(!m.core(little).kind.is_big(), "NonCritical must go little");
        }
        // Flexible round-robins over every core.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..8 {
            seen.insert(sched.allocate(ThreadId::new(2)));
        }
        assert_eq!(seen.len(), 4, "Flexible must reach all cores");
    }

    #[test]
    fn labeller_separates_speedup_classes() {
        // Drive the labeller directly through a short sim, then inspect.
        let m = machine();
        let spec = WorkloadSpec::single(BenchmarkId::Swaptions, 5);
        let sim = Simulation::build_scaled(&m, &spec, 6, Scale::new(0.5)).unwrap();
        let mut sched = ColabScheduler::new(&m, SpeedupModel::heuristic());
        let _ = sim.run(&mut sched).unwrap();
        // After the run, the master (thread 0, memory-bound) must not be
        // labelled HighSpeedup while some worker is.
        assert_ne!(sched.label(ThreadId::new(0)), Label::HighSpeedup);
        assert!((1..5).any(|i| sched.label(ThreadId::new(i)) == Label::HighSpeedup));
    }

    #[test]
    fn scale_slice_shrinks_big_core_slices() {
        let m = machine();
        let mut sched = ColabScheduler::new(&m, SpeedupModel::heuristic());
        sched.labels = vec![Label::Flexible];
        sched.speedup = vec![2.0];
        sched.vruntime = vec![0];
        // Build a tiny ctx via a real sim is heavy; instead check the
        // arithmetic path through the constants directly.
        let scaled = BASE_SLICE.div_f64(sched.speedup[0]).max(MIN_SLICE);
        assert_eq!(scaled, SimDuration::from_millis(3));
    }
}
