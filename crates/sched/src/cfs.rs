//! The CFS family: Linux CFS, and WASH, GTS and equal-progress, which
//! steer it only through where a thread may run or how its time is
//! charged (the crate docs describe each policy).
//!
//! A thread's binding is its [`Placement`]; [`Placement::fits`] is the
//! one test of whether it may run on a core, used by enqueue, stealing
//! and balancing alike.

use std::collections::BTreeSet;

use amp_perf::SpeedupModel;
use amp_sim::telemetry::{LabelClass, SchedEvent};
use amp_sim::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason};
use amp_types::{CoreId, CoreKind, MachineConfig, SimDuration, SimTime, ThreadId};

/// `sched_latency_ns`: the period over which every runnable thread
/// should run once (the kernel's default, as are the two below).
const SCHED_LATENCY_NS: u64 = 6_000_000;
/// `sched_min_granularity_ns`: slice floor.
const MIN_GRANULARITY_NS: u64 = 750_000;
/// `sched_wakeup_granularity_ns`: vruntime lead a waking thread needs to
/// preempt. COLAB's wakeup check uses the same threshold.
pub(crate) const WAKEUP_GRANULARITY_NS: u64 = 1_000_000;

/// One per-core runqueue: the timeline ordered by `(vruntime, tid)`,
/// plus the monotone `min_vruntime` reference.
#[derive(Debug, Default, Clone)]
struct CfsRq {
    tree: BTreeSet<(u64, u32)>,
    min_vruntime: u64,
}

/// The CFS mechanism: runqueues, vruntime accounting, placement,
/// stealing, balancing. [`CfsScheduler`] drives it under every rule.
#[derive(Debug, Clone)]
struct CfsEngine {
    rqs: Vec<CfsRq>,
    vruntime: Vec<u64>,
    /// Which rq each thread sits on (None = running/blocked/finished).
    queued_on: Vec<Option<CoreId>>,
}

impl CfsEngine {
    fn new(num_cores: usize) -> CfsEngine {
        CfsEngine {
            rqs: vec![CfsRq::default(); num_cores],
            vruntime: Vec::new(),
            queued_on: Vec::new(),
        }
    }

    fn reset(&mut self, num_threads: usize) {
        for rq in &mut self.rqs {
            rq.tree.clear();
            rq.min_vruntime = 0;
        }
        self.vruntime = vec![0; num_threads];
        self.queued_on = vec![None; num_threads];
    }

    fn nr_queued(&self, core: CoreId) -> usize {
        self.rqs[core.index()].tree.len()
    }

    /// Runnable load on a core: queued plus the running thread.
    fn load(&self, ctx: &SchedCtx<'_>, core: CoreId) -> usize {
        self.nr_queued(core) + usize::from(ctx.running_on(core).is_some())
    }

    /// `select_task_rq`: least-loaded core among `allowed`, ties to the
    /// lowest id (which is where core-enumeration order enters).
    fn select_core(
        &self,
        ctx: &SchedCtx<'_>,
        allowed: impl Iterator<Item = CoreId>,
    ) -> Option<CoreId> {
        allowed.min_by_key(|&c| (self.load(ctx, c), c.index()))
    }

    /// Enqueues with min-vruntime placement (a sleeper's stale vruntime is
    /// forgiven up to the queue's current minimum).
    fn enqueue(&mut self, thread: ThreadId, core: CoreId) {
        debug_assert!(self.queued_on[thread.index()].is_none());
        let rq = &mut self.rqs[core.index()];
        let vrt = self.vruntime[thread.index()].max(rq.min_vruntime);
        self.vruntime[thread.index()] = vrt;
        rq.tree.insert((vrt, thread.0));
        self.queued_on[thread.index()] = Some(core);
    }

    /// Removes a specific queued thread (for balancing/stealing).
    fn dequeue(&mut self, thread: ThreadId) -> bool {
        let Some(core) = self.queued_on[thread.index()].take() else {
            return false;
        };
        let key = (self.vruntime[thread.index()], thread.0);
        let removed = self.rqs[core.index()].tree.remove(&key);
        debug_assert!(removed, "queued thread must be in its tree");
        removed
    }

    /// Pops the leftmost (minimum-vruntime) thread of a core's queue.
    fn pop_local(&mut self, core: CoreId) -> Option<ThreadId> {
        let rq = &mut self.rqs[core.index()];
        let (vrt, tid) = rq.tree.pop_first()?;
        rq.min_vruntime = rq.min_vruntime.max(vrt);
        let thread = ThreadId::new(tid);
        self.queued_on[thread.index()] = None;
        Some(thread)
    }

    /// Empties a core's queue entirely (hot-unplug: the simulator
    /// re-routes the returned threads through `enqueue`).
    fn drain(&mut self, core: CoreId) -> Vec<ThreadId> {
        let mut drained = Vec::with_capacity(self.nr_queued(core));
        while let Some(thread) = self.pop_local(core) {
            drained.push(thread);
        }
        drained
    }

    /// Idle balancing: pull the leftmost thread of the most loaded other
    /// queue (among threads passing `allowed`).
    fn steal_for(
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
    fn slice(&self, ctx: &SchedCtx<'_>, core: CoreId) -> SimDuration {
        let nr = self.load(ctx, core).max(1) as u64;
        let ns = (SCHED_LATENCY_NS / nr).max(MIN_GRANULARITY_NS);
        SimDuration::from_nanos(ns)
    }

    /// `wakeup_preempt_entity`: preempt when the runner's vruntime leads
    /// the waker's by more than the wakeup granularity.
    fn should_preempt(&self, incoming: ThreadId, running: ThreadId) -> bool {
        let vr = self.vruntime[running.index()];
        let vi = self.vruntime[incoming.index()];
        vr > vi.saturating_add(WAKEUP_GRANULARITY_NS)
    }

    /// Charges consumed CPU time to a thread's vruntime (equal weights —
    /// and, for the baseline, deliberately AMP-agnostic wall time).
    fn charge(&mut self, thread: ThreadId, ran: SimDuration) {
        self.vruntime[thread.index()] =
            self.vruntime[thread.index()].saturating_add(ran.as_nanos());
    }

    /// Periodic load balance: move one queued thread from the most loaded
    /// to the least loaded core (when they differ by ≥ 2), respecting
    /// `allowed`.
    fn balance(&mut self, ctx: &SchedCtx<'_>, allowed: impl Fn(ThreadId, CoreId) -> bool) {
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
    fn requeue_core(&self, ctx: &SchedCtx<'_>, thread: ThreadId) -> CoreId {
        match ctx.thread(thread).last_core {
            Some(core) if ctx.core_online(core) => core,
            _ => self
                .select_core(ctx, ctx.online_cores())
                .unwrap_or(CoreId::new(0)),
        }
    }

    /// Current vruntime of a thread (inspection for tests/diagnostics).
    #[cfg(test)]
    fn vruntime(&self, thread: ThreadId) -> u64 {
        self.vruntime[thread.index()]
    }
}

/// WASH's weights on the speedup, blocking and fairness z-scores, and
/// the combined score above which a thread is bound to big cores.
const WASH_SPEEDUP_WEIGHT: f64 = 1.0;
const WASH_BLOCKING_WEIGHT: f64 = 1.0;
const WASH_FAIRNESS_WEIGHT: f64 = 0.5;
const WASH_BIG_THRESHOLD: f64 = 0.25;

/// GTS's up- and down-migration thresholds (fractions of wall time spent
/// runnable, mirroring big.LITTLE MP's hysteresis) and the EWMA weight of
/// the newest window.
const GTS_UP_THRESHOLD: f64 = 0.8;
const GTS_DOWN_THRESHOLD: f64 = 0.3;
const GTS_ALPHA: f64 = 0.5;

/// The cluster a thread is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    Anywhere,
    Big,
    Little,
}

impl Placement {
    /// Whether a thread so bound may run on a core of the given kind.
    fn fits(self, big: bool) -> bool {
        match self {
            Placement::Anywhere => true,
            Placement::Big => big,
            Placement::Little => !big,
        }
    }

    /// The telemetry vocabulary equivalent: big-bound threads behave as
    /// high-speedup, little-bound as non-critical, the rest as flexible.
    fn class(self) -> LabelClass {
        match self {
            Placement::Anywhere => LabelClass::Flexible,
            Placement::Big => LabelClass::HighSpeedup,
            Placement::Little => LabelClass::NonCritical,
        }
    }
}

/// What a family member adds to plain CFS, with its per-run state.
#[derive(Debug, Clone)]
enum Rule {
    Linux,
    Wash {
        model: SpeedupModel,
        scratch: WashScratch,
    },
    Gts {
        /// Per-thread load average.
        load: Vec<f64>,
        /// Per-thread `(run_time, ready_time)` at the last window boundary.
        snapshots: Vec<(SimDuration, SimDuration)>,
        last_tick: SimTime,
    },
    EqualProgress {
        model: SpeedupModel,
        /// Per-thread speedup predictions, refreshed each tick.
        speedup: Vec<f64>,
    },
}

/// Reused buffers for WASH's 10 ms scoring pass, so a tick allocates
/// nothing once the buffers reach the live-thread high-water mark.
#[derive(Debug, Clone, Default)]
struct WashScratch {
    live: Vec<ThreadId>,
    speedup: Vec<f64>,
    blocking: Vec<f64>,
    deficit: Vec<f64>,
}

/// A CFS-family policy: `linux`, `wash`, `gts` or `equal-progress`.
///
/// # Examples
///
/// ```
/// use amp_perf::SpeedupModel;
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
///
/// let model = SpeedupModel::heuristic();
/// assert_eq!(CfsScheduler::wash(&machine, model.clone()).name(), "wash");
/// assert_eq!(CfsScheduler::gts(&machine).name(), "gts");
/// let ep = CfsScheduler::equal_progress(&machine, model);
/// assert_eq!(ep.name(), "equal-progress");
/// ```
#[derive(Debug, Clone)]
pub struct CfsScheduler {
    engine: CfsEngine,
    rule: Rule,
    /// Per-thread binding, recomputed each tick by WASH and GTS.
    placement: Vec<Placement>,
    has_big: bool,
    has_little: bool,
}

impl CfsScheduler {
    /// The paper's `LINUX` baseline: plain CFS, asymmetry-agnostic.
    pub fn new(machine: &MachineConfig) -> CfsScheduler {
        CfsScheduler::with_rule(machine, Rule::Linux)
    }

    /// WASH, scoring speedup with `model`.
    pub fn wash(machine: &MachineConfig, model: SpeedupModel) -> CfsScheduler {
        let scratch = WashScratch::default();
        CfsScheduler::with_rule(machine, Rule::Wash { model, scratch })
    }

    /// ARM GTS: load-average affinity.
    pub fn gts(machine: &MachineConfig) -> CfsScheduler {
        let rule = Rule::Gts {
            load: Vec::new(),
            snapshots: Vec::new(),
            last_tick: SimTime::ZERO,
        };
        CfsScheduler::with_rule(machine, rule)
    }

    /// Equal-progress, converting little-core time into progress with
    /// `model`'s speedup estimates.
    pub fn equal_progress(machine: &MachineConfig, model: SpeedupModel) -> CfsScheduler {
        let speedup = Vec::new();
        CfsScheduler::with_rule(machine, Rule::EqualProgress { model, speedup })
    }

    fn with_rule(machine: &MachineConfig, rule: Rule) -> CfsScheduler {
        CfsScheduler {
            engine: CfsEngine::new(machine.num_cores()),
            rule,
            placement: Vec::new(),
            has_big: machine.cores_of_kind(CoreKind::Big).next().is_some(),
            has_little: machine.cores_of_kind(CoreKind::Little).next().is_some(),
        }
    }
}

impl Scheduler for CfsScheduler {
    fn name(&self) -> &'static str {
        match self.rule {
            Rule::Linux => "linux",
            Rule::Wash { .. } => "wash",
            Rule::Gts { .. } => "gts",
            Rule::EqualProgress { .. } => "equal-progress",
        }
    }

    fn init(&mut self, ctx: &SchedCtx<'_>) {
        let n = ctx.num_threads();
        self.engine.reset(n);
        self.placement = vec![Placement::Anywhere; n];
        match &mut self.rule {
            Rule::Linux | Rule::Wash { .. } => {}
            Rule::Gts {
                load,
                snapshots,
                last_tick,
            } => {
                *load = vec![1.0; n]; // fresh threads look busy, as in the kernel
                *snapshots = vec![(SimDuration::ZERO, SimDuration::ZERO); n];
                *last_tick = ctx.now;
            }
            Rule::EqualProgress { speedup, .. } => *speedup = vec![1.5; n],
        }
    }

    fn enqueue(&mut self, ctx: &SchedCtx<'_>, thread: ThreadId, reason: EnqueueReason) -> CoreId {
        let placement = self.placement[thread.index()];
        let last = match reason {
            EnqueueReason::Requeue => Some(self.engine.requeue_core(ctx, thread)),
            EnqueueReason::Spawn | EnqueueReason::Wake => None,
        };
        let core = match last {
            // A requeue stays put when its binding allows the core.
            Some(core) if placement.fits(ctx.core_kind(core).is_big()) => core,
            // Otherwise the least-loaded core of the bound cluster — or,
            // when that cluster is hot-unplugged, any online core rather
            // than stranding the thread.
            _ => self
                .engine
                .select_core(
                    ctx,
                    ctx.online_cores()
                        .filter(|&c| placement.fits(ctx.core_kind(c).is_big())),
                )
                .or_else(|| self.engine.select_core(ctx, ctx.online_cores()))
                .unwrap_or(CoreId::new(0)),
        };
        self.engine.enqueue(thread, core);
        core
    }

    fn pick_next(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Pick {
        // The local leftmost thread, else idle balancing: pull from the
        // busiest queue a thread whose binding fits this core.
        let (engine, placement) = (&mut self.engine, &self.placement);
        engine
            .pop_local(core)
            .or_else(|| {
                let big = ctx.core_kind(core).is_big();
                engine.steal_for(core, |t, _| placement[t.index()].fits(big))
            })
            .map_or(Pick::Idle, Pick::Run)
    }

    fn time_slice(&self, ctx: &SchedCtx<'_>, thread: ThreadId, core: CoreId) -> SimDuration {
        let slice = self.engine.slice(ctx, core);
        if let Rule::EqualProgress { speedup, .. } = &self.rule {
            // The estimate in force for this slice: it converts
            // little-core time into progress, so its error is the
            // policy's key telemetry.
            let predicted_speedup = speedup[thread.index()];
            ctx.emit(
                core,
                SchedEvent::SlicePredict {
                    thread,
                    predicted_speedup,
                    slice,
                },
            );
        }
        slice
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
        match &mut self.rule {
            Rule::Linux => {}
            Rule::Wash { model, scratch } => {
                if self.has_big {
                    wash_pass(ctx, model, scratch, &mut self.placement);
                }
            }
            Rule::Gts {
                load,
                snapshots,
                last_tick,
            } => {
                gts_pass(
                    ctx,
                    load,
                    snapshots,
                    last_tick,
                    self.has_big,
                    self.has_little,
                    &mut self.placement,
                );
            }
            Rule::EqualProgress { model, speedup } => {
                for t in ctx.live_threads() {
                    speedup[t.index()] = model.predict(&ctx.thread(t).pmu_window);
                }
            }
        }
        let placement = &self.placement;
        self.engine.balance(ctx, |t, dest| {
            placement[t.index()].fits(ctx.core_kind(dest).is_big())
        });
    }

    fn on_stop(
        &mut self,
        ctx: &SchedCtx<'_>,
        thread: ThreadId,
        core: CoreId,
        ran: SimDuration,
        _reason: StopReason,
    ) {
        let charged = match &self.rule {
            // Progress accounting: little-core time is worth 1/speedup
            // of a big-core millisecond, so under-served threads fall
            // behind in vruntime and win subsequent picks everywhere.
            Rule::EqualProgress { speedup, .. } if !ctx.core_kind(core).is_big() => {
                ran.div_f64(speedup[thread.index()].max(1.0))
            }
            _ => ran,
        };
        self.engine.charge(thread, charged);
    }

    fn drain_core(&mut self, _ctx: &SchedCtx<'_>, core: CoreId) -> Vec<ThreadId> {
        self.engine.drain(core)
    }
}

/// Rebinds `thread`, emitting a telemetry relabel when its binding flips.
fn rebind(ctx: &SchedCtx<'_>, placement: &mut [Placement], thread: ThreadId, to: Placement) {
    let from = std::mem::replace(&mut placement[thread.index()], to);
    if from != to {
        let core = ctx.thread(thread).last_core.unwrap_or(CoreId::new(0));
        ctx.emit(
            core,
            SchedEvent::Relabel {
                thread,
                from: from.class(),
                to: to.class(),
            },
        );
    }
}

/// WASH's 10 ms pass: z-score speedup, blocking and fairness across live
/// threads, combine, and bind above-threshold threads to big cores.
fn wash_pass(
    ctx: &SchedCtx<'_>,
    model: &SpeedupModel,
    s: &mut WashScratch,
    placement: &mut [Placement],
) {
    s.live.clear();
    s.live.extend(ctx.live_threads());
    if s.live.len() < 2 {
        for &t in &s.live {
            rebind(ctx, placement, t, Placement::Anywhere);
        }
        return;
    }
    s.speedup.clear();
    s.speedup.extend(
        s.live
            .iter()
            .map(|&t| model.predict(&ctx.thread(t).pmu_window)),
    );
    s.blocking.clear();
    s.blocking.extend(
        s.live
            .iter()
            .map(|&t| ctx.thread(t).blocking_ewma.as_secs_f64()),
    );
    // Fairness: threads that have had *less* big-core share deserve a
    // boost (negated share, z-scored).
    s.deficit.clear();
    s.deficit.extend(s.live.iter().map(|&t| {
        let v = ctx.thread(t);
        let run = v.run_time.as_secs_f64();
        if run > 0.0 {
            -(v.big_time.as_secs_f64() / run)
        } else {
            0.0
        }
    }));

    // z-scores are computed on the fly from (mean, std) — same
    // per-element arithmetic as materializing the z vectors, without
    // three more buffers.
    let (ms, ss) = zstats(&s.speedup);
    let (mb, sb) = zstats(&s.blocking);
    let (mf, sf) = zstats(&s.deficit);
    for (i, &t) in s.live.iter().enumerate() {
        let score = WASH_SPEEDUP_WEIGHT * zscore(s.speedup[i], ms, ss)
            + WASH_BLOCKING_WEIGHT * zscore(s.blocking[i], mb, sb)
            + WASH_FAIRNESS_WEIGHT * zscore(s.deficit[i], mf, sf);
        let to = if score > WASH_BIG_THRESHOLD {
            Placement::Big
        } else {
            Placement::Anywhere
        };
        rebind(ctx, placement, t, to);
    }
}

/// GTS's 10 ms pass: fold each live thread's runnable fraction of the
/// window into its load average and rebind it across the thresholds.
/// A cluster the machine lacks is never bound to, so on a machine of one
/// core kind GTS schedules as CFS.
fn gts_pass(
    ctx: &SchedCtx<'_>,
    load: &mut [f64],
    snapshots: &mut [(SimDuration, SimDuration)],
    last_tick: &mut SimTime,
    has_big: bool,
    has_little: bool,
    placement: &mut [Placement],
) {
    let window = ctx.now.saturating_since(*last_tick);
    *last_tick = ctx.now;
    if window.is_zero() {
        return;
    }
    let window_s = window.as_secs_f64();
    let bind = |cluster, present| {
        if present {
            cluster
        } else {
            Placement::Anywhere
        }
    };
    for t in ctx.live_threads() {
        let v = ctx.thread(t);
        let (prev_run, prev_ready) = snapshots[t.index()];
        let runnable = (v.run_time - prev_run) + (v.ready_time - prev_ready);
        snapshots[t.index()] = (v.run_time, v.ready_time);
        let instant = (runnable.as_secs_f64() / window_s).min(1.0);
        let avg = &mut load[t.index()];
        *avg = (1.0 - GTS_ALPHA) * *avg + GTS_ALPHA * instant;
        let to = if *avg >= GTS_UP_THRESHOLD {
            bind(Placement::Big, has_big)
        } else if *avg <= GTS_DOWN_THRESHOLD {
            bind(Placement::Little, has_little)
        } else {
            // Hysteresis: keep the previous binding.
            placement[t.index()]
        };
        rebind(ctx, placement, t, to);
    }
}

/// Population mean and standard deviation of `values`.
fn zstats(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// One population z-score; zero when the population is degenerate.
fn zscore(value: f64, mean: f64, std: f64) -> f64 {
    if std < 1e-12 {
        0.0
    } else {
        (value - mean) / std
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_sim::{Simulation, SimulationOutcome};
    use amp_types::CoreOrder;
    use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};

    fn run_at(bench: BenchmarkId, threads: usize, scale: Scale) -> SimulationOutcome {
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

    /// Population z-scores; zeros when the population is degenerate.
    fn zscores(values: &[f64]) -> Vec<f64> {
        let (mean, std) = zstats(values);
        values.iter().map(|&v| zscore(v, mean, std)).collect()
    }

    #[test]
    fn zscores_standardize() {
        let z = zscores(&[1.0, 2.0, 3.0]);
        assert!((z[0] + z[2]).abs() < 1e-12);
        assert!(z[1].abs() < 1e-12);
        assert_eq!(zscores(&[5.0, 5.0, 5.0]), vec![0.0; 3]);
    }

    #[test]
    fn runs_single_and_multi_program_workloads() {
        let machine = MachineConfig::paper_2b4s(CoreOrder::LittleFirst);
        for spec in [
            WorkloadSpec::single(BenchmarkId::Ferret, 6),
            WorkloadSpec::named(
                "mix",
                vec![(BenchmarkId::Swaptions, 4), (BenchmarkId::Radix, 4)],
            ),
        ] {
            let outcome = Simulation::build_scaled(&machine, &spec, 2, Scale::quick())
                .unwrap()
                .run(&mut CfsScheduler::wash(&machine, SpeedupModel::heuristic()))
                .unwrap();
            assert!(outcome.makespan > SimTime::ZERO);
            assert_eq!(outcome.scheduler, "wash");
        }
    }

    #[test]
    fn high_speedup_threads_get_more_big_core_time() {
        // Swaptions: core-insensitive master, core-sensitive workers. WASH
        // should route worker time to big cores disproportionately.
        let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
        let spec = WorkloadSpec::single(BenchmarkId::Swaptions, 5);
        let outcome = Simulation::build_scaled(&machine, &spec, 4, Scale::new(0.3))
            .unwrap()
            .run(&mut CfsScheduler::wash(&machine, SpeedupModel::heuristic()))
            .unwrap();
        let master = &outcome.threads[0];
        let workers = &outcome.threads[1..];
        let master_share = master.big_time.as_secs_f64() / master.run_time.as_secs_f64().max(1e-12);
        let worker_share: f64 = workers
            .iter()
            .map(|w| w.big_time.as_secs_f64() / w.run_time.as_secs_f64().max(1e-12))
            .sum::<f64>()
            / workers.len() as f64;
        assert!(
            worker_share > master_share,
            "workers {worker_share:.2} vs master {master_share:.2}"
        );
    }

    #[test]
    fn gts_completes_mixed_workloads() {
        let machine = MachineConfig::paper_2b4s(CoreOrder::BigFirst);
        let spec = WorkloadSpec::named(
            "gts-mix",
            vec![(BenchmarkId::Ferret, 6), (BenchmarkId::Radix, 4)],
        );
        let outcome = Simulation::build_scaled(&machine, &spec, 3, Scale::quick())
            .unwrap()
            .run(&mut CfsScheduler::gts(&machine))
            .unwrap();
        assert!(outcome.makespan > SimTime::ZERO);
        assert_eq!(outcome.scheduler, "gts");
    }

    #[test]
    fn busy_threads_climb_to_big_cores() {
        // A compute-only workload with fewer threads than cores: every
        // thread is 100% runnable, so all of them bind to big cores and
        // contend there; little cores see at most spillover.
        let machine = MachineConfig::paper_2b2s(CoreOrder::LittleFirst);
        let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 2);
        let outcome = Simulation::build_scaled(&machine, &spec, 5, Scale::new(0.5))
            .unwrap()
            .run(&mut CfsScheduler::gts(&machine))
            .unwrap();
        let total_big: f64 = outcome
            .threads
            .iter()
            .map(|t| t.big_time.as_secs_f64())
            .sum();
        let total_run: f64 = outcome
            .threads
            .iter()
            .map(|t| t.run_time.as_secs_f64())
            .sum();
        assert!(
            total_big / total_run > 0.8,
            "busy threads only {:.2} on big cores",
            total_big / total_run
        );
    }

    #[test]
    fn thresholds_have_hysteresis_band() {
        const { assert!(GTS_UP_THRESHOLD > GTS_DOWN_THRESHOLD) }
    }

    #[test]
    fn equal_progress_completes_mixed_workloads() {
        let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
        let spec = WorkloadSpec::named(
            "ep-mix",
            vec![(BenchmarkId::Ferret, 6), (BenchmarkId::Radix, 4)],
        );
        let outcome = Simulation::build_scaled(&machine, &spec, 3, Scale::quick())
            .unwrap()
            .run(&mut CfsScheduler::equal_progress(
                &machine,
                SpeedupModel::heuristic(),
            ))
            .unwrap();
        assert!(outcome.makespan > SimTime::ZERO);
        assert_eq!(outcome.scheduler, "equal-progress");
    }

    #[test]
    fn progress_is_more_even_than_under_cfs() {
        // Identical compute threads, twice as many as cores: equal-
        // progress should shrink the spread of *work completed per unit
        // time* across threads compared to asymmetry-blind CFS. Since all
        // threads run the same total work, compare the spread of finish
        // times.
        let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
        let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 8);
        let spread = |outcome: &SimulationOutcome| {
            let finishes: Vec<f64> = outcome
                .threads
                .iter()
                .map(|t| t.finish.as_secs_f64())
                .collect();
            let max = finishes.iter().cloned().fold(0.0, f64::max);
            let min = finishes.iter().cloned().fold(f64::INFINITY, f64::min);
            max / min
        };
        let cfs = Simulation::build_scaled(&machine, &spec, 5, Scale::new(0.5))
            .unwrap()
            .run(&mut CfsScheduler::new(&machine))
            .unwrap();
        let ep = Simulation::build_scaled(&machine, &spec, 5, Scale::new(0.5))
            .unwrap()
            .run(&mut CfsScheduler::equal_progress(
                &machine,
                SpeedupModel::heuristic(),
            ))
            .unwrap();
        assert!(
            spread(&ep) <= spread(&cfs) + 1e-9,
            "equal-progress spread {:.3} vs CFS {:.3}",
            spread(&ep),
            spread(&cfs)
        );
    }
}
