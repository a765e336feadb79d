//! The discrete-event simulation engine.
//!
//! Time advances through a priority queue of events; between events the
//! machine state is exact. Four event kinds exist:
//!
//! * `CoreDone` — the thread running on a core reaches the end of its
//!   current compute segment *or* its time slice, whichever is sooner.
//!   Each core has at most one armed, and stopping the thread cancels it,
//!   so a completion that pops always belongs to the running thread;
//! * `Tick` — the periodic (10 ms) runtime update: PMU windows are
//!   finalized, blocking windows computed, and the scheduler's
//!   [`on_tick`](crate::Scheduler::on_tick) labelling pass runs;
//! * `Arrival` — a staggered application's threads become ready;
//! * `Fault` — an event of the armed fault plan strikes.
//!
//! Synchronization actions (lock, unlock, barrier, push, pop) execute
//! inline at segment boundaries: they are instantaneous but may block the
//! thread or wake others, and every blocking edge is accounted by the futex
//! subsystem. Wakeups trigger `should_preempt` checks exactly like the
//! kernel's wakeup-preemption path.

use std::cell::RefCell;
use std::sync::Arc;

use amp_faults::{FaultKind, FaultPlan};
use amp_futex::{OpResult, SyncObjects};
use amp_perf::{Counter, ExecutionProfile, PmuCounters};
use amp_telemetry::{ClusterDirection, PreemptCause, SchedEvent, Telemetry};
use amp_types::{
    AppId, CoreId, CoreKind, Error, MachineConfig, Result, SimDuration, SimTime, ThreadId,
};
use amp_workloads::{
    Action, CompiledApp, CompiledProgram, CompiledWorkload, Scale, SegPos, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::equeue::{EventKey, EventQueue};
use crate::outcome::{AppOutcome, DegradationReport, SimulationOutcome, ThreadStats};
use crate::params::SimParams;
use crate::sched::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason, ThreadPhase, ThreadView};
use crate::trace::{Trace, TraceEvent};

/// Per-core-kind power draw in watts, `(active, idle)`, calibrated to
/// published Cortex-A57/A53 cluster measurements at the paper's clock
/// speeds: an out-of-order A57 core draws roughly six times an in-order
/// A53 core when active, and both kinds keep a small leakage/idle floor.
const BIG_POWER_W: (f64, f64) = (1.5, 0.12);
const LITTLE_POWER_W: (f64, f64) = (0.25, 0.03);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    CoreDone {
        core: CoreId,
    },
    Tick,
    /// A staggered application's threads become ready.
    Arrival {
        app: AppId,
    },
    /// The `index`-th event of the fault plan strikes.
    Fault {
        index: usize,
    },
}

/// Engine-private per-thread state (public facts live in [`ThreadView`]).
struct ThreadState {
    name: String,
    profile: ExecutionProfile,
    /// Cached `profile.true_speedup()`, refreshed on `SetProfile` — keeps
    /// the speedup polynomial off the per-event accounting path.
    speedup: f64,
    /// Cached instructions per big-core work nanosecond
    /// (`2.0 * profile.ipc_big()`), refreshed with `speedup`.
    insts_per_ns: f64,
    /// Segment-compiled behaviour; `Arc`-shared with the plan-level
    /// intern store when the harness built this simulation.
    program: Arc<CompiledProgram>,
    /// Position in the compiled stream; yields the same actions the
    /// tree-walking `Cursor` would.
    pos: SegPos,
    /// Remaining big-core-ns of the current compute leaf; zero means
    /// the next program action must be fetched.
    pending: SimDuration,
    /// When the thread entered the Ready state (valid while Ready).
    ready_since: SimTime,
    /// When the thread blocked (valid while Blocked).
    blocked_since: SimTime,
    /// Set on futex wakeup, consumed at the next dispatch: the
    /// wakeup-to-run latency sample for telemetry.
    woken_at: Option<SimTime>,
    finish: SimTime,
    work_done: SimDuration,
    /// Window accumulators for PMU synthesis.
    win_cycles: f64,
    win_insts: f64,
    win_kind: CoreKind,
    pmu_total: PmuCounters,
    insts_total: f64,
    /// caused-wait at the last window boundary.
    block_snapshot: SimDuration,
    /// Monotone counter feeding counter-synthesis noise.
    pmu_seq: u64,
}

/// [`ExecutionProfile::exec_duration`] with the thread's cached
/// `true_speedup` — identical arithmetic, no polynomial re-evaluation.
#[inline]
fn exec_at(speedup: f64, work: SimDuration, kind: CoreKind) -> SimDuration {
    match kind {
        CoreKind::Big => work,
        CoreKind::Little => work.mul_f64(speedup),
    }
}

/// `freq_ghz` over the reference clock of its kind (2.0 GHz big, 1.2 GHz
/// little) that the execution-rate model is calibrated at: >1 means the
/// core is overclocked and runs proportionally faster.
fn freq_ratio(kind: CoreKind, freq_ghz: f64) -> f64 {
    freq_ghz
        / match kind {
            CoreKind::Big => 2.0,
            CoreKind::Little => 1.2,
        }
}

struct CoreState {
    kind: CoreKind,
    freq_ghz: f64,
    /// [`freq_ratio`] of `kind` at `freq_ghz`.
    freq_ratio: f64,
    /// When the running thread was dispatched: the start of its stint
    /// and of the execution slice the trace records when the stint ends.
    dispatched_at: SimTime,
    /// Last accounting point for the current dispatch (starts at dispatch
    /// time; overhead is charged as it elapses, so preempting a thread
    /// mid-overhead never double-counts).
    acct_from: SimTime,
    /// End of the switch/migration overhead window; work retires only
    /// after it.
    overhead_end: SimTime,
    quantum_end: SimTime,
    /// Handle to the core's in-flight `CoreDone` event. Cancelled in
    /// [`Simulation::clear_core`], so a superseded completion never pops.
    pending_done: Option<EventKey>,
    last_thread: Option<ThreadId>,
    need_resched: bool,
    busy: SimDuration,
    switches: u64,
}

/// A loaded, ready-to-run simulation: machine + workload + futex state.
///
/// Build one with [`Simulation::from_compiled_with_params`] (or
/// [`build_scaled`](Simulation::build_scaled) for a paper workload),
/// optionally add [`with_arrivals`](Simulation::with_arrivals) and
/// [`with_fault_plan`](Simulation::with_fault_plan), then consume it with
/// [`Simulation::run`] under a chosen scheduler.
/// Runs are deterministic in `(machine, workload, seed)`.
pub struct Simulation {
    machine: MachineConfig,
    params: SimParams,
    threads: Vec<ThreadState>,
    views: Vec<ThreadView>,
    running: Vec<Option<ThreadId>>,
    cores: Vec<CoreState>,
    sync: SyncObjects,
    /// Threads released by the sync operation in progress, in wake order.
    /// Allocated once with room for every thread (one operation wakes at
    /// most all the others) and cleared after each operation, so no wake
    /// allocates.
    woken: Vec<ThreadId>,
    /// Per app: name and member threads.
    apps: Vec<(String, Vec<ThreadId>)>,
    /// Per app: arrival instant (ZERO = at the checkpoint, as the paper).
    arrivals: Vec<SimTime>,
    /// Global sync ids per app, indexed by app-local id.
    lock_map: Vec<Vec<amp_types::LockId>>,
    barrier_map: Vec<Vec<amp_types::BarrierId>>,
    channel_map: Vec<Vec<amp_types::ChannelId>>,
    rng: StdRng,
    /// The fault schedule (empty by default; see
    /// [`with_fault_plan`](Simulation::with_fault_plan)).
    fault_plan: FaultPlan,
    /// Dedicated generator for counter-degradation faults, seeded from
    /// the plan. Kept apart from `rng` so an empty plan leaves the
    /// engine's RNG stream — and thus every synthesized counter —
    /// bit-identical to a run without fault support.
    fault_rng: StdRng,
    /// Per-core availability; hot-unplugged cores are never dispatched.
    online: Vec<bool>,
    /// When each offline core went down (None while online).
    offline_since: Vec<Option<SimTime>>,
    /// Current multiplier on migration overheads (1.0 = nominal).
    migration_cost_factor: f64,
    /// Active PMU degradation (0.0 = clean).
    counter_dropout: f64,
    counter_jitter: f64,
    degradation: DegradationReport,
    /// First scheduler-invariant violation observed on a path that cannot
    /// return `Result` (e.g. inside `dispatch`); the run loop surfaces it.
    fatal: Option<Error>,
    trace: Trace,
    /// Decision telemetry. In a `RefCell` so the read-only [`SchedCtx`]
    /// can hand policies a recording hook; every borrow is short-lived
    /// and write-only, so telemetry can never feed back into decisions.
    telemetry: RefCell<Telemetry>,
    events: EventQueue<Event>,
    events_processed: u64,
    /// Compute leaves retired — one per `Compute` action the program
    /// stream yields.
    compute_leaves: u64,
    /// Compute `CoreDone` arming events: one per nonzero leaf, plus one
    /// more each time a leaf resumes after a tick, preemption or quantum
    /// end.
    compute_events: u64,
    now: SimTime,
    finished: usize,
}

impl Simulation {
    /// Compiles `workload` at `(seed, scale)` and loads it with default
    /// parameters — the shortcut for a paper workload; everything else
    /// goes through [`from_compiled_with_params`](Simulation::from_compiled_with_params).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any app fails validation.
    pub fn build_scaled(
        machine: &MachineConfig,
        workload: &WorkloadSpec,
        seed: u64,
        scale: Scale,
    ) -> Result<Simulation> {
        let compiled = CompiledWorkload::compile(workload, seed, scale)?;
        Simulation::from_compiled_with_params(
            machine,
            compiled.apps().to_vec(),
            seed,
            SimParams::default(),
        )
    }

    /// Loads compiled applications (see [`CompiledApp::compile`], which
    /// validates the specs) onto `machine`. The programs are
    /// `Arc`-shared, so a harness can compile a workload once and load it
    /// into many simulations. Every app arrives at `SimTime::ZERO`, the
    /// paper's checkpoint; see [`with_arrivals`](Simulation::with_arrivals)
    /// and [`with_fault_plan`](Simulation::with_fault_plan) to change that
    /// or to disturb the machine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `apps` is empty.
    pub fn from_compiled_with_params(
        machine: &MachineConfig,
        apps: Vec<Arc<CompiledApp>>,
        seed: u64,
        params: SimParams,
    ) -> Result<Simulation> {
        if apps.is_empty() {
            return Err(Error::InvalidConfig("workload has no applications".into()));
        }
        let total_threads: usize = apps.iter().map(|a| a.threads.len()).sum();
        let mut sync = SyncObjects::new(total_threads);

        let mut threads = Vec::with_capacity(total_threads);
        let mut views = Vec::with_capacity(total_threads);
        let mut app_table = Vec::with_capacity(apps.len());
        let mut lock_map = Vec::new();
        let mut barrier_map = Vec::new();
        let mut channel_map = Vec::new();

        for (ai, app) in apps.iter().enumerate() {
            let app_id = AppId::new(ai as u32);
            lock_map.push((0..app.num_locks).map(|_| sync.add_lock()).collect());
            barrier_map.push(
                app.barrier_parties
                    .iter()
                    .map(|&p| sync.add_barrier(p))
                    .collect(),
            );
            channel_map.push(
                app.channel_capacities
                    .iter()
                    .map(|&c| sync.add_channel(c))
                    .collect(),
            );
            let mut members = Vec::with_capacity(app.threads.len());
            for spec in &app.threads {
                let tid = ThreadId::new(threads.len() as u32);
                members.push(tid);
                threads.push(ThreadState {
                    name: spec.name.clone(),
                    profile: spec.profile,
                    speedup: spec.profile.true_speedup(),
                    insts_per_ns: 2.0 * spec.profile.ipc_big(),
                    program: Arc::clone(&spec.program),
                    pos: SegPos::new(),
                    pending: SimDuration::ZERO,
                    ready_since: SimTime::ZERO,
                    blocked_since: SimTime::ZERO,
                    woken_at: None,
                    finish: SimTime::ZERO,
                    work_done: SimDuration::ZERO,
                    win_cycles: 0.0,
                    win_insts: 0.0,
                    win_kind: CoreKind::Big,
                    pmu_total: PmuCounters::zeroed(),
                    insts_total: 0.0,
                    block_snapshot: SimDuration::ZERO,
                    pmu_seq: 0,
                });
                views.push(ThreadView {
                    app: app_id,
                    phase: ThreadPhase::NotStarted,
                    pmu_window: PmuCounters::zeroed(),
                    blocking_ewma: SimDuration::ZERO,
                    blocking_total: SimDuration::ZERO,
                    run_time: SimDuration::ZERO,
                    big_time: SimDuration::ZERO,
                    ready_time: SimDuration::ZERO,
                    last_core: None,
                });
            }
            app_table.push((app.name.clone(), members));
        }

        let cores = machine
            .iter()
            .map(|(_, spec)| CoreState {
                kind: spec.kind,
                freq_ghz: spec.freq_ghz,
                freq_ratio: freq_ratio(spec.kind, spec.freq_ghz),
                dispatched_at: SimTime::ZERO,
                acct_from: SimTime::ZERO,
                overhead_end: SimTime::ZERO,
                quantum_end: SimTime::ZERO,
                pending_done: None,
                last_thread: None,
                need_resched: false,
                busy: SimDuration::ZERO,
                switches: 0,
            })
            .collect();
        let num_cores = machine.num_cores();

        Ok(Simulation {
            machine: machine.clone(),
            params,
            threads,
            views,
            running: vec![None; num_cores],
            cores,
            sync,
            woken: Vec::with_capacity(total_threads),
            arrivals: vec![SimTime::ZERO; app_table.len()],
            apps: app_table,
            lock_map,
            barrier_map,
            channel_map,
            rng: StdRng::seed_from_u64(seed ^ 0xC0_1AB),
            fault_plan: FaultPlan::empty(),
            fault_rng: StdRng::seed_from_u64(seed ^ 0xFA_07),
            online: vec![true; num_cores],
            offline_since: vec![None; num_cores],
            migration_cost_factor: 1.0,
            counter_dropout: 0.0,
            counter_jitter: 0.0,
            degradation: DegradationReport::default(),
            fatal: None,
            trace: Trace::with_capacity(params.trace_capacity),
            telemetry: RefCell::new(Telemetry::new(params.event_capacity)),
            events: EventQueue::new(),
            events_processed: 0,
            compute_leaves: 0,
            compute_events: 0,
            now: SimTime::ZERO,
            finished: 0,
        })
    }

    /// Staggers the applications' arrivals: app `i` becomes runnable at
    /// `arrivals[i]` and its turnaround is measured from then (the
    /// paper's protocol is every arrival at `SimTime::ZERO`, the
    /// default). Composes with [`with_fault_plan`](Simulation::with_fault_plan).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] unless there is exactly one
    /// arrival per application.
    pub fn with_arrivals(mut self, arrivals: Vec<SimTime>) -> Result<Simulation> {
        if arrivals.len() != self.apps.len() {
            return Err(Error::InvalidConfig(
                "one arrival time per application is required".into(),
            ));
        }
        self.arrivals = arrivals;
        Ok(self)
    }

    /// Arms a fault schedule for the run: each plan event is pushed onto
    /// the ordinary event queue and injected when simulated time reaches
    /// it. An empty plan pushes nothing, draws nothing from any RNG, and
    /// leaves the run bit-identical to one without fault support.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidFaultPlan`] if the plan fails
    /// [`FaultPlan::validate`] against this simulation's machine.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Result<Simulation> {
        plan.validate(&self.machine)?;
        self.fault_rng = StdRng::seed_from_u64(plan.seed() ^ 0xFA_07);
        for (index, event) in plan.events().iter().enumerate() {
            self.events
                .push(event.at.as_nanos(), Event::Fault { index });
        }
        self.fault_plan = plan;
        Ok(self)
    }

    /// Runs the simulation to completion under `sched`.
    ///
    /// # Errors
    ///
    /// * [`Error::Deadlock`] if the workload blocks forever;
    /// * [`Error::HorizonExceeded`] if the configured horizon passes.
    pub fn run(mut self, sched: &mut dyn Scheduler) -> Result<SimulationOutcome> {
        sched.init(&self.ctx());

        // The paper starts from a post-initialization checkpoint: every
        // thread of an app arriving at t=0 is ready now; staggered apps
        // get an arrival event.
        for ai in 0..self.apps.len() {
            let app = AppId::new(ai as u32);
            let arrival = self.arrivals[ai];
            if arrival == SimTime::ZERO {
                self.arrive(app, sched);
            } else {
                self.push_event(arrival, Event::Arrival { app });
            }
        }
        self.kick_idle_cores(sched);
        if let Some(err) = self.fatal.take() {
            return Err(err);
        }
        let tick = self.params.tick;
        self.push_event(self.now + tick, Event::Tick);

        while self.finished < self.threads.len() {
            let popped = self
                .events
                .pop()
                .expect("the tick stays queued until every thread finishes");
            self.now = SimTime::from_nanos(popped.time);
            self.events_processed += 1;
            if self.now > self.params.horizon {
                return Err(Error::HorizonExceeded {
                    detail: format!(
                        "{} of {} threads finished by {}",
                        self.finished,
                        self.threads.len(),
                        self.now
                    ),
                });
            }
            match popped.item {
                Event::CoreDone { core } => {
                    // `clear_core` cancels the armed completion of every
                    // thread it stops, so the one that pops is the running
                    // thread's segment or slice boundary.
                    self.cores[core.index()].pending_done = None;
                    let tid = self.running[core.index()]
                        .expect("a popped completion belongs to a running thread");
                    self.account_run(core, tid);
                    self.continue_thread(core, tid, sched);
                }
                Event::Arrival { app } => {
                    self.arrive(app, sched);
                    self.kick_idle_cores(sched);
                }
                Event::Tick => {
                    if self.finished == self.threads.len() {
                        continue;
                    }
                    // The one deadlock check: nothing runnable, nothing
                    // running, nothing yet to arrive.
                    let stuck =
                        self.views.iter().all(|v| {
                            matches!(v.phase, ThreadPhase::Blocked | ThreadPhase::Finished)
                        }) && self.arrivals.iter().all(|&a| a <= self.now);
                    if stuck {
                        let blocked = self
                            .views
                            .iter()
                            .filter(|v| v.phase == ThreadPhase::Blocked)
                            .count();
                        return Err(Error::Deadlock { blocked });
                    }
                    self.sample_windows();
                    sched.on_tick(&self.ctx());
                    self.kick_idle_cores(sched);
                    self.push_event(self.now + tick, Event::Tick);
                }
                Event::Fault { index } => {
                    self.apply_fault(index, sched)?;
                }
            }
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
        }

        Ok(self.into_outcome(sched.name()))
    }

    // ------------------------------------------------------------------
    // event plumbing

    fn push_event(&mut self, at: SimTime, event: Event) -> EventKey {
        self.events.push(at.as_nanos(), event)
    }

    fn ctx(&self) -> SchedCtx<'_> {
        SchedCtx {
            now: self.now,
            machine: &self.machine,
            threads: &self.views,
            running: &self.running,
            online: &self.online,
            telemetry: &self.telemetry,
        }
    }

    /// Hands a runnable thread to the policy and returns the core it
    /// chose. Routing one to an offline core is the invariant the chaos
    /// layer checks, so it is counted here.
    fn enqueue(
        &mut self,
        tid: ThreadId,
        reason: EnqueueReason,
        sched: &mut dyn Scheduler,
    ) -> CoreId {
        let target = sched.enqueue(&self.ctx(), tid, reason);
        if !self.online[target.index()] {
            self.degradation.stranded_enqueues += 1;
        }
        target
    }

    /// Makes every thread of `app` ready, hands each to the policy as a
    /// spawn, and applies wakeup preemption on the core it lands on.
    fn arrive(&mut self, app: AppId, sched: &mut dyn Scheduler) {
        for i in 0..self.apps[app.index()].1.len() {
            let tid = self.apps[app.index()].1[i];
            debug_assert_eq!(self.views[tid.index()].phase, ThreadPhase::NotStarted);
            self.views[tid.index()].phase = ThreadPhase::Ready;
            self.threads[tid.index()].ready_since = self.now;
            let target = self.enqueue(tid, EnqueueReason::Spawn, sched);
            if let Some(current) = self.running[target.index()] {
                if sched.should_preempt(&self.ctx(), tid, target, current) {
                    self.preempt_core(target, PreemptCause::Wakeup, sched);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // fault injection

    /// Injects the `index`-th event of the armed fault plan.
    fn apply_fault(&mut self, index: usize, sched: &mut dyn Scheduler) -> Result<()> {
        let event = self.fault_plan.events()[index];
        self.degradation.faults_injected += 1;
        match event.kind {
            FaultKind::CoreOffline { core } => self.core_offline(core, sched),
            FaultKind::CoreOnline { core } => {
                self.core_online(core, sched);
                Ok(())
            }
            FaultKind::Throttle { core, factor } => {
                self.throttle_core(core, factor, sched);
                Ok(())
            }
            FaultKind::CounterNoise { dropout, jitter } => {
                self.degradation.counter_faults += 1;
                self.counter_dropout = dropout;
                self.counter_jitter = jitter;
                Ok(())
            }
            FaultKind::MigrationSpike { factor } => {
                self.degradation.migration_spikes += 1;
                self.migration_cost_factor = factor;
                Ok(())
            }
        }
    }

    /// Hot-unplugs `core`: evicts its running thread, drains its
    /// runqueue, and re-routes everything through the scheduler.
    fn core_offline(&mut self, core: CoreId, sched: &mut dyn Scheduler) -> Result<()> {
        let i = core.index();
        if !self.online[i] {
            return Ok(()); // already down; idempotent
        }
        if self.online.iter().filter(|&&o| o).count() == 1 {
            // Unreachable for validated plans; a defense for hand-armed
            // state mutation paths.
            return Err(Error::NoOnlineCore);
        }
        self.online[i] = false;
        self.offline_since[i] = Some(self.now);
        self.telemetry
            .borrow_mut()
            .record(self.now, core, SchedEvent::CoreOffline { core });
        // Evictions are machine-initiated, like tick rebalancing, and
        // carry the `Tick` cause.
        if self.running[i].is_some() {
            self.degradation.forced_migrations += 1;
            self.preempt_core(core, PreemptCause::Tick, sched);
        }
        // Threads queued on the dead core must be re-routed, or they
        // would wait forever on a core that never picks again.
        let orphans = sched.drain_core(&self.ctx(), core);
        for tid in orphans {
            self.degradation.forced_migrations += 1;
            self.enqueue(tid, EnqueueReason::Requeue, sched);
        }
        self.kick_idle_cores(sched);
        Ok(())
    }

    /// Brings `core` back online and offers it work immediately.
    fn core_online(&mut self, core: CoreId, sched: &mut dyn Scheduler) {
        let i = core.index();
        if self.online[i] {
            return; // already up; idempotent
        }
        self.online[i] = true;
        if let Some(since) = self.offline_since[i].take() {
            self.degradation.offline_core_time += self.now.saturating_since(since);
        }
        self.telemetry
            .borrow_mut()
            .record(self.now, core, SchedEvent::CoreOnline { core });
        self.dispatch(core, sched);
    }

    /// Rescales `core`'s clock to `factor` × nominal. Work retired so far
    /// is accounted at the old rate; the running thread (if any) is
    /// preempted so its next segment is re-timed at the new rate and the
    /// policy can reconsider its placement.
    fn throttle_core(&mut self, core: CoreId, factor: f64, sched: &mut dyn Scheduler) {
        let i = core.index();
        if let Some(tid) = self.running[i] {
            self.account_run(core, tid);
        }
        let nominal = self.machine.core(core).freq_ghz;
        let new_freq = nominal * factor;
        let c = &mut self.cores[i];
        c.freq_ghz = new_freq;
        c.freq_ratio = freq_ratio(c.kind, new_freq);
        self.telemetry
            .borrow_mut()
            .record(self.now, core, SchedEvent::Throttle { core, factor });
        if self.running[i].is_some() {
            self.degradation.forced_migrations += 1;
            self.preempt_core(core, PreemptCause::Tick, sched);
        }
    }

    // ------------------------------------------------------------------
    // core lifecycle

    /// Charges the on-CPU time since the last accounting point to the
    /// thread. Time inside the overhead window counts as run time (the
    /// core is occupied) but retires no work.
    fn account_run(&mut self, core: CoreId, tid: ThreadId) {
        let now = self.now;
        let c = &mut self.cores[core.index()];
        if now <= c.acct_from {
            return;
        }
        let from = c.acct_from;
        c.acct_from = now;
        let elapsed = now - from;
        let work_time = if now > c.overhead_end {
            now - from.max(c.overhead_end)
        } else {
            SimDuration::ZERO
        };
        c.busy += elapsed;
        let kind = c.kind;
        let freq = c.freq_ghz;
        let freq_ratio = c.freq_ratio;
        let view = &mut self.views[tid.index()];
        view.run_time += elapsed;
        if kind.is_big() {
            view.big_time += elapsed;
        }
        let state = &mut self.threads[tid.index()];
        let scaled = work_time.mul_f64(freq_ratio);
        let mut work = match kind {
            CoreKind::Big => scaled,
            CoreKind::Little => scaled.div_f64(state.speedup),
        };
        // Snap rounding drift at segment completion.
        if work + SimDuration::from_nanos(2) >= state.pending {
            work = state.pending;
        }
        state.pending -= work;
        state.work_done += work;
        state.win_cycles += work_time.as_nanos() as f64 * freq;
        state.win_insts += work.as_nanos() as f64 * state.insts_per_ns;
        state.win_kind = kind;
    }

    /// Drives a running thread forward: fetch actions, execute sync ops
    /// inline, schedule the next compute segment, or stop the thread.
    fn continue_thread(&mut self, core: CoreId, tid: ThreadId, sched: &mut dyn Scheduler) {
        loop {
            if self.threads[tid.index()].pending.is_zero() {
                // Need the next action from the compiled stream.
                let action = {
                    let state = &mut self.threads[tid.index()];
                    state.program.next(&mut state.pos)
                };
                match action {
                    None => {
                        self.deschedule(core, tid, StopReason::Finished, sched);
                        return;
                    }
                    Some(Action::Compute(d)) => {
                        self.threads[tid.index()].pending = d;
                        self.compute_leaves += 1;
                        // fall through to the run-scheduling branch
                    }
                    Some(Action::SetProfile(profile)) => {
                        // Instant phase change: subsequent compute (and
                        // counter synthesis) uses the new characteristics.
                        let state = &mut self.threads[tid.index()];
                        state.profile = profile;
                        state.speedup = profile.true_speedup();
                        state.insts_per_ns = 2.0 * profile.ipc_big();
                    }
                    Some(sync_action) => {
                        let mut woken = std::mem::take(&mut self.woken);
                        let result = self.apply_sync(tid, sync_action, &mut woken);
                        for &w in &woken {
                            self.wake_thread(w, core, sched);
                        }
                        woken.clear();
                        self.woken = woken;
                        if result == OpResult::Block {
                            self.deschedule(core, tid, StopReason::Blocked, sched);
                            return;
                        }
                    }
                }
            } else {
                let c = &self.cores[core.index()];
                if c.need_resched {
                    // The deferred half of wakeup preemption: this thread
                    // woke a thread that should displace it.
                    self.preempt_core(core, PreemptCause::Wakeup, sched);
                    return;
                }
                if self.now >= c.quantum_end {
                    self.deschedule(core, tid, StopReason::QuantumExpired, sched);
                    return;
                }
                // Arm the current leaf's completion, capped at the
                // quantum end. A throttled or overclocked core scales the
                // execution time by its frequency ratio.
                let state = &self.threads[tid.index()];
                let c = &self.cores[core.index()];
                let exec_pending = exec_at(state.speedup, state.pending, c.kind);
                let dur = exec_pending
                    .div_f64(c.freq_ratio)
                    .min(c.quantum_end - self.now);
                debug_assert!(c.acct_from == self.now);
                self.arm_done(core, self.now + dur);
                self.compute_events += 1;
                return;
            }
        }
    }

    /// Applies one synchronization action through the futex subsystem,
    /// remapping app-local ids to global ones. Threads the action
    /// releases are appended to `woken`.
    fn apply_sync(&mut self, tid: ThreadId, action: Action, woken: &mut Vec<ThreadId>) -> OpResult {
        let app = self.views[tid.index()].app.index();
        match action {
            Action::Lock(l) => self.sync.lock(self.lock_map[app][l.index()], tid, self.now),
            Action::Unlock(l) => {
                self.sync
                    .unlock(self.lock_map[app][l.index()], tid, self.now, woken);
                OpResult::Proceed
            }
            Action::Barrier(b) => {
                self.sync
                    .barrier_arrive(self.barrier_map[app][b.index()], tid, self.now, woken)
            }
            Action::Push(c) => {
                self.sync
                    .push(self.channel_map[app][c.index()], tid, self.now, woken)
            }
            Action::Pop(c) => self
                .sync
                .pop(self.channel_map[app][c.index()], tid, self.now, woken),
            Action::Compute(_) | Action::SetProfile(_) => {
                unreachable!("compute/phase actions handled by the caller")
            }
        }
    }

    /// Transitions a woken thread to Ready, enqueues it, and applies the
    /// wakeup-preemption protocol. `waker_core` is the core whose running
    /// thread performed the wake (preempting it is deferred via
    /// `need_resched`).
    fn wake_thread(&mut self, tid: ThreadId, waker_core: CoreId, sched: &mut dyn Scheduler) {
        debug_assert_eq!(self.views[tid.index()].phase, ThreadPhase::Blocked);
        let since = self.threads[tid.index()].blocked_since;
        let blocked = self.now.saturating_since(since);
        self.views[tid.index()].phase = ThreadPhase::Ready;
        self.threads[tid.index()].ready_since = self.now;
        self.threads[tid.index()].woken_at = Some(self.now);
        self.telemetry.borrow_mut().observe_futex_block(blocked);
        if let Some(waker) = self.running[waker_core.index()] {
            self.telemetry.borrow_mut().record(
                self.now,
                waker_core,
                SchedEvent::FutexWake {
                    waker,
                    woken: tid,
                    blocked,
                },
            );
        }

        let target = self.enqueue(tid, EnqueueReason::Wake, sched);
        match self.running[target.index()] {
            None => self.dispatch(target, sched),
            Some(current) if current != tid => {
                if sched.should_preempt(&self.ctx(), tid, target, current) {
                    if target == waker_core {
                        self.cores[target.index()].need_resched = true;
                    } else {
                        self.preempt_core(target, PreemptCause::Wakeup, sched);
                    }
                }
            }
            Some(_) => {}
        }
        // Other idle cores may also want the new work (global policies).
        self.kick_idle_cores(sched);
    }

    /// The one preemption path: stops the thread running on `core`
    /// before its boundary, records why, and re-enqueues it.
    fn preempt_core(&mut self, core: CoreId, cause: PreemptCause, sched: &mut dyn Scheduler) {
        let tid = self.running[core.index()].expect("only a running thread is preempted");
        self.account_run(core, tid);
        self.telemetry.borrow_mut().record(
            self.now,
            core,
            SchedEvent::Preempt { victim: tid, cause },
        );
        self.deschedule(core, tid, StopReason::Preempted, sched);
    }

    /// Stops the thread running on `core` for any reason but a steal:
    /// ends its stint, requeues it if it is still runnable, and
    /// re-dispatches the core.
    fn deschedule(
        &mut self,
        core: CoreId,
        tid: ThreadId,
        reason: StopReason,
        sched: &mut dyn Scheduler,
    ) {
        self.end_stint(core, tid, reason, sched);
        let runnable = matches!(reason, StopReason::QuantumExpired | StopReason::Preempted);
        if runnable {
            self.enqueue(tid, EnqueueReason::Requeue, sched);
        }
        self.dispatch(core, sched);
        if runnable {
            self.kick_idle_cores(sched);
        }
    }

    /// The one stop path: detaches `tid` from `core`, records the closed
    /// execution slice, moves the thread to the phase `reason` implies,
    /// and reports the stint to the policy. The caller has accounted the
    /// stint up to now.
    fn end_stint(
        &mut self,
        core: CoreId,
        tid: ThreadId,
        reason: StopReason,
        sched: &mut dyn Scheduler,
    ) {
        let (now, ti) = (self.now, tid.index());
        let from = self.cores[core.index()].dispatched_at;
        debug_assert_eq!(
            self.cores[core.index()].acct_from,
            now,
            "stint not accounted"
        );
        self.clear_core(core, tid);
        self.trace.record(TraceEvent {
            core,
            thread: tid,
            from,
            to: now,
            reason,
        });
        match reason {
            StopReason::QuantumExpired | StopReason::Preempted => {
                self.views[ti].phase = ThreadPhase::Ready;
                self.threads[ti].ready_since = now;
            }
            StopReason::Blocked => {
                self.views[ti].phase = ThreadPhase::Blocked;
                self.threads[ti].blocked_since = now;
            }
            StopReason::Finished => {
                self.views[ti].phase = ThreadPhase::Finished;
                self.threads[ti].finish = now;
                self.finished += 1;
            }
            // The stolen thread keeps its Running phase through the
            // handoff: no Ready transition, no queueing delay.
            StopReason::Stolen => {}
        }
        sched.on_stop(&self.ctx(), tid, core, now - from, reason);
    }

    /// Detaches the thread from the core and cancels its armed
    /// completion: the only guard against a stale `CoreDone`.
    fn clear_core(&mut self, core: CoreId, tid: ThreadId) {
        debug_assert_eq!(self.running[core.index()], Some(tid));
        let c = &mut self.cores[core.index()];
        c.need_resched = false;
        c.last_thread = Some(tid);
        let pending = c.pending_done.take();
        self.running[core.index()] = None;
        if let Some(key) = pending {
            let cancelled = self.events.cancel(key);
            debug_assert!(cancelled.is_some(), "armed completion was not queued");
        }
    }

    /// Queues `core`'s completion at `at`; a core has at most one armed.
    fn arm_done(&mut self, core: CoreId, at: SimTime) {
        debug_assert!(self.cores[core.index()].pending_done.is_none());
        let key = self.push_event(at, Event::CoreDone { core });
        self.cores[core.index()].pending_done = Some(key);
    }

    /// Gives an idle core work via the scheduler. Offline cores are never
    /// dispatched — whatever a policy answers for one is ignored.
    fn dispatch(&mut self, core: CoreId, sched: &mut dyn Scheduler) {
        if !self.online[core.index()] || self.running[core.index()].is_some() {
            return;
        }
        match sched.pick_next(&self.ctx(), core) {
            Pick::Idle => {}
            Pick::Run(tid) => {
                if self.views[tid.index()].phase != ThreadPhase::Ready {
                    // A policy handing out a non-ready thread is a bug we
                    // surface as a typed error instead of corrupting state.
                    self.fatal.get_or_insert(Error::SchedulerInvariant(format!(
                        "{} picked {:?} on core {} but it is {:?}",
                        sched.name(),
                        tid,
                        core.index(),
                        self.views[tid.index()].phase,
                    )));
                    return;
                }
                // Leaving the ready state: account queueing delay.
                let since = self.threads[tid.index()].ready_since;
                let queued = self.now.saturating_since(since);
                self.views[tid.index()].ready_time += queued;
                {
                    let mut tel = self.telemetry.borrow_mut();
                    tel.counters.picks += 1;
                    tel.observe_runqueue_wait(queued);
                    if let Some(woken) = self.threads[tid.index()].woken_at.take() {
                        tel.observe_wakeup_latency(self.now.saturating_since(woken));
                    }
                }
                self.start_thread(core, tid, sched);
            }
            Pick::StealRunning { victim } => {
                debug_assert_ne!(victim, core, "a core cannot steal from itself");
                let stolen = if victim == core {
                    None
                } else {
                    self.running[victim.index()]
                };
                let Some(vt) = stolen else {
                    return; // policy raced with reality; stay idle
                };
                self.account_run(victim, vt);
                self.end_stint(victim, vt, StopReason::Stolen, sched);
                self.telemetry.borrow_mut().record(
                    self.now,
                    core,
                    SchedEvent::IdleSteal {
                        thread: vt,
                        from: victim,
                    },
                );
                self.start_thread(core, vt, sched);
                self.dispatch(victim, sched);
            }
        }
    }

    /// Places `tid` on `core`, charging switch/migration overhead, and
    /// schedules the kick-off event.
    fn start_thread(&mut self, core: CoreId, tid: ThreadId, sched: &mut dyn Scheduler) {
        let mut overhead = SimDuration::ZERO;
        if self.cores[core.index()].last_thread != Some(tid) {
            overhead += self.params.context_switch;
            self.cores[core.index()].switches += 1;
        }
        let prev_core = self.views[tid.index()].last_core;
        if let Some(prev) = prev_core {
            if prev != core {
                let prev_kind = self.cores[prev.index()].kind;
                self.telemetry.borrow_mut().record(
                    self.now,
                    core,
                    SchedEvent::Migrate {
                        thread: tid,
                        from: prev,
                        to: core,
                        direction: ClusterDirection::from_kinds(
                            prev_kind,
                            self.cores[core.index()].kind,
                        ),
                    },
                );
                let base = if prev_kind == self.cores[core.index()].kind {
                    self.params.migration_same_kind
                } else {
                    self.params.migration_cross_kind
                };
                // Exact (not just close) nominal behavior when no spike is
                // active keeps fault-free runs byte-identical.
                overhead += if self.migration_cost_factor == 1.0 {
                    base
                } else {
                    base.mul_f64(self.migration_cost_factor)
                };
            }
        }

        let slice = sched.time_slice(&self.ctx(), tid, core);
        let view = &mut self.views[tid.index()];
        view.phase = ThreadPhase::Running(core);
        view.last_core = Some(core);
        self.running[core.index()] = Some(tid);

        // Overhead is charged by `account_run` as it elapses, so a thread
        // preempted mid-overhead is never double-billed.
        let c = &mut self.cores[core.index()];
        c.need_resched = false;
        c.dispatched_at = self.now;
        c.acct_from = self.now;
        c.overhead_end = self.now + overhead;
        c.quantum_end = self.now + overhead + slice;
        self.arm_done(core, self.now + overhead);
    }

    fn kick_idle_cores(&mut self, sched: &mut dyn Scheduler) {
        for i in 0..self.cores.len() {
            if self.running[i].is_none() {
                self.dispatch(CoreId::new(i as u32), sched);
            }
        }
    }

    // ------------------------------------------------------------------
    // periodic sampling

    /// Closes the 10 ms PMU/blocking window for every live thread.
    fn sample_windows(&mut self) {
        // Fold in any partial run of currently-running threads so windows
        // reflect up-to-now state.
        for i in 0..self.cores.len() {
            if let Some(tid) = self.running[i] {
                self.account_run(CoreId::new(i as u32), tid);
            }
        }
        for ti in 0..self.threads.len() {
            if matches!(
                self.views[ti].phase,
                ThreadPhase::Finished | ThreadPhase::NotStarted
            ) {
                continue;
            }
            let tid = ThreadId::new(ti as u32);
            if let Some(pmu) = self.close_pmu_window(ti) {
                self.views[ti].pmu_window = pmu;
                // Score the policy's latest speedup prediction against the
                // profile's ground truth for the window that just closed.
                let actual = self.threads[ti].speedup;
                self.telemetry
                    .borrow_mut()
                    .observe_actual_speedup(tid, actual);
            }
            // Blocking window from the futex ledger.
            let state = &mut self.threads[ti];
            let total = self.sync.futex().caused_wait(tid);
            let window = total - state.block_snapshot;
            state.block_snapshot = total;
            let view = &mut self.views[ti];
            view.blocking_ewma = (view.blocking_ewma + window) / 2;
            view.blocking_total = total;
        }
    }

    /// Closes thread `ti`'s PMU window if it retired anything: synthesizes
    /// the window's counters (degraded while counter faults are active),
    /// folds them into the thread's totals, and returns them.
    fn close_pmu_window(&mut self, ti: usize) -> Option<PmuCounters> {
        let state = &mut self.threads[ti];
        if state.win_insts > 0.0 {
            state.pmu_seq += 1;
            let mut pmu = state.profile.synthesize_counters(
                state.win_kind,
                state.win_cycles,
                state.win_insts,
                state.pmu_seq,
                &mut self.rng,
            );
            if self.counter_dropout > 0.0 || self.counter_jitter > 0.0 {
                degrade_pmu(
                    &mut pmu,
                    self.counter_dropout,
                    self.counter_jitter,
                    &mut self.fault_rng,
                );
            }
            state.pmu_total.accumulate(&pmu);
            state.insts_total += state.win_insts;
            state.win_cycles = 0.0;
            state.win_insts = 0.0;
            Some(pmu)
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // outcome

    fn into_outcome(mut self, scheduler: &str) -> SimulationOutcome {
        // Close the final partial PMU window into the totals.
        for ti in 0..self.threads.len() {
            self.close_pmu_window(ti);
        }

        let futex = self.sync.futex();
        let threads: Vec<ThreadStats> = self
            .threads
            .iter()
            .enumerate()
            .map(|(ti, s)| {
                let tid = ThreadId::new(ti as u32);
                let v = &self.views[ti];
                ThreadStats {
                    id: tid,
                    app: v.app,
                    name: s.name.clone(),
                    finish: s.finish,
                    run_time: v.run_time,
                    big_time: v.big_time,
                    little_time: v.run_time - v.big_time,
                    work_done: s.work_done,
                    blocked_time: futex.waited(tid),
                    ready_time: v.ready_time,
                    caused_wait: futex.caused_wait(tid),
                    wait_count: futex.wait_count(tid),
                    pmu_total: s.pmu_total,
                    insts: s.insts_total,
                }
            })
            .collect();

        let apps: Vec<AppOutcome> = self
            .apps
            .iter()
            .enumerate()
            .map(|(ai, (name, members))| {
                let finish = members
                    .iter()
                    .map(|t| self.threads[t.index()].finish)
                    .max()
                    .unwrap_or(SimTime::ZERO);
                AppOutcome {
                    id: AppId::new(ai as u32),
                    name: name.clone(),
                    // Turnaround runs from the app's arrival, which is
                    // ZERO for the paper's checkpoint protocol.
                    turnaround: finish.saturating_since(self.arrivals[ai]),
                }
            })
            .collect();

        let makespan = threads
            .iter()
            .map(|t| t.finish)
            .max()
            .unwrap_or(SimTime::ZERO);

        // Close offline intervals still open at the end of the run.
        for since in self.offline_since.iter_mut() {
            if let Some(s) = since.take() {
                self.degradation.offline_core_time += makespan.saturating_since(s);
            }
        }
        let degradation = std::mem::take(&mut self.degradation);

        // Energy: active power while busy, idle power for the remainder
        // of the makespan.
        let mut per_core_joules = Vec::with_capacity(self.cores.len());
        let mut active_joules = 0.0;
        let mut idle_joules = 0.0;
        for c in &self.cores {
            let busy_s = c.busy.as_secs_f64();
            let idle_s = (makespan.as_secs_f64() - busy_s).max(0.0);
            let (active_w, idle_w) = if c.kind.is_big() {
                BIG_POWER_W
            } else {
                LITTLE_POWER_W
            };
            let active = busy_s * active_w;
            let idle = idle_s * idle_w;
            active_joules += active;
            idle_joules += idle;
            per_core_joules.push(active + idle);
        }

        let (telemetry, telemetry_events) = self.telemetry.into_inner().finish();
        let migrations = telemetry.counters.total_migrations();
        SimulationOutcome {
            scheduler: scheduler.to_string(),
            makespan,
            apps,
            threads,
            telemetry,
            telemetry_events,
            trace: std::mem::take(&mut self.trace),
            context_switches: self.cores.iter().map(|c| c.switches).sum(),
            migrations,
            events_processed: self.events_processed,
            compute_leaves: self.compute_leaves,
            compute_events: self.compute_events,
            core_busy: self.cores.iter().map(|c| c.busy).collect(),
            energy: crate::outcome::EnergyReport {
                per_core_joules,
                active_joules,
                idle_joules,
            },
            degradation,
        }
    }
}

/// Applies the active counter-degradation fault to one synthesized PMU
/// window: each counter is zeroed with probability `dropout`, and each
/// survivor gets multiplicative noise uniform in `[1 - jitter, 1 + jitter]`
/// (clamped at zero). Draws only from the dedicated fault generator so the
/// engine's own RNG stream is untouched.
fn degrade_pmu(pmu: &mut PmuCounters, dropout: f64, jitter: f64, rng: &mut StdRng) {
    for counter in Counter::ALL {
        if dropout > 0.0 && rng.gen_bool(dropout.min(1.0)) {
            pmu[counter] = 0.0;
        } else if jitter > 0.0 {
            let noise = 1.0 + rng.gen_range(-jitter..=jitter);
            pmu[counter] *= noise.max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::RoundRobin;
    use amp_types::CoreOrder;
    use amp_workloads::{AppSpec, BenchmarkId};

    #[test]
    fn power_draw_reflects_asymmetry() {
        const {
            assert!(BIG_POWER_W.0 > 4.0 * LITTLE_POWER_W.0);
            assert!(BIG_POWER_W.1 < BIG_POWER_W.0 / 5.0);
            assert!(LITTLE_POWER_W.1 < LITTLE_POWER_W.0);
        }
    }

    fn machine_2b2s() -> MachineConfig {
        MachineConfig::paper_2b2s(CoreOrder::BigFirst)
    }

    fn load(apps: &[AppSpec], seed: u64) -> Simulation {
        let compiled = CompiledApp::compile_all(apps).unwrap();
        Simulation::from_compiled_with_params(&machine_2b2s(), compiled, seed, SimParams::default())
            .unwrap()
    }

    fn run_single(bench: BenchmarkId, threads: usize) -> SimulationOutcome {
        let workload = WorkloadSpec::single(bench, threads);
        Simulation::build_scaled(&machine_2b2s(), &workload, 7, Scale::quick())
            .unwrap()
            .run(&mut RoundRobin::new())
            .unwrap()
    }

    #[test]
    fn fork_join_workload_completes() {
        let outcome = run_single(BenchmarkId::Blackscholes, 4);
        assert!(outcome.makespan > SimTime::ZERO);
        assert_eq!(outcome.threads.len(), 4);
        assert!(outcome.threads.iter().all(|t| t.finish > SimTime::ZERO));
    }

    #[test]
    fn pipeline_workload_completes() {
        let outcome = run_single(BenchmarkId::Ferret, 6);
        assert_eq!(outcome.threads.len(), 6);
        // The serial load stage caused downstream waiting at some point.
        let total_caused: SimDuration = outcome.threads.iter().map(|t| t.caused_wait).sum();
        assert!(total_caused > SimDuration::ZERO);
    }

    #[test]
    fn lock_storm_workload_completes() {
        let outcome = run_single(BenchmarkId::Fluidanimate, 4);
        let waits: u64 = outcome.threads.iter().map(|t| t.wait_count).sum();
        assert!(waits > 0, "contended locks must produce futex waits");
    }

    #[test]
    fn work_done_matches_program_demand() {
        let workload = WorkloadSpec::single(BenchmarkId::Radix, 4);
        let apps = workload.instantiate(7, Scale::quick());
        let demand: SimDuration = apps.iter().map(|a| a.total_compute()).sum();
        let sim = load(&apps, 7);
        let outcome = sim.run(&mut RoundRobin::new()).unwrap();
        let done = outcome.total_work();
        let err = done.as_nanos().abs_diff(demand.as_nanos());
        assert!(
            err <= outcome.threads.len() as u64 * 1000,
            "work {done} vs demand {demand}"
        );
    }

    #[test]
    fn per_thread_time_conservation() {
        let outcome = run_single(BenchmarkId::Bodytrack, 5);
        for t in &outcome.threads {
            let accounted = t.run_time + t.ready_time + t.blocked_time;
            let lifetime = t.finish.saturating_since(SimTime::ZERO);
            let err = accounted.as_nanos().abs_diff(lifetime.as_nanos());
            assert!(
                err < 1000,
                "{}: accounted {accounted} vs lifetime {lifetime}",
                t.name
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_single(BenchmarkId::Dedup, 8);
        let b = run_single(BenchmarkId::Dedup, 8);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.context_switches, b.context_switches);
        for (ta, tb) in a.threads.iter().zip(&b.threads) {
            assert_eq!(ta.finish, tb.finish);
            assert_eq!(ta.run_time, tb.run_time);
        }
    }

    #[test]
    fn multiprogram_workload_completes() {
        let spec = amp_workloads::WorkloadSpec::named(
            "mix",
            vec![
                (BenchmarkId::Blackscholes, 2),
                (BenchmarkId::Fluidanimate, 2),
            ],
        );
        let outcome = Simulation::build_scaled(&machine_2b2s(), &spec, 3, Scale::quick())
            .unwrap()
            .run(&mut RoundRobin::new())
            .unwrap();
        assert_eq!(outcome.apps.len(), 2);
        assert!(outcome
            .apps
            .iter()
            .all(|a| a.turnaround > SimDuration::ZERO));
    }

    #[test]
    fn deadlocked_workload_is_detected() {
        use amp_perf::ExecutionProfile;
        use amp_workloads::{Op, Program, ThreadSpec};
        // Two threads, but only one arrives at a 2-party barrier twice,
        // is impossible — craft a direct deadlock: each waits on a
        // channel the other never fills.
        let app = AppSpec {
            name: "deadlock".into(),
            benchmark: BenchmarkId::Fft,
            threads: vec![
                ThreadSpec {
                    name: "a".into(),
                    profile: ExecutionProfile::balanced(),
                    program: Program::new(vec![
                        Op::Pop(amp_types::ChannelId::new(0)),
                        Op::Push(amp_types::ChannelId::new(1)),
                    ]),
                },
                ThreadSpec {
                    name: "b".into(),
                    profile: ExecutionProfile::balanced(),
                    program: Program::new(vec![
                        Op::Pop(amp_types::ChannelId::new(1)),
                        Op::Push(amp_types::ChannelId::new(0)),
                    ]),
                },
            ],
            num_locks: 0,
            barrier_parties: vec![],
            channel_capacities: vec![1, 1],
        };
        let sim = load(&[app], 1);
        let err = sim.run(&mut RoundRobin::new()).unwrap_err();
        assert!(matches!(err, Error::Deadlock { blocked: 2 }));
    }

    #[test]
    fn utilization_is_sane() {
        let outcome = run_single(BenchmarkId::Blackscholes, 8);
        let u = outcome.utilization();
        assert!(u > 0.1 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn empty_workload_rejected() {
        let err = match Simulation::from_compiled_with_params(
            &machine_2b2s(),
            vec![],
            0,
            SimParams::default(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("empty workload must be rejected"),
        };
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn migrations_and_switches_counted() {
        let outcome = run_single(BenchmarkId::Freqmine, 6);
        assert!(outcome.context_switches > 0);
        // 6 threads on 4 cores with a FIFO queue must migrate sometimes.
        assert!(outcome.migrations > 0);
    }
}
