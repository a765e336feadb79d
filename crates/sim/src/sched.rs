//! The scheduler interface and the read-only view it schedules against.

use std::cell::RefCell;

use amp_perf::PmuCounters;
use amp_telemetry::{SchedEvent, Telemetry};
use amp_types::{AppId, CoreId, CoreKind, MachineConfig, SimDuration, SimTime, ThreadId};

/// Why a thread is being enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueReason {
    /// Its app arrived: at t=0 for the paper's post-initialization
    /// checkpoint, later for staggered arrivals.
    Spawn,
    /// Woken from a futex wait.
    Wake,
    /// Descheduled while still runnable (quantum expiry or preemption).
    Requeue,
}

/// Why a thread stopped running on a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Its time slice ended; the simulator re-enqueues it next.
    QuantumExpired,
    /// A wakeup preemption displaced it; the simulator re-enqueues it next.
    Preempted,
    /// It blocked on a futex.
    Blocked,
    /// Its program completed.
    Finished,
    /// A big core stole it while running (COLAB's little-core preemption);
    /// it continues immediately on the stealing core — do not re-enqueue.
    Stolen,
}

impl StopReason {
    /// The variant's name, spelled as its `Debug` output.
    pub fn label(self) -> &'static str {
        match self {
            StopReason::QuantumExpired => "QuantumExpired",
            StopReason::Preempted => "Preempted",
            StopReason::Blocked => "Blocked",
            StopReason::Finished => "Finished",
            StopReason::Stolen => "Stolen",
        }
    }
}

/// A core's scheduling decision, returned by [`Scheduler::pick_next`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Run this thread; the scheduler has removed it from its runqueues.
    Run(ThreadId),
    /// Take the thread *currently running* on `victim` and run it here —
    /// big cores accelerating a critical thread off a little core. The
    /// victim core re-picks afterwards.
    StealRunning {
        /// The core whose running thread is taken.
        victim: CoreId,
    },
    /// Nothing to run.
    Idle,
}

/// Lifecycle phase of a thread, as exposed to schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadPhase {
    /// Its application has not arrived yet. Every thread starts here —
    /// including during [`Scheduler::init`] — and turns
    /// [`Ready`](ThreadPhase::Ready) when its app arrives: at t=0 for the
    /// paper's checkpoint protocol, later for staggered arrivals.
    NotStarted,
    /// Enqueued on some runqueue, waiting for a core.
    Ready,
    /// Executing on this core.
    Running(CoreId),
    /// Parked on a futex.
    Blocked,
    /// Program complete.
    Finished,
}

/// Per-thread facts the simulator exposes to schedulers.
#[derive(Debug, Clone)]
pub struct ThreadView {
    /// Owning application.
    pub app: AppId,
    /// Lifecycle phase.
    pub phase: ThreadPhase,
    /// PMU counters of the last 10 ms sampling window in which the thread
    /// retired instructions. All zero until the first such window closes
    /// at a tick; a window with no instructions leaves the previous one.
    pub pmu_window: PmuCounters,
    /// Exponentially-weighted average of the time this thread caused
    /// others to wait per 10 ms window — the paper's
    /// bottleneck/criticality signal.
    pub blocking_ewma: SimDuration,
    /// Cumulative caused-waiting since simulation start.
    pub blocking_total: SimDuration,
    /// Total CPU time consumed so far.
    pub run_time: SimDuration,
    /// CPU time spent on big cores.
    pub big_time: SimDuration,
    /// Time spent runnable-but-queued so far (completed ready stints).
    pub ready_time: SimDuration,
    /// The core this thread last ran on.
    pub last_core: Option<CoreId>,
}

/// Read-only scheduling context: the machine, the clock, and per-thread /
/// per-core views. Handed to every [`Scheduler`] hook.
pub struct SchedCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The machine being scheduled.
    pub machine: &'a MachineConfig,
    pub(crate) threads: &'a [ThreadView],
    pub(crate) running: &'a [Option<ThreadId>],
    pub(crate) online: &'a [bool],
    pub(crate) telemetry: &'a RefCell<Telemetry>,
}

impl<'a> SchedCtx<'a> {
    /// Number of threads in the workload.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Iterator over all thread ids.
    fn thread_ids(&self) -> impl Iterator<Item = ThreadId> {
        (0..self.threads.len() as u32).map(ThreadId::new)
    }

    /// The view for one thread.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn thread(&self, thread: ThreadId) -> &ThreadView {
        &self.threads[thread.index()]
    }

    /// The thread running on `core`, if any.
    pub fn running_on(&self, core: CoreId) -> Option<ThreadId> {
        self.running[core.index()]
    }

    /// The kind of `core`.
    pub fn core_kind(&self, core: CoreId) -> CoreKind {
        self.machine.core(core).kind
    }

    /// Whether `core` is currently online (fault injection can hot-unplug
    /// cores mid-run; on a static machine every core is always online).
    pub fn core_online(&self, core: CoreId) -> bool {
        self.online[core.index()]
    }

    /// Iterator over the cores currently accepting work. Policies must
    /// place and steal only within this set.
    pub fn online_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.online
            .iter()
            .enumerate()
            .filter(|(_, &up)| up)
            .map(|(i, _)| CoreId::new(i as u32))
    }

    /// Records a policy-side telemetry event (relabels, slice
    /// predictions, …) at the current simulated time, attributed to
    /// `core`. Telemetry is write-only from the decision path — nothing
    /// recorded here is ever read back by the engine or a policy — so
    /// emitting can never perturb scheduling.
    pub fn emit(&self, core: CoreId, event: SchedEvent) {
        self.telemetry.borrow_mut().record(self.now, core, event);
    }

    /// Threads that have arrived and not finished (the labelling
    /// population).
    pub fn live_threads(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.thread_ids().filter(|t| {
            !matches!(
                self.threads[t.index()].phase,
                ThreadPhase::Finished | ThreadPhase::NotStarted
            )
        })
    }
}

/// A scheduling policy. See the [crate docs](crate) for how hooks map onto
/// the kernel functions the paper overrides, and the contract of each hook.
///
/// Schedulers own their runqueues: the simulator never inspects them, it
/// only hands threads over ([`enqueue`](Scheduler::enqueue)) and asks for
/// the next thread to run ([`pick_next`](Scheduler::pick_next)).
///
/// `Send` is a supertrait: the sweep executor constructs each policy
/// inside the worker job that runs it, so a policy holding `Rc`/`RefCell`
/// state (which could otherwise silently cross threads) must fail to
/// compile rather than fail in the executor.
pub trait Scheduler: Send {
    /// Short policy name, e.g. `"linux"`, `"wash"`, `"colab"`.
    fn name(&self) -> &'static str;

    /// Called once before the simulation starts, while every thread is
    /// still [`ThreadPhase::NotStarted`]: even an app arriving at t=0
    /// is handed over through [`enqueue`](Scheduler::enqueue) only after
    /// `init` returns.
    fn init(&mut self, ctx: &SchedCtx<'_>);

    /// Place a runnable thread on some core's runqueue and return that
    /// core (the simulator uses it for wakeup-preemption checks and to
    /// kick the core if idle). Mirrors `select_task_rq_fair`.
    fn enqueue(&mut self, ctx: &SchedCtx<'_>, thread: ThreadId, reason: EnqueueReason) -> CoreId;

    /// Choose what `core` runs next. Mirrors `pick_next_task_fair`.
    /// A returned [`Pick::Run`] thread must have been removed from the
    /// scheduler's queues.
    fn pick_next(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Pick;

    /// Maximum time slice for `thread` on `core`.
    fn time_slice(&self, ctx: &SchedCtx<'_>, thread: ThreadId, core: CoreId) -> SimDuration;

    /// Whether a newly woken `incoming` thread (already enqueued on
    /// `core`) should preempt `running` immediately. Mirrors
    /// `wakeup_preempt_entity`.
    fn should_preempt(
        &self,
        ctx: &SchedCtx<'_>,
        incoming: ThreadId,
        core: CoreId,
        running: ThreadId,
    ) -> bool;

    /// Periodic bookkeeping every [`SimParams::tick`](crate::SimParams):
    /// relabel threads, update affinities, balance load.
    fn on_tick(&mut self, ctx: &SchedCtx<'_>);

    /// A thread stopped running on `core` after consuming `ran` of CPU
    /// time. Update policy state (e.g. vruntime). For
    /// [`StopReason::QuantumExpired`] and [`StopReason::Preempted`] the
    /// simulator calls [`enqueue`](Scheduler::enqueue) with
    /// [`EnqueueReason::Requeue`] immediately afterwards.
    fn on_stop(
        &mut self,
        ctx: &SchedCtx<'_>,
        thread: ThreadId,
        core: CoreId,
        ran: SimDuration,
        reason: StopReason,
    );

    /// Remove every thread queued on `core` (but not running there) from
    /// the policy's runqueues and return them; the simulator re-enqueues
    /// each one elsewhere. Called when a fault hot-unplugs the core, so
    /// queued work never waits on a core that will not pick again.
    /// Policies with a single global queue can keep the default empty
    /// implementation — their queue serves any online core.
    fn drain_core(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Vec<ThreadId> {
        let _ = (ctx, core);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_reason_labels_match_debug() {
        for reason in [
            StopReason::QuantumExpired,
            StopReason::Preempted,
            StopReason::Blocked,
            StopReason::Finished,
            StopReason::Stolen,
        ] {
            assert_eq!(reason.label(), format!("{reason:?}"));
        }
    }
}
