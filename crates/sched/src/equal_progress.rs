//! Equal-progress scheduling (Van Craeynest et al., PACT 2013).
//!
//! The paper's §2 describes this fairness-focused related work: "using
//! their performance model they were able to estimate the amount of small
//! core processing time that each core should be given to progress as much
//! as it has. The scheduler then prioritized threads so that the progress
//! of all threads is the same." COLAB borrows the idea as its scale-slice
//! mechanism; this module implements the original policy standalone,
//! quantifying another Table 1 row.
//!
//! Mechanically it is CFS whose virtual runtime advances in *big-core
//! equivalents*: a millisecond on a little core only counts as
//! `1/speedup` milliseconds of progress, so threads stuck on little cores
//! look "behind" and win the next pick — on any core, including big ones.
//! Core sensitivity and bottlenecks are not considered (per Table 1).

use amp_perf::SpeedupModel;
use amp_sim::telemetry::SchedEvent;
use amp_sim::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason};
use amp_types::{CoreId, MachineConfig, SimDuration, ThreadId};

use crate::cfs::CfsEngine;

/// The equal-progress policy: CFS ordered by big-core-equivalent progress.
///
/// # Examples
///
/// ```
/// use amp_perf::SpeedupModel;
/// use amp_sched::{EqualProgressScheduler, Scheduler};
/// use amp_types::{CoreOrder, MachineConfig};
///
/// let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
/// let ep = EqualProgressScheduler::new(&machine, SpeedupModel::heuristic());
/// assert_eq!(ep.name(), "equal-progress");
/// ```
#[derive(Debug, Clone)]
pub struct EqualProgressScheduler {
    engine: CfsEngine,
    model: SpeedupModel,
    /// Cached per-thread speedup predictions, refreshed each tick.
    speedup: Vec<f64>,
}

impl EqualProgressScheduler {
    /// Creates the policy; `model` estimates per-thread speedups, as the
    /// original uses its performance model to convert little-core time
    /// into progress.
    pub fn new(machine: &MachineConfig, model: SpeedupModel) -> EqualProgressScheduler {
        EqualProgressScheduler {
            engine: CfsEngine::new(machine.num_cores()),
            model,
            speedup: Vec::new(),
        }
    }
}

impl Scheduler for EqualProgressScheduler {
    fn name(&self) -> &'static str {
        "equal-progress"
    }

    fn init(&mut self, ctx: &SchedCtx<'_>) {
        self.engine.reset(ctx.num_threads());
        self.speedup = vec![1.5; ctx.num_threads()];
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
        match self.engine.steal_for(core, |_, _| true) {
            Some(t) => Pick::Run(t),
            None => Pick::Idle,
        }
    }

    fn time_slice(&self, ctx: &SchedCtx<'_>, thread: ThreadId, core: CoreId) -> SimDuration {
        let slice = self.engine.slice(ctx, core);
        // The estimate in force for this slice: it converts little-core
        // time into progress, so its error is the policy's key telemetry.
        ctx.emit(
            core,
            SchedEvent::SlicePredict {
                thread,
                predicted_speedup: self.speedup[thread.index()],
                slice,
            },
        );
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
        for t in ctx.live_threads() {
            self.speedup[t.index()] = self.model.predict(&ctx.thread(t).pmu_window);
        }
        self.engine.balance(ctx, |_, _| true);
    }

    fn on_stop(
        &mut self,
        ctx: &SchedCtx<'_>,
        thread: ThreadId,
        core: CoreId,
        ran: SimDuration,
        _reason: StopReason,
    ) {
        // Progress accounting: little-core time is worth 1/speedup of a
        // big-core millisecond, so under-served threads fall behind in
        // vruntime and win subsequent picks everywhere.
        let charged = if ctx.core_kind(core).is_big() {
            ran
        } else {
            ran.div_f64(self.speedup[thread.index()].max(1.0))
        };
        self.engine.charge(thread, charged);
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

    #[test]
    fn completes_mixed_workloads() {
        let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
        let spec = WorkloadSpec::named(
            "ep-mix",
            vec![(BenchmarkId::Ferret, 6), (BenchmarkId::Radix, 4)],
        );
        let outcome = Simulation::build_scaled(&machine, &spec, 3, Scale::quick())
            .unwrap()
            .run(&mut EqualProgressScheduler::new(
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
        let spread = |outcome: &amp_sim::SimulationOutcome| {
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
            .run(&mut crate::CfsScheduler::new(&machine))
            .unwrap();
        let ep = Simulation::build_scaled(&machine, &spec, 5, Scale::new(0.5))
            .unwrap()
            .run(&mut EqualProgressScheduler::new(
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
