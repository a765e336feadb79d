//! Engine edge cases: degenerate programs, extreme parameters, the
//! steal-running path, and aggressive wakeup preemption — exercised with
//! purpose-built test schedulers so no policy crate is needed.

use amp_perf::{ExecutionProfile, SpeedupModel};
use amp_sched::{CfsScheduler, ColabScheduler};
use amp_sim::{
    EnqueueReason, FaultPlan, Pick, RoundRobin, SchedCtx, Scheduler, SimParams, Simulation,
    StopReason,
};
use amp_types::{
    AppId, CoreId, CoreKind, CoreOrder, Error, MachineConfig, SimDuration, SimTime, ThreadId,
};
use amp_workloads::{
    AppBuilder, AppSpec, BenchmarkId, CompiledApp, CompiledWorkload, Op, Program, Scale,
    ThreadSpec, WorkloadSpec,
};

/// Compiles `apps` and loads them onto `machine` with `params`.
fn load(machine: &MachineConfig, apps: &[AppSpec], seed: u64, params: SimParams) -> Simulation {
    let compiled = CompiledApp::compile_all(apps).expect("apps validate");
    Simulation::from_compiled_with_params(machine, compiled, seed, params).expect("apps load")
}

fn one_thread_app(name: &str, ops: Vec<Op>) -> AppSpec {
    AppSpec {
        name: name.into(),
        benchmark: BenchmarkId::Blackscholes,
        threads: vec![ThreadSpec {
            name: format!("{name}-t0"),
            profile: ExecutionProfile::balanced(),
            program: Program::new(ops),
        }],
        num_locks: 0,
        barrier_parties: vec![],
        channel_capacities: vec![],
    }
}

#[test]
fn empty_program_finishes_immediately() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let app = one_thread_app("empty", vec![]);
    let outcome = load(&machine, &[app], 1, SimParams::default())
        .run(&mut RoundRobin::new())
        .unwrap();
    // Only the dispatch overhead elapses.
    assert!(outcome.makespan < SimTime::from_millis(1));
    assert_eq!(outcome.threads[0].work_done, SimDuration::ZERO);
}

#[test]
fn sync_only_program_runs_without_compute() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let mut app = AppBuilder::new("sync-only");
    let q = app.channel(4);
    app.thread("producer", ExecutionProfile::balanced())
        .repeat(50, |b| {
            b.push(q);
        })
        .done();
    app.thread("consumer", ExecutionProfile::balanced())
        .repeat(50, |b| {
            b.pop(q);
        })
        .done();
    let outcome = load(&machine, &[app.build().unwrap()], 1, SimParams::default())
        .run(&mut RoundRobin::new())
        .unwrap();
    assert_eq!(outcome.total_work(), SimDuration::ZERO);
    assert!(outcome.threads.iter().all(|t| t.finish > SimTime::ZERO));
}

#[test]
fn tiny_horizon_reports_the_stuck_state() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let workload = WorkloadSpec::single(BenchmarkId::Radix, 4);
    let apps = workload.instantiate(1, Scale::default());
    let params = SimParams {
        horizon: SimTime::from_millis(1),
        ..SimParams::default()
    };
    let err = load(&machine, &apps, 1, params)
        .run(&mut RoundRobin::new())
        .unwrap_err();
    assert!(matches!(err, Error::HorizonExceeded { .. }), "got {err}");
}

#[test]
fn zero_overheads_speed_things_up() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let workload = WorkloadSpec::single(BenchmarkId::Fluidanimate, 8);
    let apps = workload.instantiate(1, Scale::quick());
    let free = SimParams {
        context_switch: SimDuration::ZERO,
        migration_same_kind: SimDuration::ZERO,
        migration_cross_kind: SimDuration::ZERO,
        ..SimParams::default()
    };
    let fast = load(&machine, &apps, 1, free)
        .run(&mut RoundRobin::new())
        .unwrap();
    let costly = SimParams {
        context_switch: SimDuration::from_micros(100),
        migration_same_kind: SimDuration::from_micros(500),
        migration_cross_kind: SimDuration::from_micros(1000),
        ..SimParams::default()
    };
    let slow = load(&machine, &apps, 1, costly)
        .run(&mut RoundRobin::new())
        .unwrap();
    assert!(
        slow.makespan > fast.makespan,
        "overheads must cost time: {} vs {}",
        slow.makespan,
        fast.makespan
    );
    // Work retired is identical either way.
    assert_eq!(fast.total_work().as_nanos(), slow.total_work().as_nanos());
}

#[test]
fn energy_tracks_core_kind() {
    let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
    let big = MachineConfig::all_big(4);
    let little = MachineConfig::all_little(4);
    let on_big = Simulation::build_scaled(&big, &spec, 1, Scale::quick())
        .unwrap()
        .run(&mut RoundRobin::new())
        .unwrap();
    let on_little = Simulation::build_scaled(&little, &spec, 1, Scale::quick())
        .unwrap()
        .run(&mut RoundRobin::new())
        .unwrap();
    assert!(on_big.makespan < on_little.makespan, "big cores are faster");
    assert!(
        on_big.energy.total_joules() > on_little.energy.total_joules(),
        "big cores burn more energy: {} vs {}",
        on_big.energy.total_joules(),
        on_little.energy.total_joules()
    );
    assert!(on_big.edp() > 0.0);
    let summed: f64 = on_big.energy.per_core_joules.iter().sum();
    assert!((summed - on_big.energy.total_joules()).abs() < 1e-9);
}

/// A policy that makes big cores continuously steal the running thread of
/// a little core: exercises `Pick::StealRunning` hard.
struct GreedyStealer {
    queue: Vec<ThreadId>,
    littles: Vec<CoreId>,
}

impl Scheduler for GreedyStealer {
    fn name(&self) -> &'static str {
        "greedy-stealer"
    }
    fn init(&mut self, ctx: &SchedCtx<'_>) {
        self.queue.clear();
        self.littles = ctx.machine.cores_of_kind(CoreKind::Little).collect();
    }
    fn enqueue(&mut self, _ctx: &SchedCtx<'_>, thread: ThreadId, _r: EnqueueReason) -> CoreId {
        self.queue.push(thread);
        CoreId::new(0)
    }
    fn pick_next(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Pick {
        if let Some(t) = self.queue.pop() {
            return Pick::Run(t);
        }
        if ctx.core_kind(core).is_big() {
            for &lc in &self.littles {
                if ctx.running_on(lc).is_some() {
                    return Pick::StealRunning { victim: lc };
                }
            }
        }
        Pick::Idle
    }
    fn time_slice(&self, _ctx: &SchedCtx<'_>, _t: ThreadId, _c: CoreId) -> SimDuration {
        SimDuration::from_millis(2)
    }
    fn should_preempt(&self, _c: &SchedCtx<'_>, _i: ThreadId, _co: CoreId, _r: ThreadId) -> bool {
        false
    }
    fn on_tick(&mut self, _ctx: &SchedCtx<'_>) {}
    fn on_stop(
        &mut self,
        _ctx: &SchedCtx<'_>,
        _t: ThreadId,
        _c: CoreId,
        _ran: SimDuration,
        _r: StopReason,
    ) {
    }
}

#[test]
fn steal_running_preserves_conservation() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::LittleFirst);
    let workload = WorkloadSpec::single(BenchmarkId::Blackscholes, 3);
    let apps = workload.instantiate(4, Scale::quick());
    let demand: SimDuration = apps.iter().map(|a| a.total_compute()).sum();
    let outcome = load(&machine, &apps, 4, SimParams::default())
        .run(&mut GreedyStealer {
            queue: Vec::new(),
            littles: Vec::new(),
        })
        .unwrap();
    let drift = outcome.total_work().as_nanos().abs_diff(demand.as_nanos());
    assert!(drift < 10_000, "steal path lost work: {drift}ns");
    for t in &outcome.threads {
        let accounted = t.run_time + t.ready_time + t.blocked_time;
        let lifetime = t.finish.saturating_since(SimTime::ZERO);
        assert!(
            accounted.as_nanos().abs_diff(lifetime.as_nanos()) < 1_000,
            "{}: {accounted} vs {lifetime}",
            t.name
        );
    }
}

/// A policy that preempts on every wakeup: exercises the preemption path.
struct AlwaysPreempt {
    inner: RoundRobin,
}

impl Scheduler for AlwaysPreempt {
    fn name(&self) -> &'static str {
        "always-preempt"
    }
    fn init(&mut self, ctx: &SchedCtx<'_>) {
        self.inner.init(ctx);
    }
    fn enqueue(&mut self, ctx: &SchedCtx<'_>, t: ThreadId, r: EnqueueReason) -> CoreId {
        self.inner.enqueue(ctx, t, r)
    }
    fn pick_next(&mut self, ctx: &SchedCtx<'_>, c: CoreId) -> Pick {
        self.inner.pick_next(ctx, c)
    }
    fn time_slice(&self, ctx: &SchedCtx<'_>, t: ThreadId, c: CoreId) -> SimDuration {
        self.inner.time_slice(ctx, t, c)
    }
    fn should_preempt(&self, _c: &SchedCtx<'_>, _i: ThreadId, _co: CoreId, _r: ThreadId) -> bool {
        true
    }
    fn on_tick(&mut self, ctx: &SchedCtx<'_>) {
        self.inner.on_tick(ctx);
    }
    fn on_stop(
        &mut self,
        ctx: &SchedCtx<'_>,
        t: ThreadId,
        c: CoreId,
        ran: SimDuration,
        r: StopReason,
    ) {
        self.inner.on_stop(ctx, t, c, ran, r);
    }
}

#[test]
fn aggressive_wakeup_preemption_stays_correct() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let workload = WorkloadSpec::single(BenchmarkId::Fluidanimate, 6);
    let outcome = Simulation::build_scaled(&machine, &workload, 2, Scale::quick())
        .unwrap()
        .run(&mut AlwaysPreempt {
            inner: RoundRobin::new(),
        })
        .unwrap();
    let preemptions = outcome.telemetry.counters.total_preemptions();
    assert!(preemptions > 0, "futex wakes must have preempted someone");
    for t in &outcome.threads {
        let accounted = t.run_time + t.ready_time + t.blocked_time;
        let lifetime = t.finish.saturating_since(SimTime::ZERO);
        assert!(accounted.as_nanos().abs_diff(lifetime.as_nanos()) < 1_000);
    }
}

#[test]
fn single_core_machine_serializes_everything() {
    let machine = MachineConfig::all_big(1);
    let workload = WorkloadSpec::single(BenchmarkId::Bodytrack, 4);
    let apps = workload.instantiate(3, Scale::quick());
    let demand: SimDuration = apps.iter().map(|a| a.total_compute()).sum();
    let outcome = load(&machine, &apps, 3, SimParams::default())
        .run(&mut RoundRobin::new())
        .unwrap();
    // One big core: makespan is at least the serial demand.
    assert!(outcome.makespan.as_nanos() >= demand.as_nanos());
    assert!(outcome.utilization() > 0.9);
}

#[test]
fn core_frequency_scales_execution_rate() {
    use amp_types::CoreSpec;
    // A little core overclocked to 2.4 GHz (2× its 1.2 GHz reference)
    // must finish the same work in half the time.
    let spec = WorkloadSpec::single(BenchmarkId::WaterSpatial, 1);
    let stock = MachineConfig::all_little(1);
    let boosted = MachineConfig::from_cores(vec![CoreSpec {
        kind: CoreKind::Little,
        freq_ghz: 2.4,
    }]);
    let slow = Simulation::build_scaled(&stock, &spec, 2, Scale::quick())
        .unwrap()
        .run(&mut RoundRobin::new())
        .unwrap();
    let fast = Simulation::build_scaled(&boosted, &spec, 2, Scale::quick())
        .unwrap()
        .run(&mut RoundRobin::new())
        .unwrap();
    let ratio = slow.makespan.as_secs_f64() / fast.makespan.as_secs_f64();
    assert!(
        (ratio - 2.0).abs() < 0.05,
        "2x clock should halve the makespan, got ratio {ratio:.3}"
    );
    // The same instructions retire either way.
    let drift = slow
        .total_work()
        .as_nanos()
        .abs_diff(fast.total_work().as_nanos());
    assert!(drift < 10_000, "work drift {drift}ns");
}

#[test]
fn staggered_arrivals_are_respected() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let early = WorkloadSpec::single(BenchmarkId::Blackscholes, 2)
        .instantiate(1, Scale::quick())
        .remove(0);
    let late = WorkloadSpec::single(BenchmarkId::Radix, 2)
        .instantiate(2, Scale::quick())
        .remove(0);
    let arrival = SimTime::from_millis(20);
    let sim = load(&machine, &[early, late], 3, SimParams::default())
        .with_arrivals(vec![SimTime::ZERO, arrival])
        .unwrap();
    let outcome = sim.run(&mut RoundRobin::new()).unwrap();

    // The late app's threads run nothing before their arrival.
    let late_threads: Vec<_> = outcome
        .threads
        .iter()
        .filter(|t| t.app == amp_types::AppId::new(1))
        .collect();
    assert!(!late_threads.is_empty());
    for t in &late_threads {
        assert!(
            t.finish > arrival,
            "{} finished at {} before arriving",
            t.name,
            t.finish
        );
        // Lifetime decomposition holds from the arrival instant.
        let accounted = t.run_time + t.ready_time + t.blocked_time;
        let lifetime = t.finish.saturating_since(arrival);
        assert!(
            accounted.as_nanos().abs_diff(lifetime.as_nanos()) < 1_000,
            "{}: {accounted} vs {lifetime}",
            t.name
        );
    }
    // The app turnaround is measured from arrival, so it is shorter than
    // its last finish instant.
    let late_app = &outcome.apps[1];
    let last_finish = late_threads.iter().map(|t| t.finish).max().unwrap();
    assert_eq!(late_app.turnaround, last_finish.saturating_since(arrival));
}

/// A two-app mix, compiled: the unit the arrival tests stagger.
fn two_apps(seed: u64) -> Vec<std::sync::Arc<CompiledApp>> {
    let spec = WorkloadSpec::named(
        "arrival-mix",
        vec![(BenchmarkId::Ferret, 4), (BenchmarkId::Fluidanimate, 3)],
    );
    CompiledWorkload::compile(&spec, seed, Scale::quick())
        .unwrap()
        .apps()
        .to_vec()
}

#[test]
fn with_arrivals_needs_one_arrival_per_app() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    for arrivals in [vec![], vec![SimTime::ZERO], vec![SimTime::ZERO; 3]] {
        let sim =
            Simulation::from_compiled_with_params(&machine, two_apps(1), 1, SimParams::default())
                .unwrap();
        let len = arrivals.len();
        match sim.with_arrivals(arrivals) {
            Err(Error::InvalidConfig(_)) => {}
            Err(e) => panic!("{len} arrivals for 2 apps: wrong error {e}"),
            Ok(_) => panic!("{len} arrivals for 2 apps must be rejected"),
        }
    }
}

fn five_schedulers(machine: &MachineConfig) -> [Box<dyn Scheduler>; 5] {
    let model = SpeedupModel::heuristic();
    [
        Box::new(CfsScheduler::new(machine)),
        Box::new(CfsScheduler::gts(machine)),
        Box::new(CfsScheduler::wash(machine, model.clone())),
        Box::new(ColabScheduler::new(machine, model.clone())),
        Box::new(CfsScheduler::equal_progress(machine, model)),
    ]
}

#[test]
fn staggered_arrivals_compose_with_random_fault_plans() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let arrival = SimTime::from_millis(15);
    for seed in 0..5u64 {
        let plan = FaultPlan::random(&machine, seed, 2.0, SimDuration::from_millis(200));
        for mut sched in five_schedulers(&machine) {
            let name = sched.name();
            let outcome = Simulation::from_compiled_with_params(
                &machine,
                two_apps(seed),
                seed,
                SimParams::default(),
            )
            .unwrap()
            .with_arrivals(vec![SimTime::ZERO, arrival])
            .unwrap()
            .with_fault_plan(plan.clone())
            .unwrap()
            .run(sched.as_mut())
            .unwrap_or_else(|e| panic!("{name} (seed {seed}): {e}"));
            let d = &outcome.degradation;
            assert_eq!(d.stranded_enqueues, 0, "{name} stranded (seed {seed})");
            assert!(
                plan.is_empty() || d.faults_injected > 0,
                "{name} consumed no faults (seed {seed})"
            );
            for t in outcome.threads.iter().filter(|t| t.app == AppId::new(1)) {
                assert!(t.finish > arrival, "{name}: {} ran before arriving", t.name);
                assert!(
                    t.work_done > SimDuration::ZERO,
                    "{name}: {} stalled",
                    t.name
                );
            }
        }
    }
}

#[test]
fn empty_plan_and_zero_arrivals_are_bit_identical_to_a_plain_run() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let params = SimParams {
        trace_capacity: 1 << 14,
        event_capacity: 1 << 12,
        ..SimParams::default()
    };
    let pairs = five_schedulers(&machine)
        .into_iter()
        .zip(five_schedulers(&machine));
    for (mut plain_sched, mut staged_sched) in pairs {
        let plain = Simulation::from_compiled_with_params(&machine, two_apps(9), 9, params)
            .unwrap()
            .run(plain_sched.as_mut())
            .unwrap();
        let staged = Simulation::from_compiled_with_params(&machine, two_apps(9), 9, params)
            .unwrap()
            .with_arrivals(vec![SimTime::ZERO; 2])
            .unwrap()
            .with_fault_plan(FaultPlan::empty())
            .unwrap()
            .run(staged_sched.as_mut())
            .unwrap();
        // Debug prints every f64 exactly, so equal text is equal bits.
        let (plain_text, staged_text) = (format!("{plain:?}"), format!("{staged:?}"));
        assert_eq!(plain_text, staged_text, "{}", plain.scheduler);
    }
}
