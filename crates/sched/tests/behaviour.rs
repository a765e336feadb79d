//! Cross-policy behavioural tests driven through full simulations with
//! tracing enabled: affinity masks are actually honoured, work
//! conservation holds, and load-average migration goes both directions.

use amp_perf::{ExecutionProfile, SpeedupModel};
use amp_sched::{CfsScheduler, ColabScheduler};
use amp_sim::{SimParams, Simulation, ThreadStats};
use amp_types::{CoreOrder, MachineConfig, SimDuration, ThreadId};
use amp_workloads::{AppBuilder, BenchmarkId, CompiledApp, CompiledWorkload, Scale, WorkloadSpec};

fn traced_params() -> SimParams {
    SimParams {
        trace_capacity: 1 << 18,
        ..SimParams::default()
    }
}

#[test]
fn wash_big_only_threads_never_run_on_little_after_binding() {
    // Swaptions on a machine with ample little cores: WASH binds the
    // core-sensitive workers to the big cores. After the first labelling
    // tick, worker dispatches onto little cores should (almost) stop —
    // allow a small transition tail right after the tick.
    let machine = MachineConfig::paper_2b4s(CoreOrder::BigFirst);
    let spec = WorkloadSpec::single(BenchmarkId::Swaptions, 4);
    let apps = CompiledWorkload::compile(&spec, 9, Scale::new(0.5))
        .unwrap()
        .apps()
        .to_vec();
    let sim = Simulation::from_compiled_with_params(&machine, apps, 9, traced_params()).unwrap();
    let outcome = sim
        .run(&mut CfsScheduler::wash(&machine, SpeedupModel::heuristic()))
        .unwrap();

    // Workers are threads 1..4 (master is 0).
    let after = amp_types::SimTime::from_millis(30); // 3 ticks of settling
    let mut late_little_dispatches = 0;
    let mut late_big_dispatches = 0;
    // One slice per dispatch, starting at the dispatch.
    for slice in outcome.trace.events() {
        if slice.thread.index() == 0 || slice.from < after {
            continue;
        }
        if machine.core(slice.core).kind.is_big() {
            late_big_dispatches += 1;
        } else {
            late_little_dispatches += 1;
        }
    }
    assert!(
        late_big_dispatches > 3 * late_little_dispatches.max(1),
        "bound workers should run on big cores: big {late_big_dispatches}, \
         little {late_little_dispatches}"
    );
}

#[test]
fn colab_big_cores_never_idle_with_ready_threads() {
    // Oversubscribed compute workload: scan the trace and verify that
    // whenever a big core stops a thread with runnable work left in the
    // system, it is re-dispatched at the same instant (no idle gaps while
    // the little cluster queues work). We check gaps between the end of
    // one slice and the start of the next on the same big core.
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 10);
    let apps = CompiledWorkload::compile(&spec, 4, Scale::new(0.4))
        .unwrap()
        .apps()
        .to_vec();
    let sim = Simulation::from_compiled_with_params(&machine, apps, 4, traced_params()).unwrap();
    let outcome = sim
        .run(&mut ColabScheduler::new(
            &machine,
            SpeedupModel::heuristic(),
        ))
        .unwrap();

    // Ignore the endgame where fewer threads remain than cores.
    let cutoff = amp_types::SimTime::from_nanos(outcome.makespan.as_nanos() * 7 / 10);
    let mut last_stop: Vec<Option<amp_types::SimTime>> = vec![None; 4];
    let mut worst_gap = SimDuration::ZERO;
    // A core's slices are recorded in order: each ends before the next
    // one there starts.
    for slice in outcome.trace.events() {
        if !machine.core(slice.core).kind.is_big() {
            continue;
        }
        if let Some(stop) = last_stop[slice.core.index()].replace(slice.to) {
            if slice.from < cutoff {
                worst_gap = worst_gap.max(slice.from.saturating_since(stop));
            }
        }
    }
    assert!(
        worst_gap < SimDuration::from_micros(100),
        "big core idled {worst_gap} with 10 runnable compute threads"
    );
}

#[test]
fn gts_down_migrates_mostly_idle_threads() {
    // A mostly-blocked thread (tiny compute, long waits on a starved
    // queue) next to busy threads: its load average decays below the
    // down threshold, so GTS should give it mostly little-core time,
    // while the saturated threads hold the big cores.
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let mut app = AppBuilder::new("mixed-load");
    let q = app.channel(1);
    // Slow producer: computes a lot between pushes.
    app.thread("busy-producer", ExecutionProfile::balanced())
        .repeat(40, |b| {
            b.compute(SimDuration::from_millis(4)).push(q);
        })
        .done();
    // Lazy consumer: almost all of its life is blocked waiting.
    app.thread("lazy-consumer", ExecutionProfile::balanced())
        .repeat(40, |b| {
            b.pop(q).compute(SimDuration::from_micros(50));
        })
        .done();
    // Two saturating compute threads.
    for i in 0..2 {
        app.thread(format!("hog{i}"), ExecutionProfile::balanced())
            .repeat(40, |b| {
                b.compute(SimDuration::from_millis(4));
            })
            .done();
    }
    let apps = CompiledApp::compile_all(&[app.build().unwrap()]).unwrap();
    let sim =
        Simulation::from_compiled_with_params(&machine, apps, 5, SimParams::default()).unwrap();
    let outcome = sim.run(&mut CfsScheduler::gts(&machine)).unwrap();

    let share = |t: &ThreadStats| {
        if t.run_time.is_zero() {
            0.0
        } else {
            t.big_time.as_secs_f64() / t.run_time.as_secs_f64()
        }
    };
    let lazy = &outcome.threads[ThreadId::new(1).index()];
    let hogs_share = (share(&outcome.threads[2]) + share(&outcome.threads[3])) / 2.0;
    assert!(
        share(lazy) < hogs_share,
        "lazy thread ({:.2}) should sit below the hogs ({hogs_share:.2}) on big-core share",
        share(lazy)
    );
}

#[test]
fn policies_disagree_on_the_same_workload() {
    // Regression guard: the four policies are genuinely different — on a
    // contended mixed workload no two produce identical makespans.
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let spec = WorkloadSpec::named(
        "disagreement",
        vec![(BenchmarkId::Ferret, 6), (BenchmarkId::OceanCp, 4)],
    );
    let mut makespans = Vec::new();
    for which in 0..4 {
        let sim = Simulation::build_scaled(&machine, &spec, 8, Scale::new(0.4)).unwrap();
        let outcome = match which {
            0 => sim.run(&mut amp_sched::CfsScheduler::new(&machine)),
            1 => sim.run(&mut CfsScheduler::gts(&machine)),
            2 => sim.run(&mut CfsScheduler::wash(&machine, SpeedupModel::heuristic())),
            _ => sim.run(&mut ColabScheduler::new(
                &machine,
                SpeedupModel::heuristic(),
            )),
        }
        .unwrap();
        makespans.push(outcome.makespan);
    }
    makespans.sort_unstable();
    makespans.dedup();
    assert_eq!(makespans.len(), 4, "policies collapsed: {makespans:?}");
}
