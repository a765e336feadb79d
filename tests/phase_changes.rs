//! Phase-changing programs: the reason the paper samples counters every
//! 10 ms rather than predicting once. A thread that flips from memory-
//! bound to compute-bound mid-run must be re-labelled online, and COLAB
//! must shift its placement accordingly.

use colab_suite::perf::ExecutionProfile;
use colab_suite::prelude::*;
use colab_suite::sim::SimParams;
use colab_suite::types::SimDuration;
use colab_suite::workloads::{AppBuilder, AppSpec, CompiledApp};

/// Compiles `apps` and loads them onto `machine` with `params`.
fn load(machine: &MachineConfig, apps: &[AppSpec], params: SimParams) -> Simulation {
    let compiled = CompiledApp::compile_all(apps).unwrap();
    Simulation::from_compiled_with_params(machine, compiled, 3, params).unwrap()
}

fn mem_phase() -> ExecutionProfile {
    ExecutionProfile::new(0.1, 0.9, 0.3, 0.05, 0.3, 0.3, 0.1)
}

fn compute_phase() -> ExecutionProfile {
    ExecutionProfile::new(0.95, 0.05, 0.1, 0.7, 0.3, 0.1, 0.05)
}

/// One chameleon thread (memory-bound first half, compute-bound second)
/// next to steady competitors, on a 1-big 1-little machine.
fn build_workload() -> Vec<AppSpec> {
    let half = SimDuration::from_millis(120);
    let chunk = SimDuration::from_micros(500);
    let chunks = (half.as_nanos() / chunk.as_nanos()) as u32;

    let mut app = AppBuilder::new("chameleon");
    app.thread("chameleon", mem_phase())
        .repeat(chunks, |b| {
            b.compute(chunk);
        })
        .phase(compute_phase())
        .repeat(chunks, |b| {
            b.compute(chunk);
        })
        .done();
    let mut rival = AppBuilder::new("steady");
    for i in 0..3 {
        rival
            .thread(format!("steady{i}"), ExecutionProfile::balanced())
            .repeat(2 * chunks, |b| {
                b.compute(chunk);
            })
            .done();
    }
    vec![app.build().unwrap(), rival.build().unwrap()]
}

#[test]
fn colab_relabels_after_a_phase_change() {
    // One big core, two little, four threads: the big core is scarce and
    // queues are never empty, so placement is re-decided continuously.
    // The chameleon should earn the big core only after its phase flip.
    let machine = MachineConfig::asymmetric(1, 2, CoreOrder::BigFirst);
    let params = SimParams {
        trace_capacity: 1 << 16,
        ..SimParams::default()
    };
    let sim = load(&machine, &build_workload(), params);
    let outcome = sim
        .run(&mut ColabScheduler::new(
            &machine,
            SpeedupModel::heuristic(),
        ))
        .unwrap();

    // Split the chameleon's dispatches at the midpoint of the run and
    // compare big-core placement before and after the phase flip.
    let chameleon = ThreadId::new(0);
    let midpoint = SimTime::from_nanos(outcome.makespan.as_nanos() / 2);
    let mut early = (0u32, 0u32); // (big, little) dispatch counts
    let mut late = (0u32, 0u32);
    // One slice per dispatch, starting at the dispatch.
    for slice in outcome.trace.events() {
        if slice.thread != chameleon {
            continue;
        }
        let is_big = machine.core(slice.core).kind.is_big();
        let bucket = if slice.from < midpoint {
            &mut early
        } else {
            &mut late
        };
        if is_big {
            bucket.0 += 1;
        } else {
            bucket.1 += 1;
        }
    }
    let share = |(big, little): (u32, u32)| big as f64 / (big + little).max(1) as f64;
    assert!(
        share(late) > share(early),
        "phase change must pull the chameleon toward big cores: \
         early {early:?} late {late:?}"
    );
}

#[test]
fn phase_change_alters_execution_speed() {
    // The same program runs faster per-chunk in its compute phase when on
    // a big core baseline: total work is 2×half at big-core speed, so the
    // big-only makespan is close to 240 ms for the chameleon alone.
    let machine = MachineConfig::all_big(1);
    let sim = load(&machine, &build_workload()[..1], SimParams::default());
    let outcome = sim.run(&mut CfsScheduler::new(&machine)).unwrap();
    let secs = outcome.makespan.as_secs_f64();
    assert!(
        (0.23..0.26).contains(&secs),
        "big-only chameleon makespan {secs}s"
    );

    // On a little-only machine the memory phase crawls less than the
    // compute phase (speedup 1.x vs 2.x), so the total exceeds 240 ms by
    // the blended speedup factor.
    let little = MachineConfig::all_little(1);
    let sim = load(&little, &build_workload()[..1], SimParams::default());
    let slow = sim.run(&mut CfsScheduler::new(&little)).unwrap();
    let ratio = slow.makespan.as_secs_f64() / secs;
    let mem_speedup = mem_phase().true_speedup();
    let comp_speedup = compute_phase().true_speedup();
    let expected = (mem_speedup + comp_speedup) / 2.0;
    assert!(
        (ratio - expected).abs() < 0.15,
        "blended slowdown {ratio:.2} vs expected {expected:.2}"
    );
}
