//! Differential pin of segment-compiled workload execution.
//!
//! For every benchmark program and every composed paper workload, the
//! compiled segment stream ([`CompiledProgram::next`]) must yield exactly
//! the action sequence the tree-walking [`Cursor`] interpreter yields,
//! leaf for leaf; and the engine must arm one timer event per compute
//! leaf it executes. Together with the golden sweep fixtures (which pin
//! today's output bytes), these tests prove the compiled form executes
//! the source program unchanged.

use amp_perf::SpeedupModel;
use amp_sim::{SimParams, Simulation};
use amp_types::{CoreOrder, MachineConfig, SimDuration};
use amp_workloads::{
    Action, BenchmarkId, CompiledApp, CompiledProgram, Cursor, PaperWorkload, Scale, SegPos,
    WorkloadSpec,
};
use colab::SchedulerKind;

/// Drains a program through the tree-walking cursor.
fn cursor_actions(program: &amp_workloads::Program) -> Vec<Action> {
    let mut cursor = Cursor::new();
    let mut out = Vec::new();
    while let Some(action) = cursor.next(program) {
        out.push(action);
    }
    out
}

#[test]
fn all_benchmarks_and_compositions_compile_equivalently() {
    // Every benchmark, at several thread counts and seeds, plus every
    // Table 4 composition: the compiled stream must replay the cursor's
    // action sequence exactly.
    let mut programs = 0usize;
    let mut specs: Vec<WorkloadSpec> = BenchmarkId::ALL
        .into_iter()
        .map(|b| WorkloadSpec::single(b, b.clamp_threads(6)))
        .collect();
    specs.extend(PaperWorkload::all().iter().map(|w| w.spec()));
    for spec in &specs {
        for seed in [1u64, 42] {
            for app in spec.instantiate(seed, Scale::quick()) {
                for thread in &app.threads {
                    let compiled = CompiledProgram::compile(&thread.program);
                    let mut pos = SegPos::new();
                    let mut got = Vec::new();
                    while let Some(action) = compiled.next(&mut pos) {
                        got.push(action);
                    }
                    assert!(compiled.is_finished(&pos));
                    let want = cursor_actions(&thread.program);
                    assert_eq!(
                        got,
                        want,
                        "{}/{} seed {seed}: compiled stream diverged from cursor",
                        spec.name(),
                        thread.name,
                    );
                    programs += 1;
                }
            }
        }
    }
    assert!(
        programs > 100,
        "expected broad coverage, checked {programs}"
    );
}

#[test]
fn every_compute_leaf_arms_its_own_event() {
    // A fine-grained all-compute loop: 50 µs leaves against millisecond
    // slices. Every leaf completes on its own `CoreDone`; a leaf cut by
    // a tick or the quantum arms one more when it resumes.
    use amp_workloads::{AppSpec, Op, Program, ThreadSpec};
    let leaf = SimDuration::from_micros(50);
    let program = Program::new(vec![Op::Loop {
        count: 2000,
        body: vec![Op::Compute(leaf)],
    }]);
    let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
    let profile = spec.instantiate(7, Scale::quick())[0].threads[0].profile;
    let app = AppSpec {
        name: "fine-grained".into(),
        benchmark: BenchmarkId::Blackscholes,
        threads: (0..4)
            .map(|i| ThreadSpec {
                name: format!("worker-{i}"),
                profile,
                program: program.clone(),
            })
            .collect(),
        num_locks: 0,
        barrier_parties: Vec::new(),
        channel_capacities: Vec::new(),
    };
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let apps = CompiledApp::compile_all(&[app]).expect("workload builds");
    let sim = Simulation::from_compiled_with_params(&machine, apps, 7, SimParams::default())
        .expect("workload loads");
    let mut sched = SchedulerKind::Linux.create(&machine, &SpeedupModel::heuristic());
    let outcome = sim.run(sched.as_mut()).expect("run completes");
    assert_eq!(outcome.compute_leaves, 4 * 2000);
    assert!(
        outcome.compute_events >= outcome.compute_leaves,
        "expected at least one event per leaf, got {} events for {} leaves",
        outcome.compute_events,
        outcome.compute_leaves
    );
}
