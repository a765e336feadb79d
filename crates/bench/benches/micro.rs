//! Microbenchmarks of the substrates: the futex wait/wake path (the
//! paper's instrumentation point), PMU counter synthesis, and raw
//! simulator throughput per scheduler.

use criterion::{criterion_group, criterion_main, BenchmarkId as CriterionId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use amp_futex::{FutexKey, FutexTable};
use amp_perf::{ExecutionProfile, SpeedupModel};
use amp_sched::{CfsScheduler, ColabScheduler, GtsScheduler, WashScheduler};
use amp_sim::Simulation;
use amp_types::{CoreKind, CoreOrder, MachineConfig, SimTime, ThreadId};
use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};

fn bench_futex(c: &mut Criterion) {
    c.bench_function("futex_wait_wake_cycle", |b| {
        let mut table = FutexTable::new(64);
        let key = FutexKey::new(0);
        let mut t = 0u64;
        b.iter(|| {
            t += 1000;
            for i in 1..32u32 {
                table.wait(key, ThreadId::new(i), SimTime::from_nanos(t));
            }
            table.wake(key, usize::MAX, ThreadId::new(0), SimTime::from_nanos(t + 500))
        })
    });
}

fn bench_counter_synthesis(c: &mut Criterion) {
    let profile = ExecutionProfile::balanced();
    let mut rng = StdRng::seed_from_u64(2);
    c.bench_function("pmu_synthesize_window", |b| {
        b.iter(|| profile.synthesize_counters(CoreKind::Big, 2e7, 1.6e7, 0, &mut rng))
    });
}

fn bench_sim_throughput(c: &mut Criterion) {
    let machine = MachineConfig::paper_2b4s(CoreOrder::BigFirst);
    let spec = WorkloadSpec::named(
        "micro-mix",
        vec![(BenchmarkId::Dedup, 8), (BenchmarkId::Fluidanimate, 8)],
    );
    let model = SpeedupModel::heuristic();

    let mut group = c.benchmark_group("sim_throughput_dedup_fluid_2b4s");
    group.sample_size(10);
    for which in ["linux", "gts", "wash", "colab"] {
        group.bench_with_input(CriterionId::from_parameter(which), &which, |b, &which| {
            b.iter(|| {
                let sim = Simulation::build_scaled(&machine, &spec, 42, Scale::new(0.25))
                    .expect("workload builds");
                let outcome = match which {
                    "linux" => sim.run(&mut CfsScheduler::new(&machine)),
                    "gts" => sim.run(&mut GtsScheduler::new(&machine)),
                    "wash" => sim.run(&mut WashScheduler::new(&machine, model.clone())),
                    _ => sim.run(&mut ColabScheduler::new(&machine, model.clone())),
                }
                .expect("simulation completes");
                outcome.makespan
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_futex, bench_counter_synthesis, bench_sim_throughput
}
criterion_main!(micro);
