//! Hot-path benchmarks of the simulation engine's performance
//! architecture: the sorted-`Vec` event queue against the `BinaryHeap`
//! it replaced, per-policy engine throughput, the full-mix wall-clock,
//! and Chrome trace rendering of a recorded run.
//!
//! These are the numbers `DESIGN.md`'s "Performance architecture"
//! section quotes. Run with `cargo bench --bench hotpath`; CI runs them
//! as a smoke test with `cargo bench --bench hotpath -- --quick`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId as CriterionId, Criterion};

use amp_perf::SpeedupModel;
use amp_sim::equeue::EventQueue;
use amp_sim::{SimParams, Simulation};
use amp_types::{CoreOrder, MachineConfig, SimDuration};
use amp_workloads::{
    BenchmarkId, CompiledProgram, CompiledWorkload, Cursor, Op, Program, Scale, SegPos,
    WorkloadSpec,
};

/// Deterministic xorshift64* stream for queue-churn time deltas.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

const CHURN_FILL: usize = 16;
const CHURN_OPS: usize = 4096;

/// Steady-state churn — the engine's dominant queue pattern: pop the
/// next event, push its successor a pseudo-random delta ahead. The
/// queue keeps the working set in a short sorted `Vec` (pop is
/// `Vec::pop`); the `BinaryHeap` baseline pays `sift_down` on every pop.
fn bench_equeue_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("equeue_churn");

    group.bench_function("sorted_vec", |b| {
        b.iter(|| {
            let mut rng = XorShift(42);
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..CHURN_FILL as u32 {
                q.push(rng.next() % 1_000_000, i);
            }
            let mut last = 0;
            for _ in 0..CHURN_OPS {
                let e = q.pop().expect("queue stays non-empty");
                last = e.time;
                q.push(last + 1 + rng.next() % 1_000_000, e.item);
            }
            black_box(last)
        })
    });

    group.bench_function("binary_heap", |b| {
        b.iter(|| {
            let mut rng = XorShift(42);
            let mut seq = 0u64;
            let mut q: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
            for i in 0..CHURN_FILL as u32 {
                q.push(Reverse((rng.next() % 1_000_000, seq, i)));
                seq += 1;
            }
            let mut last = 0;
            for _ in 0..CHURN_OPS {
                let Reverse((time, _, item)) = q.pop().expect("queue stays non-empty");
                last = time;
                q.push(Reverse((last + 1 + rng.next() % 1_000_000, seq, item)));
                seq += 1;
            }
            black_box(last)
        })
    });

    // Engine-like deltas: most successor events land near the queue
    // head (compute segments and wakes are short relative to the other
    // cores' horizons); only the occasional tick jumps 10 ms ahead.
    // Uniform deltas above are the sorted vec's worst case (every push
    // shifts half the vec); this distribution is what the engine
    // actually feeds it.
    let engine_delta = |rng: &mut XorShift| {
        if rng.next().is_multiple_of(64) {
            10_000_000 // tick re-arm
        } else {
            1 + rng.next() % 50_000 // compute segment / wake
        }
    };

    group.bench_function("sorted_vec_engine_deltas", |b| {
        b.iter(|| {
            let mut rng = XorShift(42);
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..CHURN_FILL as u32 {
                q.push(rng.next() % 50_000, i);
            }
            let mut last = 0;
            for _ in 0..CHURN_OPS {
                let e = q.pop().expect("queue stays non-empty");
                last = e.time;
                q.push(last + engine_delta(&mut rng), e.item);
            }
            black_box(last)
        })
    });

    group.bench_function("binary_heap_engine_deltas", |b| {
        b.iter(|| {
            let mut rng = XorShift(42);
            let mut seq = 0u64;
            let mut q: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
            for i in 0..CHURN_FILL as u32 {
                q.push(Reverse((rng.next() % 50_000, seq, i)));
                seq += 1;
            }
            let mut last = 0;
            for _ in 0..CHURN_OPS {
                let Reverse((time, _, item)) = q.pop().expect("queue stays non-empty");
                last = time;
                q.push(Reverse((last + engine_delta(&mut rng), seq, item)));
                seq += 1;
            }
            black_box(last)
        })
    });

    group.finish();
}

/// Timer re-arm churn — every push is later invalidated and replaced,
/// the way a core's completion event is re-armed on preemption. The
/// sorted-`Vec` queue cancels eagerly; the heap baseline models the old
/// engine's approach of popping and discarding stale entries.
fn bench_equeue_rearm(c: &mut Criterion) {
    let mut group = c.benchmark_group("equeue_rearm");

    group.bench_function("sorted_vec_cancel", |b| {
        b.iter(|| {
            let mut rng = XorShift(7);
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut keys = Vec::with_capacity(CHURN_FILL);
            for i in 0..CHURN_FILL as u32 {
                keys.push(q.push(rng.next() % 1_000_000, i));
            }
            let mut last = 0;
            for _ in 0..CHURN_OPS {
                let e = q.pop().expect("queue stays non-empty");
                last = e.time;
                // Re-arm: push, then cancel-and-replace once.
                let stale = q.push(last + 1 + rng.next() % 1_000_000, e.item);
                keys[e.item as usize] = stale;
                q.cancel(stale);
                keys[e.item as usize] = q.push(last + 1 + rng.next() % 1_000_000, e.item);
            }
            black_box(last)
        })
    });

    group.bench_function("binary_heap_stale", |b| {
        b.iter(|| {
            let mut rng = XorShift(7);
            let mut seq = 0u64;
            let mut stale_gen = [0u32; CHURN_FILL];
            let mut q: BinaryHeap<Reverse<(u64, u64, u32, u32)>> = BinaryHeap::new();
            for i in 0..CHURN_FILL as u32 {
                q.push(Reverse((rng.next() % 1_000_000, seq, i, 0)));
                seq += 1;
            }
            let mut last = 0;
            let mut live_pops = 0usize;
            while live_pops < CHURN_OPS {
                let Reverse((time, _, item, gen)) = q.pop().expect("queue stays non-empty");
                if gen != stale_gen[item as usize] {
                    continue; // stale entry: pay the pop, discard
                }
                live_pops += 1;
                last = time;
                // Re-arm: the first push becomes stale, the second lives.
                q.push(Reverse((last + 1 + rng.next() % 1_000_000, seq, item, gen)));
                seq += 1;
                stale_gen[item as usize] = gen + 1;
                q.push(Reverse((last + 1 + rng.next() % 1_000_000, seq, item, gen + 1)));
                seq += 1;
            }
            black_box(last)
        })
    });

    group.finish();
}

/// Full engine throughput per policy on a sync-heavy single program:
/// time per run divided by the run's event count gives ns/event; the
/// spread across policies is the per-decision scheduler cost.
fn bench_engine_events(c: &mut Criterion) {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let spec = WorkloadSpec::single(BenchmarkId::Ferret, 6);
    let model = SpeedupModel::heuristic();

    let mut group = c.benchmark_group("engine_events_ferret_2b2s");
    group.sample_size(20);
    for kind in colab::SchedulerKind::EXTENDED {
        group.bench_with_input(CriterionId::from_parameter(kind.name()), &kind, |b, &kind| {
            b.iter(|| {
                let sim = Simulation::build_scaled(&machine, &spec, 42, Scale::quick())
                    .expect("workload builds");
                let mut sched = kind.create(&machine, &model);
                let outcome = sim.run(sched.as_mut()).expect("simulation completes");
                black_box(outcome.events_processed)
            })
        });
    }
    group.finish();
}

/// Wall-clock of one full multi-program mix under COLAB — the
/// end-to-end number the sweep executor multiplies by 312.
fn bench_full_mix(c: &mut Criterion) {
    let machine = MachineConfig::paper_4b4s(CoreOrder::BigFirst);
    let spec = WorkloadSpec::named(
        "hotpath-mix",
        vec![
            (BenchmarkId::Dedup, 4),
            (BenchmarkId::Ferret, 4),
            (BenchmarkId::Swaptions, 4),
        ],
    );
    let model = SpeedupModel::heuristic();

    let mut group = c.benchmark_group("full_mix_4b4s");
    group.sample_size(10);
    group.bench_function("colab", |b| {
        b.iter(|| {
            let sim = Simulation::build_scaled(&machine, &spec, 42, Scale::new(0.25))
                .expect("workload builds");
            let mut sched = colab::SchedulerKind::Colab.create(&machine, &model);
            let outcome = sim.run(sched.as_mut()).expect("simulation completes");
            black_box(outcome.makespan)
        })
    });
    group.finish();
}

/// Segment compilation cost: what one intern-store miss pays, and what
/// every pooled cell sharing the result saves. Compiles every app of a
/// Table 4 composition from its instantiated op trees.
fn bench_compile(c: &mut Criterion) {
    let spec = WorkloadSpec::named(
        "compile-mix",
        vec![(BenchmarkId::Ferret, 4), (BenchmarkId::Fluidanimate, 4)],
    );

    let mut group = c.benchmark_group("compiled_workload");
    group.bench_function("compile_mix", |b| {
        b.iter(|| {
            let compiled = CompiledWorkload::compile(&spec, 42, Scale::quick())
                .expect("workload compiles");
            black_box(compiled.apps().len())
        })
    });
    group.finish();
}

/// Action-fetch throughput: draining one benchmark program through the
/// compiled segment stream versus the legacy tree-walking cursor. The
/// compiled stream steps a flat array; the cursor re-resolves the loop
/// chain on every call.
fn bench_stream_fetch(c: &mut Criterion) {
    let spec = WorkloadSpec::single(BenchmarkId::Fluidanimate, 4);
    let app = &spec.instantiate(42, Scale::quick())[0];
    let thread = &app.threads[0];
    let compiled = CompiledProgram::compile(&thread.program);

    let mut group = c.benchmark_group("action_fetch_fluidanimate");
    group.bench_function("compiled_stream", |b| {
        b.iter(|| {
            let mut pos = SegPos::new();
            let mut n = 0u64;
            while let Some(action) = compiled.next(&mut pos) {
                black_box(&action);
                n += 1;
            }
            black_box(n)
        })
    });
    group.bench_function("legacy_cursor", |b| {
        b.iter(|| {
            let mut cursor = Cursor::new();
            let mut n = 0u64;
            while let Some(action) = cursor.next(&thread.program) {
                black_box(&action);
                n += 1;
            }
            black_box(n)
        })
    });
    group.finish();
}

/// Per-leaf event cost on a fine-grained all-compute loop (50 µs
/// leaves, millisecond quanta): one timer event per leaf. Paper
/// benchmarks rarely hit this shape — their leaves are long and
/// sync-separated — so this bounds the engine's worst case, not the
/// grid-wide cost.
fn bench_fine_grained_run(c: &mut Criterion) {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
    let profile = spec.instantiate(7, Scale::quick())[0].threads[0].profile;
    let leaf = SimDuration::from_micros(50);
    let program = Program::new(vec![Op::Loop {
        count: 2000,
        body: vec![Op::Compute(leaf)],
    }]);
    let app = amp_workloads::AppSpec {
        name: "fine-grained".into(),
        benchmark: BenchmarkId::Blackscholes,
        threads: (0..4)
            .map(|i| amp_workloads::ThreadSpec {
                name: format!("worker-{i}"),
                profile,
                program: program.clone(),
            })
            .collect(),
        num_locks: 0,
        barrier_parties: Vec::new(),
        channel_capacities: Vec::new(),
    };
    let model = SpeedupModel::heuristic();

    let mut group = c.benchmark_group("fine_grained_loop_2b2s");
    group.sample_size(20);
    group.bench_function("per_leaf", |b| {
        b.iter(|| {
            let apps = amp_workloads::CompiledApp::compile_all(std::slice::from_ref(&app))
                .expect("workload builds");
            let sim =
                Simulation::from_compiled_with_params(&machine, apps, 7, SimParams::default())
                    .expect("workload builds");
            let mut sched = colab::SchedulerKind::Linux.create(&machine, &model);
            let outcome = sim.run(sched.as_mut()).expect("simulation completes");
            black_box(outcome.events_processed)
        })
    });
    group.finish();
}

/// Chrome trace export of one recorded multi-program run: the rendering
/// layer `repro --trace-json` and perfbench's `recorded` workload pay
/// per run. The run is simulated once; each iteration renders it.
fn bench_render_chrome_trace(c: &mut Criterion) {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let spec = WorkloadSpec::named(
        "render-mix",
        vec![(BenchmarkId::Ferret, 4), (BenchmarkId::Blackscholes, 3)],
    );
    let params = SimParams {
        trace_capacity: 1 << 18,
        event_capacity: 1 << 16,
        ..SimParams::default()
    };
    let compiled =
        CompiledWorkload::compile(&spec, 42, Scale::new(0.25)).expect("workload builds");
    let sim = Simulation::from_compiled_with_params(&machine, compiled.apps().to_vec(), 42, params)
        .expect("workload loads");
    let mut sched = colab::SchedulerKind::Colab.create(&machine, &SpeedupModel::heuristic());
    let outcome = sim.run(sched.as_mut()).expect("simulation completes");

    let mut group = c.benchmark_group("render_2b2s");
    group.bench_function("render_chrome_trace", |b| {
        b.iter(|| black_box(colab_bench::render_chrome_trace(&machine, &outcome).len()))
    });
    group.finish();
}

criterion_group! {
    name = hotpath;
    config = Criterion::default().sample_size(50);
    targets = bench_equeue_churn, bench_equeue_rearm, bench_engine_events, bench_full_mix,
        bench_compile, bench_stream_fetch, bench_fine_grained_run, bench_render_chrome_trace
}
criterion_main!(hotpath);
