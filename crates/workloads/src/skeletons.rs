//! Reusable parallel-structure generators.
//!
//! Every PARSEC/SPLASH-2 benchmark the paper uses falls into one of a few
//! parallel skeletons: data-parallel phases separated by barriers (optionally
//! with lock-protected critical sections), software pipelines over bounded
//! queues, master/worker task queues, and embarrassingly parallel fork-join.
//! The generators here produce [`AppSpec`]s with those structures; the
//! benchmark layer parameterizes them per Table 3.

use amp_perf::ExecutionProfile;
use amp_types::{BarrierId, ChannelId, LockId, SimDuration};
use rand::rngs::StdRng;
use rand::Rng;

use crate::benchmarks::BenchmarkId;
use crate::program::{Op, Program};
use crate::spec::{AppSpec, Scale, ThreadSpec};

/// Perturbs each profile field by up to ±`jitter`, clamped to `[0,1]`.
/// Gives sibling threads slightly different core sensitivities, as real
/// threads have.
pub fn jitter_profile(base: ExecutionProfile, jitter: f64, rng: &mut StdRng) -> ExecutionProfile {
    let mut j = |x: f64| x + rng.gen_range(-jitter..=jitter);
    ExecutionProfile::new(
        j(base.ilp),
        j(base.mem_ratio),
        j(base.branchiness),
        j(base.fp_ratio),
        j(base.store_pressure),
        j(base.icache_pressure),
        j(base.quiesce),
    )
}

/// Splits `total` items as evenly as possible over `parts` workers.
pub fn split_items(total: u32, parts: usize) -> Vec<u32> {
    assert!(parts > 0, "cannot split over zero workers");
    let base = total / parts as u32;
    let extra = (total % parts as u32) as usize;
    (0..parts).map(|i| base + u32::from(i < extra)).collect()
}

/// Optional per-step critical section for [`data_parallel`].
#[derive(Debug, Clone, Copy)]
pub struct LockSection {
    /// Number of distinct locks (threads cycle over them).
    pub locks: u32,
    /// Lock acquisitions per step per thread.
    pub acquisitions_per_step: u32,
    /// Work done while holding the lock.
    pub held_work: SimDuration,
    /// Work done between acquisitions.
    pub open_work: SimDuration,
}

/// Parameters for [`data_parallel`].
#[derive(Debug, Clone, Copy)]
pub struct DataParallelCfg {
    /// Number of barrier-separated steps.
    pub steps: u32,
    /// Big-core work per thread per step (before imbalance).
    pub work_per_step: SimDuration,
    /// Max fractional extra work given to unlucky threads per step —
    /// creates stragglers, hence criticality.
    pub imbalance: f64,
    /// Base execution profile.
    pub profile: ExecutionProfile,
    /// Per-thread profile jitter.
    pub profile_jitter: f64,
    /// Optional lock-protected critical sections inside each step.
    pub lock_section: Option<LockSection>,
}

/// SPMD threads computing in barrier-separated steps — the structure of
/// radix, lu, ocean, fft, the water codes and fmm. With a [`LockSection`]
/// it also models fluidanimate's lock-storm frames.
pub fn data_parallel(
    benchmark: BenchmarkId,
    threads: usize,
    cfg: DataParallelCfg,
    seed: u64,
    scale: Scale,
) -> AppSpec {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let steps = scale.apply(cfg.steps);
    let barrier = BarrierId::new(0);
    let num_locks = cfg.lock_section.map_or(0, |s| s.locks);

    let threads: Vec<ThreadSpec> = (0..threads)
        .map(|ti| {
            let profile = jitter_profile(cfg.profile, cfg.profile_jitter, &mut rng);
            let extra = rng.gen_range(0.0..=cfg.imbalance.max(f64::EPSILON));
            let step_work = cfg.work_per_step.mul_f64(1.0 + extra);

            let mut body: Vec<Op> = Vec::new();
            match cfg.lock_section {
                None => body.push(Op::Compute(step_work)),
                Some(section) => {
                    // Split the step into lock-bracketed slices, cycling
                    // over the lock set from a per-thread offset so
                    // contention is spread but real.
                    let acqs = section.acquisitions_per_step.max(1);
                    let offset = ti as u32 % section.locks.max(1);
                    let mut inner: Vec<Op> = Vec::new();
                    for a in 0..acqs {
                        let lock = LockId::new((offset + a) % section.locks.max(1));
                        inner.push(Op::Compute(section.open_work));
                        inner.push(Op::Lock(lock));
                        inner.push(Op::Compute(section.held_work));
                        inner.push(Op::Unlock(lock));
                    }
                    body.extend(inner);
                    // Remaining non-critical step work.
                    let section_total = (section.open_work + section.held_work) * u64::from(acqs);
                    let rest = step_work.saturating_sub(section_total);
                    if !rest.is_zero() {
                        body.push(Op::Compute(rest));
                    }
                }
            }
            body.push(Op::Barrier(barrier));

            ThreadSpec {
                name: format!("{}-w{}", benchmark.name(), ti),
                profile,
                program: Program::new(vec![Op::Loop { count: steps, body }]),
            }
        })
        .collect();

    let parties = threads.len() as u32;
    AppSpec {
        name: benchmark.name().to_string(),
        benchmark,
        threads,
        num_locks,
        barrier_parties: vec![parties],
        channel_capacities: vec![],
    }
}

/// One stage of a [`pipeline`] app.
#[derive(Debug, Clone, Copy)]
pub struct StageSpec {
    /// Stage role name.
    pub name: &'static str,
    /// Parallel workers in this stage.
    pub workers: usize,
    /// Big-core work per item.
    pub work_per_item: SimDuration,
    /// Execution profile of this stage's code.
    pub profile: ExecutionProfile,
}

/// A software pipeline over bounded channels — the structure of dedup and
/// ferret. `items` flow through every stage; stage `s` pops from channel
/// `s-1` and pushes into channel `s` (the first stage only pushes, the last
/// only pops).
///
/// # Panics
///
/// Panics if fewer than two stages are given or any stage has no workers.
pub fn pipeline(
    benchmark: BenchmarkId,
    stages: &[StageSpec],
    items: u32,
    channel_capacity: u32,
    seed: u64,
    scale: Scale,
) -> AppSpec {
    use rand::SeedableRng;
    assert!(stages.len() >= 2, "a pipeline needs at least two stages");
    assert!(
        stages.iter().all(|s| s.workers > 0),
        "every stage needs at least one worker"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let items = scale.apply(items);
    let num_channels = stages.len() - 1;

    let mut threads = Vec::new();
    for (si, stage) in stages.iter().enumerate() {
        let shares = split_items(items, stage.workers);
        for (wi, &share) in shares.iter().enumerate() {
            let profile = jitter_profile(stage.profile, 0.04, &mut rng);
            let mut body: Vec<Op> = Vec::new();
            if si > 0 {
                body.push(Op::Pop(ChannelId::new(si as u32 - 1)));
            }
            body.push(Op::Compute(stage.work_per_item));
            if si < stages.len() - 1 {
                body.push(Op::Push(ChannelId::new(si as u32)));
            }
            threads.push(ThreadSpec {
                name: format!("{}-{}-{}", benchmark.name(), stage.name, wi),
                profile,
                program: Program::new(vec![Op::Loop { count: share, body }]),
            });
        }
    }

    AppSpec {
        name: benchmark.name().to_string(),
        benchmark,
        threads,
        num_locks: 0,
        barrier_parties: vec![],
        channel_capacities: vec![channel_capacity; num_channels],
    }
}

/// Parameters for [`task_queue`].
#[derive(Debug, Clone, Copy)]
pub struct TaskQueueCfg {
    /// Total tasks produced by the master.
    pub tasks: u32,
    /// Master work to produce one task.
    pub master_work_per_task: SimDuration,
    /// Worker work per task.
    pub task_work: SimDuration,
    /// Master execution profile.
    pub master_profile: ExecutionProfile,
    /// Worker execution profile.
    pub worker_profile: ExecutionProfile,
    /// Queue capacity: small values make the master the bottleneck
    /// (swaptions), large values let workers self-balance (bodytrack).
    pub capacity: u32,
    /// Per-thread profile jitter.
    pub profile_jitter: f64,
}

/// Master/worker dynamic task distribution — the structure of swaptions,
/// bodytrack and freqmine. One master produces `tasks` items; `threads - 1`
/// workers pull them. Work splits dynamically, so worker threads adapt to
/// core speed automatically (the behaviour the paper notes for bodytrack).
///
/// # Panics
///
/// Panics if `threads < 2` (needs a master and at least one worker).
pub fn task_queue(
    benchmark: BenchmarkId,
    threads: usize,
    cfg: TaskQueueCfg,
    seed: u64,
    scale: Scale,
) -> AppSpec {
    use rand::SeedableRng;
    assert!(threads >= 2, "task queue needs a master and a worker");
    let mut rng = StdRng::seed_from_u64(seed);
    let workers = threads - 1;
    let tasks = {
        // Keep the task count divisible-friendly: at least one per worker.
        scale.apply(cfg.tasks).max(workers as u32)
    };
    let queue = ChannelId::new(0);

    let mut all = Vec::with_capacity(threads);
    all.push(ThreadSpec {
        name: format!("{}-master", benchmark.name()),
        profile: jitter_profile(cfg.master_profile, cfg.profile_jitter, &mut rng),
        program: Program::new(vec![Op::Loop {
            count: tasks,
            body: vec![Op::Compute(cfg.master_work_per_task), Op::Push(queue)],
        }]),
    });
    for (wi, share) in split_items(tasks, workers).into_iter().enumerate() {
        all.push(ThreadSpec {
            name: format!("{}-worker{}", benchmark.name(), wi),
            profile: jitter_profile(cfg.worker_profile, cfg.profile_jitter, &mut rng),
            program: Program::new(vec![Op::Loop {
                count: share,
                body: vec![Op::Pop(queue), Op::Compute(cfg.task_work)],
            }]),
        });
    }

    AppSpec {
        name: benchmark.name().to_string(),
        benchmark,
        threads: all,
        num_locks: 0,
        barrier_parties: vec![],
        channel_capacities: vec![cfg.capacity],
    }
}

/// Parameters for [`fork_join`].
#[derive(Debug, Clone, Copy)]
pub struct ForkJoinCfg {
    /// Total big-core work split across the threads.
    pub total_work: SimDuration,
    /// Chunks each thread's share is cut into.
    pub chunks_per_thread: u32,
    /// Base execution profile.
    pub profile: ExecutionProfile,
    /// Per-thread profile jitter.
    pub profile_jitter: f64,
    /// Max fractional extra work for unlucky threads.
    pub imbalance: f64,
}

/// Embarrassingly parallel fork-join — the structure of blackscholes.
/// Threads compute independent chunks and meet at a final barrier.
pub fn fork_join(
    benchmark: BenchmarkId,
    threads: usize,
    cfg: ForkJoinCfg,
    seed: u64,
    scale: Scale,
) -> AppSpec {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let chunks = scale.apply(cfg.chunks_per_thread);
    let per_thread = cfg.total_work / threads as u64;

    let specs: Vec<ThreadSpec> = (0..threads)
        .map(|ti| {
            let profile = jitter_profile(cfg.profile, cfg.profile_jitter, &mut rng);
            let extra = rng.gen_range(0.0..=cfg.imbalance.max(f64::EPSILON));
            let chunk = per_thread.mul_f64(1.0 + extra) / u64::from(chunks);
            ThreadSpec {
                name: format!("{}-w{}", benchmark.name(), ti),
                profile,
                program: Program::new(vec![
                    Op::Loop {
                        count: chunks,
                        body: vec![Op::Compute(chunk)],
                    },
                    Op::Barrier(BarrierId::new(0)),
                ]),
            }
        })
        .collect();

    let parties = specs.len() as u32;
    AppSpec {
        name: benchmark.name().to_string(),
        benchmark,
        threads: specs,
        num_locks: 0,
        barrier_parties: vec![parties],
        channel_capacities: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn split_items_is_fair_and_exact() {
        assert_eq!(split_items(10, 3), vec![4, 3, 3]);
        assert_eq!(split_items(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(split_items(9, 1), vec![9]);
        for parts in 1..8 {
            for total in 0..30 {
                let s = split_items(total, parts);
                assert_eq!(s.iter().sum::<u32>(), total);
                let max = *s.iter().max().unwrap();
                let min = *s.iter().min().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn data_parallel_validates_and_balances() {
        let cfg = DataParallelCfg {
            steps: 5,
            work_per_step: us(100),
            imbalance: 0.1,
            profile: ExecutionProfile::balanced(),
            profile_jitter: 0.05,
            lock_section: None,
        };
        let app = data_parallel(BenchmarkId::Radix, 4, cfg, 1, Scale::default());
        app.validate().unwrap();
        assert_eq!(app.threads.len(), 4);
        assert_eq!(app.barrier_parties, vec![4]);
        // Each thread: 5 computes + 5 barriers.
        for t in &app.threads {
            let (computes, .., barriers, _, _) = {
                let c = t.program.action_census();
                (c.0, c.1, c.2, c.3, c.4, c.5)
            };
            assert_eq!(computes, 5);
            assert_eq!(barriers, 5);
        }
    }

    #[test]
    fn data_parallel_with_locks_validates() {
        let cfg = DataParallelCfg {
            steps: 3,
            work_per_step: us(200),
            imbalance: 0.0,
            profile: ExecutionProfile::balanced(),
            profile_jitter: 0.0,
            lock_section: Some(LockSection {
                locks: 4,
                acquisitions_per_step: 6,
                held_work: us(2),
                open_work: us(8),
            }),
        };
        let app = data_parallel(BenchmarkId::Fluidanimate, 8, cfg, 2, Scale::default());
        app.validate().unwrap();
        assert_eq!(app.num_locks, 4);
        let census = app.threads[0].program.action_census();
        assert_eq!(census.1, 18, "6 acquisitions × 3 steps");
        assert_eq!(census.1, census.2, "locks match unlocks");
    }

    #[test]
    fn pipeline_validates_and_conserves_items() {
        let stages = [
            StageSpec {
                name: "src",
                workers: 1,
                work_per_item: us(10),
                profile: ExecutionProfile::memory_bound(),
            },
            StageSpec {
                name: "mid",
                workers: 3,
                work_per_item: us(50),
                profile: ExecutionProfile::balanced(),
            },
            StageSpec {
                name: "sink",
                workers: 1,
                work_per_item: us(10),
                profile: ExecutionProfile::memory_bound(),
            },
        ];
        let app = pipeline(BenchmarkId::Dedup, &stages, 40, 4, 3, Scale::default());
        app.validate().unwrap();
        assert_eq!(app.threads.len(), 5);
        assert_eq!(app.channel_capacities.len(), 2);
        // Push/pop balance is covered by validate(); spot-check counts.
        let total_pushes: u64 = app
            .threads
            .iter()
            .map(|t| t.program.action_census().4)
            .sum();
        assert_eq!(total_pushes, 80, "40 items over 2 channels");
    }

    #[test]
    fn pipeline_scale_shrinks_items() {
        let stages = [
            StageSpec {
                name: "a",
                workers: 1,
                work_per_item: us(10),
                profile: ExecutionProfile::balanced(),
            },
            StageSpec {
                name: "b",
                workers: 1,
                work_per_item: us(10),
                profile: ExecutionProfile::balanced(),
            },
        ];
        let app = pipeline(BenchmarkId::Ferret, &stages, 100, 4, 3, Scale::new(0.1));
        app.validate().unwrap();
        let pops: u64 = app.threads[1].program.action_census().5;
        assert_eq!(pops, 10);
    }

    #[test]
    fn task_queue_validates_and_distributes() {
        let cfg = TaskQueueCfg {
            tasks: 20,
            master_work_per_task: us(5),
            task_work: us(100),
            master_profile: ExecutionProfile::memory_bound(),
            worker_profile: ExecutionProfile::compute_bound(),
            capacity: 2,
            profile_jitter: 0.02,
        };
        let app = task_queue(BenchmarkId::Swaptions, 5, cfg, 4, Scale::default());
        app.validate().unwrap();
        assert_eq!(app.threads.len(), 5);
        let master_census = app.threads[0].program.action_census();
        assert_eq!(master_census.4, 20, "master pushes every task");
        let worker_pops: u64 = app.threads[1..]
            .iter()
            .map(|t| t.program.action_census().5)
            .sum();
        assert_eq!(worker_pops, 20);
    }

    #[test]
    fn fork_join_work_is_split_roughly_evenly() {
        let app = fork_join(
            BenchmarkId::Blackscholes,
            4,
            ForkJoinCfg {
                total_work: SimDuration::from_millis(40),
                chunks_per_thread: 10,
                profile: ExecutionProfile::compute_bound(),
                profile_jitter: 0.05,
                imbalance: 0.0,
            },
            5,
            Scale::default(),
        );
        app.validate().unwrap();
        for t in &app.threads {
            let w = t.program.total_compute();
            let expect = SimDuration::from_millis(10);
            let err = w.as_nanos().abs_diff(expect.as_nanos());
            assert!(
                err < expect.as_nanos() / 10,
                "thread work {w} far from {expect}"
            );
        }
    }

    #[test]
    fn profile_jitter_stays_in_bounds() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let p = jitter_profile(ExecutionProfile::compute_bound(), 0.3, &mut rng);
            assert!((0.0..=1.0).contains(&p.ilp));
            assert!((0.0..=1.0).contains(&p.mem_ratio));
        }
    }
}
