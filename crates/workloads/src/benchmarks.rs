//! The 15 PARSEC 3.0 / SPLASH-2 benchmarks of the paper's Table 3.
//!
//! Each benchmark is a synthetic behavioural model: a parallel skeleton
//! (see [`crate::skeletons`]) parameterized so that its synchronization
//! rate, communication/computation ratio (Table 3), per-thread core
//! sensitivities, and bottleneck structure match what the paper reports and
//! exploits. Substitution rationale is documented per benchmark and in
//! DESIGN.md: the schedulers only observe structure, blocking, and
//! counters — all reproduced here.

use std::fmt;

use amp_perf::ExecutionProfile;
use amp_types::SimDuration;

use crate::skeletons::{
    data_parallel, fork_join, pipeline, task_queue, DataParallelCfg, ForkJoinCfg, LockSection,
    StageSpec, TaskQueueCfg,
};
use crate::spec::{AppSpec, Scale};

/// Synchronization intensity, as categorized in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyncRate {
    /// Few synchronization events.
    Low,
    /// Moderate synchronization.
    Medium,
    /// Frequent synchronization.
    High,
    /// Lock-storm behaviour (fluidanimate: ~100× more lock operations
    /// than other PARSEC applications).
    VeryHigh,
}

impl fmt::Display for SyncRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncRate::Low => f.write_str("low"),
            SyncRate::Medium => f.write_str("medium"),
            SyncRate::High => f.write_str("high"),
            SyncRate::VeryHigh => f.write_str("very high"),
        }
    }
}

/// Communication-to-computation ratio, as categorized in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommCompRatio {
    /// Computation dominates.
    Low,
    /// Balanced.
    Medium,
    /// Communication dominates.
    High,
}

impl fmt::Display for CommCompRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommCompRatio::Low => f.write_str("low"),
            CommCompRatio::Medium => f.write_str("medium"),
            CommCompRatio::High => f.write_str("high"),
        }
    }
}

/// Static facts about a benchmark (the row of Table 3 plus model limits).
#[derive(Debug, Clone, Copy)]
pub struct BenchmarkInfo {
    /// Canonical lowercase name.
    pub name: &'static str,
    /// Suite of origin.
    pub suite: &'static str,
    /// Table 3 synchronization rate.
    pub sync_rate: SyncRate,
    /// Table 3 communication/computation ratio.
    pub comm_comp: CommCompRatio,
    /// Maximum supported threads (the three SPLASH-2 codes that cannot
    /// scale past 2 threads with simsmall inputs, per §5.2).
    pub max_threads: Option<usize>,
}

/// One of the paper's 15 benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BenchmarkId {
    /// PARSEC option pricing; embarrassingly parallel, ILP/FP heavy.
    Blackscholes,
    /// PARSEC body tracking; dynamic task queue, adapts to asymmetry.
    Bodytrack,
    /// PARSEC dedup; 5-stage pipeline with serial first/last stages.
    Dedup,
    /// PARSEC similarity search; 6-stage pipeline with a hot rank stage.
    Ferret,
    /// PARSEC fluid simulation; lock-storm frames between barriers.
    Fluidanimate,
    /// PARSEC frequent itemset mining; task queue plus contention.
    Freqmine,
    /// PARSEC swaption pricing; core-insensitive master bottleneck feeding
    /// core-sensitive workers (the WASH-favouring case of §5.2).
    Swaptions,
    /// SPLASH-2 radix sort; barrier-separated passes, memory-heavy.
    Radix,
    /// SPLASH-2 LU, non-contiguous blocks.
    LuNcb,
    /// SPLASH-2 LU, contiguous blocks.
    LuCb,
    /// SPLASH-2 ocean, contiguous partitions; strongly memory-bound.
    OceanCp,
    /// SPLASH-2 water, O(n²) version; 2 threads max, lock + barrier steps.
    WaterNsquared,
    /// SPLASH-2 water, spatial version; 2 threads max, barrier steps.
    WaterSpatial,
    /// SPLASH-2 fast multipole; 2 threads max, imbalanced steps.
    Fmm,
    /// SPLASH-2 FFT; barrier-separated transpose phases, memory-heavy.
    Fft,
}

impl BenchmarkId {
    /// All 15 benchmarks in Table 3 order.
    pub const ALL: [BenchmarkId; 15] = [
        BenchmarkId::Blackscholes,
        BenchmarkId::Bodytrack,
        BenchmarkId::Dedup,
        BenchmarkId::Ferret,
        BenchmarkId::Fluidanimate,
        BenchmarkId::Freqmine,
        BenchmarkId::Swaptions,
        BenchmarkId::Radix,
        BenchmarkId::LuNcb,
        BenchmarkId::LuCb,
        BenchmarkId::OceanCp,
        BenchmarkId::WaterNsquared,
        BenchmarkId::WaterSpatial,
        BenchmarkId::Fmm,
        BenchmarkId::Fft,
    ];

    /// The 12 benchmarks evaluated single-program in Figure 4 (the three
    /// 2-thread SPLASH-2 codes are excluded there, per §5.2).
    pub const FIGURE4: [BenchmarkId; 12] = [
        BenchmarkId::Radix,
        BenchmarkId::LuNcb,
        BenchmarkId::LuCb,
        BenchmarkId::Fft,
        BenchmarkId::Blackscholes,
        BenchmarkId::Bodytrack,
        BenchmarkId::Dedup,
        BenchmarkId::Fluidanimate,
        BenchmarkId::Swaptions,
        BenchmarkId::OceanCp,
        BenchmarkId::Freqmine,
        BenchmarkId::Ferret,
    ];

    /// Static facts (the benchmark's Table 3 row).
    pub fn info(self) -> BenchmarkInfo {
        use BenchmarkId::*;
        use CommCompRatio as C;
        use SyncRate as S;
        match self {
            Blackscholes => BenchmarkInfo {
                name: "blackscholes",
                suite: "PARSEC",
                sync_rate: S::Low,
                comm_comp: C::High,
                max_threads: None,
            },
            Bodytrack => BenchmarkInfo {
                name: "bodytrack",
                suite: "PARSEC",
                sync_rate: S::Medium,
                comm_comp: C::High,
                max_threads: None,
            },
            Dedup => BenchmarkInfo {
                name: "dedup",
                suite: "PARSEC",
                sync_rate: S::Medium,
                comm_comp: C::High,
                max_threads: None,
            },
            Ferret => BenchmarkInfo {
                name: "ferret",
                suite: "PARSEC",
                sync_rate: S::High,
                comm_comp: C::Medium,
                max_threads: None,
            },
            Fluidanimate => BenchmarkInfo {
                name: "fluidanimate",
                suite: "PARSEC",
                sync_rate: S::VeryHigh,
                comm_comp: C::Low,
                max_threads: None,
            },
            Freqmine => BenchmarkInfo {
                name: "freqmine",
                suite: "PARSEC",
                sync_rate: S::High,
                comm_comp: C::High,
                max_threads: None,
            },
            Swaptions => BenchmarkInfo {
                name: "swaptions",
                suite: "PARSEC",
                sync_rate: S::Low,
                comm_comp: C::Low,
                max_threads: None,
            },
            Radix => BenchmarkInfo {
                name: "radix",
                suite: "SPLASH-2",
                sync_rate: S::Low,
                comm_comp: C::High,
                max_threads: None,
            },
            LuNcb => BenchmarkInfo {
                name: "lu_ncb",
                suite: "SPLASH-2",
                sync_rate: S::Low,
                comm_comp: C::Low,
                max_threads: None,
            },
            LuCb => BenchmarkInfo {
                name: "lu_cb",
                suite: "SPLASH-2",
                sync_rate: S::Low,
                comm_comp: C::Low,
                max_threads: None,
            },
            OceanCp => BenchmarkInfo {
                name: "ocean_cp",
                suite: "SPLASH-2",
                sync_rate: S::Low,
                comm_comp: C::Low,
                max_threads: None,
            },
            WaterNsquared => BenchmarkInfo {
                name: "water_nsquared",
                suite: "SPLASH-2",
                sync_rate: S::Medium,
                comm_comp: C::Medium,
                max_threads: Some(2),
            },
            WaterSpatial => BenchmarkInfo {
                name: "water_spatial",
                suite: "SPLASH-2",
                sync_rate: S::Low,
                comm_comp: C::Low,
                max_threads: Some(2),
            },
            Fmm => BenchmarkInfo {
                name: "fmm",
                suite: "SPLASH-2",
                sync_rate: S::Medium,
                comm_comp: C::Low,
                max_threads: Some(2),
            },
            Fft => BenchmarkInfo {
                name: "fft",
                suite: "SPLASH-2",
                sync_rate: S::Low,
                comm_comp: C::High,
                max_threads: None,
            },
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// Minimum threads the model needs (pipelines need one thread per
    /// serial stage).
    pub fn min_threads(self) -> usize {
        match self {
            BenchmarkId::Dedup => 5,
            BenchmarkId::Ferret => 6,
            BenchmarkId::Swaptions | BenchmarkId::Bodytrack | BenchmarkId::Freqmine => 2,
            _ => 1,
        }
    }

    /// Clamps a requested thread count into the benchmark's supported
    /// range.
    pub fn clamp_threads(self, requested: usize) -> usize {
        let lo = self.min_threads();
        let hi = self.info().max_threads.unwrap_or(usize::MAX);
        requested.clamp(lo, hi)
    }

    /// Builds the synthetic application with `threads` threads (clamped to
    /// the model's supported range), deterministic in `(seed, scale)`.
    pub fn build(self, threads: usize, seed: u64, scale: Scale) -> AppSpec {
        let n = self.clamp_threads(threads);
        let ms = SimDuration::from_millis;
        let us = SimDuration::from_micros;
        use BenchmarkId::*;
        match self {
            Blackscholes => fork_join(
                self,
                n,
                ForkJoinCfg {
                    total_work: ms(240),
                    chunks_per_thread: 20,
                    profile: ExecutionProfile::new(0.85, 0.15, 0.2, 0.8, 0.25, 0.1, 0.05),
                    profile_jitter: 0.04,
                    imbalance: 0.03,
                },
                seed,
                scale,
            ),
            Bodytrack => task_queue(
                self,
                n,
                TaskQueueCfg {
                    tasks: 96,
                    master_work_per_task: us(120),
                    task_work: us(2100),
                    master_profile: ExecutionProfile::new(0.5, 0.4, 0.5, 0.2, 0.3, 0.3, 0.1),
                    worker_profile: ExecutionProfile::new(0.6, 0.35, 0.45, 0.35, 0.3, 0.2, 0.05),
                    capacity: 64,
                    profile_jitter: 0.04,
                },
                seed,
                scale,
            ),
            Dedup => {
                let k = (n - 2).max(3);
                let (k1, k2, k3) = (
                    k / 3 + usize::from(!k.is_multiple_of(3)),
                    k / 3 + usize::from(k % 3 > 1),
                    k / 3,
                );
                let stages = [
                    StageSpec {
                        name: "fragment",
                        workers: 1,
                        work_per_item: us(900),
                        profile: ExecutionProfile::new(0.3, 0.6, 0.4, 0.05, 0.5, 0.3, 0.1),
                    },
                    StageSpec {
                        name: "chunk",
                        workers: k1,
                        work_per_item: us(2700),
                        profile: ExecutionProfile::new(0.5, 0.5, 0.4, 0.1, 0.4, 0.2, 0.05),
                    },
                    StageSpec {
                        name: "dedup",
                        workers: k2,
                        work_per_item: us(2280),
                        profile: ExecutionProfile::new(0.55, 0.45, 0.5, 0.05, 0.45, 0.25, 0.05),
                    },
                    StageSpec {
                        name: "compress",
                        workers: k3.max(1),
                        work_per_item: us(3300),
                        profile: ExecutionProfile::new(0.75, 0.25, 0.3, 0.15, 0.35, 0.15, 0.05),
                    },
                    StageSpec {
                        name: "reorder",
                        workers: 1,
                        work_per_item: us(840),
                        profile: ExecutionProfile::new(0.3, 0.6, 0.4, 0.05, 0.5, 0.3, 0.1),
                    },
                ];
                pipeline(self, &stages, 40, 4, seed, scale)
            }
            Ferret => {
                let k = (n - 2).max(4);
                let share = |i: usize| k / 4 + usize::from(i < k % 4);
                let stages = [
                    StageSpec {
                        name: "load",
                        workers: 1,
                        work_per_item: us(600),
                        profile: ExecutionProfile::new(0.3, 0.6, 0.35, 0.05, 0.4, 0.35, 0.1),
                    },
                    StageSpec {
                        name: "seg",
                        workers: share(0),
                        work_per_item: us(1680),
                        profile: ExecutionProfile::new(0.55, 0.4, 0.4, 0.3, 0.3, 0.2, 0.05),
                    },
                    StageSpec {
                        name: "extract",
                        workers: share(1),
                        work_per_item: us(1920),
                        profile: ExecutionProfile::new(0.6, 0.35, 0.35, 0.4, 0.3, 0.2, 0.05),
                    },
                    StageSpec {
                        name: "vec",
                        workers: share(2),
                        work_per_item: us(1800),
                        profile: ExecutionProfile::new(0.6, 0.35, 0.3, 0.45, 0.3, 0.2, 0.05),
                    },
                    StageSpec {
                        // The hot, unbalanced stage the paper accelerates.
                        name: "rank",
                        workers: share(3).max(1),
                        work_per_item: us(6000),
                        profile: ExecutionProfile::new(0.85, 0.2, 0.25, 0.55, 0.3, 0.1, 0.05),
                    },
                    StageSpec {
                        name: "out",
                        workers: 1,
                        work_per_item: us(540),
                        profile: ExecutionProfile::new(0.3, 0.6, 0.35, 0.05, 0.4, 0.35, 0.1),
                    },
                ];
                pipeline(self, &stages, 48, 4, seed, scale)
            }
            Fluidanimate => data_parallel(
                self,
                n,
                DataParallelCfg {
                    steps: 20,
                    work_per_step: us(7200),
                    imbalance: 0.15,
                    profile: ExecutionProfile::new(0.55, 0.4, 0.35, 0.5, 0.45, 0.2, 0.05),
                    profile_jitter: 0.05,
                    lock_section: Some(LockSection {
                        locks: 4,
                        acquisitions_per_step: 30,
                        held_work: us(48),
                        open_work: us(180),
                    }),
                },
                seed,
                scale,
            ),
            Freqmine => task_queue(
                self,
                n,
                TaskQueueCfg {
                    // Fine-grained mining tasks: same total work as the
                    // coarser 64×3000µs split, but a queue-op rate that
                    // actually sits in Table 3's "high" sync band.
                    tasks: 120,
                    master_work_per_task: us(500),
                    task_work: us(1500),
                    master_profile: ExecutionProfile::new(0.45, 0.5, 0.55, 0.05, 0.4, 0.35, 0.1),
                    worker_profile: ExecutionProfile::new(0.65, 0.45, 0.5, 0.1, 0.4, 0.25, 0.05),
                    capacity: 8,
                    profile_jitter: 0.05,
                },
                seed,
                scale,
            ),
            Swaptions => task_queue(
                self,
                n,
                TaskQueueCfg {
                    tasks: 48,
                    master_work_per_task: us(1500),
                    task_work: us(4800),
                    // Core-insensitive bottleneck master...
                    master_profile: ExecutionProfile::new(0.12, 0.85, 0.4, 0.1, 0.3, 0.3, 0.1),
                    // ...feeding strongly core-sensitive workers (§5.2).
                    worker_profile: ExecutionProfile::new(0.9, 0.1, 0.15, 0.75, 0.25, 0.1, 0.05),
                    capacity: 2,
                    profile_jitter: 0.03,
                },
                seed,
                scale,
            ),
            Radix => data_parallel(
                self,
                n,
                DataParallelCfg {
                    steps: 8,
                    work_per_step: ms(18),
                    imbalance: 0.05,
                    profile: ExecutionProfile::new(0.4, 0.65, 0.35, 0.05, 0.5, 0.2, 0.05),
                    profile_jitter: 0.04,
                    lock_section: None,
                },
                seed,
                scale,
            ),
            LuNcb => data_parallel(
                self,
                n,
                DataParallelCfg {
                    steps: 16,
                    work_per_step: us(9000),
                    imbalance: 0.04,
                    profile: ExecutionProfile::new(0.6, 0.4, 0.25, 0.55, 0.35, 0.15, 0.05),
                    profile_jitter: 0.03,
                    lock_section: None,
                },
                seed,
                scale,
            ),
            LuCb => data_parallel(
                self,
                n,
                DataParallelCfg {
                    steps: 16,
                    work_per_step: us(9000),
                    imbalance: 0.04,
                    profile: ExecutionProfile::new(0.65, 0.35, 0.25, 0.55, 0.35, 0.15, 0.05),
                    profile_jitter: 0.03,
                    lock_section: None,
                },
                seed,
                scale,
            ),
            OceanCp => data_parallel(
                self,
                n,
                DataParallelCfg {
                    steps: 12,
                    work_per_step: us(13200),
                    imbalance: 0.08,
                    profile: ExecutionProfile::new(0.3, 0.8, 0.3, 0.4, 0.4, 0.2, 0.05),
                    profile_jitter: 0.04,
                    lock_section: None,
                },
                seed,
                scale,
            ),
            WaterNsquared => data_parallel(
                self,
                n,
                DataParallelCfg {
                    steps: 12,
                    work_per_step: us(13200),
                    imbalance: 0.10,
                    profile: ExecutionProfile::new(0.55, 0.3, 0.3, 0.6, 0.35, 0.15, 0.05),
                    profile_jitter: 0.04,
                    lock_section: Some(LockSection {
                        locks: 1,
                        acquisitions_per_step: 6,
                        held_work: us(120),
                        open_work: us(360),
                    }),
                },
                seed,
                scale,
            ),
            WaterSpatial => data_parallel(
                self,
                n,
                DataParallelCfg {
                    steps: 12,
                    work_per_step: us(13200),
                    imbalance: 0.06,
                    profile: ExecutionProfile::new(0.55, 0.3, 0.3, 0.6, 0.35, 0.15, 0.05),
                    profile_jitter: 0.04,
                    lock_section: None,
                },
                seed,
                scale,
            ),
            Fmm => data_parallel(
                self,
                n,
                DataParallelCfg {
                    steps: 10,
                    work_per_step: us(14400),
                    imbalance: 0.25,
                    profile: ExecutionProfile::new(0.6, 0.35, 0.3, 0.65, 0.35, 0.15, 0.05),
                    profile_jitter: 0.05,
                    lock_section: None,
                },
                seed,
                scale,
            ),
            Fft => data_parallel(
                self,
                n,
                DataParallelCfg {
                    steps: 6,
                    work_per_step: ms(24),
                    imbalance: 0.05,
                    profile: ExecutionProfile::new(0.5, 0.6, 0.25, 0.6, 0.4, 0.15, 0.05),
                    profile_jitter: 0.04,
                    lock_section: None,
                },
                seed,
                scale,
            ),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_and_validate() {
        for bench in BenchmarkId::ALL {
            for &threads in &[2usize, 4, 8, 13] {
                let app = bench.build(threads, 11, Scale::quick());
                app.validate()
                    .unwrap_or_else(|e| panic!("{bench} with {threads} threads: {e}"));
                assert!(!app.threads.is_empty());
            }
        }
    }

    #[test]
    fn thread_counts_respect_model_limits() {
        let app = BenchmarkId::WaterNsquared.build(8, 1, Scale::quick());
        assert_eq!(app.threads.len(), 2, "water_nsquared caps at 2 threads");
        let app = BenchmarkId::Dedup.build(2, 1, Scale::quick());
        assert!(app.threads.len() >= 5, "dedup needs its 5 stages");
        let app = BenchmarkId::Blackscholes.build(6, 1, Scale::quick());
        assert_eq!(app.threads.len(), 6);
    }

    #[test]
    fn table3_categorization_matches_paper() {
        assert_eq!(
            BenchmarkId::Fluidanimate.info().sync_rate,
            SyncRate::VeryHigh
        );
        assert_eq!(
            BenchmarkId::Fluidanimate.info().comm_comp,
            CommCompRatio::Low
        );
        assert_eq!(BenchmarkId::Ferret.info().sync_rate, SyncRate::High);
        assert_eq!(BenchmarkId::Ferret.info().comm_comp, CommCompRatio::Medium);
        assert_eq!(BenchmarkId::Swaptions.info().sync_rate, SyncRate::Low);
        assert_eq!(BenchmarkId::Fft.info().comm_comp, CommCompRatio::High);
        assert_eq!(BenchmarkId::WaterNsquared.info().max_threads, Some(2));
        assert_eq!(BenchmarkId::WaterSpatial.info().max_threads, Some(2));
        assert_eq!(BenchmarkId::Fmm.info().max_threads, Some(2));
    }

    #[test]
    fn figure4_excludes_two_thread_codes() {
        for b in BenchmarkId::FIGURE4 {
            assert_eq!(b.info().max_threads, None, "{b} should scale");
        }
        assert_eq!(BenchmarkId::FIGURE4.len(), 12);
    }

    #[test]
    fn swaptions_master_is_core_insensitive_workers_sensitive() {
        let app = BenchmarkId::Swaptions.build(4, 7, Scale::quick());
        let master = &app.threads[0];
        let worker = &app.threads[1];
        assert!(master.profile.true_speedup() < 1.5);
        assert!(worker.profile.true_speedup() > 2.0);
    }

    #[test]
    fn ferret_rank_stage_dominates_work() {
        let app = BenchmarkId::Ferret.build(6, 3, Scale::default());
        let rank_work: SimDuration = app
            .threads
            .iter()
            .filter(|t| t.name.contains("rank"))
            .map(|t| t.program.total_compute())
            .sum();
        let total = app.total_compute();
        let frac = rank_work.as_nanos() as f64 / total.as_nanos() as f64;
        assert!(frac > 0.35, "rank stage only {frac:.2} of total work");
    }

    #[test]
    fn fluidanimate_has_lock_storm() {
        let app = BenchmarkId::Fluidanimate.build(4, 3, Scale::default());
        let locks_per_thread = app.threads[0].program.action_census().1;
        assert!(
            locks_per_thread >= 500,
            "expected hundreds of acquisitions, got {locks_per_thread}"
        );
    }

    #[test]
    fn builds_are_deterministic() {
        let a = BenchmarkId::Bodytrack.build(6, 99, Scale::default());
        let b = BenchmarkId::Bodytrack.build(6, 99, Scale::default());
        for (ta, tb) in a.threads.iter().zip(&b.threads) {
            assert_eq!(ta.profile, tb.profile);
            assert_eq!(ta.program, tb.program);
        }
    }

    #[test]
    fn names_are_unique_and_lowercase() {
        let mut names: Vec<&str> = BenchmarkId::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
        assert!(names.iter().all(|n| *n == n.to_lowercase()));
    }
}
