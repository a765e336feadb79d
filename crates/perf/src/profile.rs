//! Latent per-thread execution characteristics.
//!
//! On real hardware (or gem5), a thread's big-vs-little speedup and its
//! performance-counter readings are both consequences of the same underlying
//! program behaviour: how much instruction-level parallelism it exposes, how
//! memory-bound it is, how it branches, and so on. [`ExecutionProfile`]
//! models exactly that latent behaviour: the simulator derives *true*
//! execution rates from it, and the synthetic PMU derives *observable*
//! counters from it (with noise), so the offline-trained speedup model has a
//! genuine signal to recover — the same causal structure the paper's
//! PCA + regression pipeline exploits.

use amp_types::{CoreKind, SimDuration};
use rand::Rng;

use crate::counters::{Counter, PmuCounters};

/// Latent execution characteristics of one thread.
///
/// All fields live in `[0, 1]`. Compute work in the workload layer is
/// expressed in *big-core nanoseconds*; running the same work on a little
/// core takes [`true_speedup`](ExecutionProfile::true_speedup) times longer.
///
/// # Examples
///
/// ```
/// use amp_perf::ExecutionProfile;
///
/// let hot = ExecutionProfile::compute_bound();
/// let cold = ExecutionProfile::memory_bound();
/// assert!(hot.true_speedup() > cold.true_speedup());
/// assert!(hot.true_speedup() <= ExecutionProfile::MAX_SPEEDUP);
/// assert!(cold.true_speedup() >= ExecutionProfile::MIN_SPEEDUP);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionProfile {
    /// Instruction-level parallelism exposed to an out-of-order core.
    pub ilp: f64,
    /// Memory-boundedness (LLC pressure); erodes the big core's advantage.
    pub mem_ratio: f64,
    /// Branch density and unpredictability.
    pub branchiness: f64,
    /// Fraction of floating-point work.
    pub fp_ratio: f64,
    /// Store-queue pressure (drives `rename.SQFullEvents`).
    pub store_pressure: f64,
    /// Instruction-fetch stall tendency (drives MSHR-full stalls).
    pub icache_pressure: f64,
    /// Interrupt/idle-waiting tendency (drives `quiesceCycles`).
    pub quiesce: f64,
}

impl ExecutionProfile {
    /// Smallest possible big-vs-little speedup (memory-bound code: both
    /// core types stall on DRAM).
    pub const MIN_SPEEDUP: f64 = 1.0;
    /// Largest possible big-vs-little speedup (ILP-rich compute: the
    /// out-of-order 2 GHz core runs far ahead of the in-order 1.2 GHz
    /// one). Calibrated to measured Cortex-A57 vs A53 ratios (~2–2.5×).
    pub const MAX_SPEEDUP: f64 = 2.6;

    /// A profile with every field clamped into `[0, 1]`.
    pub fn new(
        ilp: f64,
        mem_ratio: f64,
        branchiness: f64,
        fp_ratio: f64,
        store_pressure: f64,
        icache_pressure: f64,
        quiesce: f64,
    ) -> ExecutionProfile {
        let c = |x: f64| x.clamp(0.0, 1.0);
        ExecutionProfile {
            ilp: c(ilp),
            mem_ratio: c(mem_ratio),
            branchiness: c(branchiness),
            fp_ratio: c(fp_ratio),
            store_pressure: c(store_pressure),
            icache_pressure: c(icache_pressure),
            quiesce: c(quiesce),
        }
    }

    /// An ILP-rich, cache-friendly profile: large big-core speedup.
    pub fn compute_bound() -> ExecutionProfile {
        ExecutionProfile::new(0.9, 0.1, 0.2, 0.6, 0.3, 0.1, 0.05)
    }

    /// A DRAM-bound profile: minimal big-core speedup.
    pub fn memory_bound() -> ExecutionProfile {
        ExecutionProfile::new(0.15, 0.9, 0.3, 0.1, 0.4, 0.3, 0.1)
    }

    /// A middle-of-the-road profile.
    pub fn balanced() -> ExecutionProfile {
        ExecutionProfile::new(0.5, 0.45, 0.4, 0.3, 0.35, 0.25, 0.1)
    }

    /// Samples a uniformly random profile; used to build training sets and
    /// by the property tests.
    pub fn sample<R: Rng>(rng: &mut R) -> ExecutionProfile {
        ExecutionProfile::new(
            rng.gen(),
            rng.gen(),
            rng.gen(),
            rng.gen(),
            rng.gen(),
            rng.gen(),
            rng.gen(),
        )
    }

    /// Instructions-per-cycle on a little (in-order, 1.2 GHz) core.
    pub fn ipc_little(&self) -> f64 {
        (0.45 + 0.30 * self.ilp - 0.15 * self.mem_ratio - 0.05 * self.branchiness).max(0.25)
    }

    /// Instructions-per-cycle on a big (out-of-order, 2.0 GHz) core,
    /// derived so that the frequency-weighted ratio equals
    /// [`true_speedup`](Self::true_speedup).
    pub fn ipc_big(&self) -> f64 {
        // freq_little / freq_big = 1.2 / 2.0 = 0.6
        self.ipc_little() * self.true_speedup() * 0.6
    }

    /// The ground-truth big-vs-little speedup of this profile: the ratio of
    /// little-core to big-core execution time for the same work. ILP raises
    /// it; memory-boundedness erodes it (both core kinds stall on DRAM);
    /// branch-heavy low-ILP code gains little from the wide core.
    pub fn true_speedup(&self) -> f64 {
        let raw = 1.06
            + 1.35 * self.ilp * (1.0 - 0.50 * self.mem_ratio)
            + 0.22 * self.fp_ratio * (1.0 - self.mem_ratio)
            - 0.20 * self.branchiness * (1.0 - self.ilp);
        raw.clamp(Self::MIN_SPEEDUP, Self::MAX_SPEEDUP)
    }

    /// How long `work` (expressed in big-core nanoseconds) takes on a core
    /// of the given kind.
    pub fn exec_duration(&self, work: SimDuration, kind: CoreKind) -> SimDuration {
        match kind {
            CoreKind::Big => work,
            CoreKind::Little => work.mul_f64(self.true_speedup()),
        }
    }

    /// Inverse of [`exec_duration`](Self::exec_duration): how much big-core
    /// work is retired by running for `elapsed` on a core of `kind`.
    pub fn work_done(&self, elapsed: SimDuration, kind: CoreKind) -> SimDuration {
        match kind {
            CoreKind::Big => elapsed,
            CoreKind::Little => elapsed.div_f64(self.true_speedup()),
        }
    }

    /// Synthesizes a PMU snapshot for an execution interval.
    ///
    /// * `kind` — the core the thread ran on;
    /// * `cycles` — core cycles spent running;
    /// * `insts` — instructions committed in the interval;
    /// * `rng` — noise source (±5% multiplicative observation noise).
    pub fn synthesize_counters<R: Rng>(
        &self,
        kind: CoreKind,
        cycles: f64,
        insts: f64,
        _seq: u64,
        rng: &mut R,
    ) -> PmuCounters {
        let mut noise = move || rng.gen_range(0.95..1.05);
        let big = kind.is_big();
        let bigf = if big { 1.0 } else { 0.0 };
        let mut pmu = PmuCounters::zeroed();
        pmu[Counter::CommittedInsts] = insts;
        pmu[Counter::FpRegfileWrites] = insts * 0.6 * self.fp_ratio * noise();
        pmu[Counter::FetchBranches] = insts * (0.04 + 0.18 * self.branchiness) * noise();
        pmu[Counter::RenameSqFullEvents] =
            insts * self.store_pressure * (0.030 * bigf + 0.002) * noise();
        pmu[Counter::QuiesceCycles] = cycles * 0.08 * self.quiesce * noise();
        pmu[Counter::DcacheTagsInUse] = insts * (0.05 + 0.45 * self.mem_ratio) * noise();
        pmu[Counter::IcacheWaitRetryStallCycles] = cycles * 0.05 * self.icache_pressure * noise();
        pmu[Counter::IntRegfileWrites] = insts * (0.9 - 0.5 * self.fp_ratio) * noise();
        pmu[Counter::FetchInsts] = insts * (1.1 + 0.3 * self.branchiness) * noise();
        pmu[Counter::DecodeBlockedCycles] = cycles * 0.10 * (1.0 - self.ilp) * noise();
        pmu[Counter::RenameRobFullEvents] = insts * 0.012 * self.mem_ratio * bigf * noise();
        pmu[Counter::BranchMispredicts] =
            insts * 0.02 * self.branchiness * (if big { 0.6 } else { 1.0 }) * noise();
        pmu[Counter::DcacheReadMisses] = insts * 0.040 * self.mem_ratio * noise();
        pmu[Counter::DcacheWriteMisses] =
            insts * 0.015 * self.mem_ratio * (0.5 + 0.5 * self.store_pressure) * noise();
        pmu[Counter::IcacheMisses] = insts * 0.010 * self.icache_pressure * noise();
        pmu[Counter::L2Misses] = insts * 0.012 * self.mem_ratio * self.mem_ratio * noise();
        pmu[Counter::LsqForwLoads] =
            insts * 0.020 * self.store_pressure * (0.3 + 0.7 * bigf) * noise();
        pmu[Counter::MemOrderViolations] =
            insts * 0.0012 * self.mem_ratio * self.store_pressure * bigf * noise();
        pmu[Counter::CommitBranches] = insts * (0.04 + 0.16 * self.branchiness) * noise();
        pmu[Counter::CommitMemRefs] = insts * (0.20 + 0.30 * self.mem_ratio) * noise();
        pmu[Counter::FetchCycleStalls] =
            cycles * (0.10 + 0.20 * self.icache_pressure + 0.10 * self.mem_ratio) * noise();
        pmu[Counter::NumCycles] = cycles;
        pmu[Counter::IdleCycles] = cycles * 0.02 * self.quiesce * noise();
        pmu[Counter::CpiMilli] = if insts > 0.0 {
            1000.0 * cycles / insts
        } else {
            0.0
        };
        pmu
    }
}

impl Default for ExecutionProfile {
    fn default() -> Self {
        ExecutionProfile::balanced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_clamps_fields() {
        let p = ExecutionProfile::new(2.0, -1.0, 0.5, 0.5, 0.5, 0.5, 0.5);
        assert_eq!(p.ilp, 1.0);
        assert_eq!(p.mem_ratio, 0.0);
    }

    #[test]
    fn speedup_is_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let p = ExecutionProfile::sample(&mut rng);
            let s = p.true_speedup();
            assert!((ExecutionProfile::MIN_SPEEDUP..=ExecutionProfile::MAX_SPEEDUP).contains(&s));
        }
    }

    #[test]
    fn speedup_monotone_in_ilp() {
        let lo = ExecutionProfile::new(0.1, 0.3, 0.3, 0.3, 0.3, 0.3, 0.1);
        let hi = ExecutionProfile::new(0.9, 0.3, 0.3, 0.3, 0.3, 0.3, 0.1);
        assert!(hi.true_speedup() > lo.true_speedup());
    }

    #[test]
    fn speedup_erodes_with_memory_boundedness() {
        let cached = ExecutionProfile::new(0.8, 0.1, 0.3, 0.3, 0.3, 0.3, 0.1);
        let dram = ExecutionProfile::new(0.8, 0.9, 0.3, 0.3, 0.3, 0.3, 0.1);
        assert!(cached.true_speedup() > dram.true_speedup());
    }

    #[test]
    fn exec_duration_matches_speedup() {
        let p = ExecutionProfile::compute_bound();
        let work = SimDuration::from_micros(100);
        assert_eq!(p.exec_duration(work, CoreKind::Big), work);
        let little = p.exec_duration(work, CoreKind::Little);
        let ratio = little.as_nanos() as f64 / work.as_nanos() as f64;
        // Durations round to whole nanoseconds, so tolerate ~0.5ns/100µs.
        assert!((ratio - p.true_speedup()).abs() < 1e-4);
    }

    #[test]
    fn work_done_inverts_exec_duration() {
        let p = ExecutionProfile::balanced();
        let work = SimDuration::from_micros(500);
        let elapsed = p.exec_duration(work, CoreKind::Little);
        let recovered = p.work_done(elapsed, CoreKind::Little);
        let err = recovered.as_nanos().abs_diff(work.as_nanos());
        assert!(err <= 1, "rounding error {err}ns too large");
    }

    #[test]
    fn ipc_ratio_consistent_with_speedup() {
        let p = ExecutionProfile::balanced();
        // speedup = (f_b * ipc_b) / (f_l * ipc_l)
        let s = (2.0 * p.ipc_big()) / (1.2 * p.ipc_little());
        assert!((s - p.true_speedup()).abs() < 1e-9);
    }

    #[test]
    fn counters_are_nonnegative_and_insts_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let p = ExecutionProfile::sample(&mut rng);
            let pmu = p.synthesize_counters(CoreKind::Little, 1e6, 4e5, 0, &mut rng);
            for (i, &v) in pmu.values().iter().enumerate() {
                assert!(v >= 0.0, "counter {i} negative: {v}");
            }
            assert_eq!(pmu.committed_insts(), 4e5);
        }
    }

    #[test]
    fn sq_full_events_distinguish_core_kinds() {
        let p = ExecutionProfile::new(0.5, 0.5, 0.5, 0.5, 1.0, 0.5, 0.1);
        let mut rng = StdRng::seed_from_u64(9);
        let big = p.synthesize_counters(CoreKind::Big, 1e6, 4e5, 0, &mut rng);
        let little = p.synthesize_counters(CoreKind::Little, 1e6, 4e5, 0, &mut rng);
        assert!(big[Counter::RenameSqFullEvents] > 5.0 * little[Counter::RenameSqFullEvents]);
    }
}
