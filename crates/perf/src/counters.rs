//! The synthetic performance-monitoring unit.
//!
//! gem5 exposes hundreds of statistics; the paper records 225 of them on the
//! simulated big cores before PCA narrows the set down to six (Table 2). We
//! model a representative 24-counter PMU: the seven counters named in
//! Table 2 plus seventeen more gem5-style statistics that are correlated
//! with various aspects of program behaviour, so the PCA selection step has
//! a realistic space to search.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Number of counters in the synthetic PMU.
pub const NUM_COUNTERS: usize = 24;

/// One gem5-style hardware performance counter.
///
/// The first seven variants are the counters of the paper's Table 2
/// (indices A–G); see [`TABLE2_COUNTERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Table 2 `A`: `fp_regfile_writes` — FP register-file writes.
    FpRegfileWrites,
    /// Table 2 `B`: `fetch.Branches` — branches encountered.
    FetchBranches,
    /// Table 2 `C`: `rename.SQFullEvents` — store-queue-full blocks.
    RenameSqFullEvents,
    /// Table 2 `D`: `quiesceCycles` — cycles waiting for interrupts.
    QuiesceCycles,
    /// Table 2 `E`: `dcache.tags.tagsinuse` — data-cache tags in use.
    DcacheTagsInUse,
    /// Table 2 `F`: `fetch.IcacheWaitRetryStallCycles` — MSHR-full stalls.
    IcacheWaitRetryStallCycles,
    /// Table 2 `G`: `commit.committedInsts` — committed instructions
    /// (the normalizer for every other counter).
    CommittedInsts,
    /// `int_regfile_writes` — integer register-file writes.
    IntRegfileWrites,
    /// `fetch.Insts` — instructions fetched.
    FetchInsts,
    /// `decode.BlockedCycles` — decode-stage blocked cycles.
    DecodeBlockedCycles,
    /// `rename.ROBFullEvents` — reorder-buffer-full blocks.
    RenameRobFullEvents,
    /// `iew.branchMispredicts` — mispredicted branches.
    BranchMispredicts,
    /// `dcache.ReadReq_misses` — data-cache read misses.
    DcacheReadMisses,
    /// `dcache.WriteReq_misses` — data-cache write misses.
    DcacheWriteMisses,
    /// `icache.ReadReq_misses` — instruction-cache misses.
    IcacheMisses,
    /// `l2.overall_misses` — unified L2 misses.
    L2Misses,
    /// `lsq.forwLoads` — loads forwarded from the store queue.
    LsqForwLoads,
    /// `iew.memOrderViolationEvents` — memory-order violations.
    MemOrderViolations,
    /// `commit.branches` — committed branches.
    CommitBranches,
    /// `commit.memRefs` — committed memory references.
    CommitMemRefs,
    /// `fetch.CycleStalls` — total fetch-stall cycles.
    FetchCycleStalls,
    /// `numCycles` — cycles the core was active for this thread.
    NumCycles,
    /// `idleCycles` — cycles the core was idle while owned.
    IdleCycles,
    /// `system.switch_cpus.cpi` × 1000 — scaled cycles-per-instruction.
    CpiMilli,
}

impl Counter {
    /// All counters in index order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::FpRegfileWrites,
        Counter::FetchBranches,
        Counter::RenameSqFullEvents,
        Counter::QuiesceCycles,
        Counter::DcacheTagsInUse,
        Counter::IcacheWaitRetryStallCycles,
        Counter::CommittedInsts,
        Counter::IntRegfileWrites,
        Counter::FetchInsts,
        Counter::DecodeBlockedCycles,
        Counter::RenameRobFullEvents,
        Counter::BranchMispredicts,
        Counter::DcacheReadMisses,
        Counter::DcacheWriteMisses,
        Counter::IcacheMisses,
        Counter::L2Misses,
        Counter::LsqForwLoads,
        Counter::MemOrderViolations,
        Counter::CommitBranches,
        Counter::CommitMemRefs,
        Counter::FetchCycleStalls,
        Counter::NumCycles,
        Counter::IdleCycles,
        Counter::CpiMilli,
    ];

    /// The dense index of the counter.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The gem5 statistic name, as printed in Table 2.
    pub const fn gem5_name(self) -> &'static str {
        match self {
            Counter::FpRegfileWrites => "fp_regfile_writes",
            Counter::FetchBranches => "fetch.Branches",
            Counter::RenameSqFullEvents => "rename.SQFullEvents",
            Counter::QuiesceCycles => "quiesceCycles",
            Counter::DcacheTagsInUse => "dcache.tags.tagsinuse",
            Counter::IcacheWaitRetryStallCycles => "fetch.IcacheWaitRetryStallCycles",
            Counter::CommittedInsts => "commit.committedInsts",
            Counter::IntRegfileWrites => "int_regfile_writes",
            Counter::FetchInsts => "fetch.Insts",
            Counter::DecodeBlockedCycles => "decode.BlockedCycles",
            Counter::RenameRobFullEvents => "rename.ROBFullEvents",
            Counter::BranchMispredicts => "iew.branchMispredicts",
            Counter::DcacheReadMisses => "dcache.ReadReq_misses",
            Counter::DcacheWriteMisses => "dcache.WriteReq_misses",
            Counter::IcacheMisses => "icache.ReadReq_misses",
            Counter::L2Misses => "l2.overall_misses",
            Counter::LsqForwLoads => "lsq.forwLoads",
            Counter::MemOrderViolations => "iew.memOrderViolationEvents",
            Counter::CommitBranches => "commit.branches",
            Counter::CommitMemRefs => "commit.memRefs",
            Counter::FetchCycleStalls => "fetch.CycleStalls",
            Counter::NumCycles => "numCycles",
            Counter::IdleCycles => "idleCycles",
            Counter::CpiMilli => "cpi_milli",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.gem5_name())
    }
}

/// The seven counters named in the paper's Table 2, in A–G order.
pub const TABLE2_COUNTERS: [Counter; 7] = [
    Counter::FpRegfileWrites,
    Counter::FetchBranches,
    Counter::RenameSqFullEvents,
    Counter::QuiesceCycles,
    Counter::DcacheTagsInUse,
    Counter::IcacheWaitRetryStallCycles,
    Counter::CommittedInsts,
];

/// A snapshot (or accumulation) of all PMU counters for one thread.
///
/// # Examples
///
/// ```
/// use amp_perf::{Counter, PmuCounters};
///
/// let mut pmu = PmuCounters::zeroed();
/// pmu[Counter::CommittedInsts] = 1_000_000.0;
/// pmu[Counter::FetchBranches] = 120_000.0;
/// assert_eq!(pmu.normalized(Counter::FetchBranches), 0.12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmuCounters {
    values: [f64; NUM_COUNTERS],
}

impl PmuCounters {
    /// All counters at zero.
    pub const fn zeroed() -> PmuCounters {
        PmuCounters {
            values: [0.0; NUM_COUNTERS],
        }
    }

    /// Builds a snapshot from a raw value array.
    pub const fn from_values(values: [f64; NUM_COUNTERS]) -> PmuCounters {
        PmuCounters { values }
    }

    /// The raw value array.
    pub fn values(&self) -> &[f64; NUM_COUNTERS] {
        &self.values
    }

    /// Accumulates another snapshot into this one.
    pub fn accumulate(&mut self, other: &PmuCounters) {
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += b;
        }
    }

    /// Resets every counter to zero (start of a sampling interval).
    pub fn reset(&mut self) {
        self.values = [0.0; NUM_COUNTERS];
    }

    /// The counter divided by committed instructions, the normalization the
    /// paper applies before feeding counters to the linear model. Returns
    /// `0.0` when no instructions have committed.
    pub fn normalized(&self, counter: Counter) -> f64 {
        let insts = self.values[Counter::CommittedInsts.index()];
        if insts <= 0.0 {
            0.0
        } else {
            self.values[counter.index()] / insts
        }
    }

    /// Committed instructions in this snapshot.
    pub fn committed_insts(&self) -> f64 {
        self.values[Counter::CommittedInsts.index()]
    }
}

impl Default for PmuCounters {
    fn default() -> Self {
        PmuCounters::zeroed()
    }
}

impl Index<Counter> for PmuCounters {
    type Output = f64;
    fn index(&self, c: Counter) -> &f64 {
        &self.values[c.index()]
    }
}

impl IndexMut<Counter> for PmuCounters {
    fn index_mut(&mut self, c: Counter) -> &mut f64 {
        &mut self.values[c.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(Counter::ALL.len(), NUM_COUNTERS);
    }

    #[test]
    fn table2_counters_lead_the_enum() {
        for (i, c) in TABLE2_COUNTERS.iter().enumerate() {
            assert_eq!(c.index(), i, "Table 2 counters occupy indices 0..7");
        }
        assert_eq!(TABLE2_COUNTERS[6], Counter::CommittedInsts);
    }

    #[test]
    fn names_match_paper_table() {
        assert_eq!(Counter::RenameSqFullEvents.to_string(), "rename.SQFullEvents");
        assert_eq!(
            Counter::IcacheWaitRetryStallCycles.gem5_name(),
            "fetch.IcacheWaitRetryStallCycles"
        );
    }

    #[test]
    fn accumulate_and_reset() {
        let mut a = PmuCounters::zeroed();
        let mut b = PmuCounters::zeroed();
        b[Counter::L2Misses] = 10.0;
        b[Counter::CommittedInsts] = 100.0;
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a[Counter::L2Misses], 20.0);
        assert_eq!(a.committed_insts(), 200.0);
        a.reset();
        assert_eq!(a, PmuCounters::zeroed());
    }

    #[test]
    fn normalization_divides_by_committed_insts() {
        let mut pmu = PmuCounters::zeroed();
        assert_eq!(pmu.normalized(Counter::L2Misses), 0.0, "no insts → 0");
        pmu[Counter::CommittedInsts] = 50.0;
        pmu[Counter::L2Misses] = 5.0;
        assert_eq!(pmu.normalized(Counter::L2Misses), 0.1);
    }
}
