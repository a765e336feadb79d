//! The 26 multiprogrammed workloads of the paper's Table 4.
//!
//! Table 4 names each workload, lists its benchmark composition and its
//! total thread count, and groups workloads into five classes:
//! synchronization-intensive (`Sync`), non-synchronization-intensive
//! (`NSync`), communication-intensive (`Comm`), computation-intensive
//! (`Comp`), and random mixes (`Rand`). The table gives totals but not the
//! per-benchmark split; the splits below respect each model's limits (the
//! 2-thread SPLASH-2 codes, pipeline stage minima) and sum exactly to the
//! paper's totals.

use std::fmt;

use crate::benchmarks::BenchmarkId;
use crate::spec::WorkloadSpec;

/// The workload class a Table 4 entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadClass {
    /// Synchronization-intensive.
    Sync,
    /// Non-synchronization-intensive.
    NSync,
    /// Communication-intensive.
    Comm,
    /// Computation-intensive.
    Comp,
    /// Random mix drawn from all groups.
    Rand,
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadClass::Sync => f.write_str("Sync"),
            WorkloadClass::NSync => f.write_str("NSync"),
            WorkloadClass::Comm => f.write_str("Comm"),
            WorkloadClass::Comp => f.write_str("Comp"),
            WorkloadClass::Rand => f.write_str("Rand"),
        }
    }
}

/// One of the paper's 26 named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PaperWorkload {
    class: WorkloadClass,
    index: u8,
}

impl PaperWorkload {
    /// Creates a handle for e.g. `Sync-3`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the class (1–4 for the four
    /// property classes, 1–10 for `Rand`).
    pub fn new(class: WorkloadClass, index: u8) -> PaperWorkload {
        let max = if class == WorkloadClass::Rand { 10 } else { 4 };
        assert!(
            (1..=max).contains(&index),
            "{class} workloads are numbered 1..={max}, got {index}"
        );
        PaperWorkload { class, index }
    }

    /// All 26 workloads, in Table 4 order.
    pub fn all() -> Vec<PaperWorkload> {
        let mut out = Vec::with_capacity(26);
        for class in [
            WorkloadClass::Sync,
            WorkloadClass::NSync,
            WorkloadClass::Comm,
            WorkloadClass::Comp,
        ] {
            for i in 1..=4 {
                out.push(PaperWorkload::new(class, i));
            }
        }
        for i in 1..=10 {
            out.push(PaperWorkload::new(WorkloadClass::Rand, i));
        }
        out
    }

    /// The workload's class.
    pub fn class(self) -> WorkloadClass {
        self.class
    }

    /// The index within the class (1-based, as in the paper).
    pub fn index(self) -> u8 {
        self.index
    }

    /// The paper's name, e.g. `"Sync-2"`.
    pub fn name(self) -> String {
        format!("{}-{}", self.class, self.index)
    }

    /// The benchmark composition with per-app thread counts summing to the
    /// paper's total.
    pub fn composition(self) -> Vec<(BenchmarkId, usize)> {
        use BenchmarkId::*;
        use WorkloadClass::*;
        match (self.class, self.index) {
            (Sync, 1) => vec![(WaterNsquared, 2), (Fmm, 2)],
            (Sync, 2) => vec![(Dedup, 10), (Fluidanimate, 8)],
            (Sync, 3) => vec![
                (WaterNsquared, 2),
                (Fmm, 2),
                (Fluidanimate, 2),
                (Bodytrack, 3),
            ],
            (Sync, 4) => vec![(Dedup, 10), (Ferret, 6), (Fmm, 2), (WaterNsquared, 2)],
            (NSync, 1) => vec![(WaterSpatial, 2), (LuCb, 2)],
            (NSync, 2) => vec![(Blackscholes, 8), (Swaptions, 8)],
            (NSync, 3) => vec![(Radix, 2), (Fft, 2), (WaterSpatial, 2), (LuCb, 2)],
            (NSync, 4) => vec![(Blackscholes, 8), (OceanCp, 4), (LuNcb, 4), (Swaptions, 4)],
            (Comm, 1) => vec![(WaterNsquared, 2), (Blackscholes, 2)],
            (Comm, 2) => vec![(Ferret, 6), (Dedup, 10)],
            (Comm, 3) => vec![(WaterNsquared, 2), (Fft, 2), (Radix, 2), (Bodytrack, 3)],
            (Comm, 4) => vec![
                (Blackscholes, 4),
                (Dedup, 8),
                (Ferret, 6),
                (WaterNsquared, 2),
            ],
            (Comp, 1) => vec![(WaterSpatial, 2), (Fmm, 2)],
            (Comp, 2) => vec![(Fluidanimate, 8), (Swaptions, 9)],
            (Comp, 3) => vec![(LuNcb, 2), (Fmm, 2), (WaterSpatial, 2), (LuCb, 2)],
            (Comp, 4) => vec![(Fluidanimate, 8), (OceanCp, 4), (LuNcb, 4), (Swaptions, 4)],
            (Rand, 1) => vec![(LuCb, 9), (Dedup, 10)],
            (Rand, 2) => vec![(LuNcb, 4), (Bodytrack, 6)],
            (Rand, 3) => vec![(Ferret, 7), (WaterSpatial, 2)],
            (Rand, 4) => vec![(OceanCp, 4), (Fft, 4)],
            (Rand, 5) => vec![(Freqmine, 4), (WaterNsquared, 2)],
            (Rand, 6) => vec![(WaterSpatial, 2), (Fmm, 2), (Fft, 9), (Fluidanimate, 8)],
            (Rand, 7) => vec![(Fmm, 2), (WaterSpatial, 2), (Ferret, 8), (Swaptions, 8)],
            (Rand, 8) => vec![
                (WaterSpatial, 2),
                (WaterNsquared, 2),
                (Ferret, 9),
                (Freqmine, 4),
            ],
            (Rand, 9) => vec![
                (Blackscholes, 16),
                (Bodytrack, 13),
                (Dedup, 13),
                (Fluidanimate, 13),
            ],
            (Rand, 10) => vec![(LuCb, 16), (LuNcb, 16), (Bodytrack, 11), (Dedup, 10)],
            _ => unreachable!("constructor validated the index"),
        }
    }

    /// The paper's Table 4 thread total for this workload.
    pub fn paper_thread_total(self) -> usize {
        use WorkloadClass::*;
        match (self.class, self.index) {
            (Sync, 1) => 4,
            (Sync, 2) => 18,
            (Sync, 3) => 9,
            (Sync, 4) => 20,
            (NSync, 1) => 4,
            (NSync, 2) => 16,
            (NSync, 3) => 8,
            (NSync, 4) => 20,
            (Comm, 1) => 4,
            (Comm, 2) => 16,
            (Comm, 3) => 9,
            (Comm, 4) => 20,
            (Comp, 1) => 4,
            (Comp, 2) => 17,
            (Comp, 3) => 8,
            (Comp, 4) => 20,
            (Rand, 1) => 19,
            (Rand, 2) => 10,
            (Rand, 3) => 9,
            (Rand, 4) => 8,
            (Rand, 5) => 6,
            (Rand, 6) => 21,
            (Rand, 7) => 20,
            (Rand, 8) => 17,
            (Rand, 9) => 55,
            (Rand, 10) => 53,
            _ => unreachable!("constructor validated the index"),
        }
    }

    /// Builds the runnable [`WorkloadSpec`].
    pub fn spec(self) -> WorkloadSpec {
        WorkloadSpec::named(self.name(), self.composition())
    }

    /// Figure 8 grouping: fewer threads than the smallest configuration's
    /// core count (the paper's "thread-low" bucket).
    pub fn is_thread_low(self) -> bool {
        self.paper_thread_total() <= 4
    }

    /// Figure 8 grouping: at least double the largest configuration's core
    /// count (the paper's "thread-high" bucket).
    pub fn is_thread_high(self) -> bool {
        self.paper_thread_total() >= 16
    }

    /// Figure 9 grouping: number of co-scheduled programs.
    pub fn num_programs(self) -> usize {
        self.composition().len()
    }
}

impl fmt::Display for PaperWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scale;

    #[test]
    fn there_are_26_workloads() {
        assert_eq!(PaperWorkload::all().len(), 26);
    }

    #[test]
    fn compositions_sum_to_paper_totals() {
        for w in PaperWorkload::all() {
            let total: usize = w.composition().iter().map(|&(_, n)| n).sum();
            assert_eq!(
                total,
                w.paper_thread_total(),
                "{w}: composition sums to {total}"
            );
        }
    }

    #[test]
    fn compositions_respect_model_limits() {
        for w in PaperWorkload::all() {
            for (bench, n) in w.composition() {
                assert_eq!(
                    bench.clamp_threads(n),
                    n,
                    "{w}: {bench} cannot run with {n} threads"
                );
            }
        }
    }

    #[test]
    fn all_specs_instantiate_and_validate() {
        for w in PaperWorkload::all() {
            for app in w.spec().instantiate(3, Scale::quick()) {
                app.validate().unwrap_or_else(|e| panic!("{w}: {e}"));
            }
        }
    }

    #[test]
    fn class_groupings_match_paper_counts() {
        let all = PaperWorkload::all();
        let rand = all
            .iter()
            .filter(|w| w.class() == WorkloadClass::Rand)
            .count();
        assert_eq!(rand, 10);
        let two_prog = all.iter().filter(|w| w.num_programs() == 2).count();
        let four_prog = all.iter().filter(|w| w.num_programs() == 4).count();
        assert_eq!(two_prog + four_prog, 26, "every workload has 2 or 4 apps");
    }

    #[test]
    fn thread_buckets_are_disjoint() {
        for w in PaperWorkload::all() {
            assert!(
                !(w.is_thread_low() && w.is_thread_high()),
                "{w} in both buckets"
            );
        }
        // The four x-1 workloads are the low bucket.
        let lows: Vec<String> = PaperWorkload::all()
            .into_iter()
            .filter(|w| w.is_thread_low())
            .map(|w| w.name())
            .collect();
        assert_eq!(lows, vec!["Sync-1", "NSync-1", "Comm-1", "Comp-1"]);
    }

    #[test]
    #[should_panic(expected = "numbered")]
    fn out_of_range_index_panics() {
        let _ = PaperWorkload::new(WorkloadClass::Sync, 5);
    }

    #[test]
    fn names_render_like_the_paper() {
        assert_eq!(
            PaperWorkload::new(WorkloadClass::NSync, 3).name(),
            "NSync-3"
        );
        assert_eq!(
            PaperWorkload::new(WorkloadClass::Rand, 10).to_string(),
            "Rand-10"
        );
    }
}
