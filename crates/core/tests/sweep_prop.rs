//! Property tests for the sweep plan and its deterministic reducer.
//!
//! The paper grid must always enumerate exactly 312 unique cells
//! (26 workloads × 4 configurations × 3 schedulers), every cell key
//! must be stable (a pure function of the cell, not of process state or
//! plan order) and cover every field of an extension study's cell,
//! and the reducer must restore canonical plan order from *any*
//! completion order — the property that makes the parallel executor's
//! output independent of worker scheduling.

use amp_sched::ColabConfig;
use amp_sim::SimParams;
use amp_types::SimDuration;
use amp_workloads::{BenchmarkId, WorkloadSpec};
use colab::sweep::{reduce, Protocol, RandomFaults};
use colab::{SchedulerKind, SweepCell, SweepPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A paper cell the study cells below depart from.
fn paper_cell() -> SweepCell {
    SweepCell::new(
        WorkloadSpec::single(BenchmarkId::Ferret, 4),
        2,
        4,
        SchedulerKind::Colab,
    )
}

/// `paper_cell()` with one field set from `value`: `field` picks the
/// little-cluster clock, the seed, the simulator parameters, the arrival
/// gap, the fault plan's intensity or window, or COLAB's ablation
/// switches. Distinct values give distinct fields.
fn study_cell(field: usize, value: u64) -> SweepCell {
    let base = paper_cell();
    let v = value as f64;
    let faults = RandomFaults {
        intensity: 1.0,
        window: SimDuration::from_millis(100),
    };
    let protocol = match field {
        0 => Protocol {
            little_ghz: 0.6 + 0.1 * v,
            ..Protocol::default()
        },
        1 => Protocol {
            seed: Some(value),
            ..Protocol::default()
        },
        2 => Protocol {
            params: Some(SimParams {
                tick: SimDuration::from_millis(5 + value),
                ..SimParams::default()
            }),
            ..Protocol::default()
        },
        3 => Protocol {
            arrival_gap: SimDuration::from_millis(1 + value),
            ..Protocol::default()
        },
        4 => Protocol {
            faults: Some(RandomFaults {
                intensity: 0.5 + v,
                ..faults
            }),
            ..Protocol::default()
        },
        5 => Protocol {
            faults: Some(RandomFaults {
                window: SimDuration::from_millis(1 + value),
                ..faults
            }),
            ..Protocol::default()
        },
        _ => {
            // Values 0..6 switch off distinct non-empty sets of
            // mechanisms; 3 switches off two, so it is none of the
            // single-switch cells below.
            let off = value + 2;
            let colab = ColabConfig {
                hierarchical_allocation: off & 1 == 0,
                blocking_selection: off & 2 == 0,
                scale_slice: off & 4 == 0,
            };
            return SweepCell { colab, ..base };
        }
    };
    SweepCell { protocol, ..base }
}

/// One study cell per field, plus the core-order and mechanism switches.
fn study_cells() -> Vec<SweepCell> {
    let mut cells: Vec<SweepCell> = (0..7).map(|field| study_cell(field, 3)).collect();
    cells.push(SweepCell {
        protocol: Protocol {
            big_first_only: true,
            ..Protocol::default()
        },
        ..paper_cell()
    });
    for colab in [
        ColabConfig::default().without_allocation(),
        ColabConfig::default().without_blocking_selection(),
        ColabConfig::default().without_scale_slice(),
    ] {
        cells.push(SweepCell {
            colab,
            ..paper_cell()
        });
    }
    cells
}

#[test]
fn paper_grid_enumerates_exactly_312_unique_cells() {
    let plan = SweepPlan::paper_grid();
    assert_eq!(plan.len(), 312, "26 workloads × 4 configs × 3 schedulers");
    let keys: HashSet<_> = plan.cells().iter().map(SweepCell::key).collect();
    assert_eq!(keys.len(), 312, "every cell key is unique");
    // Re-enumerating yields the same cells in the same canonical order.
    let again = SweepPlan::paper_grid();
    for (a, b) in plan.cells().iter().zip(again.cells()) {
        assert_eq!(a.key(), b.key());
    }
}

#[test]
fn full_plan_is_a_superset_of_the_paper_grid_with_no_duplicates() {
    let full = SweepPlan::full();
    let keys: HashSet<_> = full.cells().iter().map(SweepCell::key).collect();
    assert_eq!(
        keys.len(),
        full.len(),
        "union of grids stays duplicate-free"
    );
    let paper: HashSet<_> = SweepPlan::paper_grid()
        .cells()
        .iter()
        .map(SweepCell::key)
        .collect();
    assert!(paper.is_subset(&keys));
}

#[test]
fn cell_keys_are_stable_and_distinct_over_the_full_plan() {
    let mut plan = SweepPlan::full();
    plan.push(paper_cell());
    for cell in study_cells() {
        plan.push(cell);
    }
    assert_eq!(
        plan.len(),
        SweepPlan::full().len() + 1 + study_cells().len()
    );
    let mut seen = HashSet::new();
    for cell in plan.cells() {
        // Stable: keying twice (and keying a clone) agrees.
        assert_eq!(cell.key(), cell.key());
        assert_eq!(cell.key(), cell.clone().key());
        // Only study cells name a variant.
        assert_eq!(cell.key().3.is_empty(), cell.is_paper());
        assert!(seen.insert(cell.key()), "duplicate key {:?}", cell.key());
    }
}

proptest! {
    /// The reducer's output is the identity permutation regardless of
    /// the (shuffled) completion order of the jobs.
    #[test]
    fn reduce_is_independent_of_completion_order(seed in any::<u64>(), len in 1usize..400) {
        let mut indexed: Vec<(usize, usize)> = (0..len).map(|i| (i, i * 7 + 1)).collect();
        // Fisher–Yates shuffle driven by the seeded RNG: an arbitrary
        // completion order.
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..indexed.len()).rev() {
            let j = rng.gen_range(0..=i);
            indexed.swap(i, j);
        }
        let reduced = reduce(indexed, len);
        prop_assert_eq!(reduced, (0..len).map(|i| i * 7 + 1).collect::<Vec<_>>());
    }

    /// Every field of a study cell reaches its key: two cells that
    /// differ in one field's value never share it, and neither shares
    /// the paper cell's.
    #[test]
    fn every_study_field_reaches_the_key(field in 0usize..7, a in 0u64..6, b in 0u64..6) {
        let (x, y) = (study_cell(field, a), study_cell(field, b));
        prop_assert_eq!(x.key() == y.key(), a == b);
        prop_assert!(!x.is_paper());
        prop_assert!(x.key() != paper_cell().key());
    }
}

/// Keys depend only on the cell, never on insertion order or adjacent
/// plan contents: every paper-grid cell keys the same inside the
/// (differently ordered, larger) full plan.
#[test]
fn cell_key_is_a_pure_function_of_the_cell() {
    let a = SweepPlan::paper_grid();
    let mut b = SweepPlan::full();
    b.add_paper_grid(); // no-op: already present, order untouched
    for cell in a.cells() {
        let twin = b
            .cells()
            .iter()
            .find(|&c| c == cell)
            .expect("full plan contains the paper grid");
        assert_eq!(cell.key(), twin.key());
    }
}
