//! Property tests for the sweep plan and its deterministic reducer.
//!
//! The paper grid must always enumerate exactly 312 unique cells
//! (26 workloads × 4 configurations × 3 schedulers), every cell key
//! must hash stably (the hash is a pure function of the key, not of
//! process state), and the reducer must restore canonical plan order
//! from *any* completion order — the property that makes the parallel
//! executor's output independent of worker scheduling.

use colab::sweep::reduce;
use colab::{SweepCell, SweepPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

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
    assert_eq!(keys.len(), full.len(), "union of grids stays duplicate-free");
    let paper: HashSet<_> = SweepPlan::paper_grid()
        .cells()
        .iter()
        .map(SweepCell::key)
        .collect();
    assert!(paper.is_subset(&keys));
}

#[test]
fn cell_hashes_are_stable_and_collision_free_over_the_full_plan() {
    let plan = SweepPlan::full();
    let mut seen = HashSet::new();
    for cell in plan.cells() {
        // Stable: hashing twice (and hashing a clone) agrees.
        assert_eq!(cell.stable_hash(), cell.stable_hash());
        assert_eq!(cell.stable_hash(), cell.clone().stable_hash());
        assert!(
            seen.insert(cell.stable_hash()),
            "FNV collision within the plan at {:?}",
            cell.key()
        );
    }
    // Pin one hash value: any change to the key encoding is a breaking
    // change to fixture naming and must be deliberate.
    let first = &plan.cells()[0];
    let (workload, config, scheduler) = first.key();
    assert_eq!(first.stable_hash(), fnv(&format!("{}\0{config}\0{scheduler}", workload.name())));
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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

}

/// Stable hashes depend only on the key fields, never on insertion
/// order or adjacent plan contents: every paper-grid cell hashes the
/// same inside the (differently ordered, larger) full plan.
#[test]
fn stable_hash_is_a_pure_function_of_the_key() {
    let a = SweepPlan::paper_grid();
    let mut b = SweepPlan::full();
    b.add_paper_grid(); // no-op: already present, order untouched
    for cell in a.cells() {
        let twin = b
            .cells()
            .iter()
            .find(|c| c.key() == cell.key())
            .expect("full plan contains the paper grid");
        assert_eq!(cell.stable_hash(), twin.stable_hash());
    }
}
