//! Cross-cell interning of compiled workloads.
//!
//! Every experiment cell instantiates and compiles the same workload at
//! the same `(seed, scale)` — once per core-enumeration order, and
//! again for the isolated baseline and for every other
//! machine configuration and scheduler of the grid. The compiled
//! segment stream ([`CompiledWorkload`]) is immutable and position-free
//! (per-thread progress lives in the engine's `SegPos`), so one copy
//! can back every one of those simulations. [`ProgramStore`] memoizes
//! compilation behind an `Arc`, keyed by the whole spec (name and
//! entries), the seed and the scale.
//!
//! Concurrency contract: workloads are compiled *outside* the lock
//! (compilation walks whole op trees; the critical section is two map
//! operations), and on a race the first inserted value wins so every
//! caller shares one allocation. A miss is counted only by the lookup
//! whose value was inserted; a racing loser counts as a hit, so the
//! hit/miss split is the same at any worker count. Interning is a pure
//! cache — hit or miss, callers receive a compilation of exactly
//! `spec.instantiate(seed, scale)`, which is deterministic — so it
//! cannot perturb simulation results, only skip redundant work.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use amp_types::Result;
use amp_workloads::{CompiledWorkload, Scale, WorkloadSpec};

/// A thread-safe memo table `(workload, seed, scale) → compiled
/// workload`. One store lives in the [`Harness`](crate::Harness) and is
/// shared by the serial memoized path and every `run_plan` worker.
#[derive(Debug, Default)]
pub struct ProgramStore {
    /// `(spec, seed, scale bits) → compiled workload`.
    map: Mutex<HashMap<(WorkloadSpec, u64, u64), Arc<CompiledWorkload>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Point-in-time interning statistics, for the `--bench-json` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that inserted a new workload (== distinct workloads
    /// interned, whatever the races).
    pub misses: u64,
}

impl ProgramStore {
    /// An empty store.
    pub fn new() -> ProgramStore {
        ProgramStore::default()
    }

    /// Returns the compiled form of `spec.instantiate(seed, scale)`,
    /// compiling at most once per distinct `(spec, seed, scale)`.
    ///
    /// # Errors
    ///
    /// Propagates app validation failures from compilation.
    pub fn get_or_compile(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        scale: Scale,
    ) -> Result<Arc<CompiledWorkload>> {
        let key = (spec.clone(), seed, scale.factor().to_bits());
        if let Some(found) = self.map.lock().expect("program store poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
        // Compile outside the lock; racing compilers produce identical
        // streams, and the first insert wins so all callers share one.
        let compiled = Arc::new(CompiledWorkload::compile(spec, seed, scale)?);
        let mut map = self.map.lock().expect("program store poisoned");
        match map.entry(key) {
            Entry::Occupied(found) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Arc::clone(found.get()))
            }
            Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(Arc::clone(slot.insert(compiled)))
            }
        }
    }

    /// Current hit/miss counts.
    pub fn stats(&self) -> InternStats {
        InternStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_workloads::BenchmarkId;

    #[test]
    fn second_lookup_is_a_hit_sharing_the_allocation() {
        let store = ProgramStore::new();
        let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
        let a = store.get_or_compile(&spec, 7, Scale::quick()).unwrap();
        let b = store.get_or_compile(&spec, 7, Scale::quick()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.stats(), InternStats { hits: 1, misses: 1 });
    }

    #[test]
    fn seed_scale_and_entries_key_distinct_entries() {
        let store = ProgramStore::new();
        let spec = WorkloadSpec::single(BenchmarkId::Swaptions, 4);
        // Same name, different entries.
        let fewer = WorkloadSpec::single(BenchmarkId::Swaptions, 2);
        let a = store.get_or_compile(&spec, 1, Scale::quick()).unwrap();
        let b = store.get_or_compile(&spec, 2, Scale::quick()).unwrap();
        let c = store.get_or_compile(&spec, 1, Scale::new(0.2)).unwrap();
        let d = store.get_or_compile(&fewer, 1, Scale::quick()).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.apps()[0].threads.len(), 4);
        assert_eq!(d.apps()[0].threads.len(), 2);
        assert_eq!(store.stats().misses, 4);
    }

    #[test]
    fn concurrent_lookups_converge_on_one_copy() {
        let store = ProgramStore::new();
        let spec = WorkloadSpec::single(BenchmarkId::Ferret, 5);
        let copies: Vec<Arc<CompiledWorkload>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| store.get_or_compile(&spec, 3, Scale::quick()).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(store.stats(), InternStats { hits: 7, misses: 1 });
        let map = store.map.lock().unwrap();
        assert_eq!(map.len(), 1);
        let canonical = map.values().next().unwrap();
        for copy in &copies {
            assert!(Arc::ptr_eq(copy, canonical));
        }
    }
}
