//! Parallel deterministic sweep execution: plan → execute → reduce.
//!
//! The paper's evaluation is a grid of independent experiment cells
//! (26 workloads × 4 machine configurations × schedulers, each cell
//! averaging two core-enumeration orders — §5.1), and every extension
//! study is a grid of cells too, each departing from that protocol in
//! the fields of its [`Protocol`]. [`SweepPlan`] enumerates every cell
//! up front in a canonical order; the executor ([`Harness::run_plan`])
//! runs each cell's run set (its runs, shared by cells that run the same
//! simulations) on a bounded pool of `std::thread` workers that pull
//! jobs from a shared queue, one fresh
//! [`Simulation`](amp_sim::Simulation) per run so no mutable state ever
//! crosses a run-set boundary; and the
//! reducer ([`reduce`]) merges results back in plan order, so the
//! harness memo — and therefore every figure, table, study and CSV
//! derived from it — is byte-identical regardless of worker count or
//! completion order.
//!
//! The determinism contract, concretely:
//!
//! 1. every run set is a pure function of `(ExperimentConfig,
//!    SpeedupModel, run set)` — the harness's one cell protocol
//!    constructs a fresh simulation and scheduler per run; the only state
//!    shared across run sets is the [`ProgramStore`](crate::ProgramStore) of
//!    *immutable* compiled workloads, a pure memo of a deterministic
//!    compilation (per-thread progress lives in the simulation, never in
//!    the shared program);
//! 2. `jobs == 1` executes the plan serially on the calling thread, in
//!    plan order — exactly the pre-existing serial path;
//! 3. `jobs >= 2` may complete run sets in any order, but [`reduce`]
//!    restores plan order before any result is observed.
//!
//! Golden-results tests (`tests/golden_sweep.rs` at the workspace root)
//! pin the contract: fixtures snapshotted from the serial path must be
//! reproduced bit-identically at `--jobs 1`, `2`, and `8`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use amp_sched::ColabConfig;
use amp_sim::SimParams;
use amp_types::{CoreKind, CoreOrder, CoreSpec, MachineConfig, Result, SimDuration};
use amp_workloads::{BenchmarkId, PaperWorkload, WorkloadSpec};

use crate::experiments::CONFIGS;
use crate::harness::{CellKey, CellOutcome, ExperimentConfig, Harness, RunSet, SchedulerKind};

// ---------------------------------------------------------------------
// Plan

/// How a cell's runs are set up. The default is the paper's protocol
/// (§5.1): the calibrated little-cluster clock, the harness's seed, both
/// core-enumeration orders, the harness's simulator parameters, every
/// application launched at once, and a fault-free machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Protocol {
    /// Little-cluster clock in GHz (the big cluster keeps its own).
    pub little_ghz: f64,
    /// The seed of the runs; `None` uses the harness's.
    pub seed: Option<u64>,
    /// Run the big-cores-first order only instead of both orders.
    pub big_first_only: bool,
    /// Simulator parameters; `None` uses the harness's.
    pub params: Option<SimParams>,
    /// Application `i` arrives at `i × arrival_gap` (zero: all at once).
    pub arrival_gap: SimDuration,
    /// A random fault plan drawn for each run's machine at the run's
    /// seed, or `None` for a fault-free machine.
    pub faults: Option<RandomFaults>,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol {
            little_ghz: CoreSpec::little().freq_ghz,
            seed: None,
            big_first_only: false,
            params: None,
            arrival_gap: SimDuration::ZERO,
            faults: None,
        }
    }
}

/// The arguments of [`FaultPlan::random`](amp_sim::FaultPlan::random)
/// besides the machine and the seed, which are each run's own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomFaults {
    /// Expected faults per core.
    pub intensity: f64,
    /// Span of simulated time the faults fall in.
    pub window: SimDuration,
}

/// One independent experiment cell: a workload on a `big`×`little`
/// machine under one scheduling policy, run as its [`Protocol`] says.
/// It resolves into one run set (each core-enumeration order at its
/// seed), which the harness memoizes and reads it from.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The multiprogrammed workload (single-program for Figure 4 cells).
    pub workload: WorkloadSpec,
    /// Big cores.
    pub big: usize,
    /// Little cores.
    pub little: usize,
    /// The policy under test.
    pub kind: SchedulerKind,
    /// COLAB's ablation switches when `kind` is COLAB (the ablation
    /// variants switch mechanisms off); other policies ignore them.
    pub colab: ColabConfig,
    /// How the runs are set up.
    pub protocol: Protocol,
}

impl SweepCell {
    /// A cell of the paper's protocol with every COLAB mechanism on.
    pub fn new(
        workload: WorkloadSpec,
        big: usize,
        little: usize,
        kind: SchedulerKind,
    ) -> SweepCell {
        SweepCell {
            workload,
            big,
            little,
            kind,
            colab: ColabConfig::default(),
            protocol: Protocol::default(),
        }
    }

    /// Whether this cell is a paper-protocol cell with every COLAB
    /// mechanism on: its run set's telemetry and costs are reported.
    pub fn is_paper(&self) -> bool {
        self.protocol == Protocol::default() && self.colab == ColabConfig::default()
    }

    /// Whether the cell's H_ANTT is read, and so its isolated all-big
    /// baselines run: only under the paper's protocol (whatever the
    /// COLAB's switches).
    pub(crate) fn needs_baseline(&self) -> bool {
        self.protocol == Protocol::default()
    }

    /// The plan-level key of this cell: `(workload, config label,
    /// scheduler, variant)`. The variant is empty for a paper cell and
    /// otherwise the `Debug` text of the switches and the protocol,
    /// which spells out every field (floats exactly, as they round-trip).
    pub fn key(&self) -> CellKey {
        let config = MachineConfig::asymmetric(self.big, self.little, CoreOrder::BigFirst).label();
        let variant = if self.is_paper() {
            String::new()
        } else {
            format!("{:?} {:?}", self.colab, self.protocol)
        };
        (self.workload.clone(), config, self.kind.name(), variant)
    }

    /// The run set this cell stands for under `config`:
    /// `Protocol::seed: None` becomes the harness's seed, and
    /// `Protocol::params: None` the configured parameters. It is keyed
    /// by its seed and the key of this cell with no seed and the
    /// parameters named only when not the configured ones, so cells that
    /// run the same simulations share their run set.
    pub(crate) fn run_set(&self, config: &ExperimentConfig) -> RunSet<'_> {
        let seed = self.protocol.seed.unwrap_or(config.seed);
        let params = self.protocol.params.unwrap_or(config.sim_params);
        let shape = SweepCell {
            protocol: Protocol {
                seed: None,
                params: Some(params).filter(|&p| p != config.sim_params),
                ..self.protocol
            },
            ..self.clone()
        };
        RunSet {
            cell: self,
            seed,
            params,
            key: (shape.key(), seed),
            paper: shape.is_paper() && seed == config.seed,
        }
    }

    /// The core-enumeration orders each run set runs in.
    pub(crate) fn orders(&self) -> &'static [CoreOrder] {
        if self.protocol.big_first_only {
            &[CoreOrder::BigFirst]
        } else {
            &CoreOrder::BOTH
        }
    }

    /// The machine of the run in `order`.
    pub(crate) fn machine(&self, order: CoreOrder) -> MachineConfig {
        let little = CoreSpec {
            freq_ghz: self.protocol.little_ghz,
            ..CoreSpec::little()
        };
        let cores = MachineConfig::asymmetric(self.big, self.little, order)
            .iter()
            .map(|(_, core)| {
                if core.kind == CoreKind::Little {
                    little
                } else {
                    core
                }
            })
            .collect();
        MachineConfig::from_cores(cores)
    }
}

/// An up-front enumeration of every cell a sweep will run, in canonical
/// order. Duplicate cells (same [`SweepCell::key`]) are dropped on
/// insertion, so unioning overlapping figure grids is safe.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    cells: Vec<SweepCell>,
    seen: std::collections::HashSet<CellKey>,
}

impl SweepPlan {
    /// An empty plan.
    pub fn new() -> SweepPlan {
        SweepPlan::default()
    }

    /// The planned cells, in canonical order.
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// Number of planned cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Appends a cell unless an identical key is already planned.
    pub fn push(&mut self, cell: SweepCell) {
        if self.seen.insert(cell.key()) {
            self.cells.push(cell);
        }
    }

    /// Adds the full cross product `specs × configs × kinds`, in that
    /// nesting order (schedulers innermost, matching the figures'
    /// evaluation order).
    pub fn add_grid(
        &mut self,
        specs: &[WorkloadSpec],
        configs: &[(usize, usize)],
        kinds: &[SchedulerKind],
    ) {
        for spec in specs {
            for &(big, little) in configs {
                for &kind in kinds {
                    self.push(SweepCell::new(spec.clone(), big, little, kind));
                }
            }
        }
    }

    /// Adds the paper's 312-cell grid: the 26 Table 4 workloads × the 4
    /// hardware configurations × the 3 evaluated schedulers.
    pub fn add_paper_grid(&mut self) {
        let specs: Vec<WorkloadSpec> = PaperWorkload::all().iter().map(|w| w.spec()).collect();
        self.add_grid(&specs, &CONFIGS, &SchedulerKind::ALL);
    }

    /// Adds Figure 4's cells: each of the 12 scalable benchmarks alone
    /// on the 2B2S machine (one thread per core, clamped) under the 3
    /// schedulers.
    pub fn add_figure4(&mut self) {
        let specs: Vec<WorkloadSpec> = BenchmarkId::FIGURE4
            .into_iter()
            .map(|b| WorkloadSpec::single(b, b.clamp_threads(4)))
            .collect();
        self.add_grid(&specs, &[(2, 2)], &SchedulerKind::ALL);
    }

    /// Adds the quantified-Table-1 extension cells: the GTS and
    /// equal-progress comparators (plus the Linux normalizer, deduped if
    /// already planned) over the full workload × configuration grid.
    pub fn add_table1(&mut self) {
        let specs: Vec<WorkloadSpec> = PaperWorkload::all().iter().map(|w| w.spec()).collect();
        self.add_grid(
            &specs,
            &CONFIGS,
            &[
                SchedulerKind::Linux,
                SchedulerKind::Gts,
                SchedulerKind::EqualProgress,
            ],
        );
    }

    /// The paper's evaluation grid alone (312 cells).
    pub fn paper_grid() -> SweepPlan {
        let mut plan = SweepPlan::new();
        plan.add_paper_grid();
        plan
    }

    /// Everything the memoizing figures of `repro --all` consume:
    /// Figure 4 singles, the 312-cell paper grid, and the Table 1
    /// comparator cells.
    pub fn full() -> SweepPlan {
        let mut plan = SweepPlan::new();
        plan.add_figure4();
        plan.add_paper_grid();
        plan.add_table1();
        plan
    }

    /// The unique `(workload, total cores)` baseline runs the planned
    /// cells require, in first-use order: one per cell of the paper's
    /// protocol, the only cells whose H_ANTT is read. Baselines are keyed
    /// by total core count (the all-big twin), so e.g. 2B4S and 4B2S
    /// share one.
    pub fn baseline_jobs(&self) -> Vec<(WorkloadSpec, usize)> {
        let mut jobs: Vec<(WorkloadSpec, usize)> = Vec::new();
        for cell in self.cells.iter().filter(|cell| cell.needs_baseline()) {
            let total = cell.big + cell.little;
            if !jobs.iter().any(|(w, t)| *t == total && *w == cell.workload) {
                jobs.push((cell.workload.clone(), total));
            }
        }
        jobs
    }
}

impl FromIterator<SweepCell> for SweepPlan {
    fn from_iter<T: IntoIterator<Item = SweepCell>>(cells: T) -> SweepPlan {
        let mut plan = SweepPlan::new();
        for cell in cells {
            plan.push(cell);
        }
        plan
    }
}

// ---------------------------------------------------------------------
// Execute

/// Runs `f` over `items` on `jobs` workers — the calling thread and
/// `jobs - 1` scoped threads — returning outputs in input order. Workers
/// pull the next unclaimed index from a shared atomic cursor (a
/// degenerate work-stealing queue: every worker steals from the one
/// global tail), so scheduling is load-balanced but the output order is
/// fixed by construction. `jobs <= 1` (or a single item) runs everything
/// inline on the calling thread, in order — the exact serial path, with
/// no pool at all.
pub(crate) fn parallel_map<I, O, F>(jobs: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let completed: Mutex<Vec<(usize, O)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        let work = || loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else { break };
            let out = f(item);
            completed
                .lock()
                .expect("a sweep worker panicked while holding the results lock")
                .push((index, out));
        };
        // The calling thread is one of the workers.
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        work();
        // Join each worker rather than leave it to the scope, which
        // returns once the closures finish, possibly before the threads
        // have exited and handed their allocator arenas back: the next
        // map's workers would then each get a fresh arena, and the
        // process's resident memory would grow with every map.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let results = completed
        .into_inner()
        .expect("a sweep worker panicked while holding the results lock");
    reduce(results, items.len())
}

// ---------------------------------------------------------------------
// Reduce

/// Restores canonical order: takes `(input index, output)` pairs in
/// arbitrary completion order and returns the outputs sorted by index.
/// This is the only step between parallel completion and the harness
/// caches, so its order-independence *is* the sweep's determinism.
///
/// # Panics
///
/// Panics if the results are not a permutation of `0..expected` — a
/// lost or duplicated job is an executor bug that must not be silently
/// reduced over.
pub fn reduce<O>(mut results: Vec<(usize, O)>, expected: usize) -> Vec<O> {
    assert_eq!(
        results.len(),
        expected,
        "reducer expected {expected} results, got {}",
        results.len()
    );
    results.sort_by_key(|&(index, _)| index);
    for (position, &(index, _)) in results.iter().enumerate() {
        assert_eq!(index, position, "duplicate or missing job index {index}");
    }
    results.into_iter().map(|(_, out)| out).collect()
}

/// What a sweep execution did, for the `cells/sec` diagnostics line.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Cells in the plan.
    pub planned: usize,
    /// Run sets (one per cell) actually simulated.
    pub executed: usize,
    /// Run sets served from the harness memo cache.
    pub cached: usize,
    /// Baseline (`T_SB`) jobs simulated.
    pub baselines: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time of the execute+reduce phases.
    pub wall: Duration,
}

impl SweepReport {
    /// Executed cells per wall-clock second (0 when nothing ran).
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.executed as f64 / secs
        }
    }
}

impl std::fmt::Display for SweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep: {} cells ({} executed, {} cached, {} baselines) in {:.2?} \
             ({:.1} cells/sec, jobs={})",
            self.planned,
            self.executed,
            self.cached,
            self.baselines,
            self.wall,
            self.cells_per_sec(),
            self.jobs
        )
    }
}

impl Harness {
    /// Executes a [`SweepPlan`] across `jobs` worker threads and merges
    /// the results into the harness memo, so subsequent figure, table
    /// and study reads are pure cache hits.
    ///
    /// Two phases, each a `parallel_map`: first the unique isolated
    /// baselines the plan needs, then every not-yet-memoized run set the
    /// planned cells resolve to, each once.
    /// Results are reduced in plan order; `jobs == 1` runs the identical
    /// code serially on the calling thread. Output is bit-identical for
    /// any `jobs`. The harness keeps `jobs` for the plans the extension
    /// studies run later.
    ///
    /// # Errors
    ///
    /// Propagates the first simulation failure in plan order.
    pub fn run_plan(&mut self, plan: &SweepPlan, jobs: usize) -> Result<SweepReport> {
        let start = Instant::now();
        let jobs = jobs.max(1);
        self.jobs = jobs;

        // Phase 1: baselines not yet memoized.
        let baseline_jobs: Vec<(WorkloadSpec, usize)> = plan
            .baseline_jobs()
            .into_iter()
            .filter(|job| !self.baselines.contains_key(job))
            .collect();
        let baseline_results: Vec<Result<Vec<SimDuration>>> =
            parallel_map(jobs, &baseline_jobs, |(workload, total)| {
                self.compute_baseline(workload, *total)
            });
        for (job, result) in baseline_jobs.iter().zip(baseline_results) {
            self.baselines.insert(job.clone(), result?);
        }

        // Phase 2: run sets not yet memoized, each once.
        let sets: Vec<RunSet<'_>> = plan
            .cells()
            .iter()
            .map(|cell| cell.run_set(&self.config))
            .collect();
        let mut seen = std::collections::HashSet::new();
        let (cached, todo): (Vec<&RunSet<'_>>, Vec<&RunSet<'_>>) = sets
            .iter()
            .filter(|set| seen.insert(&set.key))
            .partition(|set| self.cells.contains_key(&set.key));
        let results: Vec<Result<CellOutcome>> =
            parallel_map(jobs, &todo, |set| self.compute_cell(set));
        let executed = todo.len();
        for (set, result) in todo.into_iter().zip(results) {
            self.cells.insert(set.key.clone(), result?);
        }

        Ok(SweepReport {
            planned: plan.len(),
            executed,
            cached: cached.len(),
            baselines: baseline_jobs.len(),
            jobs,
            wall: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ExperimentConfig;

    #[test]
    fn paper_grid_has_312_cells() {
        let plan = SweepPlan::paper_grid();
        assert_eq!(plan.len(), 26 * 4 * 3);
    }

    #[test]
    fn push_dedupes_by_key() {
        let mut plan = SweepPlan::new();
        let cell = SweepCell::new(
            WorkloadSpec::single(BenchmarkId::Blackscholes, 4),
            2,
            2,
            SchedulerKind::Colab,
        );
        plan.push(cell.clone());
        plan.push(cell);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn baseline_jobs_share_total_core_counts() {
        // 2B4S and 4B2S both need the 6-core all-big twin: one job.
        let mut plan = SweepPlan::new();
        let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
        plan.add_grid(&[spec], &[(2, 4), (4, 2)], &[SchedulerKind::Linux]);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.baseline_jobs().len(), 1);
    }

    #[test]
    fn run_plan_matches_serial_mix() {
        let spec = WorkloadSpec::single(BenchmarkId::Swaptions, 4);
        let mut plan = SweepPlan::new();
        plan.add_grid(
            std::slice::from_ref(&spec),
            &[(2, 2), (2, 4)],
            &SchedulerKind::ALL,
        );

        let mut serial = Harness::new(ExperimentConfig::quick()).unwrap();
        let mut parallel = Harness::new(ExperimentConfig::quick()).unwrap();
        let report = parallel.run_plan(&plan, 4).unwrap();
        assert_eq!(report.executed, 6);
        assert_eq!(report.cached, 0);

        for cell in plan.cells() {
            let a = serial
                .mix(&cell.workload, cell.big, cell.little, cell.kind)
                .unwrap();
            let b = parallel
                .mix(&cell.workload, cell.big, cell.little, cell.kind)
                .unwrap();
            assert_eq!(a.h_antt.to_bits(), b.h_antt.to_bits(), "{:?}", cell.key());
            assert_eq!(a.h_stp.to_bits(), b.h_stp.to_bits(), "{:?}", cell.key());
            assert_eq!(a.apps, b.apps, "{:?}", cell.key());
        }
        // The parallel harness must have served everything from cache.
        assert_eq!(parallel.cells_evaluated(), plan.len());
        // Telemetry merged identically.
        assert_eq!(
            serial.telemetry_cells().len(),
            parallel.telemetry_cells().len()
        );
        for (a, b) in serial
            .telemetry_cells()
            .iter()
            .zip(parallel.telemetry_cells())
        {
            assert_eq!(a.3.runs, b.3.runs);
            assert_eq!(a.3.counters, b.3.counters);
        }
    }

    #[test]
    fn harness_keeps_the_latest_worker_count() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        assert_eq!(h.jobs(), 1, "no run_plan yet");
        h.run_plan(&SweepPlan::new(), 3).unwrap();
        assert_eq!(h.jobs(), 3);
        h.run_plan(&SweepPlan::new(), 0).unwrap();
        assert_eq!(h.jobs(), 1, "jobs are clamped to at least one");
    }

    #[test]
    fn rerunning_a_plan_is_all_cache_hits() {
        let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
        let mut plan = SweepPlan::new();
        plan.add_grid(&[spec], &[(2, 2)], &[SchedulerKind::Linux]);
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        let first = h.run_plan(&plan, 2).unwrap();
        assert_eq!(first.executed, 1);
        let second = h.run_plan(&plan, 2).unwrap();
        assert_eq!(second.executed, 0);
        assert_eq!(second.cached, 1);
    }

    #[test]
    fn reduce_restores_plan_order() {
        let shuffled = vec![(2, "c"), (0, "a"), (1, "b")];
        assert_eq!(reduce(shuffled, 3), vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "duplicate or missing job index")]
    fn reduce_rejects_duplicates() {
        let _ = reduce(vec![(0, "a"), (0, "b")], 2);
    }
}
