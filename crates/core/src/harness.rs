//! The experiment harness: scheduler factory, baseline cache, and the
//! per-cell evaluation protocol of §5.1.

use std::collections::HashMap;
use std::sync::Arc;

use amp_metrics::MixSummary;
use amp_perf::SpeedupModel;
use amp_sched::{CfsScheduler, ColabConfig, ColabScheduler, Scheduler};
use amp_sim::telemetry::TelemetryReport;
use amp_sim::{DegradationReport, FaultPlan, SimParams, Simulation};
use amp_types::{AppId, CoreOrder, MachineConfig, Result, SimDuration, SimTime};
use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};

use crate::intern::ProgramStore;
use crate::sweep::{SweepCell, SweepPlan};
use crate::training;

/// The evaluated scheduling policies: the paper's three, plus ARM GTS
/// (Table 1's remaining general-purpose comparator) as an extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Default Linux CFS (the paper's `LINUX` bars).
    Linux,
    /// The WASH re-implementation.
    Wash,
    /// COLAB.
    Colab,
    /// ARM Global Task Scheduling (load-average affinity; extension).
    Gts,
    /// Equal-progress scheduling (Van Craeynest et al.; extension).
    EqualProgress,
}

impl SchedulerKind {
    /// The paper's three schedulers, in its bar order.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Linux,
        SchedulerKind::Wash,
        SchedulerKind::Colab,
    ];

    /// The paper's three plus the GTS extension.
    pub const EXTENDED: [SchedulerKind; 4] = [
        SchedulerKind::Linux,
        SchedulerKind::Gts,
        SchedulerKind::Wash,
        SchedulerKind::Colab,
    ];

    /// Display name, matching the figures.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Linux => "linux",
            SchedulerKind::Wash => "wash",
            SchedulerKind::Colab => "colab",
            SchedulerKind::Gts => "gts",
            SchedulerKind::EqualProgress => "equal-progress",
        }
    }

    /// Instantiates the policy for a machine, COLAB with every mechanism
    /// on.
    pub fn create(self, machine: &MachineConfig, model: &SpeedupModel) -> Box<dyn Scheduler> {
        self.create_with(machine, model, ColabConfig::default())
    }

    /// Instantiates the policy for a machine, COLAB with the ablation
    /// switches `colab` (other policies ignore them).
    pub fn create_with(
        self,
        machine: &MachineConfig,
        model: &SpeedupModel,
        colab: ColabConfig,
    ) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Linux => Box::new(CfsScheduler::new(machine)),
            SchedulerKind::Wash => Box::new(CfsScheduler::wash(machine, model.clone())),
            SchedulerKind::Colab => {
                Box::new(ColabScheduler::with_config(machine, model.clone(), colab))
            }
            SchedulerKind::Gts => Box::new(CfsScheduler::gts(machine)),
            SchedulerKind::EqualProgress => {
                Box::new(CfsScheduler::equal_progress(machine, model.clone()))
            }
        }
    }
}

/// Configuration of an experiment sweep.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Workload size scale (1.0 = the calibrated full size).
    pub scale: Scale,
    /// The harness's one seed: workload materialization, PMU noise and
    /// the Table 2 model's training runs derive from it, and every cell
    /// runs at it unless its protocol names another.
    pub seed: u64,
    /// Simulator cost parameters.
    pub sim_params: SimParams,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: Scale::default(),
            seed: 42,
            sim_params: SimParams::default(),
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for tests: shrunk workloads.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            scale: Scale::quick(),
            ..ExperimentConfig::default()
        }
    }
}

/// Key of a planned experiment cell: `(workload, config label,
/// scheduler, variant)` (see [`SweepCell::key`]). The whole spec, not
/// just its name, so two workloads that share a name but not their
/// entries (`single(b, 4)` and `single(b, 2)`) never share a cell.
pub(crate) type CellKey = (WorkloadSpec, String, &'static str, String);

/// Key of a memoized run set: its cell's key and its seed.
pub(crate) type RunKey = (CellKey, u64);

/// What one simulation run leaves in the memo; summaries and energy are
/// computed from these when read.
pub(crate) struct RunRecord {
    /// Each application's turnaround (arrival to finish).
    pub(crate) turnarounds: Vec<SimDuration>,
    /// Completion time of the whole workload.
    pub(crate) makespan: SimTime,
    /// Faults injected and their effects (all zero on a clean machine).
    pub(crate) degradation: DegradationReport,
    /// Total energy of the run in joules.
    pub(crate) joules: f64,
    /// The run's energy-delay product.
    pub(crate) edp: f64,
}

/// Everything one evaluated run set yields.
pub(crate) struct CellOutcome {
    /// One record per core order, in the order the protocol runs them.
    pub(crate) runs: Vec<RunRecord>,
    /// Decision telemetry absorbed over the runs of a paper run set;
    /// empty (and allocation-free) for every other.
    pub(crate) telemetry: TelemetryReport,
}

/// The runs of a planned cell, resolved against the harness's
/// configuration: the unit the memo keys and the executor evaluates.
pub(crate) struct RunSet<'c> {
    pub(crate) cell: &'c SweepCell,
    pub(crate) seed: u64,
    pub(crate) params: SimParams,
    pub(crate) key: RunKey,
    /// The harness's seed, and every other field the paper's: only
    /// these keep telemetry and are recorded in [`crate::simcost`].
    pub(crate) paper: bool,
}

/// The evaluation harness: owns the trained model and memoizes isolated
/// baselines and run sets so the figures and studies can share the same
/// sweep.
pub struct Harness {
    pub(crate) config: ExperimentConfig,
    pub(crate) model: SpeedupModel,
    /// `(workload, total cores) → per-app T_SB` at the harness's seed.
    pub(crate) baselines: HashMap<(WorkloadSpec, usize), Vec<SimDuration>>,
    /// Memoized `run set key → outcome`: one record per run, plus the
    /// decision telemetry absorbed over a paper run set's runs.
    /// Summaries and energy are computed from these when read.
    pub(crate) cells: HashMap<RunKey, CellOutcome>,
    /// Interned compiled workloads, shared by the serial path and every
    /// `run_plan` worker: each distinct `(workload, seed, scale)` is
    /// instantiated and compiled once, however many cells replay it.
    pub(crate) programs: ProgramStore,
    /// Worker threads of the latest [`run_plan`](Harness::run_plan)
    /// (1 before any): the extension studies' plans run on as many.
    pub(crate) jobs: usize,
}

impl Harness {
    /// Creates the harness, training the Table 2 speedup model on
    /// 4 cores at the calibrated workload size ([`Scale::default`]),
    /// whatever `config.scale` is: one seed gives one model at every
    /// scale.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn new(config: ExperimentConfig) -> Result<Harness> {
        let model = training::train_model(4, config.seed, Scale::default())?;
        Ok(Harness {
            config,
            model,
            baselines: HashMap::new(),
            cells: HashMap::new(),
            programs: ProgramStore::new(),
            jobs: 1,
        })
    }

    /// Compiled-workload interning statistics (hits/misses), for the
    /// `--bench-json` report.
    pub fn intern_stats(&self) -> crate::intern::InternStats {
        self.programs.stats()
    }

    /// The speedup model in use.
    pub fn model(&self) -> &SpeedupModel {
        &self.model
    }

    /// The active configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Worker threads the extension studies' plans run on: the `jobs`
    /// of the latest [`run_plan`](Harness::run_plan), or 1 if there was
    /// none.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Computes the isolated big-only baselines `T_SB` at the harness's
    /// seed for every app of `workload` on an all-big machine with
    /// `total_cores` cores. A pure function of its inputs, like
    /// [`compute_cell`](Harness::compute_cell).
    pub(crate) fn compute_baseline(
        &self,
        workload: &WorkloadSpec,
        total_cores: usize,
    ) -> Result<Vec<SimDuration>> {
        let machine = MachineConfig::all_big(total_cores);
        let seed = self.config.seed;
        let compiled = self
            .programs
            .get_or_compile(workload, seed, self.config.scale)?;
        compiled
            .apps()
            .iter()
            .map(|app| {
                let sim = Simulation::from_compiled_with_params(
                    &machine,
                    vec![Arc::clone(app)],
                    seed,
                    self.config.sim_params,
                )?;
                let outcome = sim.run(&mut CfsScheduler::new(&machine))?;
                Ok(outcome.turnaround(AppId::new(0)))
            })
            .collect()
    }

    /// The cell protocol: evaluates `set` — its cell's
    /// workload on its machine under its policy, once per core-enumeration
    /// order, every field of its [`Protocol`](crate::sweep::Protocol)
    /// applied — and records each run (§5.1). A fresh [`Simulation`] and
    /// scheduler are constructed for every run, and the only state shared
    /// with other run sets is the store of immutable compiled programs,
    /// so the result is a pure function of the configuration, the model
    /// and `set`: the sweep executor can evaluate run sets on any thread
    /// in any order and reproduce the serial path bit-for-bit.
    pub(crate) fn compute_cell(&self, set: &RunSet<'_>) -> Result<CellOutcome> {
        let RunSet {
            cell, seed, params, ..
        } = *set;
        let protocol = &cell.protocol;
        let compiled = self
            .programs
            .get_or_compile(&cell.workload, seed, self.config.scale)?;
        let mut telemetry = TelemetryReport::new();
        let mut runs = Vec::with_capacity(cell.orders().len());
        for &order in cell.orders() {
            let machine = cell.machine(order);
            let t0 = std::time::Instant::now();
            let mut sim = Simulation::from_compiled_with_params(
                &machine,
                compiled.apps().to_vec(),
                seed,
                params,
            )?;
            if protocol.arrival_gap > SimDuration::ZERO {
                let gap = protocol.arrival_gap.as_nanos();
                let arrivals = (0..cell.workload.num_apps() as u64)
                    .map(|i| SimTime::from_nanos(gap * i))
                    .collect();
                sim = sim.with_arrivals(arrivals)?;
            }
            if let Some(f) = protocol.faults {
                let plan = FaultPlan::random(&machine, seed, f.intensity, f.window);
                sim = sim.with_fault_plan(plan)?;
            }
            let t1 = std::time::Instant::now();
            let mut sched = cell.kind.create_with(&machine, &self.model, cell.colab);
            let outcome = sim.run(sched.as_mut())?;
            let t2 = std::time::Instant::now();
            if set.paper {
                crate::simcost::record(
                    cell.kind,
                    (t1 - t0).as_nanos() as u64,
                    (t2 - t1).as_nanos() as u64,
                    outcome.events_processed,
                    outcome.compute_leaves,
                    outcome.compute_events,
                );
                telemetry.absorb(&outcome.telemetry);
            }
            runs.push(RunRecord {
                turnarounds: outcome.apps.iter().map(|app| app.turnaround).collect(),
                makespan: outcome.makespan,
                joules: outcome.energy.total_joules(),
                edp: outcome.edp(),
                degradation: outcome.degradation,
            });
        }
        Ok(CellOutcome { runs, telemetry })
    }

    /// Evaluates one experiment cell: `workload` on a `big`×`little`
    /// machine under `kind`, run once per core-enumeration order and
    /// averaged (§5.1). Memoized across figures.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn mix(
        &mut self,
        workload: &WorkloadSpec,
        big: usize,
        little: usize,
        kind: SchedulerKind,
    ) -> Result<MixSummary> {
        let cell = SweepCell::new(workload.clone(), big, little, kind);
        if let Some(summary) = self.summary(&cell) {
            return Ok(summary);
        }
        self.run_plan(&SweepPlan::from_iter([cell.clone()]), self.jobs)?;
        Ok(self
            .summary(&cell)
            .expect("run_plan memoized the cell's run sets and baselines"))
    }

    /// The H_ANTT/H_STP summary of a cell planned with the paper's
    /// protocol, or `None` unless its runs and baselines are memoized.
    /// Each app's turnaround is summed over the runs (in core order) and
    /// divided by their count.
    pub(crate) fn summary(&self, cell: &SweepCell) -> Option<MixSummary> {
        let runs = &self.cells.get(&cell.run_set(&self.config).key)?.runs;
        let baseline = self
            .baselines
            .get(&(cell.workload.clone(), cell.big + cell.little))?;
        let mut t_m = vec![SimDuration::ZERO; cell.workload.num_apps()];
        for run in runs {
            for (sum, &t) in t_m.iter_mut().zip(&run.turnarounds) {
                *sum += t;
            }
        }
        // Every app of a `WorkloadSpec` is named after its benchmark.
        let count = runs.len() as u64;
        let apps = (cell.workload.entries().iter().zip(t_m).zip(baseline))
            .map(|((&(bench, _), m), &sb)| (bench.name().to_string(), m / count, sb))
            .collect();
        let label = MachineConfig::asymmetric(cell.big, cell.little, CoreOrder::BigFirst).label();
        Some(MixSummary::new(
            cell.workload.name(),
            label,
            cell.kind.name(),
            apps,
        ))
    }

    /// Single-program H_NTT (Figure 4): the benchmark alone on the
    /// asymmetric machine vs alone on the all-big twin.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn single(
        &mut self,
        bench: BenchmarkId,
        threads: usize,
        big: usize,
        little: usize,
        kind: SchedulerKind,
    ) -> Result<f64> {
        let spec = WorkloadSpec::single(bench, threads);
        let cell = self.mix(&spec, big, little, kind)?;
        let (_, t_m, t_sb) = &cell.apps[0];
        Ok(amp_metrics::h_ntt(*t_m, *t_sb))
    }

    /// Number of run sets evaluated so far (one per cell, the extension
    /// studies' included; cells that resolve to the same runs share
    /// one), for diagnostics.
    pub fn cells_evaluated(&self) -> usize {
        self.cells.len()
    }

    /// Decision telemetry of every evaluated paper-protocol cell, as
    /// `(workload, config, scheduler, report)` rows sorted for
    /// deterministic output.
    pub fn telemetry_cells(&self) -> Vec<(&str, &str, &str, &TelemetryReport)> {
        let mut cells: Vec<(&CellKey, &TelemetryReport)> = (self.cells.iter())
            .filter(|((labels, seed), _)| labels.3.is_empty() && *seed == self.config.seed)
            .map(|((labels, _), outcome)| (labels, &outcome.telemetry))
            .collect();
        cells.sort_unstable_by(|((wa, ca, sa, _), _), ((wb, cb, sb, _), _)| {
            (wa.name(), ca, sa, wa.entries()).cmp(&(wb.name(), cb, sb, wb.entries()))
        });
        (cells.into_iter())
            .map(|((workload, config, scheduler, _), report)| {
                (workload.name(), config.as_str(), *scheduler, report)
            })
            .collect()
    }

    /// Telemetry pooled per scheduler over every evaluated paper cell, in
    /// [`SchedulerKind`] display order — the `repro --summary` block.
    /// Cells are pooled in [`telemetry_cells`](Harness::telemetry_cells)
    /// order, so the floating-point sums do not depend on the process.
    pub fn telemetry_by_scheduler(&self) -> Vec<(&'static str, TelemetryReport)> {
        let order = [
            SchedulerKind::Linux,
            SchedulerKind::Gts,
            SchedulerKind::Wash,
            SchedulerKind::Colab,
            SchedulerKind::EqualProgress,
        ];
        let cells = self.telemetry_cells();
        let pool = |kind: SchedulerKind| {
            let mut pooled = TelemetryReport::new();
            for (_, _, _, report) in cells.iter().filter(|cell| cell.2 == kind.name()) {
                pooled.absorb(report);
            }
            (pooled.runs > 0).then(|| (kind.name(), pooled))
        };
        order.into_iter().filter_map(pool).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_sim::telemetry::LatencyHistogram;

    #[test]
    fn scheduler_kinds_construct() {
        let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
        let model = SpeedupModel::heuristic();
        for kind in SchedulerKind::ALL {
            let sched = kind.create(&machine, &model);
            assert_eq!(sched.name(), kind.name());
        }
    }

    #[test]
    fn mix_is_memoized_and_sane() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        let spec = WorkloadSpec::named(
            "test-mix",
            vec![
                (BenchmarkId::Blackscholes, 2),
                (BenchmarkId::WaterSpatial, 2),
            ],
        );
        let a = h.mix(&spec, 2, 2, SchedulerKind::Linux).unwrap();
        let evaluated = h.cells_evaluated();
        let b = h.mix(&spec, 2, 2, SchedulerKind::Linux).unwrap();
        assert_eq!(h.cells_evaluated(), evaluated, "second call must hit cache");
        assert_eq!(a.h_antt, b.h_antt);
        // Co-scheduled on a machine with little cores must be no faster
        // than alone on all-big: H_ANTT ≥ ~1.
        assert!(a.h_antt > 0.95, "H_ANTT {} implausibly low", a.h_antt);
        assert!(a.h_stp <= 2.0 + 1e-9, "H_STP bounded by app count");
    }

    #[test]
    fn telemetry_ring_does_not_perturb_results() {
        // The acceptance property: enabling event recording must leave
        // every figure bit-for-bit unchanged.
        let mut quiet = Harness::new(ExperimentConfig::quick()).unwrap();
        let mut loud_cfg = ExperimentConfig::quick();
        loud_cfg.sim_params.event_capacity = 1 << 14;
        let mut loud = Harness::new(loud_cfg).unwrap();
        let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
        let a = quiet.mix(&spec, 2, 2, SchedulerKind::Colab).unwrap();
        let b = loud.mix(&spec, 2, 2, SchedulerKind::Colab).unwrap();
        assert_eq!(a.h_antt, b.h_antt, "event recording changed H_ANTT");
        assert_eq!(a.h_stp, b.h_stp, "event recording changed H_STP");
    }

    #[test]
    fn telemetry_accumulates_per_cell_and_per_scheduler() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        let spec = WorkloadSpec::single(BenchmarkId::Swaptions, 4);
        h.mix(&spec, 2, 2, SchedulerKind::Colab).unwrap();
        let cells = h.telemetry_cells();
        assert_eq!(cells.len(), 1);
        let (workload, _, sched, report) = &cells[0];
        assert_eq!(*workload, "swaptions");
        assert_eq!(*sched, "colab");
        assert_eq!(report.runs, 2, "one run per core order");
        assert!(report.counters.picks > 0);
        let pooled = h.telemetry_by_scheduler();
        assert_eq!(pooled.len(), 1);
        assert_eq!(pooled[0].0, "colab");
        assert_eq!(pooled[0].1.counters.picks, report.counters.picks);
    }

    #[test]
    fn pooled_prediction_error_is_a_left_fold_over_the_sorted_cells() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        let mut plan = SweepPlan::new();
        let specs = [
            WorkloadSpec::single(BenchmarkId::Ferret, 4),
            WorkloadSpec::single(BenchmarkId::Swaptions, 4),
            WorkloadSpec::single(BenchmarkId::Bodytrack, 4),
        ];
        plan.add_grid(&specs, &[(2, 2), (2, 4), (4, 2)], &SchedulerKind::ALL);
        h.run_plan(&plan, 2).unwrap();
        let cells = h.telemetry_cells();
        let pooled = h.telemetry_by_scheduler();
        assert_eq!(pooled.len(), SchedulerKind::ALL.len());
        for (name, report) in pooled {
            let (abs, signed) = cells.iter().filter(|(_, _, sched, _)| *sched == name).fold(
                (0.0, 0.0),
                |(abs, signed), (_, _, _, cell)| {
                    let p = &cell.counters.prediction;
                    (abs + p.sum_abs_error, signed + p.sum_error)
                },
            );
            let p = &report.counters.prediction;
            assert_eq!(p.sum_abs_error.to_bits(), abs.to_bits(), "{name}");
            assert_eq!(p.sum_error.to_bits(), signed.to_bits(), "{name}");
        }
    }

    #[test]
    fn memoized_histograms_store_no_empty_bucket_and_pool_in_any_order() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        let mut plan = SweepPlan::new();
        let specs = [
            WorkloadSpec::single(BenchmarkId::Ferret, 4),
            WorkloadSpec::single(BenchmarkId::Bodytrack, 4),
        ];
        plan.add_grid(&specs, &[(2, 2), (4, 2)], &SchedulerKind::ALL);
        h.run_plan(&plan, 2).unwrap();
        fn histograms(r: &TelemetryReport) -> [&LatencyHistogram; 3] {
            [&r.wakeup_to_run, &r.runqueue_wait, &r.futex_block]
        }
        let mut stored = 0;
        for outcome in h.cells.values() {
            for histogram in histograms(&outcome.telemetry) {
                assert!(histogram.buckets().all(|(_, n)| n > 0), "{histogram:?}");
                stored += histogram.buckets().len();
            }
        }
        assert!(stored > 0, "paper run sets keep their histograms");

        let cells = h.telemetry_cells();
        assert_eq!(cells.len(), plan.len());
        for (name, pooled) in h.telemetry_by_scheduler() {
            let of_kind: Vec<&TelemetryReport> = (cells.iter())
                .filter(|(_, _, sched, _)| *sched == name)
                .map(|&(_, _, _, report)| report)
                .collect();
            for order in [of_kind.clone(), of_kind.iter().rev().copied().collect()] {
                let mut folded = TelemetryReport::new();
                for r in order {
                    folded.absorb(r);
                }
                for (a, b) in histograms(&pooled).into_iter().zip(histograms(&folded)) {
                    assert!(a.buckets().eq(b.buckets()), "{name}: {a:?} vs {b:?}");
                    assert_eq!(a, b, "{name}");
                }
            }
        }
    }

    #[test]
    fn one_model_at_every_scale() {
        let quick = Harness::new(ExperimentConfig::quick()).unwrap();
        let full = Harness::new(ExperimentConfig::default()).unwrap();
        assert_eq!(
            format!("{:?}", quick.model()),
            format!("{:?}", full.model())
        );
        assert_eq!(
            crate::experiments::table2(&quick),
            crate::experiments::table2(&full)
        );
    }

    #[test]
    fn single_program_h_ntt_at_least_one() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        for kind in SchedulerKind::ALL {
            let ntt = h.single(BenchmarkId::Blackscholes, 4, 2, 2, kind).unwrap();
            assert!(
                ntt > 0.95,
                "{}: H_NTT {ntt} below the physical floor",
                kind.name()
            );
        }
    }
}
