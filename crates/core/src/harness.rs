//! The experiment harness: scheduler factory, baseline cache, and the
//! per-cell evaluation protocol of §5.1.

use std::collections::HashMap;
use std::sync::Arc;

use amp_metrics::MixSummary;
use amp_perf::SpeedupModel;
use amp_sched::{
    CfsScheduler, ColabConfig, ColabScheduler, EqualProgressScheduler, GtsScheduler, Scheduler,
    WashScheduler,
};
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

    /// Instantiates the policy for a machine, COLAB with its default
    /// tunables.
    pub fn create(self, machine: &MachineConfig, model: &SpeedupModel) -> Box<dyn Scheduler> {
        self.create_with(machine, model, ColabConfig::default())
    }

    /// Instantiates the policy for a machine, COLAB with the tunables
    /// `colab` (other policies ignore them).
    pub fn create_with(
        self,
        machine: &MachineConfig,
        model: &SpeedupModel,
        colab: ColabConfig,
    ) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Linux => Box::new(CfsScheduler::new(machine)),
            SchedulerKind::Wash => Box::new(WashScheduler::new(machine, model.clone())),
            SchedulerKind::Colab => {
                Box::new(ColabScheduler::with_config(machine, model.clone(), colab))
            }
            SchedulerKind::Gts => Box::new(GtsScheduler::new(machine)),
            SchedulerKind::EqualProgress => {
                Box::new(EqualProgressScheduler::new(machine, model.clone()))
            }
        }
    }
}

/// Configuration of an experiment sweep.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Workload size scale (1.0 = the calibrated full size).
    pub scale: Scale,
    /// Master seed; workload materialization and PMU noise derive from it.
    pub seed: u64,
    /// Train the Table 2 model offline (`true`, the paper's pipeline) or
    /// use the analytic heuristic model (`false`, much faster start-up —
    /// for tests).
    pub train_model: bool,
    /// Independent replications per cell: each replication uses a derived
    /// seed (different workload jitter and PMU noise) and itself averages
    /// the two core orders. 1 reproduces the paper's protocol exactly.
    pub replications: u32,
    /// Simulator cost parameters.
    pub sim_params: SimParams,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: Scale::default(),
            seed: 42,
            train_model: true,
            replications: 1,
            sim_params: SimParams::default(),
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for tests: shrunk workloads, heuristic model.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            scale: Scale::quick(),
            seed: 42,
            train_model: false,
            replications: 1,
            sim_params: SimParams::default(),
        }
    }
}

/// Key of a memoized experiment cell: `(workload, config label,
/// scheduler, variant)`, the variant being empty for a paper-protocol
/// cell (see [`SweepCell::key`]). The whole spec, not just its name, so
/// two workloads that share a name but not their entries
/// (`single(b, 4)` and `single(b, 2)`) never share a cell.
pub(crate) type CellKey = (WorkloadSpec, String, &'static str, String);

/// The memo key of the paper-protocol cell of `workload` on a
/// `big`×`little` machine under `kind`.
pub(crate) fn cell_key(
    workload: &WorkloadSpec,
    big: usize,
    little: usize,
    kind: SchedulerKind,
) -> CellKey {
    (
        workload.clone(),
        MachineConfig::asymmetric(big, little, CoreOrder::BigFirst).label(),
        kind.name(),
        String::new(),
    )
}

/// Energy of one cell: total joules and energy-delay product, averaged
/// over its runs like the turnarounds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellEnergy {
    pub(crate) joules: f64,
    pub(crate) edp: f64,
}

/// What the extension studies without a baseline read of one
/// simulation run.
pub(crate) struct RunRecord {
    /// Each application's turnaround (arrival to finish).
    pub(crate) turnarounds: Vec<SimDuration>,
    /// Completion time of the whole workload.
    pub(crate) makespan: SimTime,
    /// Faults injected and their effects (all zero on a clean machine).
    pub(crate) degradation: DegradationReport,
}

/// How a cell's turnarounds are kept, chosen by
/// [`SweepCell::needs_baseline`].
pub(crate) enum CellRuns {
    /// The H_ANTT/H_STP summary of a cell with an isolated baseline.
    Summary(MixSummary),
    /// One record per run, seed-major then core order, of a cell
    /// without one.
    Records(Vec<RunRecord>),
}

/// Everything one evaluated cell yields.
pub(crate) struct CellOutcome {
    pub(crate) runs: CellRuns,
    /// Decision telemetry absorbed over the runs of a paper cell; empty
    /// (and allocation-free) for every other cell.
    pub(crate) telemetry: TelemetryReport,
    pub(crate) energy: CellEnergy,
}

impl CellOutcome {
    /// The summary of a cell with an isolated baseline; panics for any
    /// other.
    pub(crate) fn summary(&self) -> &MixSummary {
        match &self.runs {
            CellRuns::Summary(summary) => summary,
            CellRuns::Records(_) => panic!("a cell without a baseline has no summary"),
        }
    }

    /// The run records of a cell without an isolated baseline; panics
    /// for any other.
    pub(crate) fn records(&self) -> &[RunRecord] {
        match &self.runs {
            CellRuns::Records(records) => records,
            CellRuns::Summary(_) => panic!("a cell with a baseline keeps no run records"),
        }
    }
}

/// Seed for replication `rep` of a sweep with master seed `master`
/// (replication 0 is the master seed, so `replications == 1` reproduces
/// the paper's protocol bit-for-bit).
pub(crate) fn rep_seed(master: u64, rep: u32) -> u64 {
    master.wrapping_add(u64::from(rep).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Shared read-only inputs for baseline and cell evaluation: the
/// experiment configuration plus the plan-level compiled-program store.
/// Bundled so the sweep executor hands workers a single borrow instead
/// of threading each field through every call.
#[derive(Clone, Copy)]
pub(crate) struct EvalCtx<'a> {
    pub(crate) config: &'a ExperimentConfig,
    pub(crate) store: &'a ProgramStore,
}

/// Computes the isolated big-only baselines `T_SB` for every app of
/// `workload` on an all-big machine with `total_cores` cores.
///
/// Each baseline depends only on its inputs, so running it on any
/// `Harness::run_plan` worker yields bit-identical results.
pub(crate) fn compute_baseline(
    ctx: &EvalCtx<'_>,
    workload: &WorkloadSpec,
    total_cores: usize,
) -> Result<Vec<SimDuration>> {
    let EvalCtx { config, store } = *ctx;
    let machine = MachineConfig::all_big(total_cores);
    let reps = config.replications.max(1);
    let mut t_sb = vec![SimDuration::ZERO; workload.num_apps()];
    for rep in 0..reps {
        let seed = rep_seed(config.seed, rep);
        let compiled = store.get_or_compile(workload, seed, config.scale)?;
        for (slot, app) in t_sb.iter_mut().zip(compiled.apps()) {
            let sim = Simulation::from_compiled_with_params(
                &machine,
                vec![Arc::clone(app)],
                seed,
                config.sim_params,
            )?;
            let outcome = sim.run(&mut CfsScheduler::new(&machine))?;
            *slot += outcome.turnaround(AppId::new(0));
        }
    }
    for slot in &mut t_sb {
        *slot = *slot / u64::from(reps);
    }
    Ok(t_sb)
}

/// The cell protocol: evaluates `cell` — its workload on its machine
/// under its policy, once per core-enumeration order per seed, every
/// field of its [`Protocol`](crate::sweep::Protocol) applied — and
/// averages the runs (§5.1). `t_sb` is the cell's isolated baseline,
/// given exactly when [`SweepCell::needs_baseline`]. A fresh
/// [`Simulation`] and scheduler are constructed for every run, so no
/// mutable state is shared with any other cell and the result is a pure
/// function of the arguments: the sweep executor can evaluate cells on
/// any thread in any order and reproduce the serial path bit-for-bit.
///
/// Only paper cells ([`SweepCell::is_paper`]) keep their telemetry and
/// are recorded in [`crate::simcost`].
pub(crate) fn compute_cell(
    ctx: &EvalCtx<'_>,
    model: &SpeedupModel,
    t_sb: Option<&[SimDuration]>,
    cell: &SweepCell,
) -> Result<CellOutcome> {
    let EvalCtx { config, store } = *ctx;
    let protocol = &cell.protocol;
    let params = protocol.params.unwrap_or(config.sim_params);
    let paper = cell.is_paper();
    let mut names: Vec<String> = Vec::new();
    let mut telemetry = TelemetryReport::new();
    let mut energy = CellEnergy {
        joules: 0.0,
        edp: 0.0,
    };
    let mut runs = Vec::new();
    for seed in cell.seeds(config.seed, config.replications) {
        let compiled = store.get_or_compile(&cell.workload, seed, config.scale)?;
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
            let mut sched = cell.kind.create_with(&machine, model, cell.colab);
            let outcome = sim.run(sched.as_mut())?;
            let t2 = std::time::Instant::now();
            if paper {
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
            names = outcome.apps.iter().map(|a| a.name.clone()).collect();
            energy.joules += outcome.energy.total_joules();
            energy.edp += outcome.edp();
            runs.push(RunRecord {
                turnarounds: outcome.apps.iter().map(|app| app.turnaround).collect(),
                makespan: outcome.makespan,
                degradation: outcome.degradation,
            });
        }
    }
    let divisor = runs.len() as u64;
    energy.joules /= divisor as f64;
    energy.edp /= divisor as f64;
    // A cell with a summary is read through it: keep no run records.
    let runs = match t_sb {
        None => CellRuns::Records(runs),
        Some(t_sb) => {
            let apps: Vec<(String, SimDuration, SimDuration)> = names
                .into_iter()
                .zip(t_sb)
                .enumerate()
                .map(|(app, (name, &sb))| {
                    let sum = runs
                        .iter()
                        .fold(SimDuration::ZERO, |sum, run| sum + run.turnarounds[app]);
                    (name, sum / divisor, sb)
                })
                .collect();
            let label =
                MachineConfig::asymmetric(cell.big, cell.little, CoreOrder::BigFirst).label();
            let summary = MixSummary::new(cell.workload.name(), label, cell.kind.name(), apps);
            CellRuns::Summary(summary)
        }
    };
    Ok(CellOutcome {
        runs,
        telemetry,
        energy,
    })
}

/// The evaluation harness: owns the trained model and memoizes isolated
/// baselines and experiment cells so the figures and studies can share
/// the same sweep.
pub struct Harness {
    pub(crate) config: ExperimentConfig,
    pub(crate) model: SpeedupModel,
    /// `(workload, total cores) → per-app T_SB`.
    pub(crate) baselines: HashMap<(WorkloadSpec, usize), Vec<SimDuration>>,
    /// Memoized `cell key → outcome`: the summary (or, for a cell
    /// without a baseline, each run's record), the decision telemetry
    /// absorbed over a paper cell's runs (so its `runs` is
    /// `2 × replications`), and the energy averaged like the
    /// turnarounds.
    pub(crate) cells: HashMap<CellKey, CellOutcome>,
    /// Interned compiled workloads, shared by the serial path and every
    /// `run_plan` worker: each distinct `(workload, seed, scale)` is
    /// instantiated and compiled once, however many cells replay it.
    pub(crate) programs: ProgramStore,
    /// Worker threads of the latest [`run_plan`](Harness::run_plan)
    /// (1 before any): the extension studies' plans run on as many.
    pub(crate) jobs: usize,
}

impl Harness {
    /// Creates the harness, training the speedup model if configured.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn new(config: ExperimentConfig) -> Result<Harness> {
        let model = if config.train_model {
            training::train_model(4, config.seed, config.scale)?
        } else {
            SpeedupModel::heuristic()
        };
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
        let key = cell_key(workload, big, little, kind);
        if let Some(cell) = self.cells.get(&key) {
            return Ok(cell.summary().clone());
        }
        let plan = SweepPlan::from_iter([SweepCell::new(workload.clone(), big, little, kind)]);
        self.run_plan(&plan, self.jobs)?;
        // A memo hit now.
        self.mix(workload, big, little, kind)
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

    /// Number of cells evaluated so far, the extension studies' cells
    /// included (diagnostics).
    pub fn cells_evaluated(&self) -> usize {
        self.cells.len()
    }

    /// Decision telemetry of every evaluated paper-protocol cell, as
    /// `(workload, config, scheduler, report)` rows sorted for
    /// deterministic output.
    pub fn telemetry_cells(&self) -> Vec<(&str, &str, &str, &TelemetryReport)> {
        let mut cells: Vec<_> = self.paper_cells().collect();
        cells.sort_unstable_by(|((wa, ca, sa, _), _), ((wb, cb, sb, _), _)| {
            (wa.name(), ca, sa, wa.entries()).cmp(&(wb.name(), cb, sb, wb.entries()))
        });
        cells
            .into_iter()
            .map(|((w, c, s, _), cell)| (w.name(), c.as_str(), *s, &cell.telemetry))
            .collect()
    }

    /// The memoized paper-protocol cells, the only ones whose telemetry
    /// is reported.
    fn paper_cells(&self) -> impl Iterator<Item = (&CellKey, &CellOutcome)> {
        self.cells
            .iter()
            .filter(|((_, _, _, variant), _)| variant.is_empty())
    }

    /// Telemetry pooled per scheduler over every evaluated paper cell, in
    /// [`SchedulerKind`] display order — the `repro --summary` block.
    pub fn telemetry_by_scheduler(&self) -> Vec<(&'static str, TelemetryReport)> {
        let order = [
            SchedulerKind::Linux,
            SchedulerKind::Gts,
            SchedulerKind::Wash,
            SchedulerKind::Colab,
            SchedulerKind::EqualProgress,
        ];
        let mut out = Vec::new();
        for kind in order {
            let mut pooled = TelemetryReport::new();
            for ((_, _, sched, _), cell) in self.paper_cells() {
                if *sched == kind.name() {
                    pooled.absorb(&cell.telemetry);
                }
            }
            if pooled.runs > 0 {
                out.push((kind.name(), pooled));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (workload, _, sched, report) = cells[0];
        assert_eq!(workload, "swaptions");
        assert_eq!(sched, "colab");
        assert_eq!(report.runs, 2, "one run per core order");
        assert!(report.counters.picks > 0);
        let pooled = h.telemetry_by_scheduler();
        assert_eq!(pooled.len(), 1);
        assert_eq!(pooled[0].0, "colab");
        assert_eq!(pooled[0].1.counters.picks, report.counters.picks);
    }

    #[test]
    fn single_program_h_ntt_at_least_one() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        for kind in SchedulerKind::ALL {
            let ntt = h
                .single(BenchmarkId::Blackscholes, 4, 2, 2, kind)
                .unwrap();
            assert!(
                ntt > 0.95,
                "{}: H_NTT {ntt} below the physical floor",
                kind.name()
            );
        }
    }
}
