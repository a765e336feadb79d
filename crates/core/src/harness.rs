//! The experiment harness: scheduler factory, baseline cache, and the
//! per-cell evaluation protocol of §5.1.

use std::collections::HashMap;
use std::sync::Arc;

use amp_metrics::MixSummary;
use amp_perf::SpeedupModel;
use amp_sched::{
    CfsScheduler, ColabScheduler, EqualProgressScheduler, GtsScheduler, Scheduler, WashScheduler,
};
use amp_sim::telemetry::TelemetryReport;
use amp_sim::{SimParams, Simulation};
use amp_types::{AppId, CoreOrder, MachineConfig, Result, SimDuration};
use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};

use crate::experiments::Studies;
use crate::intern::ProgramStore;
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

    /// Instantiates the policy for a machine.
    pub fn create(self, machine: &MachineConfig, model: &SpeedupModel) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Linux => Box::new(CfsScheduler::new(machine)),
            SchedulerKind::Wash => Box::new(WashScheduler::new(machine, model.clone())),
            SchedulerKind::Colab => Box::new(ColabScheduler::new(machine, model.clone())),
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
/// scheduler)`. The whole spec, not just its name, so two workloads that
/// share a name but not their entries (`single(b, 4)` and `single(b, 2)`)
/// never share a cell.
pub(crate) type CellKey = (WorkloadSpec, String, &'static str);

/// The memo key of `workload` on a `big`×`little` machine under `kind`.
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
    )
}

/// Energy of one cell: total joules and energy-delay product, averaged
/// over the core-order pair and all replications like the turnarounds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellEnergy {
    pub(crate) joules: f64,
    pub(crate) edp: f64,
}

/// Everything one evaluated cell yields.
pub(crate) struct CellOutcome {
    pub(crate) summary: MixSummary,
    pub(crate) telemetry: TelemetryReport,
    pub(crate) energy: CellEnergy,
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
/// This is the single implementation behind both the serial memoized
/// path ([`Harness::baselines`]) and the parallel sweep executor
/// (`Harness::run_plan`): each baseline depends only on its inputs, so
/// running it on any thread yields bit-identical results.
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

/// Evaluates one experiment cell — `workload` on a `big`×`little`
/// machine under `kind`, run once per core-enumeration order per
/// replication and averaged (§5.1) — against precomputed baselines
/// `t_sb`. A fresh [`Simulation`] and scheduler are constructed for
/// every run, so no mutable state is shared with any other cell and the
/// result is a pure function of the arguments: the sweep executor can
/// evaluate cells on any thread in any order and reproduce the serial
/// path bit-for-bit.
pub(crate) fn compute_cell(
    ctx: &EvalCtx<'_>,
    model: &SpeedupModel,
    t_sb: &[SimDuration],
    workload: &WorkloadSpec,
    big: usize,
    little: usize,
    kind: SchedulerKind,
) -> Result<CellOutcome> {
    run_cell(
        ctx,
        t_sb,
        workload,
        (big, little),
        kind.name(),
        &|machine| kind.create(machine, model),
        Some(kind),
    )
}

/// The protocol behind [`compute_cell`], for any policy `create` builds
/// (the ablation study passes COLAB variants). `name` labels the
/// summary; runs are recorded in [`crate::simcost`] under `cost_kind`
/// when one is given, so only the evaluated policies are counted.
pub(crate) fn run_cell(
    ctx: &EvalCtx<'_>,
    t_sb: &[SimDuration],
    workload: &WorkloadSpec,
    (big, little): (usize, usize),
    name: &'static str,
    create: &dyn Fn(&MachineConfig) -> Box<dyn Scheduler>,
    cost_kind: Option<SchedulerKind>,
) -> Result<CellOutcome> {
    let EvalCtx { config, store } = *ctx;
    let config_label = MachineConfig::asymmetric(big, little, CoreOrder::BigFirst).label();
    let reps = config.replications.max(1);
    let mut sums: Vec<SimDuration> = vec![SimDuration::ZERO; workload.num_apps()];
    let mut names: Vec<String> = Vec::new();
    let mut telemetry = TelemetryReport::new();
    let mut energy = CellEnergy {
        joules: 0.0,
        edp: 0.0,
    };
    for rep in 0..reps {
        let seed = rep_seed(config.seed, rep);
        let compiled = store.get_or_compile(workload, seed, config.scale)?;
        for order in CoreOrder::BOTH {
            let machine = MachineConfig::asymmetric(big, little, order);
            let t0 = std::time::Instant::now();
            let sim = Simulation::from_compiled_with_params(
                &machine,
                compiled.apps().to_vec(),
                seed,
                config.sim_params,
            )?;
            let t1 = std::time::Instant::now();
            let mut sched = create(&machine);
            let outcome = sim.run(sched.as_mut())?;
            let t2 = std::time::Instant::now();
            if let Some(kind) = cost_kind {
                crate::simcost::record(
                    kind,
                    (t1 - t0).as_nanos() as u64,
                    (t2 - t1).as_nanos() as u64,
                    outcome.events_processed,
                    outcome.compute_leaves,
                    outcome.compute_events,
                );
            }
            names = outcome.apps.iter().map(|a| a.name.clone()).collect();
            for (sum, app) in sums.iter_mut().zip(&outcome.apps) {
                *sum += app.turnaround;
            }
            telemetry.absorb(&outcome.telemetry);
            energy.joules += outcome.energy.total_joules();
            energy.edp += outcome.edp();
        }
    }
    let divisor = 2 * u64::from(reps);
    let apps: Vec<(String, SimDuration, SimDuration)> = names
        .into_iter()
        .zip(sums)
        .zip(t_sb)
        .map(|((name, sum), &sb)| (name, sum / divisor, sb))
        .collect();
    let summary = MixSummary::new(workload.name(), config_label, name, apps);
    energy.joules /= divisor as f64;
    energy.edp /= divisor as f64;
    Ok(CellOutcome {
        summary,
        telemetry,
        energy,
    })
}

/// The evaluation harness: owns the trained model and memoizes isolated
/// baselines and experiment cells so the figures can share the same
/// 312-run sweep.
pub struct Harness {
    pub(crate) config: ExperimentConfig,
    pub(crate) model: SpeedupModel,
    /// `(workload, total cores) → per-app T_SB`.
    pub(crate) baselines: HashMap<(WorkloadSpec, usize), Vec<SimDuration>>,
    /// Memoized `(workload, config, scheduler) → outcome`: the summary,
    /// the decision telemetry absorbed over the core-order pair and all
    /// replications (so `runs` is `2 × replications`), and the energy
    /// averaged like the turnarounds.
    pub(crate) cells: HashMap<CellKey, CellOutcome>,
    /// Interned compiled workloads, shared by the serial path and every
    /// `run_plan` worker: each distinct `(workload, seed, scale)` is
    /// instantiated and compiled once, however many cells replay it.
    pub(crate) programs: ProgramStore,
    /// Worker threads of the latest [`run_plan`](Harness::run_plan)
    /// (1 before any): the extension studies run on as many.
    pub(crate) jobs: usize,
    /// The extension studies' results, each computed once per harness.
    pub(crate) studies: Studies,
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
            studies: Studies::default(),
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

    /// Worker threads the extension studies run on: the `jobs` of the
    /// latest [`run_plan`](Harness::run_plan), or 1 if there was none.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Isolated big-only baselines `T_SB` for every app of a workload, on
    /// an all-big machine with `total_cores` cores. Memoized.
    fn baselines(&mut self, workload: &WorkloadSpec, total_cores: usize) -> Result<Vec<SimDuration>> {
        let key = (workload.clone(), total_cores);
        if let Some(b) = self.baselines.get(&key) {
            return Ok(b.clone());
        }
        let ctx = EvalCtx {
            config: &self.config,
            store: &self.programs,
        };
        let t_sb = compute_baseline(&ctx, workload, total_cores)?;
        self.baselines.insert(key, t_sb.clone());
        Ok(t_sb)
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
            return Ok(cell.summary.clone());
        }

        let total_cores = big + little;
        let t_sb = self.baselines(workload, total_cores)?;
        let ctx = EvalCtx {
            config: &self.config,
            store: &self.programs,
        };
        let outcome = compute_cell(&ctx, &self.model, &t_sb, workload, big, little, kind)?;
        Ok(self.memoize(key, outcome).clone())
    }

    /// Stores an evaluated cell's results under `key`, returning its
    /// summary.
    pub(crate) fn memoize(&mut self, key: CellKey, outcome: CellOutcome) -> &MixSummary {
        let cell = self.cells.entry(key).insert_entry(outcome).into_mut();
        &cell.summary
    }

    /// The energy of a cell, evaluating the cell through
    /// [`mix`](Harness::mix) if it is not memoized yet.
    pub(crate) fn cell_energy(
        &mut self,
        workload: &WorkloadSpec,
        big: usize,
        little: usize,
        kind: SchedulerKind,
    ) -> Result<CellEnergy> {
        self.mix(workload, big, little, kind)?;
        Ok(self.cells[&cell_key(workload, big, little, kind)].energy)
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

    /// Number of simulation cells evaluated so far (diagnostics).
    pub fn cells_evaluated(&self) -> usize {
        self.cells.len()
    }

    /// Decision telemetry of every evaluated cell, as
    /// `(workload, config, scheduler, report)` rows sorted for
    /// deterministic output.
    pub fn telemetry_cells(&self) -> Vec<(&str, &str, &str, &TelemetryReport)> {
        let mut cells: Vec<_> = self.cells.iter().collect();
        cells.sort_unstable_by(|((wa, ca, sa), _), ((wb, cb, sb), _)| {
            (wa.name(), ca, sa, wa.entries()).cmp(&(wb.name(), cb, sb, wb.entries()))
        });
        cells
            .into_iter()
            .map(|((w, c, s), cell)| (w.name(), c.as_str(), *s, &cell.telemetry))
            .collect()
    }

    /// Telemetry pooled per scheduler over every evaluated cell, in
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
            for ((_, _, sched), cell) in &self.cells {
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
