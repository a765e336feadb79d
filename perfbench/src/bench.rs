//! The three workloads, each a closed batch run through the layers'
//! public functions, with the measurements and checks of one batch.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use amp_metrics::MixSummary;
use amp_perf::SpeedupModel;
use amp_sim::telemetry::TelemetryReport;
use amp_sim::{FaultPlan, SimParams, Simulation, SimulationOutcome};
use amp_types::{AppId, CoreOrder, MachineConfig, SimDuration};
use amp_workloads::{BenchmarkId, CompiledApp, CompiledWorkload, PaperWorkload, WorkloadSpec};
use colab::experiments::{self, CONFIGS};
use colab::{simcost, training, ExperimentConfig, Harness, ProgramStore, SchedulerKind, SweepPlan};

use crate::check::{self, Fnv};
use crate::hooks::{HookStats, Timed};
use crate::span::{Span, Tracer};

/// Every policy, in the order per-policy results are kept.
pub const POLICIES: [SchedulerKind; 5] = [
    SchedulerKind::Linux,
    SchedulerKind::Wash,
    SchedulerKind::Colab,
    SchedulerKind::Gts,
    SchedulerKind::EqualProgress,
];

/// Sweep workers for `Harness::run_plan`, as `repro` uses on two cores.
const SWEEP_JOBS: usize = 2;
/// Each benchmark appears this many times across a chaos batch's mixes.
const CHAOS_REPEATS: usize = 96;
/// Fault intensities a chaos mix is run under.
const INTENSITIES: [f64; 3] = [0.5, 1.0, 2.0];
/// Columns of a rendered Gantt chart.
const GANTT_WIDTH: usize = 120;
/// Set-ups timed per batch (the last one is used): the first after a
/// batch body runs with cold caches, so a median needs several.
const SETUP_REPEATS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `SweepPlan::full()` through `Harness::run_plan`, then every
    /// figure, the shape check and the CSV report.
    PaperGrid,
    /// Seeded random mixes, each run clean and under a random fault plan.
    ChaosMixes,
    /// The 26 paper workloads on 2B2S with both event recorders on, each
    /// run rendered as a Chrome trace and a Gantt chart.
    Recorded,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-grid" => Some(Workload::PaperGrid),
            "chaos-mixes" => Some(Workload::ChaosMixes),
            "recorded" => Some(Workload::Recorded),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::ChaosMixes => "chaos-mixes",
            Workload::Recorded => "recorded",
        }
    }
}

/// Deterministic counts summed over a batch's runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub compute_events: u64,
    pub compute_leaves: u64,
    pub context_switches: u64,
    pub migrations: u64,
    pub futex_waits: u64,
    pub futex_wakes: u64,
    pub faults_injected: u64,
    pub forced_migrations: u64,
    pub stranded_enqueues: u64,
    pub ring_events: u64,
    pub ring_dropped: u64,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub intern_calls: u64,
    pub intern_hits: u64,
    pub intern_misses: u64,
    pub segments: u64,
    pub builds: u64,
}

/// A finished run waiting for its checks, which run after the cell's
/// clock stops.
struct Pending {
    outcome: SimulationOutcome,
    demand: SimDuration,
    cores: usize,
    chrome: Option<String>,
    gantt: Option<String>,
}

/// Everything one batch measured.
#[derive(Debug, Default)]
pub struct Batch {
    pub tracer: Tracer,
    /// Host time of each set-up: harness (model training) plus inputs.
    pub setup_ns: Vec<u64>,
    /// Host time of each timed piece of the workload body, in the order they ran:
    /// the cells, or paper-grid's four phases.
    pub body_ns: Vec<u64>,
    /// Host time of the replayed cells and baselines, checks excluded.
    pub replay_ns: u64,
    /// Host latency of each cell.
    pub cell_ns: Vec<u64>,
    /// Host time inside `Simulation::run`.
    pub run_ns: u64,
    /// Host time inside `Simulation::run` of each replayed unit.
    pub unit_run_ns: Vec<u64>,
    /// Simulated instructions retired.
    pub insts: f64,
    /// Simulation runs attempted.
    pub runs: u64,
    /// Runs that errored or failed a check, with the reason.
    pub failures: Vec<String>,
    /// Mismatches against the harness or between recorders.
    pub mismatches: Vec<String>,
    /// Digest of the simulated statistics of every run, in order.
    pub digest: u64,
    pub counts: Counts,
    /// Hook costs per policy, indexed as [`POLICIES`].
    pub hooks: [HookStats; 5],
    /// Events processed by experiment-cell runs per policy, indexed as
    /// [`POLICIES`] (baselines excluded, as `colab::simcost` counts).
    pub policy_events: [u64; 5],
    /// Shape-check claims holding and checked (paper-grid only).
    pub claims: Option<(usize, usize)>,
    /// Digest of the written CSVs (paper-grid only).
    pub csv_digest: Option<u64>,
    /// Model fit quality.
    pub r_squared: f64,
    /// Recorded spans (traced batches only).
    pub spans: Vec<Span>,
}

/// Index of `kind` in [`POLICIES`].
pub fn policy_index(kind: SchedulerKind) -> usize {
    POLICIES
        .iter()
        .position(|&k| k == kind)
        .expect("every scheduler kind is listed")
}

/// One chaos mix: a random multiprogrammed workload, the machine and
/// policy it runs on, and its fault plan's intensity and seed.
#[derive(Debug, Clone)]
pub struct Mix {
    pub spec: WorkloadSpec,
    pub big: usize,
    pub little: usize,
    pub kind: SchedulerKind,
    pub intensity: f64,
    pub plan_seed: u64,
}

/// SplitMix64: a tiny seeded generator for the benchmark's own inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The chaos mixes of `seed`. Every benchmark appears equally often and
/// every (config, policy, intensity) triple is used equally often, so the
/// batch's total work barely depends on the seed; the seed decides which
/// programs share a mix, their thread counts, and where each mix runs.
pub fn chaos_mixes(seed: u64) -> Vec<Mix> {
    let mut rng = SplitMix(seed ^ 0xC4A0_5EED);
    let mut pool: Vec<BenchmarkId> = (0..CHAOS_REPEATS).flat_map(|_| BenchmarkId::ALL).collect();
    rng.shuffle(&mut pool);
    let mut triples: Vec<((usize, usize), SchedulerKind, f64)> = Vec::new();
    let mut mixes = Vec::new();
    let mut rest = pool.as_slice();
    while !rest.is_empty() {
        let size = (1 + rng.below(4)).min(rest.len());
        let (programs, tail) = rest.split_at(size);
        rest = tail;
        let entries = programs
            .iter()
            .map(|&b| (b, b.clamp_threads(1 + rng.below(7))))
            .collect();
        if triples.is_empty() {
            for config in CONFIGS {
                for kind in SchedulerKind::ALL {
                    for intensity in INTENSITIES {
                        triples.push((config, kind, intensity));
                    }
                }
            }
            rng.shuffle(&mut triples);
        }
        let ((big, little), kind, intensity) = triples.pop().expect("refilled above");
        mixes.push(Mix {
            spec: WorkloadSpec::named(format!("mix-{}", mixes.len()), entries),
            big,
            little,
            kind,
            intensity,
            plan_seed: rng.next(),
        });
    }
    mixes
}

/// Set-up shared by every batch of a workload.
pub struct Setup {
    pub harness: Harness,
    pub model: SpeedupModel,
    pub plan: SweepPlan,
    pub mixes: Vec<Mix>,
}

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        ..ExperimentConfig::default()
    }
}

impl Batch {
    fn new(traced: bool) -> Batch {
        Batch {
            tracer: Tracer::new(traced),
            ..Batch::default()
        }
    }

    /// Set-up: `Harness::new` (which trains the Table 2 model) plus the
    /// workload's inputs. A traced batch also trains through the training
    /// layer's public functions under spans and checks the result is the
    /// model the harness trained.
    fn setup(&mut self, workload: Workload, seed: u64) -> Result<Setup, String> {
        let mut set_up = || -> Result<_, String> {
            let start = Instant::now();
            let harness = Harness::new(config(seed)).map_err(|e| format!("harness: {e}"))?;
            let plan = match workload {
                Workload::PaperGrid => SweepPlan::full(),
                _ => SweepPlan::new(),
            };
            let mixes = match workload {
                Workload::ChaosMixes => chaos_mixes(seed),
                _ => Vec::new(),
            };
            self.setup_ns.push(start.elapsed().as_nanos() as u64);
            Ok((harness, plan, mixes))
        };
        let mut inputs = set_up()?;
        for _ in 1..SETUP_REPEATS {
            inputs = set_up()?;
        }
        let (harness, plan, mixes) = inputs;

        let model = harness.model().clone();
        if self.tracer.enabled() {
            let scale = harness.config().scale;
            let tracer = &mut self.tracer;
            let span = tracer.enter("training");
            let set = training::build_training_set(4, seed, scale);
            let fitted = set.and_then(|set| {
                tracer.leaf("perf.fit", || {
                    SpeedupModel::train(&set, training::SELECTED_COUNTERS)
                })
            });
            tracer.exit(span);
            let fitted = fitted.map_err(|e| format!("training: {e}"))?;
            if format!("{fitted:?}") != format!("{model:?}") {
                self.mismatches
                    .push("the traced training fit a different model than Harness::new".into());
            }
        }
        self.r_squared = model.r_squared();
        Ok(Setup {
            harness,
            model,
            plan,
            mixes,
        })
    }

    /// Runs one phase of paper-grid's body under a span and records its
    /// host time as a piece of the body.
    fn timed_phase<R>(&mut self, name: &'static str, phase: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = self.tracer.leaf(name, phase);
        self.body_ns.push(start.elapsed().as_nanos() as u64);
        out
    }

    /// Looks `spec` up in `store`, counting hits, misses and the segments
    /// compiled on a miss. A workload that fails to compile counts as one
    /// failed run.
    fn intern(
        &mut self,
        store: &ProgramStore,
        spec: &WorkloadSpec,
        config: &ExperimentConfig,
    ) -> Option<Arc<CompiledWorkload>> {
        let before = store.stats();
        let compiled = self.tracer.leaf("intern", || {
            store.get_or_compile(spec, config.seed, config.scale)
        });
        let compiled = match compiled {
            Ok(compiled) => compiled,
            Err(e) => {
                self.runs += 1;
                self.failures
                    .push(format!("compiling {}: {e}", spec.name()));
                return None;
            }
        };
        let after = store.stats();
        self.counts.intern_calls += 1;
        self.counts.intern_hits += after.hits - before.hits;
        if after.misses > before.misses {
            self.counts.intern_misses += after.misses - before.misses;
            self.counts.segments += compiled
                .apps()
                .iter()
                .flat_map(|app| &app.threads)
                .map(|t| t.program.segments().len() as u64)
                .sum::<u64>();
        }
        Some(compiled)
    }

    fn build(
        &mut self,
        machine: &MachineConfig,
        apps: Vec<Arc<CompiledApp>>,
        config: &ExperimentConfig,
        params: SimParams,
    ) -> Result<Simulation, String> {
        self.counts.builds += 1;
        self.tracer
            .leaf("sim.build", || {
                Simulation::from_compiled_with_params(machine, apps, config.seed, params)
            })
            .map_err(|e| format!("building on {}: {e}", machine.label()))
    }

    /// Runs `sim` under a fresh `kind` policy — wrapped in the hook timer
    /// when traced — and returns the outcome. Every call is one attempted
    /// run; an error is recorded as a failure.
    fn simulate(
        &mut self,
        sim: Result<Simulation, String>,
        kind: SchedulerKind,
        machine: &MachineConfig,
        model: &SpeedupModel,
    ) -> Option<SimulationOutcome> {
        self.runs += 1;
        let sim = match sim {
            Ok(sim) => sim,
            Err(e) => {
                self.failures.push(e);
                return None;
            }
        };
        let sched = kind.create(machine, model);
        let tracer = &mut self.tracer;
        let span = tracer.enter("sim.run");
        let start = Instant::now();
        let (result, hooks) = if tracer.enabled() {
            let mut timed = Timed::new(sched);
            let result = sim.run(&mut timed);
            (result, Some(timed.stats()))
        } else {
            let mut sched = sched;
            (sim.run(sched.as_mut()), None)
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        tracer.exit(span);
        self.run_ns += elapsed;
        if let Some(hooks) = hooks {
            tracer.fold(span, hooks.total_ns());
            self.hooks[policy_index(kind)].absorb(&hooks);
        }
        match result {
            Ok(outcome) => Some(outcome),
            Err(e) => {
                self.failures
                    .push(format!("{} on {}: {e}", kind.name(), machine.label()));
                None
            }
        }
    }

    fn absorb(&mut self, into: &mut TelemetryReport, outcome: &SimulationOutcome) {
        self.tracer
            .leaf("telemetry.absorb", || into.absorb(&outcome.telemetry));
    }

    /// Checks, digests and counts finished runs, in the order they ran.
    fn settle(&mut self, pending: &mut Vec<Pending>, digest: &mut Fnv) {
        for p in pending.drain(..) {
            let o = &p.outcome;
            check::run_digest(digest, o);
            let c = &mut self.counts;
            c.events += o.events_processed;
            c.compute_events += o.compute_events;
            c.compute_leaves += o.compute_leaves;
            c.context_switches += o.context_switches;
            c.migrations += o.migrations;
            c.futex_waits += o.threads.iter().map(|t| t.wait_count).sum::<u64>();
            c.futex_wakes += o.telemetry.counters.futex_wakes;
            c.faults_injected += o.degradation.faults_injected;
            c.forced_migrations += o.degradation.forced_migrations;
            c.stranded_enqueues += o.degradation.stranded_enqueues;
            c.ring_events += o.telemetry_events.len() as u64;
            c.ring_dropped += o.telemetry.events_dropped;
            c.trace_events += o.trace.events().len() as u64;
            c.trace_dropped += o.trace.dropped();
            self.insts += o.threads.iter().map(|t| t.insts).sum::<f64>();
            let problem = check::check_run(o, p.demand, p.cores)
                .err()
                .or_else(|| {
                    let bad = p
                        .chrome
                        .as_deref()
                        .is_some_and(|json| !check::json_well_formed(json));
                    bad.then(|| format!("{}: Chrome trace is not well-formed JSON", o.scheduler))
                })
                .or_else(|| {
                    let bad = p
                        .gantt
                        .as_deref()
                        .is_some_and(|g| g.lines().count() != p.cores);
                    bad.then(|| format!("{}: Gantt chart lacks a row per core", o.scheduler))
                });
            // At most one entry per run, so `failures.len()` counts failed runs.
            self.failures.extend(problem);
        }
    }
}

/// Runs one batch of `workload`: set-up, then the body. `traced`
/// records spans and times every scheduler hook.
pub fn run_batch(
    workload: Workload,
    seed: u64,
    traced: bool,
    out_dir: &Path,
) -> Result<Batch, String> {
    let mut batch = Batch::new(traced);
    let mut setup = batch.setup(workload, seed)?;
    let mut digest = Fnv::new();
    match workload {
        Workload::PaperGrid => paper_grid(&mut batch, &mut setup, out_dir, &mut digest)?,
        Workload::ChaosMixes => {
            chaos(&mut batch, &setup, &mut digest);
            batch.body_ns = batch.cell_ns.clone();
        }
        Workload::Recorded => {
            recorded(&mut batch, &setup, true, &mut digest);
            batch.body_ns = batch.cell_ns.clone();
        }
    }
    batch.digest = digest.finish();
    batch.spans = batch.tracer.take();
    Ok(batch)
}

/// The `sim_digest` of `recorded` with both recorders off, for the check
/// that recording never changes an outcome.
pub fn recorded_digest_without_recording(seed: u64) -> Result<(u64, Vec<String>), String> {
    let mut batch = Batch::new(false);
    let setup = batch.setup(Workload::Recorded, seed)?;
    let mut digest = Fnv::new();
    recorded(&mut batch, &setup, false, &mut digest);
    Ok((digest.finish(), batch.failures))
}

/// The user path (`run_plan` on two workers, every memoized figure, the
/// shape check and the CSV report), then a serial replay of every
/// baseline and cell through the layers' public functions that must
/// reproduce the harness bit for bit.
fn paper_grid(
    batch: &mut Batch,
    setup: &mut Setup,
    out_dir: &Path,
    digest: &mut Fnv,
) -> Result<(), String> {
    let Setup {
        harness,
        model,
        plan,
        ..
    } = setup;
    let before = simcost::snapshot();
    batch
        .timed_phase("sweep.run_plan", || harness.run_plan(plan, SWEEP_JOBS))
        .map_err(|e| format!("run_plan: {e}"))?;
    let after = simcost::snapshot();
    let figures = batch.timed_phase("render.figures", || render_figures(harness));
    figures.map_err(|e| format!("figures: {e}"))?;
    let shape = batch.timed_phase("render.shape_check", || experiments::shape_check(harness));
    let shape = shape.map_err(|e| format!("shape check: {e}"))?;
    let written = batch.timed_phase("report.csv", || colab::report::write_all(harness, out_dir));
    let written = written.map_err(|e| format!("CSV report: {e}"))?;

    batch.claims = Some((
        shape.claims.iter().filter(|c| c.pass).count(),
        shape.claims.len(),
    ));
    let mut csv = Fnv::new();
    for name in &written {
        let bytes =
            std::fs::read(out_dir.join(name)).map_err(|e| format!("reading {name}: {e}"))?;
        csv.write(name.as_bytes());
        csv.write(&bytes);
    }
    batch.csv_digest = Some(csv.finish());

    let config = harness.config().clone();
    let summaries = replay_grid(batch, plan, model, &config, digest);
    for (cell, summary) in plan.cells().iter().zip(summaries) {
        let Some(replayed) = summary else { continue };
        let expected = harness
            .mix(&cell.workload, cell.big, cell.little, cell.kind)
            .map_err(|e| format!("memoized cell: {e}"))?;
        let same = replayed.apps == expected.apps
            && replayed.h_antt.to_bits() == expected.h_antt.to_bits()
            && replayed.h_stp.to_bits() == expected.h_stp.to_bits()
            && (&replayed.workload, &replayed.config, &replayed.scheduler)
                == (&expected.workload, &expected.config, &expected.scheduler);
        if !same {
            batch.mismatches.push(format!(
                "replayed cell {:?} differs from run_plan",
                cell.key()
            ));
        }
    }
    for (i, kind) in POLICIES.iter().enumerate() {
        let harness_events =
            after.kinds[*kind as usize].events - before.kinds[*kind as usize].events;
        if batch.policy_events[i] != harness_events {
            batch.mismatches.push(format!(
                "{}: replay processed {} events, run_plan {harness_events}",
                kind.name(),
                batch.policy_events[i]
            ));
        }
    }
    Ok(())
}

/// Renders every memoized figure and table, as `repro` prints them.
fn render_figures(h: &mut Harness) -> amp_types::Result<()> {
    let rendered = [
        experiments::figure4(h)?.to_string(),
        experiments::figure5(h)?.to_string(),
        experiments::figure6(h)?.to_string(),
        experiments::figure7(h)?.to_string(),
        experiments::figure8(h)?.to_string(),
        experiments::figure9(h)?.to_string(),
        experiments::summary(h)?.to_string(),
        experiments::table1_quantified(h)?.to_string(),
        experiments::fairness(h)?.to_string(),
        experiments::table2(h),
    ];
    std::hint::black_box(rendered);
    Ok(())
}

/// Times one replayed unit (a baseline job or a cell), then settles its
/// runs outside the clock. Cells also record their latency.
fn timed_unit<R>(
    batch: &mut Batch,
    id: u32,
    name: &'static str,
    is_cell: bool,
    digest: &mut Fnv,
    body: impl FnOnce(&mut Batch, &mut Vec<Pending>) -> R,
) -> R {
    let mut pending = Vec::new();
    batch.tracer.set_cell(id);
    let run_before = batch.run_ns;
    let start = Instant::now();
    let span = batch.tracer.enter(name);
    let out = body(batch, &mut pending);
    batch.tracer.exit(span);
    let elapsed = start.elapsed().as_nanos() as u64;
    batch.replay_ns += elapsed;
    batch.unit_run_ns.push(batch.run_ns - run_before);
    if is_cell {
        batch.cell_ns.push(elapsed);
    }
    batch.settle(&mut pending, digest);
    out
}

/// Replays `plan` serially through the public layer functions, exactly
/// as the harness evaluates it: every baseline job, then every cell.
fn replay_grid(
    batch: &mut Batch,
    plan: &SweepPlan,
    model: &SpeedupModel,
    config: &ExperimentConfig,
    digest: &mut Fnv,
) -> Vec<Option<MixSummary>> {
    let store = ProgramStore::new();
    let mut baselines = std::collections::HashMap::new();
    let jobs = plan.baseline_jobs();
    for (id, (workload, total)) in jobs.iter().enumerate() {
        let t_sb = timed_unit(
            batch,
            id as u32 + 1,
            "baseline",
            false,
            digest,
            |batch, pending| baseline(batch, &store, workload, *total, model, config, pending),
        );
        if let Some(t_sb) = t_sb {
            baselines.insert((workload.name().to_string(), *total), t_sb);
        }
    }
    let first_cell = jobs.len() as u32 + 1;
    plan.cells()
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let t_sb = baselines.get(&(cell.workload.name().to_string(), cell.big + cell.little));
            timed_unit(
                batch,
                first_cell + i as u32,
                "cell",
                true,
                digest,
                |batch, pending| {
                    let t_sb = t_sb?;
                    let compiled = batch.intern(&store, &cell.workload, config)?;
                    let mut sums = vec![SimDuration::ZERO; compiled.apps().len()];
                    let mut names = Vec::new();
                    let mut telemetry = TelemetryReport::new();
                    for order in CoreOrder::BOTH {
                        let machine = MachineConfig::asymmetric(cell.big, cell.little, order);
                        let sim = batch.build(
                            &machine,
                            compiled.apps().to_vec(),
                            config,
                            config.sim_params,
                        );
                        let outcome = batch.simulate(sim, cell.kind, &machine, model)?;
                        batch.policy_events[policy_index(cell.kind)] += outcome.events_processed;
                        names = outcome.apps.iter().map(|a| a.name.clone()).collect();
                        for (sum, app) in sums.iter_mut().zip(&outcome.apps) {
                            *sum += app.turnaround;
                        }
                        batch.absorb(&mut telemetry, &outcome);
                        pending.push(Pending::plain(outcome, &compiled, machine.num_cores()));
                    }
                    let apps: Vec<(String, SimDuration, SimDuration)> = names
                        .into_iter()
                        .zip(sums)
                        .zip(t_sb)
                        .map(|((name, sum), &sb)| (name, sum / 2, sb))
                        .collect();
                    let label =
                        MachineConfig::asymmetric(cell.big, cell.little, CoreOrder::BigFirst)
                            .label();
                    Some(batch.tracer.leaf("metrics.summary", || {
                        MixSummary::new(cell.workload.name(), label, cell.kind.name(), apps)
                    }))
                },
            )
        })
        .collect()
}

/// One isolated big-only baseline job: each app alone on `total` big
/// cores under CFS. Returns the per-app turnarounds `T_SB`.
fn baseline(
    batch: &mut Batch,
    store: &ProgramStore,
    workload: &WorkloadSpec,
    total: usize,
    model: &SpeedupModel,
    config: &ExperimentConfig,
    pending: &mut Vec<Pending>,
) -> Option<Vec<SimDuration>> {
    let compiled = batch.intern(store, workload, config)?;
    let machine = MachineConfig::all_big(total);
    let mut t_sb = Vec::new();
    for app in compiled.apps() {
        let sim = batch.build(&machine, vec![Arc::clone(app)], config, config.sim_params);
        let outcome = batch.simulate(sim, SchedulerKind::Linux, &machine, model)?;
        t_sb.push(outcome.turnaround(AppId::new(0)));
        pending.push(Pending {
            demand: check::demand(std::slice::from_ref(app)),
            ..Pending::plain(outcome, &compiled, total)
        });
    }
    Some(t_sb)
}

impl Pending {
    fn plain(outcome: SimulationOutcome, compiled: &CompiledWorkload, cores: usize) -> Pending {
        Pending {
            outcome,
            demand: check::demand(compiled.apps()),
            cores,
            chrome: None,
            gantt: None,
        }
    }
}

/// Every chaos mix, serially: clean, then under its random fault plan.
fn chaos(batch: &mut Batch, setup: &Setup, digest: &mut Fnv) {
    let config = setup.harness.config();
    let store = ProgramStore::new();
    for (id, mix) in setup.mixes.iter().enumerate() {
        timed_unit(
            batch,
            id as u32 + 1,
            "cell",
            true,
            digest,
            |batch, pending| chaos_cell(batch, &store, mix, &setup.model, config, pending),
        );
    }
}

fn chaos_cell(
    batch: &mut Batch,
    store: &ProgramStore,
    mix: &Mix,
    model: &SpeedupModel,
    config: &ExperimentConfig,
    pending: &mut Vec<Pending>,
) -> Option<()> {
    let compiled = batch.intern(store, &mix.spec, config)?;
    let machine = MachineConfig::asymmetric(mix.big, mix.little, CoreOrder::BigFirst);
    let sim = batch.build(
        &machine,
        compiled.apps().to_vec(),
        config,
        config.sim_params,
    );
    let clean = batch.simulate(sim, mix.kind, &machine, model)?;
    let window = clean.makespan.saturating_since(amp_types::SimTime::ZERO);
    let plan = batch.tracer.leaf("faults.plan", || {
        FaultPlan::random(&machine, mix.plan_seed, mix.intensity, window)
    });
    let sim = batch
        .build(
            &machine,
            compiled.apps().to_vec(),
            config,
            config.sim_params,
        )
        .and_then(|sim| {
            batch
                .tracer
                .leaf("faults.plan", || sim.with_fault_plan(plan))
                .map_err(|e| format!("arming faults on {}: {e}", machine.label()))
        });
    let faulted = batch.simulate(sim, mix.kind, &machine, model);
    let mut telemetry = TelemetryReport::new();
    batch.absorb(&mut telemetry, &clean);
    if let Some(faulted) = &faulted {
        batch.absorb(&mut telemetry, faulted);
        let apps = faulted
            .apps
            .iter()
            .zip(&clean.apps)
            .map(|(f, c)| (f.name.clone(), f.turnaround, c.turnaround))
            .collect();
        let label = machine.label();
        let summary = batch.tracer.leaf("metrics.summary", || {
            MixSummary::new(mix.spec.name(), label, mix.kind.name(), apps)
        });
        std::hint::black_box(summary);
    }
    let cores = machine.num_cores();
    pending.push(Pending::plain(clean, &compiled, cores));
    pending.push(Pending::plain(faulted?, &compiled, cores));
    Some(())
}

/// The 26 paper workloads on 2B2S under the four extended policies, both
/// core orders per cell. With `recording`, both event recorders are on
/// (at the capacities `colab_bench::chrome_trace_json` uses) and every
/// run is rendered as a Chrome trace and a Gantt chart.
fn recorded(batch: &mut Batch, setup: &Setup, recording: bool, digest: &mut Fnv) {
    let config = setup.harness.config();
    let params = if recording {
        SimParams {
            trace_capacity: 1 << 18,
            event_capacity: 1 << 16,
            ..config.sim_params
        }
    } else {
        config.sim_params
    };
    let store = ProgramStore::new();
    let mut id = 0;
    for workload in PaperWorkload::all() {
        let spec = workload.spec();
        for kind in SchedulerKind::EXTENDED {
            id += 1;
            timed_unit(batch, id, "cell", true, digest, |batch, pending| {
                recorded_cell(
                    batch,
                    &store,
                    &spec,
                    kind,
                    &setup.model,
                    config,
                    params,
                    pending,
                )
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn recorded_cell(
    batch: &mut Batch,
    store: &ProgramStore,
    spec: &WorkloadSpec,
    kind: SchedulerKind,
    model: &SpeedupModel,
    config: &ExperimentConfig,
    params: SimParams,
    pending: &mut Vec<Pending>,
) -> Option<()> {
    let compiled = batch.intern(store, spec, config)?;
    let mut telemetry = TelemetryReport::new();
    for order in CoreOrder::BOTH {
        let machine = MachineConfig::paper_2b2s(order);
        let sim = batch.build(&machine, compiled.apps().to_vec(), config, params);
        let outcome = batch.simulate(sim, kind, &machine, model)?;
        let mut run = Pending::plain(outcome, &compiled, machine.num_cores());
        let outcome = &run.outcome;
        if params.trace_capacity > 0 && outcome.makespan > amp_types::SimTime::ZERO {
            let tracer = &mut batch.tracer;
            run.chrome = Some(tracer.leaf("render.chrome", || {
                colab_bench::render_chrome_trace(&machine, outcome)
            }));
            run.gantt = Some(tracer.leaf("render.gantt", || {
                outcome.trace.gantt(&machine, outcome.makespan, GANTT_WIDTH)
            }));
        }
        batch.absorb(&mut telemetry, &run.outcome);
        pending.push(run);
    }
    Some(())
}
