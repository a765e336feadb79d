//! Regenerators for every figure and table of the paper's evaluation.
//!
//! Figures 5–9 plot, for groups of workloads, the geometric-mean H_ANTT
//! and H_STP of WASH and COLAB normalized to Linux CFS, per hardware
//! configuration plus an overall geomean — [`grouped`] produces exactly
//! that shape, and each `figure*` function supplies the paper's grouping.
//! All figures share the same memoized 312-cell sweep inside [`Harness`].
//!
//! The extension studies either read the memoized cells (energy, fairness,
//! the quantified Table 1, the full-COLAB ablation row) or enumerate their
//! own independent runs and evaluate them with [`sweep::parallel_map`] on
//! the harness's worker count, folding the results in enumeration order
//! so the output does not depend on it. Each study runs once per harness.

use std::fmt;

use amp_metrics::geomean;
use amp_sim::{SimParams, Simulation, SimulationOutcome};
use amp_types::{MachineConfig, Result};
use amp_workloads::{BenchmarkId, PaperWorkload, WorkloadClass, WorkloadSpec};

use crate::harness::{Harness, SchedulerKind};
use crate::sweep;

/// The four hardware configurations of the evaluation, `(big, little)`.
pub const CONFIGS: [(usize, usize); 4] = [(2, 2), (2, 4), (4, 2), (4, 4)];

/// The extension studies a [`Harness`] has computed, one slot each.
#[derive(Debug, Clone, Default)]
pub(crate) struct Studies {
    energy: Option<EnergyStudy>,
    ablation: Option<Ablation>,
    sensitivity: Option<Sensitivity>,
    frequency_sweep: Option<FrequencySweep>,
    staggered: Option<Staggered>,
    faults: Option<FaultsStudy>,
}

/// Returns the study in `slot`, computing it with `run` the first time.
fn memoized<T: Clone>(
    h: &mut Harness,
    slot: fn(&mut Studies) -> &mut Option<T>,
    run: fn(&mut Harness) -> Result<T>,
) -> Result<T> {
    if let Some(done) = slot(&mut h.studies) {
        return Ok(done.clone());
    }
    let study = run(h)?;
    *slot(&mut h.studies) = Some(study.clone());
    Ok(study)
}

/// Each app's turnaround in a run, in seconds.
fn turnaround_secs(outcome: &SimulationOutcome) -> Vec<f64> {
    outcome
        .apps
        .iter()
        .map(|app| app.turnaround.as_secs_f64())
        .collect()
}

/// One study run: `spec` at `seed`, loaded from the harness's program
/// store onto `machine` with `params`, staged by `stage` (arrivals or a
/// fault plan; `Ok` for neither), and run under `kind`.
fn run_study(
    h: &Harness,
    machine: &MachineConfig,
    (spec, seed): (&WorkloadSpec, u64),
    params: SimParams,
    kind: SchedulerKind,
    stage: impl FnOnce(Simulation) -> Result<Simulation>,
) -> Result<SimulationOutcome> {
    let compiled = h.programs.get_or_compile(spec, seed, h.config().scale)?;
    let sim =
        Simulation::from_compiled_with_params(machine, compiled.apps().to_vec(), seed, params)?;
    let mut sched = kind.create(machine, h.model());
    stage(sim)?.run(sched.as_mut())
}

/// Evaluates `f` over a study's independent `runs` on the harness's
/// sweep workers; results come back in input order, and the first error
/// in that order wins.
fn run_all<I: Sync, O: Send>(
    h: &Harness,
    runs: &[I],
    f: impl Fn(&I) -> Result<O> + Sync,
) -> Result<Vec<O>> {
    sweep::parallel_map(h.jobs(), runs, f).into_iter().collect()
}

// ---------------------------------------------------------------------
// Figure 4

/// One bar cluster of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// The benchmark.
    pub benchmark: BenchmarkId,
    /// H_NTT under `[linux, wash, colab]`; lower is better.
    pub h_ntt: [f64; 3],
}

/// Figure 4: single-program workloads on the 2-big 2-little machine.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Per-benchmark rows, in the paper's x-axis order.
    pub rows: Vec<Fig4Row>,
    /// Geometric mean across benchmarks, `[linux, wash, colab]`.
    pub geomean: [f64; 3],
}

/// Runs Figure 4: each of the 12 scalable benchmarks alone on 2B2S with
/// one thread per core, H_NTT against the all-big twin.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn figure4(h: &mut Harness) -> Result<Fig4> {
    let mut rows = Vec::new();
    for bench in BenchmarkId::FIGURE4 {
        let threads = bench.clamp_threads(4);
        let mut h_ntt = [0.0; 3];
        for (i, kind) in SchedulerKind::ALL.into_iter().enumerate() {
            h_ntt[i] = h.single(bench, threads, 2, 2, kind)?;
        }
        rows.push(Fig4Row { benchmark: bench, h_ntt });
    }
    let geo = |i: usize| geomean(&rows.iter().map(|r| r.h_ntt[i]).collect::<Vec<_>>());
    let geomean = [geo(0), geo(1), geo(2)];
    Ok(Fig4 { rows, geomean })
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4 — single-program H_NTT on 2B2S (lower is better)"
        )?;
        writeln!(f, "{:<16} {:>8} {:>8} {:>8}", "benchmark", "LINUX", "WASH", "COLAB")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<16} {:>8.3} {:>8.3} {:>8.3}",
                row.benchmark.name(),
                row.h_ntt[0],
                row.h_ntt[1],
                row.h_ntt[2]
            )?;
        }
        writeln!(
            f,
            "{:<16} {:>8.3} {:>8.3} {:>8.3}",
            "geomean", self.geomean[0], self.geomean[1], self.geomean[2]
        )
    }
}

// ---------------------------------------------------------------------
// Figures 5–9 (grouped comparisons)

/// One configuration's bars within a group: WASH and COLAB normalized to
/// Linux (`antt` lower is better, `stp` higher is better).
#[derive(Debug, Clone)]
pub struct ConfigCell {
    /// Configuration label (`"2B2S"`, …) or `"geomean"`.
    pub config: String,
    /// WASH H_ANTT / Linux H_ANTT.
    pub wash_antt: f64,
    /// COLAB H_ANTT / Linux H_ANTT.
    pub colab_antt: f64,
    /// WASH H_STP / Linux H_STP.
    pub wash_stp: f64,
    /// COLAB H_STP / Linux H_STP.
    pub colab_stp: f64,
}

/// One workload group (e.g. `Sync`) of a grouped figure.
#[derive(Debug, Clone)]
pub struct Group {
    /// Group label, as printed under the x-axis.
    pub label: String,
    /// One cell per hardware configuration.
    pub cells: Vec<ConfigCell>,
    /// Geomean across configurations.
    pub geomean: ConfigCell,
}

/// A Figure 5/6/7/8/9-shaped result.
#[derive(Debug, Clone)]
pub struct GroupFigure {
    /// Figure title.
    pub title: String,
    /// The workload groups compared.
    pub groups: Vec<Group>,
}

/// Evaluates a grouped figure: for each `(label, workloads)` group and
/// each configuration, the geometric mean over workloads of WASH/COLAB
/// H_ANTT and H_STP normalized to Linux.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn grouped(
    h: &mut Harness,
    title: &str,
    groups: Vec<(String, Vec<WorkloadSpec>)>,
) -> Result<GroupFigure> {
    let mut out = Vec::with_capacity(groups.len());
    for (label, specs) in groups {
        let mut cells = Vec::with_capacity(CONFIGS.len());
        for (big, little) in CONFIGS {
            let mut wash_antt = Vec::new();
            let mut colab_antt = Vec::new();
            let mut wash_stp = Vec::new();
            let mut colab_stp = Vec::new();
            for spec in &specs {
                let linux = h.mix(spec, big, little, SchedulerKind::Linux)?;
                let wash = h.mix(spec, big, little, SchedulerKind::Wash)?;
                let colab = h.mix(spec, big, little, SchedulerKind::Colab)?;
                wash_antt.push(wash.antt_vs(&linux));
                colab_antt.push(colab.antt_vs(&linux));
                wash_stp.push(wash.stp_vs(&linux));
                colab_stp.push(colab.stp_vs(&linux));
            }
            cells.push(ConfigCell {
                config: format!("{big}B{little}S"),
                wash_antt: geomean(&wash_antt),
                colab_antt: geomean(&colab_antt),
                wash_stp: geomean(&wash_stp),
                colab_stp: geomean(&colab_stp),
            });
        }
        let geo = |get: fn(&ConfigCell) -> f64| {
            geomean(&cells.iter().map(get).collect::<Vec<_>>())
        };
        let geomean = ConfigCell {
            config: "geomean".into(),
            wash_antt: geo(|c| c.wash_antt),
            colab_antt: geo(|c| c.colab_antt),
            wash_stp: geo(|c| c.wash_stp),
            colab_stp: geo(|c| c.colab_stp),
        };
        out.push(Group {
            label,
            cells,
            geomean,
        });
    }
    Ok(GroupFigure {
        title: title.to_string(),
        groups: out,
    })
}

impl fmt::Display for GroupFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} (normalized to Linux CFS)", self.title)?;
        writeln!(
            f,
            "{:<12} {:<8} {:>10} {:>10} {:>10} {:>10}",
            "group", "config", "WASH", "COLAB", "WASH", "COLAB"
        )?;
        writeln!(
            f,
            "{:<12} {:<8} {:>10} {:>10} {:>10} {:>10}",
            "", "", "H_ANTT", "H_ANTT", "H_STP", "H_STP"
        )?;
        for group in &self.groups {
            for cell in group.cells.iter().chain(std::iter::once(&group.geomean)) {
                writeln!(
                    f,
                    "{:<12} {:<8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                    group.label,
                    cell.config,
                    cell.wash_antt,
                    cell.colab_antt,
                    cell.wash_stp,
                    cell.colab_stp
                )?;
            }
        }
        Ok(())
    }
}

/// The Table 4 workloads of one class.
pub(crate) fn class_specs(class: WorkloadClass) -> Vec<WorkloadSpec> {
    PaperWorkload::all()
        .into_iter()
        .filter(|w| w.class() == class)
        .map(|w| w.spec())
        .collect()
}

/// Figure 5: synchronization-intensive vs non-synchronization-intensive.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn figure5(h: &mut Harness) -> Result<GroupFigure> {
    grouped(
        h,
        "Figure 5 — Sync vs NSync workloads",
        vec![
            ("Sync".into(), class_specs(WorkloadClass::Sync)),
            ("N_Sync".into(), class_specs(WorkloadClass::NSync)),
        ],
    )
}

/// Figure 6: communication-intensive vs computation-intensive.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn figure6(h: &mut Harness) -> Result<GroupFigure> {
    grouped(
        h,
        "Figure 6 — Comm vs Comp workloads",
        vec![
            ("Comm".into(), class_specs(WorkloadClass::Comm)),
            ("Comp".into(), class_specs(WorkloadClass::Comp)),
        ],
    )
}

/// Figure 7: the ten random-mixed workloads.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn figure7(h: &mut Harness) -> Result<GroupFigure> {
    grouped(
        h,
        "Figure 7 — random-mixed workloads",
        vec![("Random-mix".into(), class_specs(WorkloadClass::Rand))],
    )
}

/// Figure 8: workloads grouped by thread count (low: fewer threads than
/// the smallest machine; high: at least double the largest machine).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn figure8(h: &mut Harness) -> Result<GroupFigure> {
    let low: Vec<WorkloadSpec> = PaperWorkload::all()
        .into_iter()
        .filter(|w| w.is_thread_low())
        .map(|w| w.spec())
        .collect();
    let high: Vec<WorkloadSpec> = PaperWorkload::all()
        .into_iter()
        .filter(|w| w.is_thread_high())
        .map(|w| w.spec())
        .collect();
    grouped(
        h,
        "Figure 8 — thread-low vs thread-high workloads",
        vec![("Thread-low".into(), low), ("Thread-high".into(), high)],
    )
}

/// Figure 9: workloads grouped by program count (2 vs 4 applications).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn figure9(h: &mut Harness) -> Result<GroupFigure> {
    let two: Vec<WorkloadSpec> = PaperWorkload::all()
        .into_iter()
        .filter(|w| w.num_programs() == 2)
        .map(|w| w.spec())
        .collect();
    let four: Vec<WorkloadSpec> = PaperWorkload::all()
        .into_iter()
        .filter(|w| w.num_programs() == 4)
        .map(|w| w.spec())
        .collect();
    grouped(
        h,
        "Figure 9 — 2-programmed vs 4-programmed workloads",
        vec![("2-programmed".into(), two), ("4-programmed".into(), four)],
    )
}

// ---------------------------------------------------------------------
// §5 summary

/// The paper's closing aggregate over all 312 experiments.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `[wash, colab]` geomean H_ANTT normalized to Linux (lower better).
    pub antt_vs_linux: [f64; 2],
    /// `[wash, colab]` geomean H_STP normalized to Linux (higher better).
    pub stp_vs_linux: [f64; 2],
    /// COLAB H_ANTT normalized to WASH.
    pub colab_antt_vs_wash: f64,
    /// COLAB H_STP normalized to WASH.
    pub colab_stp_vs_wash: f64,
    /// Number of `(workload, config, scheduler)` simulations aggregated
    /// (each itself the average of two core-order runs).
    pub experiments: usize,
}

/// Aggregates all 26 workloads × 4 configurations × 3 schedulers.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn summary(h: &mut Harness) -> Result<Summary> {
    let mut wash_antt = Vec::new();
    let mut colab_antt = Vec::new();
    let mut wash_stp = Vec::new();
    let mut colab_stp = Vec::new();
    let mut experiments = 0;
    for workload in PaperWorkload::all() {
        let spec = workload.spec();
        for (big, little) in CONFIGS {
            let linux = h.mix(&spec, big, little, SchedulerKind::Linux)?;
            let wash = h.mix(&spec, big, little, SchedulerKind::Wash)?;
            let colab = h.mix(&spec, big, little, SchedulerKind::Colab)?;
            experiments += 3;
            wash_antt.push(wash.antt_vs(&linux));
            colab_antt.push(colab.antt_vs(&linux));
            wash_stp.push(wash.stp_vs(&linux));
            colab_stp.push(colab.stp_vs(&linux));
        }
    }
    Ok(Summary {
        antt_vs_linux: [geomean(&wash_antt), geomean(&colab_antt)],
        stp_vs_linux: [geomean(&wash_stp), geomean(&colab_stp)],
        colab_antt_vs_wash: geomean(&colab_antt) / geomean(&wash_antt),
        colab_stp_vs_wash: geomean(&colab_stp) / geomean(&wash_stp),
        experiments,
    })
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§5 summary over {} experiments:", self.experiments)?;
        writeln!(
            f,
            "  WASH  vs Linux: H_ANTT ×{:.3} ({:+.1}%), H_STP ×{:.3} ({:+.1}%)",
            self.antt_vs_linux[0],
            (self.antt_vs_linux[0] - 1.0) * 100.0,
            self.stp_vs_linux[0],
            (self.stp_vs_linux[0] - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "  COLAB vs Linux: H_ANTT ×{:.3} ({:+.1}%), H_STP ×{:.3} ({:+.1}%)",
            self.antt_vs_linux[1],
            (self.antt_vs_linux[1] - 1.0) * 100.0,
            self.stp_vs_linux[1],
            (self.stp_vs_linux[1] - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "  COLAB vs WASH : H_ANTT ×{:.3} ({:+.1}%), H_STP ×{:.3} ({:+.1}%)",
            self.colab_antt_vs_wash,
            (self.colab_antt_vs_wash - 1.0) * 100.0,
            self.colab_stp_vs_wash,
            (self.colab_stp_vs_wash - 1.0) * 100.0
        )
    }
}

// ---------------------------------------------------------------------
// Extensions beyond the paper: energy, and the quantified Table 1

/// One scheduler's row in the energy study.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Geomean total energy normalized to Linux (lower is better).
    pub energy_vs_linux: f64,
    /// Geomean energy-delay product normalized to Linux (lower better).
    pub edp_vs_linux: f64,
}

/// Energy study (extension): total energy and energy-delay product of
/// every policy over the 26 workloads on the 2B4S configuration — the
/// power-constrained scenario the paper's introduction motivates.
#[derive(Debug, Clone)]
pub struct EnergyStudy {
    /// One row per scheduler (Linux first, ratio 1.0 by construction).
    pub rows: Vec<EnergyRow>,
}

/// The energy study's machine, `(big, little)`.
pub(crate) const ENERGY_CONFIG: (usize, usize) = (2, 4);

/// Runs the energy study on the 2-big 4-little machine. Its cells are
/// the paper grid's and the quantified Table 1's 2B4S cells, so it reads
/// their memoized energy (evaluating any that are missing).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn energy(h: &mut Harness) -> Result<EnergyStudy> {
    memoized(h, |s| &mut s.energy, run_energy)
}

fn run_energy(h: &mut Harness) -> Result<EnergyStudy> {
    let specs: Vec<WorkloadSpec> = PaperWorkload::all().iter().map(|w| w.spec()).collect();
    let kinds = SchedulerKind::EXTENDED;

    // energy[k][w], edp[k][w]
    let mut energies = vec![Vec::new(); kinds.len()];
    let mut edps = vec![Vec::new(); kinds.len()];
    let (big, little) = ENERGY_CONFIG;
    for spec in &specs {
        for (ki, &kind) in kinds.iter().enumerate() {
            let cell = h.cell_energy(spec, big, little, kind)?;
            energies[ki].push(cell.joules);
            edps[ki].push(cell.edp);
        }
    }

    let rows = kinds
        .iter()
        .enumerate()
        .map(|(ki, kind)| {
            let ratios_e: Vec<f64> = energies[ki]
                .iter()
                .zip(&energies[0])
                .map(|(e, base)| e / base)
                .collect();
            let ratios_d: Vec<f64> = edps[ki]
                .iter()
                .zip(&edps[0])
                .map(|(d, base)| d / base)
                .collect();
            EnergyRow {
                scheduler: kind.name(),
                energy_vs_linux: geomean(&ratios_e),
                edp_vs_linux: geomean(&ratios_d),
            }
        })
        .collect();
    Ok(EnergyStudy { rows })
}

impl fmt::Display for EnergyStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Energy study (extension) — 26 workloads on 2B4S, normalized to Linux"
        )?;
        writeln!(f, "{:<8} {:>10} {:>10}", "policy", "energy", "EDP")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<8} {:>10.3} {:>10.3}",
                row.scheduler, row.energy_vs_linux, row.edp_vs_linux
            )?;
        }
        Ok(())
    }
}

/// Quantified Table 1 (extension): geomean H_ANTT/H_STP of GTS, WASH and
/// COLAB vs Linux over all 26 workloads × 4 configurations, turning the
/// paper's qualitative related-work table into measurements.
#[derive(Debug, Clone)]
pub struct Table1Quantified {
    /// `(scheduler, antt_vs_linux, stp_vs_linux)` rows.
    pub rows: Vec<(&'static str, f64, f64)>,
}

/// Runs the quantified Table 1 sweep.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn table1_quantified(h: &mut Harness) -> Result<Table1Quantified> {
    let kinds = [
        SchedulerKind::Gts,
        SchedulerKind::EqualProgress,
        SchedulerKind::Wash,
        SchedulerKind::Colab,
    ];
    let mut rows = Vec::new();
    for kind in kinds {
        let mut antt = Vec::new();
        let mut stp = Vec::new();
        for workload in PaperWorkload::all() {
            let spec = workload.spec();
            for (big, little) in CONFIGS {
                let linux = h.mix(&spec, big, little, SchedulerKind::Linux)?;
                let cell = h.mix(&spec, big, little, kind)?;
                antt.push(cell.antt_vs(&linux));
                stp.push(cell.stp_vs(&linux));
            }
        }
        rows.push((kind.name(), geomean(&antt), geomean(&stp)));
    }
    Ok(Table1Quantified { rows })
}

impl fmt::Display for Table1Quantified {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1, quantified (extension) — geomean vs Linux over all 312 cells"
        )?;
        writeln!(f, "{:<15} {:>10} {:>10}", "policy", "H_ANTT", "H_STP")?;
        for (name, antt, stp) in &self.rows {
            writeln!(f, "{name:<15} {antt:>10.3} {stp:>10.3}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Staggered arrivals (extension): the mix changes mid-run

/// One scheduler's result under staggered arrivals.
#[derive(Debug, Clone)]
pub struct StaggeredRow {
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Geomean per-app arrival-to-finish turnaround ratio vs Linux.
    pub turnaround_vs_linux: f64,
}

/// Staggered-arrival study: the paper launches every application at a
/// checkpoint; real multiprogramming sees programs arrive while others
/// run. Each 4-program Table 4 workload is re-run with its applications
/// arriving 40 ms apart, measuring arrival-to-finish turnaround — this
/// stresses online adaptation (labels and affinities must re-converge on
/// every arrival).
#[derive(Debug, Clone)]
pub struct Staggered {
    /// One row per scheduler (Linux first, 1.0 by construction).
    pub rows: Vec<StaggeredRow>,
}

/// Runs the staggered-arrival study on 2B4S.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn staggered(h: &mut Harness) -> Result<Staggered> {
    memoized(h, |s| &mut s.staggered, |h| run_staggered(h))
}

fn run_staggered(h: &Harness) -> Result<Staggered> {
    use amp_types::{CoreOrder, SimTime};

    let workloads: Vec<WorkloadSpec> = PaperWorkload::all()
        .into_iter()
        .filter(|w| w.num_programs() == 4)
        .map(|w| w.spec())
        .collect();
    let kinds = SchedulerKind::EXTENDED;
    let gap = SimTime::from_millis(40);

    let mut runs = Vec::new();
    for spec in &workloads {
        for &kind in &kinds {
            for order in CoreOrder::BOTH {
                runs.push((spec, kind, order));
            }
        }
    }
    // Per run, each app's arrival-to-finish turnaround in seconds.
    let per_run = run_all(h, &runs, |&(spec, kind, order)| {
        let machine = MachineConfig::asymmetric(2, 4, order);
        let arrivals = (0..spec.num_apps() as u64)
            .map(|i| SimTime::from_nanos(gap.as_nanos() * i))
            .collect();
        let config = h.config();
        let outcome = run_study(
            h,
            &machine,
            (spec, config.seed),
            config.sim_params,
            kind,
            |sim| sim.with_arrivals(arrivals),
        )?;
        Ok(turnaround_secs(&outcome))
    })?;

    // turnarounds[k][flattened app], summed over the core-order pair.
    let mut turnarounds = vec![Vec::new(); kinds.len()];
    for (i, orders) in per_run.chunks(CoreOrder::BOTH.len()).enumerate() {
        let mut per_app_sums = vec![0.0; orders[0].len()];
        for times in orders {
            for (sum, t) in per_app_sums.iter_mut().zip(times) {
                *sum += t;
            }
        }
        turnarounds[i % kinds.len()].extend(per_app_sums);
    }

    let rows = kinds
        .iter()
        .enumerate()
        .map(|(ki, kind)| {
            let ratios: Vec<f64> = turnarounds[ki]
                .iter()
                .zip(&turnarounds[0])
                .map(|(t, base)| t / base)
                .collect();
            StaggeredRow {
                scheduler: kind.name(),
                turnaround_vs_linux: geomean(&ratios),
            }
        })
        .collect();
    Ok(Staggered { rows })
}

impl fmt::Display for Staggered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Staggered arrivals (extension) — 4-program workloads, 40 ms apart, 2B4S"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<8} turnaround ×{:.3} vs Linux",
                row.scheduler, row.turnaround_vs_linux
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Asymmetry-degree sweep (extension): DVFS the little cluster

/// One point of the asymmetry sweep.
#[derive(Debug, Clone)]
pub struct FrequencyPoint {
    /// Little-cluster clock in GHz (big stays at 2.0).
    pub little_ghz: f64,
    /// Geomean per-app turnaround ratio COLAB/Linux (lower is better).
    pub colab_vs_linux: f64,
}

/// Asymmetry sweep: how much of the COLAB win comes from the machine
/// actually being asymmetric? Clocks the little cluster from deeply
/// asymmetric (0.6 GHz) to symmetric-performance (2.0 GHz at little-core
/// reference efficiency is still slower; 3.33 GHz would equalize) and
/// measures the scheduler win at each point over the Sync workloads.
#[derive(Debug, Clone)]
pub struct FrequencySweep {
    /// Sweep points in ascending clock order.
    pub points: Vec<FrequencyPoint>,
}

/// Runs the asymmetry sweep on a 2-big + 4-little machine shape.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn frequency_sweep(h: &mut Harness) -> Result<FrequencySweep> {
    memoized(h, |s| &mut s.frequency_sweep, |h| run_frequency_sweep(h))
}

fn run_frequency_sweep(h: &Harness) -> Result<FrequencySweep> {
    use amp_types::{CoreKind, CoreSpec};

    const LITTLE_GHZ: [f64; 5] = [0.6, 0.9, 1.2, 1.6, 2.0];
    let kinds = [SchedulerKind::Linux, SchedulerKind::Colab];
    let specs = class_specs(WorkloadClass::Sync);
    let machines: Vec<MachineConfig> = LITTLE_GHZ
        .iter()
        .map(|&little_ghz| {
            MachineConfig::from_cores(
                std::iter::repeat_n(CoreSpec::big(), 2)
                    .chain(std::iter::repeat_n(
                        CoreSpec {
                            kind: CoreKind::Little,
                            freq_ghz: little_ghz,
                        },
                        4,
                    ))
                    .collect(),
            )
        })
        .collect();

    let mut runs = Vec::new();
    for machine in &machines {
        for spec in &specs {
            for kind in kinds {
                runs.push((machine, spec, kind));
            }
        }
    }
    // Per run, each app's turnaround in seconds.
    let per_run = run_all(h, &runs, |&(machine, spec, kind)| {
        let config = h.config();
        let outcome = run_study(h, machine, (spec, config.seed), config.sim_params, kind, Ok)?;
        Ok(turnaround_secs(&outcome))
    })?;

    let per_point = specs.len() * kinds.len();
    let points = LITTLE_GHZ
        .iter()
        .zip(per_run.chunks(per_point))
        .map(|(&little_ghz, point)| {
            let mut ratios = Vec::new();
            for pair in point.chunks(kinds.len()) {
                let (linux, colab) = (&pair[0], &pair[1]);
                ratios.extend(colab.iter().zip(linux).map(|(c, l)| c / l));
            }
            FrequencyPoint {
                little_ghz,
                colab_vs_linux: geomean(&ratios),
            }
        })
        .collect();
    Ok(FrequencySweep { points })
}

impl fmt::Display for FrequencySweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Asymmetry sweep (extension) — COLAB/Linux turnaround on Sync workloads, \
             2 big + 4 little"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "  little @ {:>3.1} GHz  ×{:.3}",
                p.little_ghz, p.colab_vs_linux
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Automated shape check: the paper's headline claims as assertions

/// One checked claim.
#[derive(Debug, Clone)]
pub struct ShapeClaim {
    /// What the paper asserts (informally).
    pub claim: &'static str,
    /// The measured value.
    pub measured: f64,
    /// The bound it must satisfy (described in `claim`).
    pub bound: f64,
    /// Whether the claim held.
    pub pass: bool,
}

/// Result of the automated shape check.
#[derive(Debug, Clone)]
pub struct ShapeReport {
    /// All claims, in presentation order.
    pub claims: Vec<ShapeClaim>,
}

impl ShapeReport {
    /// Whether every claim held.
    pub fn all_pass(&self) -> bool {
        self.claims.iter().all(|c| c.pass)
    }
}

/// Checks the paper's headline *shapes* against the current measurement
/// (who wins, where, and the crossovers) and reports pass/fail per claim.
/// `repro --check` exits non-zero if any fails — a regression harness for
/// the whole reproduction.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn shape_check(h: &mut Harness) -> Result<ShapeReport> {
    let mut claims = Vec::new();
    let mut check_lt = |claim: &'static str, measured: f64, bound: f64| {
        claims.push(ShapeClaim {
            claim,
            measured,
            bound,
            pass: measured < bound,
        });
    };

    let s = summary(h)?;
    check_lt(
        "COLAB improves H_ANTT vs Linux over all 312 cells (< 0.98)",
        s.antt_vs_linux[1],
        0.98,
    );
    check_lt(
        "COLAB improves H_ANTT vs WASH over all 312 cells (< 1.00)",
        s.colab_antt_vs_wash,
        1.00,
    );
    check_lt(
        "COLAB improves H_STP vs Linux (reciprocal < 0.98)",
        1.0 / s.stp_vs_linux[1],
        0.98,
    );

    let fig4 = figure4(h)?;
    check_lt(
        "single-program geomean: WASH beats Linux (ratio < 0.95)",
        fig4.geomean[1] / fig4.geomean[0],
        0.95,
    );
    check_lt(
        "single-program geomean: COLAB beats Linux (ratio < 0.95)",
        fig4.geomean[2] / fig4.geomean[0],
        0.95,
    );
    let ferret = fig4
        .rows
        .iter()
        .find(|r| r.benchmark == BenchmarkId::Ferret)
        .expect("figure 4 contains ferret");
    check_lt(
        "ferret is the showcase single-program win (COLAB/Linux < 0.8)",
        ferret.h_ntt[2] / ferret.h_ntt[0],
        0.8,
    );

    let fig5 = figure5(h)?;
    let sync = &fig5.groups[0].geomean;
    check_lt(
        "sync-intensive: COLAB beats WASH (ANTT ratio < 1.0)",
        sync.colab_antt / sync.wash_antt,
        1.0,
    );

    let fig8 = figure8(h)?;
    let low = &fig8.groups[0].geomean;
    let high = &fig8.groups[1].geomean;
    check_lt(
        "thread-low is COLAB's biggest win (vs Linux < 0.90)",
        low.colab_antt,
        0.90,
    );
    check_lt(
        "thread-low: COLAB beats WASH (ratio < 1.0)",
        low.colab_antt / low.wash_antt,
        1.0,
    );
    check_lt(
        "thread-high: WASH edges out COLAB (WASH/COLAB < 1.0)",
        high.wash_antt / high.colab_antt,
        1.0,
    );
    check_lt(
        "thread-high: neither policy helps much (COLAB within 8% of Linux)",
        (high.colab_antt - 1.0).abs(),
        0.08,
    );

    let t1 = table1_quantified(h)?;
    let antt_of = |name: &str| {
        t1.rows
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, a, _)| a)
            .expect("table 1 row exists")
    };
    check_lt(
        "GTS (affinity-only load average) loses to COLAB (ratio < 1.0)",
        antt_of("colab") / antt_of("gts"),
        1.0,
    );

    Ok(ShapeReport { claims })
}

impl fmt::Display for ShapeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Shape check — the paper's headline claims:")?;
        for c in &self.claims {
            writeln!(
                f,
                "  [{}] {:<62} measured {:.3} (bound {:.3})",
                if c.pass { "PASS" } else { "FAIL" },
                c.claim,
                c.measured,
                c.bound
            )?;
        }
        writeln!(
            f,
            "{} of {} claims hold",
            self.claims.iter().filter(|c| c.pass).count(),
            self.claims.len()
        )
    }
}

// ---------------------------------------------------------------------
// Fairness study (extension): §3's third factor, measured directly

/// Fairness measurements for one scheduler.
#[derive(Debug, Clone)]
pub struct FairnessRow {
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Geomean Jain's index over all multiprogrammed cells (1.0 = fair).
    pub jains_index: f64,
    /// Geomean worst/best per-app slowdown spread (1.0 = even).
    pub slowdown_spread: f64,
}

/// Fairness study: the paper argues COLAB preserves per-application
/// fairness while accelerating bottlenecks; this measures it with Jain's
/// index and the slowdown spread over every multiprogrammed cell of the
/// sweep (re-using the memoized runs).
#[derive(Debug, Clone)]
pub struct FairnessStudy {
    /// One row per scheduler.
    pub rows: Vec<FairnessRow>,
}

/// Runs (or reads from cache) the fairness study.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fairness(h: &mut Harness) -> Result<FairnessStudy> {
    let mut rows = Vec::new();
    for kind in SchedulerKind::ALL {
        let mut jain = Vec::new();
        let mut spread = Vec::new();
        for workload in PaperWorkload::all() {
            let spec = workload.spec();
            for (big, little) in CONFIGS {
                let cell = h.mix(&spec, big, little, kind)?;
                let pairs: Vec<_> = cell.apps.iter().map(|&(_, m, b)| (m, b)).collect();
                jain.push(amp_metrics::jains_index(&pairs));
                spread.push(amp_metrics::slowdown_spread(&pairs));
            }
        }
        rows.push(FairnessRow {
            scheduler: kind.name(),
            jains_index: geomean(&jain),
            slowdown_spread: geomean(&spread),
        });
    }
    Ok(FairnessStudy { rows })
}

impl fmt::Display for FairnessStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fairness study (extension) — all multiprogrammed cells"
        )?;
        writeln!(
            f,
            "{:<8} {:>12} {:>16}",
            "policy", "Jain index", "slowdown spread"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<8} {:>12.3} {:>16.3}",
                row.scheduler, row.jains_index, row.slowdown_spread
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Sensitivity of the COLAB win to simulator parameters (extension)

/// One parameter variant of the sensitivity study.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Which knob and value, e.g. `"migration ×4"`.
    pub variant: String,
    /// Geomean per-app turnaround ratio COLAB/Linux (lower is better;
    /// baselines cancel, so no `T_SB` runs are needed).
    pub colab_vs_linux: f64,
}

/// Sensitivity study: does COLAB's advantage survive harsher or milder
/// machine assumptions? Varies migration costs and the scheduler tick
/// over the Sync workloads on 2B4S.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// The configured parameters first (the "defaults" row), then each
    /// variant of them.
    pub rows: Vec<SensitivityRow>,
}

/// Runs the sensitivity sweep.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn sensitivity(h: &mut Harness) -> Result<Sensitivity> {
    memoized(h, |s| &mut s.sensitivity, |h| run_sensitivity(h))
}

fn run_sensitivity(h: &Harness) -> Result<Sensitivity> {
    use amp_types::{CoreOrder, SimDuration};

    let base = h.config().sim_params;
    let variants: Vec<(String, SimParams)> = vec![
        ("defaults".into(), base),
        (
            "migration ×0".into(),
            SimParams {
                migration_same_kind: SimDuration::ZERO,
                migration_cross_kind: SimDuration::ZERO,
                context_switch: SimDuration::ZERO,
                ..base
            },
        ),
        (
            "migration ×4".into(),
            SimParams {
                migration_same_kind: base.migration_same_kind * 4,
                migration_cross_kind: base.migration_cross_kind * 4,
                ..base
            },
        ),
        (
            "tick 5ms".into(),
            SimParams {
                tick: SimDuration::from_millis(5),
                ..base
            },
        ),
        (
            "tick 40ms".into(),
            SimParams {
                tick: SimDuration::from_millis(40),
                ..base
            },
        ),
    ];

    let specs = class_specs(WorkloadClass::Sync);
    let kinds = [SchedulerKind::Linux, SchedulerKind::Colab];
    let mut runs = Vec::new();
    for (_, params) in &variants {
        for spec in &specs {
            for order in CoreOrder::BOTH {
                for kind in kinds {
                    runs.push((*params, spec, order, kind));
                }
            }
        }
    }
    // Per run, each app's turnaround in seconds.
    let per_run = run_all(h, &runs, |&(params, spec, order, kind)| {
        let machine = MachineConfig::asymmetric(2, 4, order);
        let outcome = run_study(h, &machine, (spec, h.config().seed), params, kind, Ok)?;
        Ok(turnaround_secs(&outcome))
    })?;

    let per_spec = CoreOrder::BOTH.len() * kinds.len();
    let per_variant = specs.len() * per_spec;
    let rows = variants
        .into_iter()
        .zip(per_run.chunks(per_variant))
        .map(|((label, _), variant_runs)| {
            let mut ratios = Vec::new();
            for (spec, spec_runs) in specs.iter().zip(variant_runs.chunks(per_spec)) {
                // Average each app's turnaround over both core orders, per
                // scheduler, then take per-app ratios.
                let mut linux_t = vec![0.0f64; spec.num_apps()];
                let mut colab_t = vec![0.0f64; spec.num_apps()];
                for pair in spec_runs.chunks(kinds.len()) {
                    for (acc, times) in [&mut linux_t, &mut colab_t].into_iter().zip(pair) {
                        for (a, t) in acc.iter_mut().zip(times) {
                            *a += t;
                        }
                    }
                }
                for (c, l) in colab_t.iter().zip(&linux_t) {
                    ratios.push(c / l);
                }
            }
            SensitivityRow {
                variant: label,
                colab_vs_linux: geomean(&ratios),
            }
        })
        .collect();
    Ok(Sensitivity { rows })
}

impl fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Sensitivity (extension) — COLAB/Linux turnaround on Sync workloads, 2B4S"
        )?;
        for row in &self.rows {
            writeln!(f, "  {:<16} ×{:.3}", row.variant, row.colab_vs_linux)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Ablation of COLAB's three collaborating mechanisms

/// One row of the ablation study: a COLAB variant's geomean H_ANTT
/// normalized to Linux over the sync-intensive workloads.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Geomean H_ANTT vs Linux (lower is better).
    pub antt_vs_linux: f64,
}

/// The ablation study (DESIGN.md §6): toggles each of COLAB's mechanisms
/// — hierarchical allocation, max-blocking selection, scale-slice — off
/// one at a time over the sync-intensive workloads on all configurations,
/// showing that the *coordination* of factors, not any single heuristic,
/// provides the benefit.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Full COLAB first, then each mechanism removed.
    pub rows: Vec<AblationRow>,
}

/// Runs the ablation study. The full-COLAB row is the memoized COLAB
/// cells against the memoized Linux cells; each reduced variant runs
/// every cell's protocol (both core orders, every replication, the
/// configured simulator parameters) against the Linux cells' baselines.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ablation(h: &mut Harness) -> Result<Ablation> {
    memoized(h, |s| &mut s.ablation, run_ablation)
}

fn run_ablation(h: &mut Harness) -> Result<Ablation> {
    use amp_sched::{ColabConfig, ColabScheduler, Scheduler};

    use crate::harness::{run_cell, EvalCtx};

    let reduced: [(&str, ColabConfig); 3] = [
        (
            "− hierarchical allocation",
            ColabConfig::default().without_allocation(),
        ),
        (
            "− blocking selection",
            ColabConfig::default().without_blocking_selection(),
        ),
        ("− scale-slice", ColabConfig::default().without_scale_slice()),
    ];

    let specs = class_specs(WorkloadClass::Sync);
    let mut linux_cells = Vec::new();
    let mut full = Vec::new();
    for spec in &specs {
        for (big, little) in CONFIGS {
            let linux = h.mix(spec, big, little, SchedulerKind::Linux)?;
            let colab = h.mix(spec, big, little, SchedulerKind::Colab)?;
            full.push(colab.h_antt / linux.h_antt);
            linux_cells.push((spec, (big, little), linux));
        }
    }
    let mut rows = vec![AblationRow {
        variant: "full COLAB".to_string(),
        antt_vs_linux: geomean(&full),
    }];

    let mut runs = Vec::new();
    for (_, config) in &reduced {
        for cell in &linux_cells {
            runs.push((*config, cell));
        }
    }
    // The variants only read the harness from here on.
    let h: &Harness = h;
    let ctx = EvalCtx {
        config: h.config(),
        store: &h.programs,
    };
    let ratios = run_all(h, &runs, |&(config, (spec, shape, linux))| {
        let t_sb: Vec<_> = linux.apps.iter().map(|&(_, _, sb)| sb).collect();
        let create = |machine: &MachineConfig| -> Box<dyn Scheduler> {
            Box::new(ColabScheduler::with_config(
                machine,
                h.model().clone(),
                config,
            ))
        };
        let variant = run_cell(&ctx, &t_sb, spec, *shape, "colab", &create, None)?;
        Ok(variant.summary.h_antt / linux.h_antt)
    })?;
    for ((label, _), ratios) in reduced.iter().zip(ratios.chunks(linux_cells.len())) {
        rows.push(AblationRow {
            variant: label.to_string(),
            antt_vs_linux: geomean(ratios),
        });
    }
    Ok(Ablation { rows })
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — COLAB variants on Sync workloads (H_ANTT vs Linux; lower is better)"
        )?;
        for row in &self.rows {
            writeln!(f, "  {:<28} ×{:.3}", row.variant, row.antt_vs_linux)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fault-injection study (extension): dynamic machines

/// One row of the fault study: one scheduler at one fault intensity,
/// aggregated over seeds.
#[derive(Debug, Clone)]
pub struct FaultsRow {
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Fault-plan intensity (expected faults per core).
    pub intensity: f64,
    /// Mean fault events injected per run.
    pub faults_injected: f64,
    /// Mean forced migrations (hotplug/throttle evictions) per run.
    pub forced_migrations: f64,
    /// Mean core-seconds lost to offline cores per run.
    pub offline_core_seconds: f64,
    /// Geomean of clean/faulted makespan ratio (1.0 = unharmed).
    pub throughput_retained: f64,
    /// Geomean of clean/faulted mean-turnaround ratio (1.0 = unharmed).
    pub antt_retained: f64,
}

/// Fault-injection study: seeded hotplug/DVFS/PMU fault plans replayed
/// against each scheduler, measuring how much throughput and turnaround
/// survive relative to the same scheduler on the fault-free machine.
#[derive(Debug, Clone)]
pub struct FaultsStudy {
    /// Workload used for every cell.
    pub workload: String,
    /// Rows ordered by intensity then scheduler (`SchedulerKind::ALL`).
    pub rows: Vec<FaultsRow>,
}

/// Runs the fault study on 2B2S: for each seed, a clean baseline run per
/// scheduler plus one faulted run per intensity. The plan window is taken
/// from the clean Linux makespan, and plans depend only on
/// `(machine, seed, intensity, window)`, so every scheduler replays the
/// *same* disturbance sequence — the comparison isolates policy response.
///
/// # Errors
///
/// Propagates simulation failures and invalid fault plans.
pub fn faults(h: &mut Harness) -> Result<FaultsStudy> {
    memoized(h, |s| &mut s.faults, |h| run_faults(h))
}

fn run_faults(h: &Harness) -> Result<FaultsStudy> {
    use amp_sim::{DegradationReport, FaultPlan};
    use amp_types::{CoreOrder, SimDuration};

    const INTENSITIES: [f64; 3] = [0.5, 1.0, 2.0];
    const SEEDS: [u64; 3] = [11, 12, 13];

    let machine = MachineConfig::asymmetric(2, 2, CoreOrder::BigFirst);
    let spec = PaperWorkload::all()
        .into_iter()
        .find(|w| w.num_programs() == 4)
        .map(|w| w.spec())
        .unwrap_or_else(|| WorkloadSpec::single(BenchmarkId::Ferret, 6));
    let workload = spec.name().to_string();

    let run = |kind: SchedulerKind, seed: u64, plan: FaultPlan| {
        run_study(
            h,
            &machine,
            (&spec, seed),
            h.config().sim_params,
            kind,
            |sim| sim.with_fault_plan(plan),
        )
    };

    // Clean baselines, one per (seed, scheduler); the Linux makespan also
    // bounds the fault window so plans cover the whole run.
    let kinds = SchedulerKind::ALL;
    let mut clean_runs = Vec::new();
    for &seed in &SEEDS {
        for (ki, &kind) in kinds.iter().enumerate() {
            clean_runs.push((ki, kind, seed));
        }
    }
    let clean_outcomes = run_all(h, &clean_runs, |&(_, kind, seed)| {
        run(kind, seed, FaultPlan::empty())
    })?;
    let mut clean = vec![Vec::new(); kinds.len()];
    let mut windows = Vec::new();
    for (&(ki, _, _), outcome) in clean_runs.iter().zip(clean_outcomes) {
        if ki == 0 {
            windows.push(SimDuration::from_nanos(outcome.makespan.as_nanos()));
        }
        clean[ki].push(outcome);
    }

    // Faulted runs: every scheduler replays each seed's plan.
    let mut faulted_runs = Vec::new();
    for &intensity in &INTENSITIES {
        for (ki, &kind) in kinds.iter().enumerate() {
            for (si, &seed) in SEEDS.iter().enumerate() {
                faulted_runs.push((intensity, ki, kind, si, seed));
            }
        }
    }
    let faulted = run_all(h, &faulted_runs, |&(intensity, ki, kind, si, seed)| {
        let plan = FaultPlan::random(&machine, seed, intensity, windows[si]);
        let outcome = run(kind, seed, plan)?;
        let clean = &clean[ki][si];
        let stp = DegradationReport::throughput_retained(clean, &outcome);
        let antt = DegradationReport::antt_retained(clean, &outcome);
        Ok((outcome.degradation, stp, antt))
    })?;

    let rows = faulted_runs
        .chunks(SEEDS.len())
        .zip(faulted.chunks(SEEDS.len()))
        .map(|(cell, per_seed)| {
            let (intensity, _, kind, _, _) = cell[0];
            let mut faults_injected = 0.0;
            let mut forced = 0.0;
            let mut offline_s = 0.0;
            let mut stp = Vec::new();
            let mut antt = Vec::new();
            for (d, stp_retained, antt_retained) in per_seed {
                faults_injected += d.faults_injected as f64;
                forced += d.forced_migrations as f64;
                offline_s += d.offline_core_time.as_secs_f64();
                stp.push(*stp_retained);
                antt.push(*antt_retained);
            }
            let n = SEEDS.len() as f64;
            FaultsRow {
                scheduler: kind.name(),
                intensity,
                faults_injected: faults_injected / n,
                forced_migrations: forced / n,
                offline_core_seconds: offline_s / n,
                throughput_retained: geomean(&stp),
                antt_retained: geomean(&antt),
            }
        })
        .collect();
    Ok(FaultsStudy { workload, rows })
}

impl fmt::Display for FaultsStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fault injection (extension) — {} on 2B2S, seeded hotplug/DVFS/PMU faults",
            self.workload
        )?;
        writeln!(
            f,
            "  {:<8} {:>9} {:>7} {:>12} {:>10} {:>8} {:>9}",
            "sched", "intensity", "faults", "forced-migr", "offline-s", "STP-ret", "ANTT-ret"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<8} {:>9.1} {:>7.1} {:>12.1} {:>10.3} {:>8.3} {:>9.3}",
                row.scheduler,
                row.intensity,
                row.faults_injected,
                row.forced_migrations,
                row.offline_core_seconds,
                row.throughput_retained,
                row.antt_retained
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Tables

/// Table 2: the trained model's selected counters and formula.
pub fn table2(h: &Harness) -> String {
    format!(
        "Table 2 — PCA-selected counters and speedup model\n{}",
        h.model().table2_string()
    )
}

/// Table 3: benchmark categorisation, as encoded in the workload models.
pub fn table3() -> String {
    let mut out =
        String::from("Table 3 — benchmark categorisation\nname              sync rate   comm/comp\n");
    for bench in BenchmarkId::ALL {
        let info = bench.info();
        out.push_str(&format!(
            "{:<17} {:<11} {}\n",
            info.name, info.sync_rate, info.comm_comp
        ));
    }
    out
}

/// Table 4: the 26 multiprogrammed workload compositions.
pub fn table4() -> String {
    let mut out = String::from("Table 4 — multiprogrammed workload compositions\n");
    for w in PaperWorkload::all() {
        let comp: Vec<String> = w
            .composition()
            .iter()
            .map(|(b, n)| format!("{}({n})", b.name()))
            .collect();
        out.push_str(&format!(
            "{:<9} threads={:<3} {}\n",
            w.name(),
            w.paper_thread_total(),
            comp.join(" - ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ExperimentConfig;

    #[test]
    fn tables_3_and_4_render() {
        let t3 = table3();
        assert!(t3.contains("fluidanimate"));
        assert!(t3.contains("very high"));
        let t4 = table4();
        assert!(t4.contains("Sync-2"));
        assert!(t4.contains("threads=55"));
    }

    #[test]
    fn figure4_runs_at_quick_scale() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        let fig = figure4(&mut h).unwrap();
        assert_eq!(fig.rows.len(), 12);
        for row in &fig.rows {
            for v in row.h_ntt {
                assert!(v > 0.9 && v < 20.0, "{}: H_NTT {v}", row.benchmark);
            }
        }
        let rendered = fig.to_string();
        assert!(rendered.contains("geomean"));
    }

    #[test]
    fn each_study_runs_once_per_harness() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        faults(&mut h).unwrap();
        // Mark the memoized result: the second call must return it
        // instead of running the study again.
        h.studies.faults.as_mut().unwrap().workload = "memoized".into();
        assert_eq!(faults(&mut h).unwrap().workload, "memoized");
    }

    #[test]
    fn grouped_figure_runs_on_a_small_group() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        let fig = grouped(
            &mut h,
            "test",
            vec![(
                "tiny".into(),
                vec![PaperWorkload::new(WorkloadClass::Sync, 1).spec()],
            )],
        )
        .unwrap();
        assert_eq!(fig.groups.len(), 1);
        assert_eq!(fig.groups[0].cells.len(), 4);
        for cell in &fig.groups[0].cells {
            assert!(cell.colab_antt > 0.2 && cell.colab_antt < 5.0);
        }
    }
}
