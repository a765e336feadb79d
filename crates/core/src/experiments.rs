//! Regenerators for every figure and table of the paper's evaluation.
//!
//! Figures 5–9 plot, for groups of workloads, the geometric-mean H_ANTT
//! and H_STP of WASH and COLAB normalized to Linux CFS, per hardware
//! configuration plus an overall geomean — [`grouped`] produces exactly
//! that shape, and each `figure*` function supplies the paper's grouping.
//! All figures share the same memoized 312-cell sweep inside [`Harness`].
//!
//! Every extension study is a grid of [`SweepCell`]s too: it builds a
//! plan, runs it through [`Harness::run_plan`] on the harness's worker
//! count (run sets already memoized, like the energy study's, cost a
//! lookup), and reduces the memoized run records in its own enumeration
//! order, so the output does not depend on the worker count.

use std::fmt;

use amp_metrics::geomean;
use amp_sched::ColabConfig;
use amp_sim::SimParams;
use amp_types::{Result, SimDuration, SimTime};
use amp_workloads::{BenchmarkId, PaperWorkload, WorkloadClass, WorkloadSpec};

use crate::harness::{Harness, RunRecord, SchedulerKind};
use crate::sweep::{Protocol, RandomFaults, SweepCell, SweepPlan};

/// The four hardware configurations of the evaluation, `(big, little)`.
pub const CONFIGS: [(usize, usize); 4] = [(2, 2), (2, 4), (4, 2), (4, 4)];

/// Runs a study's `cells` as one plan on the harness's workers and
/// returns each cell's memoized runs (in core order), in the order
/// given.
fn run_cells<'h>(h: &'h mut Harness, cells: &[SweepCell]) -> Result<Vec<&'h [RunRecord]>> {
    let plan: SweepPlan = cells.iter().cloned().collect();
    h.run_plan(&plan, h.jobs())?;
    let h: &'h Harness = h;
    Ok(cells
        .iter()
        .map(|cell| h.cells[&cell.run_set(h.config()).key].runs.as_slice())
        .collect())
}

/// A cell under `protocol`.
fn study_cell(
    spec: &WorkloadSpec,
    (big, little): (usize, usize),
    kind: SchedulerKind,
    protocol: Protocol,
) -> SweepCell {
    SweepCell {
        protocol,
        ..SweepCell::new(spec.clone(), big, little, kind)
    }
}

/// The Linux and COLAB cells of every Sync workload on 2B4S, under each
/// of `protocols` in turn.
fn sync_pairs(protocols: impl IntoIterator<Item = Protocol>) -> Vec<SweepCell> {
    let specs = class_specs(WorkloadClass::Sync);
    let mut cells = Vec::new();
    for protocol in protocols {
        for spec in &specs {
            for kind in [SchedulerKind::Linux, SchedulerKind::Colab] {
                cells.push(study_cell(spec, (2, 4), kind, protocol));
            }
        }
    }
    cells
}

/// Geomean per-app COLAB/Linux turnaround over Linux/COLAB cell pairs,
/// each app's turnaround summed over its cell's runs.
fn colab_vs_linux(pairs: &[&[RunRecord]]) -> f64 {
    let mut ratios = Vec::new();
    for pair in pairs.chunks(2) {
        let (linux, colab) = (turnaround_secs(pair[0]), turnaround_secs(pair[1]));
        ratios.extend(colab.iter().zip(&linux).map(|(c, l)| c / l));
    }
    geomean(&ratios)
}

/// Geomean of `per_kind[k]` over `per_kind[0]`, element by element.
fn geomean_vs_first(per_kind: &[Vec<f64>], k: usize) -> f64 {
    let ratios: Vec<f64> = per_kind[k]
        .iter()
        .zip(&per_kind[0])
        .map(|(x, base)| x / base)
        .collect();
    geomean(&ratios)
}

/// Each app's turnaround in seconds, summed over a cell's runs in run
/// order.
fn turnaround_secs(runs: &[RunRecord]) -> Vec<f64> {
    let mut sums = vec![0.0; runs[0].turnarounds.len()];
    for run in runs {
        for (sum, t) in sums.iter_mut().zip(&run.turnarounds) {
            *sum += t.as_secs_f64();
        }
    }
    sums
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
        rows.push(Fig4Row {
            benchmark: bench,
            h_ntt,
        });
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
        writeln!(
            f,
            "{:<16} {:>8} {:>8} {:>8}",
            "benchmark", "LINUX", "WASH", "COLAB"
        )?;
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
        let geo = |get: fn(&ConfigCell) -> f64| geomean(&cells.iter().map(get).collect::<Vec<_>>());
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
fn class_specs(class: WorkloadClass) -> Vec<WorkloadSpec> {
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
const ENERGY_CONFIG: (usize, usize) = (2, 4);

/// Runs the energy study on the 2-big 4-little machine. Its cells are
/// the paper grid's and the quantified Table 1's 2B4S cells, so after
/// those it reads their memoized runs. Each cell's energy and EDP are
/// averaged over its runs, summed in run order.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn energy(h: &mut Harness) -> Result<EnergyStudy> {
    let kinds = SchedulerKind::EXTENDED;
    let (big, little) = ENERGY_CONFIG;
    let cells: Vec<SweepCell> = PaperWorkload::all()
        .iter()
        .flat_map(|w| kinds.map(|kind| SweepCell::new(w.spec(), big, little, kind)))
        .collect();
    let outcomes = run_cells(h, &cells)?;

    // energy[k][w], edp[k][w]
    let mut energies = vec![Vec::new(); kinds.len()];
    let mut edps = vec![Vec::new(); kinds.len()];
    for per_spec in outcomes.chunks(kinds.len()) {
        for (ki, runs) in per_spec.iter().enumerate() {
            let mean = |of: fn(&RunRecord) -> f64| {
                runs.iter().fold(0.0, |sum, run| sum + of(run)) / runs.len() as f64
            };
            energies[ki].push(mean(|run| run.joules));
            edps[ki].push(mean(|run| run.edp));
        }
    }

    let rows = kinds
        .iter()
        .enumerate()
        .map(|(ki, kind)| EnergyRow {
            scheduler: kind.name(),
            energy_vs_linux: geomean_vs_first(&energies, ki),
            edp_vs_linux: geomean_vs_first(&edps, ki),
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
    let kinds = SchedulerKind::EXTENDED;
    let protocol = Protocol {
        arrival_gap: SimDuration::from_millis(40),
        ..Protocol::default()
    };
    let cells: Vec<SweepCell> = PaperWorkload::all()
        .into_iter()
        .filter(|w| w.num_programs() == 4)
        .flat_map(|w| {
            let spec = w.spec();
            kinds.map(|kind| study_cell(&spec, (2, 4), kind, protocol))
        })
        .collect();
    let outcomes = run_cells(h, &cells)?;

    // turnarounds[k][flattened app], summed over the core-order pair.
    let mut turnarounds = vec![Vec::new(); kinds.len()];
    for (i, runs) in outcomes.iter().enumerate() {
        turnarounds[i % kinds.len()].extend(turnaround_secs(runs));
    }

    let rows = kinds
        .iter()
        .enumerate()
        .map(|(ki, kind)| StaggeredRow {
            scheduler: kind.name(),
            turnaround_vs_linux: geomean_vs_first(&turnarounds, ki),
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

/// Runs the asymmetry sweep on a 2-big + 4-little machine shape, big
/// cores first.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn frequency_sweep(h: &mut Harness) -> Result<FrequencySweep> {
    const LITTLE_GHZ: [f64; 5] = [0.6, 0.9, 1.2, 1.6, 2.0];
    let protocols = LITTLE_GHZ.map(|little_ghz| Protocol {
        little_ghz,
        big_first_only: true,
        ..Protocol::default()
    });
    let cells = sync_pairs(protocols);
    let outcomes = run_cells(h, &cells)?;

    let points = LITTLE_GHZ
        .iter()
        .zip(outcomes.chunks(cells.len() / LITTLE_GHZ.len()))
        .map(|(&little_ghz, point)| FrequencyPoint {
            little_ghz,
            colab_vs_linux: colab_vs_linux(point),
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
        writeln!(f, "Fairness study (extension) — all multiprogrammed cells")?;
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

    let protocols = variants.iter().map(|&(_, params)| Protocol {
        params: Some(params),
        ..Protocol::default()
    });
    let cells = sync_pairs(protocols);
    let outcomes = run_cells(h, &cells)?;

    let per_variant = cells.len() / variants.len();
    let rows = variants
        .into_iter()
        .zip(outcomes.chunks(per_variant))
        .map(|((variant, _), pairs)| SensitivityRow {
            variant,
            colab_vs_linux: colab_vs_linux(pairs),
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

/// Runs the ablation study. The full-COLAB row is the paper's COLAB
/// cells against its Linux cells; each reduced variant is a COLAB cell
/// of the same protocol (both core orders, the harness's seed, the
/// configured simulator parameters) with one mechanism switched off,
/// read against the same Linux cells.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ablation(h: &mut Harness) -> Result<Ablation> {
    let reduced: [(&str, ColabConfig); 3] = [
        (
            "− hierarchical allocation",
            ColabConfig::default().without_allocation(),
        ),
        (
            "− blocking selection",
            ColabConfig::default().without_blocking_selection(),
        ),
        (
            "− scale-slice",
            ColabConfig::default().without_scale_slice(),
        ),
    ];

    let specs = class_specs(WorkloadClass::Sync);
    let shapes: Vec<(&WorkloadSpec, usize, usize)> = specs
        .iter()
        .flat_map(|spec| CONFIGS.map(|(big, little)| (spec, big, little)))
        .collect();
    let mut cells = Vec::new();
    for &(spec, big, little) in &shapes {
        for kind in [SchedulerKind::Linux, SchedulerKind::Colab] {
            cells.push(SweepCell::new(spec.clone(), big, little, kind));
        }
    }
    for (_, colab) in &reduced {
        for &(spec, big, little) in &shapes {
            cells.push(SweepCell {
                colab: *colab,
                ..SweepCell::new(spec.clone(), big, little, SchedulerKind::Colab)
            });
        }
    }
    run_cells(h, &cells)?;
    let h_antt: Vec<f64> = cells
        .iter()
        .map(|cell| h.summary(cell).expect("run_plan memoized the cell").h_antt)
        .collect();

    let (paper, variants) = h_antt.split_at(2 * shapes.len());
    let linux: Vec<f64> = paper.iter().step_by(2).copied().collect();
    let full: Vec<f64> = paper.chunks(2).map(|pair| pair[1] / pair[0]).collect();
    let mut rows = vec![AblationRow {
        variant: "full COLAB".to_string(),
        antt_vs_linux: geomean(&full),
    }];
    for ((label, _), variant) in reduced.iter().zip(variants.chunks(shapes.len())) {
        let ratios: Vec<f64> = variant
            .iter()
            .zip(&linux)
            .map(|(colab, linux)| colab / linux)
            .collect();
        rows.push(AblationRow {
            variant: label.to_string(),
            antt_vs_linux: geomean(&ratios),
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

/// Throughput retained by `faulted` relative to the fault-free run
/// `clean`: `clean.makespan / faulted.makespan`, 1.0 when unharmed,
/// smaller as faults stretch the run.
fn throughput_retained(clean: &RunRecord, faulted: &RunRecord) -> f64 {
    if faulted.makespan == SimTime::ZERO {
        return 1.0;
    }
    clean.makespan.as_secs_f64() / faulted.makespan.as_secs_f64()
}

/// Mean-turnaround retained by `faulted` relative to `clean`: the ratio
/// of average per-app turnarounds (clean / faulted), the ANTT-shaped
/// degradation signal of the fault study.
fn antt_retained(clean: &RunRecord, faulted: &RunRecord) -> f64 {
    let mean = |run: &RunRecord| {
        if run.turnarounds.is_empty() {
            return 0.0;
        }
        run.turnarounds.iter().map(|t| t.as_secs_f64()).sum::<f64>() / run.turnarounds.len() as f64
    };
    let (c, f) = (mean(clean), mean(faulted));
    if f <= 0.0 {
        1.0
    } else {
        c / f
    }
}

/// Runs the fault study on 2B2S, big cores first: for each seed, a
/// clean baseline run per scheduler plus one faulted run per intensity.
/// The plan window is taken from the clean Linux makespan, and plans
/// depend only on `(machine, seed, intensity, window)`, so every
/// scheduler replays the *same* disturbance sequence — the comparison
/// isolates policy response. Two plans: the clean runs, whose Linux
/// makespans set the windows, then the faulted runs.
///
/// # Errors
///
/// Propagates simulation failures and invalid fault plans.
pub fn faults(h: &mut Harness) -> Result<FaultsStudy> {
    const INTENSITIES: [f64; 3] = [0.5, 1.0, 2.0];
    const SEEDS: [u64; 3] = [11, 12, 13];

    let spec = PaperWorkload::all()
        .into_iter()
        .find(|w| w.num_programs() == 4)
        .map(|w| w.spec())
        .unwrap_or_else(|| WorkloadSpec::single(BenchmarkId::Ferret, 6));
    let workload = spec.name().to_string();
    let kinds = SchedulerKind::ALL;
    let cell = |kind: SchedulerKind, seed: u64, faults: Option<RandomFaults>| {
        let protocol = Protocol {
            seed: Some(seed),
            big_first_only: true,
            faults,
            ..Protocol::default()
        };
        study_cell(&spec, (2, 2), kind, protocol)
    };

    // Clean runs, one per (seed, scheduler); the Linux makespan bounds
    // the fault window so plans cover the whole run.
    let clean_cells: Vec<SweepCell> = SEEDS
        .iter()
        .flat_map(|&seed| kinds.map(|kind| cell(kind, seed, None)))
        .collect();
    let windows: Vec<SimDuration> = run_cells(h, &clean_cells)?
        .chunks(kinds.len())
        .map(|per_kind| SimDuration::from_nanos(per_kind[0][0].makespan.as_nanos()))
        .collect();

    // Faulted runs: every scheduler replays each seed's plan. The clean
    // cells lead the second plan as memo hits, for the ratios.
    let mut cells = clean_cells;
    for &intensity in &INTENSITIES {
        for kind in kinds {
            for (&seed, &window) in SEEDS.iter().zip(&windows) {
                let faults = RandomFaults { intensity, window };
                cells.push(cell(kind, seed, Some(faults)));
            }
        }
    }
    let outcomes = run_cells(h, &cells)?;
    let (clean, faulted) = outcomes.split_at(SEEDS.len() * kinds.len());

    let mut rows = Vec::new();
    let mut per_seed = faulted.chunks(SEEDS.len());
    for &intensity in &INTENSITIES {
        for (ki, kind) in kinds.into_iter().enumerate() {
            let runs = per_seed
                .next()
                .expect("one chunk per (intensity, scheduler)");
            let mut faults_injected = 0.0;
            let mut forced = 0.0;
            let mut offline_s = 0.0;
            let mut stp = Vec::new();
            let mut antt = Vec::new();
            for (si, outcome) in runs.iter().enumerate() {
                let clean = &clean[si * kinds.len() + ki][0];
                let run = &outcome[0];
                let d = &run.degradation;
                faults_injected += d.faults_injected as f64;
                forced += d.forced_migrations as f64;
                offline_s += d.offline_core_time.as_secs_f64();
                stp.push(throughput_retained(clean, run));
                antt.push(antt_retained(clean, run));
            }
            let n = SEEDS.len() as f64;
            rows.push(FaultsRow {
                scheduler: kind.name(),
                intensity,
                faults_injected: faults_injected / n,
                forced_migrations: forced / n,
                offline_core_seconds: offline_s / n,
                throughput_retained: geomean(&stp),
                antt_retained: geomean(&antt),
            });
        }
    }
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
    let mut out = String::from(
        "Table 3 — benchmark categorisation\nname              sync rate   comm/comp\n",
    );
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
    fn a_second_study_call_evaluates_no_cell() {
        type Study = fn(&mut Harness) -> Result<String>;
        let studies: [(&str, Study); 6] = [
            ("energy", |h| Ok(energy(h)?.to_string())),
            ("ablation", |h| Ok(ablation(h)?.to_string())),
            ("sensitivity", |h| Ok(sensitivity(h)?.to_string())),
            ("freqsweep", |h| Ok(frequency_sweep(h)?.to_string())),
            ("staggered", |h| Ok(staggered(h)?.to_string())),
            ("faults", |h| Ok(faults(h)?.to_string())),
        ];
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        for (name, study) in studies {
            let before = h.cells_evaluated();
            let first = study(&mut h).unwrap();
            let evaluated = h.cells_evaluated();
            assert!(evaluated > before, "{name} evaluated no cell of its own");
            assert_eq!(study(&mut h).unwrap(), first, "{name} output changed");
            assert_eq!(h.cells_evaluated(), evaluated, "{name} re-evaluated cells");
        }
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
