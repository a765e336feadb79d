//! Machine-readable (CSV) serialization of experiment results, for
//! plotting the figures outside this crate.
//!
//! Every experiment result type gets a `*_csv` function producing
//! RFC-4180-style output with a header row; [`write_all`] runs the full
//! evaluation and writes one file per figure/table into a directory.

use std::fmt::Write as _;
use std::path::Path;

use amp_types::Result;

use crate::experiments::{
    self, Ablation, EnergyStudy, FairnessStudy, FaultsStudy, Fig4, FrequencySweep, GroupFigure,
    Sensitivity, Staggered, Summary, Table1Quantified,
};
use crate::harness::Harness;

/// Figure 4 rows: `benchmark,linux,wash,colab`.
pub fn fig4_csv(fig: &Fig4) -> String {
    let mut out = String::from("benchmark,linux,wash,colab\n");
    for row in &fig.rows {
        let _ = writeln!(
            out,
            "{},{:.6},{:.6},{:.6}",
            row.benchmark.name(),
            row.h_ntt[0],
            row.h_ntt[1],
            row.h_ntt[2]
        );
    }
    let _ = writeln!(
        out,
        "geomean,{:.6},{:.6},{:.6}",
        fig.geomean[0], fig.geomean[1], fig.geomean[2]
    );
    out
}

/// Grouped-figure rows:
/// `group,config,wash_antt,colab_antt,wash_stp,colab_stp`.
pub fn group_figure_csv(fig: &GroupFigure) -> String {
    let mut out = String::from("group,config,wash_antt,colab_antt,wash_stp,colab_stp\n");
    for group in &fig.groups {
        for cell in group.cells.iter().chain(std::iter::once(&group.geomean)) {
            let _ = writeln!(
                out,
                "{},{},{:.6},{:.6},{:.6},{:.6}",
                group.label,
                cell.config,
                cell.wash_antt,
                cell.colab_antt,
                cell.wash_stp,
                cell.colab_stp
            );
        }
    }
    out
}

/// Summary rows: `comparison,antt,stp`.
pub fn summary_csv(summary: &Summary) -> String {
    let mut out = String::from("comparison,antt,stp\n");
    let _ = writeln!(
        out,
        "wash_vs_linux,{:.6},{:.6}",
        summary.antt_vs_linux[0], summary.stp_vs_linux[0]
    );
    let _ = writeln!(
        out,
        "colab_vs_linux,{:.6},{:.6}",
        summary.antt_vs_linux[1], summary.stp_vs_linux[1]
    );
    let _ = writeln!(
        out,
        "colab_vs_wash,{:.6},{:.6}",
        summary.colab_antt_vs_wash, summary.colab_stp_vs_wash
    );
    out
}

/// Ablation rows: `variant,antt_vs_linux`.
pub fn ablation_csv(ablation: &Ablation) -> String {
    let mut out = String::from("variant,antt_vs_linux\n");
    for row in &ablation.rows {
        let _ = writeln!(out, "{},{:.6}", row.variant, row.antt_vs_linux);
    }
    out
}

/// Energy rows: `policy,energy_vs_linux,edp_vs_linux`.
pub fn energy_csv(study: &EnergyStudy) -> String {
    let mut out = String::from("policy,energy_vs_linux,edp_vs_linux\n");
    for row in &study.rows {
        let _ = writeln!(
            out,
            "{},{:.6},{:.6}",
            row.scheduler, row.energy_vs_linux, row.edp_vs_linux
        );
    }
    out
}

/// Fairness rows: `policy,jains_index,slowdown_spread`.
pub fn fairness_csv(study: &FairnessStudy) -> String {
    let mut out = String::from("policy,jains_index,slowdown_spread\n");
    for row in &study.rows {
        let _ = writeln!(
            out,
            "{},{:.6},{:.6}",
            row.scheduler, row.jains_index, row.slowdown_spread
        );
    }
    out
}

/// Sensitivity rows: `variant,colab_vs_linux`.
pub fn sensitivity_csv(study: &Sensitivity) -> String {
    let mut out = String::from("variant,colab_vs_linux\n");
    for row in &study.rows {
        let _ = writeln!(out, "{},{:.6}", row.variant, row.colab_vs_linux);
    }
    out
}

/// Asymmetry-sweep rows: `little_ghz,colab_vs_linux`.
pub fn frequency_sweep_csv(sweep: &FrequencySweep) -> String {
    let mut out = String::from("little_ghz,colab_vs_linux\n");
    for p in &sweep.points {
        let _ = writeln!(out, "{:.2},{:.6}", p.little_ghz, p.colab_vs_linux);
    }
    out
}

/// Staggered-arrival rows: `policy,turnaround_vs_linux`.
pub fn staggered_csv(study: &Staggered) -> String {
    let mut out = String::from("policy,turnaround_vs_linux\n");
    for row in &study.rows {
        let _ = writeln!(out, "{},{:.6}", row.scheduler, row.turnaround_vs_linux);
    }
    out
}

/// Decision-telemetry rows, one per evaluated `(workload, config,
/// scheduler)` cell: counts are per simulation run (each cell averages
/// the two core orders), the prediction column is
/// the speedup model's mean absolute error, and the latency column is
/// the pooled wakeup-to-first-run p95 in microseconds.
pub fn telemetry_csv(h: &Harness) -> String {
    let mut out = String::from(
        "workload,config,scheduler,migrations,preemptions,relabels,\
         idle_steals,mean_abs_pred_error,wakeup_p95_us\n",
    );
    for (workload, config, scheduler, r) in h.telemetry_cells() {
        let c = &r.counters;
        let _ = writeln!(
            out,
            "{},{},{},{:.2},{:.2},{:.2},{:.2},{:.4},{:.3}",
            workload,
            config,
            scheduler,
            r.per_run(c.total_migrations()),
            r.per_run(c.total_preemptions()),
            r.per_run(c.total_relabels()),
            r.per_run(c.idle_steals),
            c.prediction.mean_abs_error(),
            r.wakeup_to_run.quantile(0.95).as_secs_f64() * 1e6,
        );
    }
    out
}

/// Fault-study rows:
/// `scheduler,intensity,faults,forced_migrations,offline_core_s,stp_retained,antt_retained`.
pub fn faults_csv(study: &FaultsStudy) -> String {
    let mut out = String::from(
        "scheduler,intensity,faults,forced_migrations,offline_core_s,\
         stp_retained,antt_retained\n",
    );
    for row in &study.rows {
        let _ = writeln!(
            out,
            "{},{:.2},{:.2},{:.2},{:.6},{:.6},{:.6}",
            row.scheduler,
            row.intensity,
            row.faults_injected,
            row.forced_migrations,
            row.offline_core_seconds,
            row.throughput_retained,
            row.antt_retained
        );
    }
    out
}

/// Quantified Table 1 rows: `policy,antt_vs_linux,stp_vs_linux`.
pub fn table1_csv(t: &Table1Quantified) -> String {
    let mut out = String::from("policy,antt_vs_linux,stp_vs_linux\n");
    for (name, antt, stp) in &t.rows {
        let _ = writeln!(out, "{name},{antt:.6},{stp:.6}");
    }
    out
}

/// Runs the full evaluation and writes one CSV per figure into `dir`
/// (created if missing). Returns the written file names.
///
/// # Errors
///
/// Propagates simulation failures; I/O failures are wrapped in
/// [`amp_types::Error::InvalidConfig`].
pub fn write_all(h: &mut Harness, dir: &Path) -> Result<Vec<String>> {
    let io_err =
        |e: std::io::Error| amp_types::Error::InvalidConfig(format!("writing CSVs: {e}"));
    std::fs::create_dir_all(dir).map_err(io_err)?;

    let mut written = Vec::new();
    let mut write = |name: &str, contents: String| -> Result<()> {
        std::fs::write(dir.join(name), contents).map_err(io_err)?;
        written.push(name.to_string());
        Ok(())
    };

    write("fig4.csv", fig4_csv(&experiments::figure4(h)?))?;
    write("fig5.csv", group_figure_csv(&experiments::figure5(h)?))?;
    write("fig6.csv", group_figure_csv(&experiments::figure6(h)?))?;
    write("fig7.csv", group_figure_csv(&experiments::figure7(h)?))?;
    write("fig8.csv", group_figure_csv(&experiments::figure8(h)?))?;
    write("fig9.csv", group_figure_csv(&experiments::figure9(h)?))?;
    write("summary.csv", summary_csv(&experiments::summary(h)?))?;
    write("ablation.csv", ablation_csv(&experiments::ablation(h)?))?;
    write("energy.csv", energy_csv(&experiments::energy(h)?))?;
    write("fairness.csv", fairness_csv(&experiments::fairness(h)?))?;
    write(
        "sensitivity.csv",
        sensitivity_csv(&experiments::sensitivity(h)?),
    )?;
    write(
        "freqsweep.csv",
        frequency_sweep_csv(&experiments::frequency_sweep(h)?),
    )?;
    write("staggered.csv", staggered_csv(&experiments::staggered(h)?))?;
    write("faults.csv", faults_csv(&experiments::faults(h)?))?;
    write(
        "table1.csv",
        table1_csv(&experiments::table1_quantified(h)?),
    )?;
    // Last: every cell the figures evaluated has telemetry by now.
    write("telemetry.csv", telemetry_csv(h))?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ExperimentConfig;

    #[test]
    fn fig4_csv_shape() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        let fig = experiments::figure4(&mut h).unwrap();
        let csv = fig4_csv(&fig);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "benchmark,linux,wash,colab");
        assert_eq!(lines.len(), 1 + 12 + 1, "header + rows + geomean");
        assert!(lines.last().unwrap().starts_with("geomean,"));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 4);
        }
    }

    #[test]
    fn write_all_produces_every_file() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        let dir = std::env::temp_dir().join(format!("colab-csv-{}", std::process::id()));
        let files = write_all(&mut h, &dir).unwrap();
        assert_eq!(files.len(), 16);
        let telemetry = std::fs::read_to_string(dir.join("telemetry.csv")).unwrap();
        assert!(telemetry.starts_with("workload,config,scheduler,"));
        assert!(
            telemetry.lines().skip(1).any(|l| l.contains(",colab,")),
            "telemetry.csv has colab rows"
        );
        for f in &files {
            let content = std::fs::read_to_string(dir.join(f)).unwrap();
            assert!(content.lines().count() >= 2, "{f} has data rows");
            assert!(content.starts_with(|c: char| c.is_ascii_alphabetic()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
