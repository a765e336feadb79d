//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale F] [--jobs N]
//!       [--table2|--table3|--table4] [--fig4|--fig5|--fig6|--fig7|--fig8|--fig9]
//!       [--summary] [--check] [--ablation] [--energy] [--table1]
//!       [--sensitivity] [--fairness] [--freqsweep] [--staggered] [--faults]
//!       [--all] [--csv DIR] [--trace-json DIR] [--bench-json FILE]
//! ```
//!
//! With no selection flags, `--all` is assumed. Any other flag is an
//! error (exit status 1). Every cell runs once per core-enumeration
//! order at the one seed the harness holds (42), as the paper's protocol
//! does. `--scale` shrinks the workloads (default 1.0, the calibrated
//! full size); the shapes are stable down to about 0.25. Every scale
//! runs under the same speedup model: the Table 2 model, trained at the
//! calibrated size.
//!
//! `--jobs N` runs the whole evaluation on N worker threads (default: the
//! host's available parallelism; `--jobs 1` is the exact serial path):
//! the experiment-cell sweep, then each extension study's own plan of
//! cells, all through one executor. Every plan is enumerated up front
//! and reduced in canonical cell order, so output is byte-identical for
//! every N — only the `cells/sec` diagnostic on stderr changes, and the
//! closing "cells evaluated" count there includes the studies' cells.
//!
//! `--check` exits 1 when a claim fails, after the CSVs and the bench
//! report requested alongside it have been written.
//!
//! `--bench-json FILE` writes a machine-readable performance report
//! (aggregate events/sec and cells/sec, plus per-policy event counts
//! and per-decision costs) after the selected targets run — see
//! [`colab_bench::bench_run_json`]. CI's bench smoke job uploads it as
//! the `BENCH_run.json` artifact.
//!
//! `--summary` also prints the per-scheduler decision-telemetry block
//! (migrations by direction, preemptions by cause, label flows,
//! speedup-model error, and latency percentiles), pooled over every
//! cell the invocation evaluated. `--csv DIR` includes a per-cell
//! `telemetry.csv`; `--trace-json DIR` writes one Chrome trace-event
//! JSON per scheduler (open in Perfetto or `chrome://tracing`), run under
//! the same speedup model as everything else the invocation reports.

use std::process::ExitCode;
use std::time::Instant;

use amp_perf::SpeedupModel;
use amp_workloads::{BenchmarkId, WorkloadSpec};
use colab::experiments;
use colab::SchedulerKind;

struct Options {
    scale: f64,
    jobs: usize,
    targets: Vec<String>,
    csv_dir: Option<std::path::PathBuf>,
    trace_dir: Option<std::path::PathBuf>,
    bench_json: Option<std::path::PathBuf>,
}

/// The selection flags, without their `--`.
const TARGETS: [&str; 20] = [
    "all",
    "table2",
    "table3",
    "table4",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "summary",
    "check",
    "ablation",
    "energy",
    "table1",
    "sensitivity",
    "fairness",
    "freqsweep",
    "staggered",
    "faults",
];

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args() -> Result<Options, String> {
    let mut scale = 1.0;
    let mut targets = Vec::new();
    let mut csv_dir = None;
    let mut trace_dir = None;
    let mut bench_json = None;
    let mut jobs = default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let value = args.next().ok_or("--jobs needs a count")?;
                jobs = value
                    .parse::<usize>()
                    .map_err(|e| format!("bad --jobs {value}: {e}"))?
                    .max(1);
            }
            "--csv" => {
                let dir = args.next().ok_or("--csv needs a directory")?;
                csv_dir = Some(std::path::PathBuf::from(dir));
            }
            "--trace-json" => {
                let dir = args.next().ok_or("--trace-json needs a directory")?;
                trace_dir = Some(std::path::PathBuf::from(dir));
            }
            "--bench-json" => {
                let file = args.next().ok_or("--bench-json needs a file path")?;
                bench_json = Some(std::path::PathBuf::from(file));
            }
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                scale = value
                    .parse::<f64>()
                    .map_err(|e| format!("bad --scale {value}: {e}"))?;
                if !scale.is_finite() || scale <= 0.0 {
                    return Err("--scale must be positive".into());
                }
            }
            other => match other.strip_prefix("--") {
                Some(name) if TARGETS.contains(&name) => targets.push(name.to_string()),
                Some(_) => return Err(format!("unknown flag {other}")),
                None => return Err(format!("unrecognized argument {other}")),
            },
        }
    }
    if targets.is_empty() && csv_dir.is_none() && trace_dir.is_none() && bench_json.is_none() {
        targets.push("all".into());
    }
    Ok(Options {
        scale,
        jobs,
        targets,
        csv_dir,
        trace_dir,
        bench_json,
    })
}

/// Plans the memoized paper-protocol cells the selected figures, tables
/// and CSVs read, so the sweep executor can prewarm the harness memo in
/// parallel. The extension studies plan their own cells when they run
/// (on as many workers as this sweep); the cells they share with this
/// plan, like the energy study's, are then memo hits. The plan is
/// identical for every `--jobs` value, which is what keeps output
/// byte-identical across job counts.
fn build_plan(options: &Options, wants: impl Fn(&str) -> bool) -> colab::SweepPlan {
    let mut plan = colab::SweepPlan::new();
    let csv = options.csv_dir.is_some();
    if csv || wants("fig4") || wants("check") {
        plan.add_figure4();
    }
    let grouped = ["fig5", "fig6", "fig7", "fig8", "fig9"];
    if csv
        || wants("summary")
        || wants("check")
        || wants("fairness")
        || grouped.iter().any(|t| wants(t))
    {
        plan.add_paper_grid();
    }
    if csv || wants("table1") || wants("check") {
        plan.add_table1();
    }
    plan
}

/// Writes one Chrome trace per scheduler for a representative
/// sync-heavy workload (pipeline-parallel ferret on 2B+2S), predicting
/// speedups with `model`.
fn export_chrome_traces(
    dir: &std::path::Path,
    scale: f64,
    model: &SpeedupModel,
) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let spec = WorkloadSpec::single(BenchmarkId::Ferret, 6);
    let mut written = Vec::new();
    for kind in SchedulerKind::EXTENDED {
        let json = colab_bench::chrome_trace_json(&spec, kind, scale, model);
        let name = format!("{}-{}.json", spec.name(), kind.name());
        std::fs::write(dir.join(&name), json).map_err(|e| format!("writing {name}: {e}"))?;
        written.push(name);
    }
    Ok(written)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wants = |name: &str| options.targets.iter().any(|t| t == name || t == "all");

    let start = Instant::now();
    eprintln!("building harness (scale {})...", options.scale);
    let mut harness = colab_bench::harness_with(options.scale);
    eprintln!("harness ready in {:.1?}", start.elapsed());

    if let Some(dir) = &options.trace_dir {
        match export_chrome_traces(dir, options.scale, harness.model()) {
            Ok(files) => {
                eprintln!("wrote {} Chrome traces to {}", files.len(), dir.display());
            }
            Err(e) => {
                eprintln!("error writing Chrome traces: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Run even an empty plan: it also sets the studies' worker count.
    let plan = build_plan(&options, wants);
    match harness.run_plan(&plan, options.jobs) {
        Ok(report) if !plan.is_empty() => eprintln!("{report}"),
        Ok(_) => {}
        Err(e) => {
            eprintln!("error running sweep: {e}");
            return ExitCode::FAILURE;
        }
    }

    if wants("table2") {
        println!("{}\n", experiments::table2(&harness));
    }
    if wants("table3") {
        println!("{}", experiments::table3());
    }
    if wants("table4") {
        println!("{}", experiments::table4());
    }

    macro_rules! figure {
        ($name:literal, $f:path) => {
            if wants($name) {
                let t = Instant::now();
                match $f(&mut harness) {
                    Ok(result) => {
                        println!("{result}");
                        eprintln!("[{} done in {:.1?}]\n", $name, t.elapsed());
                    }
                    Err(e) => {
                        eprintln!("error running {}: {e}", $name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        };
    }
    figure!("fig4", experiments::figure4);
    figure!("fig5", experiments::figure5);
    figure!("fig6", experiments::figure6);
    figure!("fig7", experiments::figure7);
    figure!("fig8", experiments::figure8);
    figure!("fig9", experiments::figure9);
    figure!("summary", experiments::summary);
    figure!("ablation", experiments::ablation);
    // Extensions beyond the paper (run with --energy / --table1 / --all).
    figure!("energy", experiments::energy);
    figure!("table1", experiments::table1_quantified);
    figure!("sensitivity", experiments::sensitivity);
    figure!("fairness", experiments::fairness);
    figure!("freqsweep", experiments::frequency_sweep);
    figure!("staggered", experiments::staggered);
    figure!("faults", experiments::faults);

    if wants("summary") {
        println!("scheduler decision telemetry (pooled over evaluated cells, per run):");
        for (name, report) in harness.telemetry_by_scheduler() {
            println!("[{name}]");
            print!("{report}");
        }
        println!();
    }

    let mut claims_failed = false;
    if wants("check") {
        match experiments::shape_check(&mut harness) {
            Ok(report) => {
                println!("{report}");
                claims_failed = !report.all_pass();
            }
            Err(e) => {
                eprintln!("error running shape check: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(dir) = &options.csv_dir {
        match colab::report::write_all(&mut harness, dir) {
            Ok(files) => eprintln!("wrote {} CSVs to {}", files.len(), dir.display()),
            Err(e) => {
                eprintln!("error writing CSVs: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &options.bench_json {
        // The paper-protocol cells alone: the event counts cover only
        // their runs.
        let json = colab_bench::bench_run_json(
            &harness,
            start.elapsed().as_secs_f64(),
            harness.telemetry_cells().len(),
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote bench report to {}", path.display());
    }

    eprintln!(
        "total: {:.1?}, {} cells evaluated",
        start.elapsed(),
        harness.cells_evaluated()
    );
    if claims_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
