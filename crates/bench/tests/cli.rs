//! The command-line binaries reject input they do not understand instead
//! of silently running something else.

use std::process::{Command, Output};

use amp_workloads::{BenchmarkId, WorkloadSpec};
use colab::SchedulerKind;
use colab_bench::chrome_trace_json;

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn repro_rejects_an_unknown_flag() {
    let out = run(env!("CARGO_BIN_EXE_repro"), &["--sumary"]);
    assert!(!out.status.success(), "a typo'd flag must fail");
    assert!(
        stderr(&out).contains("--sumary"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn repro_accepts_selection_flags() {
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &["--scale", "0.05", "--jobs", "1", "--table3", "--table4"],
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(!out.stdout.is_empty());
}

#[test]
fn repro_usage_lists_the_real_flags() {
    let source = include_str!("../src/bin/repro.rs");
    let usage = source
        .split("```text")
        .nth(1)
        .and_then(|rest| rest.split("```").next())
        .expect("repro.rs documents its usage");
    for flag in [
        "--check",
        "--bench-json",
        "--energy",
        "--table1",
        "--sensitivity",
        "--fairness",
        "--freqsweep",
        "--staggered",
        "--faults",
        "--ablation",
        "--summary",
        "--jobs",
        "--scale",
        "--csv",
        "--trace-json",
        "--all",
    ] {
        assert!(usage.contains(flag), "usage does not list {flag}");
    }
}

/// `--bench-json` counts the paper-protocol cells, whose runs its event
/// counts cover, while "cells evaluated" counts the study's own cells
/// too: the ablation plans 32 paper cells and 48 reduced-COLAB cells.
/// It also reports the process's peak resident memory.
#[test]
fn repro_bench_json_counts_paper_cells_only() {
    let path = std::env::temp_dir().join(format!("repro-bench-{}.json", std::process::id()));
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "--scale",
            "0.05",
            "--ablation",
            "--bench-json",
            path.to_str().expect("UTF-8 path"),
        ],
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = std::fs::read_to_string(&path).expect("repro writes the bench report");
    std::fs::remove_file(&path).expect("bench report is removable");
    assert!(json.contains("\"cells\": 32,"), "{json}");
    // The memory high-water mark is a positive number, or null off Linux.
    let peak = json
        .lines()
        .find_map(|line| line.trim().strip_prefix("\"peak_rss_mb\": "))
        .and_then(|value| value.strip_suffix(','))
        .expect("the report carries peak_rss_mb");
    assert!(
        peak == "null" || peak.parse::<f64>().is_ok_and(|mb| mb > 0.0),
        "peak_rss_mb {peak}"
    );
    assert!(
        stderr(&out).contains(", 80 cells evaluated"),
        "stderr: {}",
        stderr(&out)
    );
}

/// `repro --trace-json` renders its traces under the speedup model of the
/// run it reports, the trained Table 2 model.
#[test]
fn repro_traces_use_the_runs_speedup_model() {
    const SCALE: f64 = 0.1;
    let spec = WorkloadSpec::single(BenchmarkId::Ferret, 6);
    let dir = std::env::temp_dir().join(format!("repro-trace-json-{}", std::process::id()));
    let args = [
        "--trace-json",
        dir.to_str().expect("UTF-8 path"),
        "--scale",
        "0.1",
    ];
    let out = run(env!("CARGO_BIN_EXE_repro"), &args);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let written = std::fs::read_to_string(dir.join("ferret-colab.json"))
        .expect("repro writes the COLAB trace");
    std::fs::remove_dir_all(&dir).expect("trace directory is removable");
    let harness = colab_bench::harness_with(SCALE);
    let expected = chrome_trace_json(&spec, SchedulerKind::Colab, SCALE, harness.model());
    assert!(
        written == expected,
        "--trace-json differs from chrome_trace_json under the run's model"
    );
}

#[test]
fn timeline_rejects_an_unknown_scheduler() {
    let out = run(env!("CARGO_BIN_EXE_timeline"), &["ferret", "colb"]);
    assert!(!out.status.success(), "an unknown scheduler must fail");
    assert!(stderr(&out).contains("colb"), "stderr: {}", stderr(&out));
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn timeline_rejects_an_unknown_workload() {
    let out = run(env!("CARGO_BIN_EXE_timeline"), &["ferrett"]);
    assert!(!out.status.success(), "an unknown workload must fail");
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn timeline_runs_a_named_scheduler() {
    let out = run(env!("CARGO_BIN_EXE_timeline"), &["ferret", "wash", "0.1"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("ferret under wash"), "stdout: {stdout}");
}

#[test]
fn diag_rejects_bad_input() {
    for (args, mention) in [
        (&["NoSuchWorkload", "2", "2", "0.1"][..], "NoSuchWorkload"),
        (&["Sync-2", "two", "2"][..], "two"),
        (&["Sync-2", "2", "-1", "0.1"][..], "-1"),
        (&["Sync-2", "0", "0", "0.1"][..], "core"),
        (&["Sync-2", "2", "2", "-1"][..], "-1"),
        (&["Sync-2", "2", "2", "0"][..], "scale"),
        (&["Sync-2", "2", "2", "0.1", "extra"][..], "extra"),
        (&["--jbos", "1"][..], "--jbos"),
        (&["--jobs", "many"][..], "--jobs"),
    ] {
        let out = run(env!("CARGO_BIN_EXE_diag"), args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "diag {args:?}: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains(mention),
            "diag {args:?} stderr: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "diag {args:?} may not run");
    }
}

#[test]
fn diag_runs_a_named_workload() {
    let out = run(
        env!("CARGO_BIN_EXE_diag"),
        &["--jobs", "1", "Sync-2", "1", "1", "0.05"],
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("workload Sync-2 on 1B1S scale 0.05"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("== colab"), "stdout: {stdout}");
}
