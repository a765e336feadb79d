//! The command-line binaries reject input they do not understand instead
//! of silently running something else.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn repro_rejects_an_unknown_flag() {
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &["--sumary", "--heuristic-model"],
    );
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
        &[
            "--heuristic-model",
            "--scale",
            "0.05",
            "--jobs",
            "1",
            "--table3",
            "--table4",
        ],
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
        "--reps",
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
        "--heuristic-model",
        "--csv",
        "--trace-json",
        "--all",
    ] {
        assert!(usage.contains(flag), "usage does not list {flag}");
    }
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
