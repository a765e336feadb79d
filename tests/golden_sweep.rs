//! Golden-results test layer for the parallel sweep executor.
//!
//! Fixtures under `tests/golden/` snapshot every CSV that
//! [`report::write_all`] emits — Figures 4–9, the §5 summary, the
//! extension studies (energy, ablation, sensitivity, asymmetry sweep,
//! staggered arrivals, faults, quantified Table 1, fairness) and the
//! per-cell decision telemetry — at the quick test configuration. These
//! tests pin the determinism contract from two directions:
//!
//! 1. the plain serial path (`write_all` on a fresh harness, every cell
//!    filled through `Harness::mix`) must still produce the snapshotted
//!    bytes — a regression gate on the simulator and schedulers
//!    themselves;
//! 2. the parallel sweep executor must reproduce the same bytes
//!    bit-identically at `--jobs 1`, `2`, and `8`, with `write_all`
//!    afterwards reading every paper-protocol cell from the prewarmed
//!    cache and evaluating only the extension studies' own cells.
//!
//! Regenerate after an intentional behaviour change with:
//!
//! ```text
//! cargo test --test golden_sweep -- --ignored regenerate
//! ```

use std::path::PathBuf;

use amp_workloads::{PaperWorkload, WorkloadClass};
use colab::{report, ExperimentConfig, Harness, SweepPlan};

/// Every file `report::write_all` writes, in its order; each is pinned
/// by a fixture of the same name.
const CSV_FILES: [&str; 16] = [
    "fig4.csv",
    "fig5.csv",
    "fig6.csv",
    "fig7.csv",
    "fig8.csv",
    "fig9.csv",
    "summary.csv",
    "ablation.csv",
    "energy.csv",
    "fairness.csv",
    "sensitivity.csv",
    "freqsweep.csv",
    "staggered.csv",
    "faults.csv",
    "table1.csv",
    "telemetry.csv",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn quick_harness() -> Harness {
    Harness::new(ExperimentConfig::quick()).expect("quick harness builds")
}

/// Runs `report::write_all` into a temporary directory and returns every
/// file it wrote, as `(name, contents)` in write order.
fn write_csvs(h: &mut Harness, tag: &str) -> Vec<(&'static str, String)> {
    let dir = std::env::temp_dir().join(format!("colab-golden-{}-{tag}", std::process::id()));
    let written = report::write_all(h, &dir).expect("CSV report written");
    assert_eq!(written, CSV_FILES, "{tag}: write_all's file list changed");
    let rendered = CSV_FILES
        .iter()
        .map(|&name| {
            let contents = std::fs::read_to_string(dir.join(name)).expect("CSV readable");
            (name, contents)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    rendered
}

fn assert_matches_golden(rendered: &[(&'static str, String)], context: &str) {
    for (name, actual) in rendered {
        let path = golden_dir().join(name);
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); regenerate with \
                 `cargo test --test golden_sweep -- --ignored regenerate`",
                path.display()
            )
        });
        if *actual != expected {
            let diff: Vec<String> = expected
                .lines()
                .zip(actual.lines())
                .enumerate()
                .filter(|(_, (e, a))| e != a)
                .take(5)
                .map(|(i, (e, a))| format!("  line {}:\n    golden: {e}\n    actual: {a}", i + 1))
                .collect();
            panic!(
                "{context}: {name} diverged from the golden fixture\n{}",
                if diff.is_empty() {
                    "  (line counts differ)".to_string()
                } else {
                    diff.join("\n")
                }
            );
        }
    }
}

#[test]
fn serial_path_matches_golden_fixtures() {
    let mut h = quick_harness();
    let rendered = write_csvs(&mut h, "serial");
    assert_matches_golden(&rendered, "serial mix path");
}

/// The run sets the extension studies add beyond `SweepPlan::full()`:
/// the ablation's three reduced COLAB variants on every Sync workload ×
/// configuration; sensitivity's four varied parameter sets and the
/// asymmetry sweep's five little-cluster clocks, each on every Sync
/// workload under Linux and COLAB; staggered arrivals on every 4-program
/// workload under the four extended policies; and the fault study's 3
/// seeds × 3 paper schedulers, clean and at 3 intensities. The energy
/// study's cells, the ablation's Linux and full-COLAB cells and
/// sensitivity's "defaults" row (the harness's seed and parameters on
/// 2B4S) run the same simulations as paper cells of the full plan, so
/// they share those run sets.
fn study_cells() -> usize {
    let sync = PaperWorkload::all()
        .into_iter()
        .filter(|w| w.class() == WorkloadClass::Sync)
        .count();
    let four_program = PaperWorkload::all()
        .into_iter()
        .filter(|w| w.num_programs() == 4)
        .count();
    let ablation = 3 * sync * 4;
    let sensitivity = 4 * sync * 2;
    let freqsweep = 5 * sync * 2;
    let staggered = four_program * 4;
    let faults = 3 * 3 + 3 * 3 * 3;
    ablation + sensitivity + freqsweep + staggered + faults
}

#[test]
fn parallel_executor_reproduces_golden_at_jobs_1_2_8() {
    let plan = SweepPlan::full();
    for jobs in [1usize, 2, 8] {
        let mut h = quick_harness();
        let report = h.run_plan(&plan, jobs).expect("sweep runs");
        assert_eq!(report.executed, plan.len(), "jobs={jobs}: fresh harness executes all");
        let prewarmed = h.cells_evaluated();
        let rendered = write_csvs(&mut h, &format!("jobs{jobs}"));
        // The figures read only the prewarmed cache: no paper-protocol
        // cell (the only ones with telemetry) was added, and the run sets
        // that were are exactly the studies' own.
        assert_eq!(
            h.telemetry_cells().len(),
            prewarmed,
            "jobs={jobs}: the CSV report must read paper cells from the prewarmed cache"
        );
        assert_eq!(
            h.cells_evaluated() - prewarmed,
            study_cells(),
            "jobs={jobs}: the CSV report must add exactly the studies' run sets"
        );
        assert_matches_golden(&rendered, &format!("parallel executor, jobs={jobs}"));
    }
}

/// Not a test: rewrites the fixtures from the serial path. Run with
/// `cargo test --test golden_sweep -- --ignored regenerate`.
#[test]
#[ignore = "fixture regenerator, run explicitly"]
fn regenerate() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("golden dir creatable");
    let mut h = quick_harness();
    for (name, contents) in write_csvs(&mut h, "regenerate") {
        std::fs::write(dir.join(name), contents).expect("fixture written");
        eprintln!("wrote {}", dir.join(name).display());
    }
}
