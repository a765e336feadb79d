//! Smoke and sanity tests for the extension experiments (energy, GTS,
//! sensitivity, fairness, ablation) at quick scale.

use amp_metrics::geomean;
use amp_types::SimDuration;
use amp_workloads::{PaperWorkload, WorkloadClass};
use colab::experiments::{self, CONFIGS};
use colab::{ExperimentConfig, Harness, SchedulerKind};

fn quick_harness() -> Harness {
    Harness::new(ExperimentConfig::quick()).expect("harness builds")
}

#[test]
fn energy_study_is_internally_consistent() {
    let mut h = quick_harness();
    let study = experiments::energy(&mut h).unwrap();
    assert_eq!(study.rows.len(), SchedulerKind::EXTENDED.len());
    // Linux is its own baseline.
    assert_eq!(study.rows[0].scheduler, "linux");
    assert!((study.rows[0].energy_vs_linux - 1.0).abs() < 1e-9);
    assert!((study.rows[0].edp_vs_linux - 1.0).abs() < 1e-9);
    for row in &study.rows {
        assert!(row.energy_vs_linux > 0.3 && row.energy_vs_linux < 3.0);
        assert!(row.edp_vs_linux > 0.1 && row.edp_vs_linux < 5.0);
    }
    assert!(study.to_string().contains("colab"));
}

#[test]
fn gts_exists_and_differs_from_linux() {
    let mut h = quick_harness();
    let spec = amp_workloads::PaperWorkload::all()[1].spec(); // Sync-2
    let linux = h.mix(&spec, 2, 2, SchedulerKind::Linux).unwrap();
    let gts = h.mix(&spec, 2, 2, SchedulerKind::Gts).unwrap();
    assert_eq!(gts.scheduler, "gts");
    assert_ne!(
        linux.h_antt, gts.h_antt,
        "distinct policies should not tie exactly"
    );
}

#[test]
fn ablation_has_four_variants_with_full_colab_first() {
    let mut h = quick_harness();
    let ablation = experiments::ablation(&mut h).unwrap();
    assert_eq!(ablation.rows.len(), 4);
    assert_eq!(ablation.rows[0].variant, "full COLAB");
    for row in &ablation.rows {
        assert!(
            row.antt_vs_linux > 0.3 && row.antt_vs_linux < 3.0,
            "{}: {}",
            row.variant,
            row.antt_vs_linux
        );
    }
}

#[test]
fn full_colab_ablation_row_is_the_memoized_cells_under_custom_params() {
    // A non-default tick: the full-COLAB row must come from the cells the
    // harness ran with these parameters, not from a default-parameter run.
    let mut config = ExperimentConfig::quick();
    config.sim_params.tick = SimDuration::from_millis(5);
    let mut h = Harness::new(config).unwrap();
    let ablation = experiments::ablation(&mut h).unwrap();

    let mut ratios = Vec::new();
    for workload in PaperWorkload::all() {
        if workload.class() != WorkloadClass::Sync {
            continue;
        }
        let spec = workload.spec();
        for (big, little) in CONFIGS {
            let linux = h.mix(&spec, big, little, SchedulerKind::Linux).unwrap();
            let colab = h.mix(&spec, big, little, SchedulerKind::Colab).unwrap();
            ratios.push(colab.h_antt / linux.h_antt);
        }
    }
    assert_eq!(ablation.rows[0].variant, "full COLAB");
    assert_eq!(
        ablation.rows[0].antt_vs_linux.to_bits(),
        geomean(&ratios).to_bits()
    );
}

#[test]
fn sensitivity_covers_defaults_and_variants() {
    let mut h = quick_harness();
    let s = experiments::sensitivity(&mut h).unwrap();
    assert_eq!(s.rows[0].variant, "defaults");
    assert!(s.rows.len() >= 5);
    for row in &s.rows {
        assert!(row.colab_vs_linux > 0.3 && row.colab_vs_linux < 3.0);
    }
}

#[test]
fn fairness_study_bounds_hold() {
    let mut h = quick_harness();
    let f = experiments::fairness(&mut h).unwrap();
    assert_eq!(f.rows.len(), 3);
    for row in &f.rows {
        assert!(
            row.jains_index > 0.0 && row.jains_index <= 1.0 + 1e-9,
            "{}: Jain {}",
            row.scheduler,
            row.jains_index
        );
        assert!(row.slowdown_spread >= 1.0 - 1e-9);
    }
}

#[test]
fn quantified_table1_ranks_colab_ahead_of_gts() {
    let mut h = quick_harness();
    let t = experiments::table1_quantified(&mut h).unwrap();
    let antt_of = |name: &str| {
        t.rows
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, a, _)| a)
            .expect("row exists")
    };
    // Affinity-only load-average scheduling must not beat the coordinated
    // policy (the whole point of Table 1).
    assert!(antt_of("colab") < antt_of("gts"));
}

#[test]
fn sensitivity_varies_the_configured_params() {
    // Every variant starts from the harness's parameters, so a harness
    // configured with a 5 ms tick reports as "defaults" exactly what a
    // default harness reports as "tick 5ms".
    let mut config = ExperimentConfig::quick();
    config.sim_params.tick = SimDuration::from_millis(5);
    let mut ticked = Harness::new(config).unwrap();
    let configured = experiments::sensitivity(&mut ticked).unwrap();
    let default = experiments::sensitivity(&mut quick_harness()).unwrap();
    let tick_5ms = default
        .rows
        .iter()
        .find(|row| row.variant == "tick 5ms")
        .expect("tick 5ms row");
    assert_eq!(configured.rows[0].variant, "defaults");
    assert_eq!(
        configured.rows[0].colab_vs_linux.to_bits(),
        tick_5ms.colab_vs_linux.to_bits()
    );
}

#[test]
fn workloads_sharing_a_name_do_not_share_cells() {
    use amp_workloads::BenchmarkId;
    let fresh = quick_harness()
        .single(BenchmarkId::Blackscholes, 2, 2, 2, SchedulerKind::Linux)
        .unwrap();
    let mut h = quick_harness();
    let four = h
        .single(BenchmarkId::Blackscholes, 4, 2, 2, SchedulerKind::Linux)
        .unwrap();
    let two = h
        .single(BenchmarkId::Blackscholes, 2, 2, 2, SchedulerKind::Linux)
        .unwrap();
    assert_eq!(two.to_bits(), fresh.to_bits(), "2 threads after 4");
    assert_ne!(two.to_bits(), four.to_bits());
}

#[test]
fn studies_load_the_grids_programs_from_the_store() {
    // After the full plan, every study's workload at the configured seed
    // is interned already; only the fault study's own seeds compile.
    let mut h = quick_harness();
    h.run_plan(&colab::SweepPlan::full(), 2).unwrap();
    let before = h.intern_stats();
    experiments::energy(&mut h).unwrap();
    experiments::table1_quantified(&mut h).unwrap();
    experiments::ablation(&mut h).unwrap();
    experiments::sensitivity(&mut h).unwrap();
    experiments::fairness(&mut h).unwrap();
    experiments::frequency_sweep(&mut h).unwrap();
    experiments::staggered(&mut h).unwrap();
    experiments::faults(&mut h).unwrap();
    let after = h.intern_stats();
    assert_eq!(after.misses, before.misses + 3, "the fault study's seeds");
    assert!(after.hits > before.hits);
}

#[test]
fn sensitivity_defaults_share_the_paper_grids_runs() {
    // The "defaults" row runs the harness's seed and parameters on 2B4S,
    // the same simulations as the paper grid's 2B4S Sync cells: of its
    // 5 parameter sets × Sync workloads × 2 policies, only the four
    // varied sets add memo entries.
    let mut h = quick_harness();
    h.run_plan(&colab::SweepPlan::paper_grid(), 2).unwrap();
    let before = h.cells_evaluated();
    experiments::sensitivity(&mut h).unwrap();
    let sync = PaperWorkload::all()
        .into_iter()
        .filter(|w| w.class() == WorkloadClass::Sync)
        .count();
    assert_eq!(sync * 2, 8);
    assert_eq!(h.cells_evaluated() - before, 4 * sync * 2);
}
