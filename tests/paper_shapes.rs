//! End-to-end checks that the reproduction preserves the paper's headline
//! *shapes* (who wins, where) — not its absolute numbers, which depend on
//! the authors' gem5 testbed.

use colab::{ExperimentConfig, Harness, SchedulerKind};
use colab_suite::prelude::*;
use colab_suite::workloads::{PaperWorkload, Scale, WorkloadClass};

fn harness(scale: f64) -> Harness {
    Harness::new(ExperimentConfig {
        scale: Scale::new(scale),
        ..ExperimentConfig::default()
    })
    .expect("harness builds")
}

#[test]
fn ferret_gains_most_from_amp_awareness() {
    // §5.2: ferret's unbalanced pipeline is the showcase single-program
    // win; AMP-aware schedulers cut its turnaround dramatically. Pinned
    // over seeds 1–16 and 42, each seed with its own trained model: the
    // claim (COLAB/Linux < 0.8) fails on seeds 12, 15 and 16, where
    // Linux's own H_NTT reads 1.01–1.02 instead of ~1.5, a regime tied
    // to CFS's machine-wide wake placement. Giving CFS v3.16's
    // cluster-local wake placement (ROADMAP item 9) is expected to move
    // these pins on purpose.
    const PINNED: [(u64, f64); 17] = [
        (1, 0.680444),
        (2, 0.709432),
        (3, 0.675486),
        (4, 0.663026),
        (5, 0.675355),
        (6, 0.686053),
        (7, 0.686969),
        (8, 0.674233),
        (9, 0.686004),
        (10, 0.697479),
        (11, 0.678755),
        (12, 1.014938),
        (13, 0.706891),
        (14, 0.690716),
        (15, 1.022710),
        (16, 1.014672),
        (42, 0.681130),
    ];
    let threads = BenchmarkId::Ferret.clamp_threads(4);
    let mut held = Vec::new();
    for (seed, pinned) in PINNED {
        let mut h = Harness::new(ExperimentConfig {
            seed,
            ..ExperimentConfig::default()
        })
        .expect("harness builds");
        let mut h_ntt = |kind| h.single(BenchmarkId::Ferret, threads, 2, 2, kind).unwrap();
        let ratio = h_ntt(SchedulerKind::Colab) / h_ntt(SchedulerKind::Linux);
        assert!(
            (ratio - pinned).abs() < 1e-6,
            "seed {seed}: COLAB/Linux {ratio:.6}, pinned {pinned:.6}"
        );
        if ratio < 0.8 {
            held.push(seed);
        }
    }
    let expected: Vec<u64> = (1..=16)
        .chain([42])
        .filter(|s| ![12, 15, 16].contains(s))
        .collect();
    assert_eq!(
        held, expected,
        "seeds on which COLAB cuts ferret's H_NTT by >20%"
    );
}

#[test]
fn swaptions_is_the_wash_favouring_case() {
    // §5.2: swaptions' core-insensitive bottleneck + core-sensitive
    // workers is WASH's ideal case; COLAB does not beat it there.
    let mut h = harness(1.0);
    let wash = h
        .single(BenchmarkId::Swaptions, 4, 2, 2, SchedulerKind::Wash)
        .unwrap();
    let colab = h
        .single(BenchmarkId::Swaptions, 4, 2, 2, SchedulerKind::Colab)
        .unwrap();
    assert!(
        colab >= 0.95 * wash,
        "swaptions should favour WASH: wash {wash:.3}, colab {colab:.3}"
    );
}

#[test]
fn colab_beats_linux_on_sync_intensive_mixes() {
    // Figure 5's headline: synchronization-intensive workloads are where
    // coordinated bottleneck handling pays off.
    let mut h = harness(1.0);
    let mut ratios = Vec::new();
    for idx in 1..=4 {
        let spec = PaperWorkload::new(WorkloadClass::Sync, idx).spec();
        for (big, little) in [(2usize, 2usize), (4, 4)] {
            let linux = h.mix(&spec, big, little, SchedulerKind::Linux).unwrap();
            let colab = h.mix(&spec, big, little, SchedulerKind::Colab).unwrap();
            ratios.push(colab.antt_vs(&linux));
        }
    }
    let geo = colab_suite::metrics::geomean(&ratios);
    assert!(
        geo < 1.0,
        "COLAB must improve sync-intensive H_ANTT overall, got ×{geo:.3}"
    );
}

#[test]
fn colab_dominates_on_thread_low_workloads() {
    // Figure 8: few threads → bottlenecks easy to identify → COLAB's
    // biggest wins, beating both Linux and WASH.
    let mut h = harness(1.0);
    let mut vs_linux = Vec::new();
    let mut vs_wash = Vec::new();
    for w in PaperWorkload::all()
        .into_iter()
        .filter(|w| w.is_thread_low())
    {
        let spec = w.spec();
        for (big, little) in [(2usize, 4usize), (4, 4)] {
            let linux = h.mix(&spec, big, little, SchedulerKind::Linux).unwrap();
            let wash = h.mix(&spec, big, little, SchedulerKind::Wash).unwrap();
            let colab = h.mix(&spec, big, little, SchedulerKind::Colab).unwrap();
            vs_linux.push(colab.antt_vs(&linux));
            vs_wash.push(colab.h_antt / wash.h_antt);
        }
    }
    let geo_linux = colab_suite::metrics::geomean(&vs_linux);
    let geo_wash = colab_suite::metrics::geomean(&vs_wash);
    assert!(geo_linux < 0.95, "thread-low vs Linux only ×{geo_linux:.3}");
    assert!(geo_wash < 1.0, "thread-low vs WASH only ×{geo_wash:.3}");
}

#[test]
fn h_antt_never_below_physical_floor() {
    // Co-scheduled on a machine whose twin replaces little cores with big
    // ones: the mix can never beat the isolated all-big baseline by more
    // than measurement noise.
    let mut h = harness(0.5);
    for w in [
        PaperWorkload::new(WorkloadClass::Sync, 1),
        PaperWorkload::new(WorkloadClass::Rand, 4),
    ] {
        for kind in SchedulerKind::ALL {
            let cell = h.mix(&w.spec(), 2, 2, kind).unwrap();
            assert!(
                cell.h_antt > 0.97,
                "{} {}: H_ANTT {:.3} beats physics",
                w.name(),
                kind.name(),
                cell.h_antt
            );
            let apps = cell.apps.len() as f64;
            assert!(
                cell.h_stp <= apps + 1e-9,
                "{}: H_STP {:.3} exceeds app count",
                w.name(),
                cell.h_stp
            );
        }
    }
}
