//! Validates that the synthetic benchmark models actually *exhibit* the
//! Table 3 categorisation they claim: synchronization rates and
//! communication/computation ratios must order correctly across the
//! suite, not just be labelled.

use amp_types::SimDuration;
use amp_workloads::{BenchmarkId, CommCompRatio, Scale, SyncRate};

/// Synchronization operations (locks + barriers + channel ops) per
/// millisecond of compute, summed over the app and averaged over a few
/// generation seeds so category comparisons test the generator's
/// expected behaviour rather than one sample's noise.
fn sync_rate(bench: BenchmarkId, threads: usize) -> f64 {
    let seeds = [7u64, 11, 13, 17, 19];
    let total: f64 = seeds
        .iter()
        .map(|&seed| {
            let app = bench.build(threads, seed, Scale::default());
            let mut sync_ops = 0u64;
            let mut compute = SimDuration::ZERO;
            for t in &app.threads {
                let (_, locks, unlocks, barriers, pushes, pops) = t.program.action_census();
                sync_ops += locks + unlocks + barriers + pushes + pops;
                compute += t.program.total_compute();
            }
            sync_ops as f64 / (compute.as_secs_f64() * 1e3)
        })
        .sum();
    total / seeds.len() as f64
}

/// Communication operations (channel + barrier crossings) per millisecond
/// of compute — barriers and queues are where data is exchanged.
fn comm_rate(bench: BenchmarkId, threads: usize) -> f64 {
    let app = bench.build(threads, 7, Scale::default());
    let mut comm_ops = 0u64;
    let mut compute = SimDuration::ZERO;
    for t in &app.threads {
        let (_, _, _, barriers, pushes, pops) = t.program.action_census();
        comm_ops += barriers + pushes + pops;
        compute += t.program.total_compute();
    }
    comm_ops as f64 / (compute.as_secs_f64() * 1e3)
}

fn rank(rate: SyncRate) -> u8 {
    match rate {
        SyncRate::Low => 0,
        SyncRate::Medium => 1,
        SyncRate::High => 2,
        SyncRate::VeryHigh => 3,
    }
}

#[test]
fn fluidanimate_has_the_highest_sync_rate() {
    let fluid = sync_rate(BenchmarkId::Fluidanimate, 4);
    for bench in BenchmarkId::ALL {
        if bench == BenchmarkId::Fluidanimate {
            continue;
        }
        let other = sync_rate(bench, 4);
        assert!(
            fluid > 2.0 * other,
            "fluidanimate ({fluid:.2}/ms) must dominate {bench} ({other:.2}/ms)"
        );
    }
}

#[test]
fn sync_rates_order_with_table3_categories() {
    // Average measured sync rate per category must be monotone in the
    // category order (the paper's qualitative grades made quantitative).
    let mut by_rank: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for bench in BenchmarkId::ALL {
        by_rank[rank(bench.info().sync_rate) as usize].push(sync_rate(bench, 4));
    }
    let means: Vec<f64> = by_rank
        .iter()
        .map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64)
        .collect();
    for pair in means.windows(2) {
        assert!(
            pair[1] > pair[0],
            "sync-rate category means must ascend: {means:?}"
        );
    }
}

#[test]
fn pipelines_communicate_more_than_data_parallel_codes() {
    // The comm-categorized pipelines move items constantly; the low-comm
    // SPLASH-2 kernels only hit barriers.
    let dedup = comm_rate(BenchmarkId::Dedup, 8);
    let ferret = comm_rate(BenchmarkId::Ferret, 8);
    for quiet in [
        BenchmarkId::LuCb,
        BenchmarkId::OceanCp,
        BenchmarkId::WaterSpatial,
    ] {
        let other = comm_rate(quiet, 4);
        assert!(dedup > other, "dedup {dedup:.3} vs {quiet} {other:.3}");
        assert!(ferret > other, "ferret {ferret:.3} vs {quiet} {other:.3}");
    }
}

#[test]
fn low_comm_low_sync_benchmarks_are_mostly_compute() {
    for bench in BenchmarkId::ALL {
        let info = bench.info();
        if info.sync_rate == SyncRate::Low && info.comm_comp == CommCompRatio::Low {
            let rate = sync_rate(bench, 4);
            assert!(rate < 2.0, "{bench} claims low/low but syncs {rate:.2}/ms");
        }
    }
}
