//! Conservation tests for [`TelemetryReport::absorb`], the combinator
//! the sweep reducer uses to fold per-cell reports back together.
//!
//! Two guarantees: merged decision counters equal the *sum* of the
//! per-cell counters (nothing lost, nothing double-counted), and merged
//! histogram quantiles stay within one log-bucket (~6.25% relative
//! error at 16 sub-buckets per octave) of the quantiles of the pooled
//! raw samples.

use amp_telemetry::{LatencyHistogram, TelemetryReport};
use amp_types::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a report with deterministic pseudo-random contents.
fn synthetic_report(seed: u64) -> TelemetryReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = TelemetryReport {
        runs: rng.gen_range(1u64..4),
        ..Default::default()
    };
    r.counters.picks = rng.gen_range(0u64..10_000);
    for slot in &mut r.counters.migrations {
        *slot = rng.gen_range(0u64..500);
    }
    for slot in &mut r.counters.preemptions {
        *slot = rng.gen_range(0u64..300);
    }
    for row in &mut r.counters.label_matrix {
        for slot in row {
            *slot = rng.gen_range(0u64..50);
        }
    }
    r.counters.slice_predictions = rng.gen_range(0u64..1_000);
    r.counters.futex_wakes = rng.gen_range(0u64..2_000);
    r.counters.idle_steals = rng.gen_range(0u64..200);
    for _ in 0..rng.gen_range(1usize..40) {
        let predicted = rng.gen_range(1.0f64..3.0);
        let actual = rng.gen_range(1.0f64..3.0);
        r.counters.prediction.observe(predicted, actual);
    }
    r.events_seen = rng.gen_range(0u64..5_000);
    r.events_dropped = rng.gen_range(0u64..r.events_seen.max(1));
    let samples = rng.gen_range(1usize..200);
    r.wakeup_to_run = (0..samples)
        .map(|_| SimDuration::from_nanos(rng.gen_range(1u64..100_000_000)))
        .collect();
    r
}

#[test]
fn merged_counters_equal_the_sum_of_per_cell_counters() {
    let cells: Vec<TelemetryReport> = (0..8).map(synthetic_report).collect();
    let mut merged = TelemetryReport::new();
    for cell in &cells {
        merged.absorb(cell);
    }

    let sum = |f: &dyn Fn(&TelemetryReport) -> u64| cells.iter().map(f).sum::<u64>();
    assert_eq!(merged.runs, sum(&|r| r.runs));
    assert_eq!(merged.counters.picks, sum(&|r| r.counters.picks));
    assert_eq!(
        merged.counters.total_migrations(),
        sum(&|r| r.counters.total_migrations())
    );
    assert_eq!(
        merged.counters.total_preemptions(),
        sum(&|r| r.counters.total_preemptions())
    );
    assert_eq!(
        merged.counters.total_relabels(),
        sum(&|r| r.counters.total_relabels())
    );
    for direction in 0..4 {
        assert_eq!(
            merged.counters.migrations[direction],
            sum(&|r| r.counters.migrations[direction]),
            "migration direction {direction} not conserved"
        );
    }
    for from in 0..3 {
        for to in 0..3 {
            assert_eq!(
                merged.counters.label_matrix[from][to],
                sum(&|r| r.counters.label_matrix[from][to]),
                "label flow {from}->{to} not conserved"
            );
        }
    }
    assert_eq!(
        merged.counters.slice_predictions,
        sum(&|r| r.counters.slice_predictions)
    );
    assert_eq!(
        merged.counters.futex_wakes,
        sum(&|r| r.counters.futex_wakes)
    );
    assert_eq!(
        merged.counters.idle_steals,
        sum(&|r| r.counters.idle_steals)
    );
    assert_eq!(
        merged.counters.prediction.samples,
        sum(&|r| r.counters.prediction.samples)
    );
    assert_eq!(merged.events_seen, sum(&|r| r.events_seen));
    assert_eq!(merged.events_dropped, sum(&|r| r.events_dropped));
    // Histogram sample counts pool.
    assert_eq!(
        merged.wakeup_to_run.count(),
        sum(&|r| r.wakeup_to_run.count())
    );
}

#[test]
fn absorb_is_commutative_and_leaves_its_argument_untouched() {
    let (a, b) = (synthetic_report(1), synthetic_report(2));
    let mut ab = a.clone();
    ab.absorb(&b);
    let mut ba = b.clone();
    ba.absorb(&a);
    assert_eq!(ab, ba, "merge must be commutative");
    assert_eq!(
        b,
        synthetic_report(2),
        "absorb must not mutate its argument"
    );
}

/// Exact quantile of a sorted sample set at the same "smallest value
/// with cumulative count ≥ ⌈q·n⌉" convention the histogram uses.
fn sample_quantile(sorted: &[u64], q: f64) -> u64 {
    let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[target - 1]
}

#[test]
fn merged_histogram_quantiles_track_pooled_samples_within_one_bucket() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut parts: Vec<LatencyHistogram> = Vec::new();
    let mut pooled_samples: Vec<u64> = Vec::new();
    for _ in 0..6 {
        let mut part = Vec::new();
        for _ in 0..rng.gen_range(50usize..400) {
            // Spread over several octaves, like real latency data.
            let magnitude = rng.gen_range(4u32..27);
            part.push(rng.gen_range(1u64 << magnitude..1u64 << (magnitude + 1)));
        }
        parts.push(part.iter().map(|&v| SimDuration::from_nanos(v)).collect());
        pooled_samples.extend(part);
    }
    let mut merged = LatencyHistogram::new();
    for part in &parts {
        merged.absorb(part);
    }
    pooled_samples.sort_unstable();
    assert_eq!(merged.count(), pooled_samples.len() as u64);

    // One log-bucket at 16 sub-buckets per octave bounds the relative
    // error at 1/16 of the value; allow exactly that, plus the bucket
    // upper-bound rounding.
    for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
        let estimated = merged.quantile(q).as_nanos();
        let exact = sample_quantile(&pooled_samples, q);
        assert!(
            estimated >= exact,
            "q={q}: histogram quantile {estimated} below exact sample quantile {exact}"
        );
        let bucket_width_bound = exact + exact / 16 + 1;
        assert!(
            estimated <= bucket_width_bound,
            "q={q}: histogram quantile {estimated} more than one log-bucket above {exact}"
        );
    }
}

#[test]
fn merging_many_parts_equals_recording_once() {
    // Bucketwise addition means merge order and partitioning are
    // irrelevant: N partial histograms merge to exactly the histogram
    // of the pooled stream.
    let mut rng = StdRng::seed_from_u64(11);
    let samples: Vec<SimDuration> = (0..1_000)
        .map(|_| SimDuration::from_nanos(rng.gen_range(1u64..1 << 30)))
        .collect();
    let whole: LatencyHistogram = samples.iter().copied().collect();
    for split in [2usize, 3, 7] {
        let mut merged = LatencyHistogram::new();
        for chunk in samples.chunks(samples.len() / split) {
            merged.absorb(&chunk.iter().copied().collect());
        }
        assert_eq!(merged, whole, "{split}-way split diverged");
    }
}
