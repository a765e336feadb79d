//! Property tests for the telemetry invariants the rest of the suite
//! leans on: histogram quantile ordering, compact bucket storage and
//! exact merging, counter conservation, and the flight-recorder ring's
//! capacity bound and oldest-first drain under arbitrary event storms.

use amp_telemetry::{
    ClusterDirection, EventRing, LabelClass, LatencyHistogram, PreemptCause, SchedEvent, Telemetry,
    TelemetryReport,
};
use amp_types::{CoreId, SimDuration, SimTime, ThreadId};
use proptest::prelude::*;

fn event_strategy() -> impl Strategy<Value = SchedEvent> {
    (0u8..6, 0u32..8, 0u32..8, 0u32..6).prop_map(|(kind, a, b, c)| match kind {
        0 => SchedEvent::Migrate {
            thread: ThreadId(a),
            from: CoreId(b % 4),
            to: CoreId(c % 4),
            direction: ClusterDirection::ALL[((b + c) % 4) as usize],
        },
        1 => SchedEvent::Preempt {
            victim: ThreadId(a),
            cause: PreemptCause::ALL[(b % 2) as usize],
        },
        2 => SchedEvent::Relabel {
            thread: ThreadId(a),
            from: LabelClass::ALL[(b % 3) as usize],
            to: LabelClass::ALL[(c % 3) as usize],
        },
        3 => SchedEvent::SlicePredict {
            thread: ThreadId(a),
            predicted_speedup: 1.0 + f64::from(c) * 0.3,
            slice: SimDuration::from_micros(u64::from(b) * 100 + 50),
        },
        4 => SchedEvent::FutexWake {
            waker: ThreadId(a),
            woken: ThreadId(b),
            blocked: SimDuration::from_micros(u64::from(c)),
        },
        _ => SchedEvent::IdleSteal { thread: ThreadId(a), from: CoreId(b % 4) },
    })
}

fn histogram_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(SimDuration::from_nanos(s));
    }
    h
}

/// Whether the stored buckets end at the highest non-empty one (an
/// empty histogram stores none).
fn ends_at_highest_sample(h: &LatencyHistogram) -> bool {
    h.bucket_counts().last().is_none_or(|&n| n > 0) && h.bucket_counts().is_empty() == h.is_empty()
}

#[test]
fn empty_histograms_and_reports_own_no_buckets() {
    assert!(LatencyHistogram::new().bucket_counts().is_empty());
    let report = TelemetryReport::default();
    for h in [
        &report.wakeup_to_run,
        &report.runqueue_wait,
        &report.futex_block,
    ] {
        assert!(h.bucket_counts().is_empty());
    }
    // A run that recorded nothing stores nothing either.
    let (report, events) = Telemetry::new(8).finish();
    assert_eq!(report.runs, 1);
    assert!(report.wakeup_to_run.bucket_counts().is_empty());
    assert!(events.is_empty());
}

proptest! {
    #[test]
    fn ring_never_exceeds_capacity(
        events in proptest::collection::vec(event_strategy(), 1..400),
        cap in 0usize..64,
    ) {
        let mut ring = EventRing::new(cap);
        for (i, e) in events.iter().enumerate() {
            ring.push(SimTime::from_nanos(i as u64), CoreId((i % 4) as u32), *e);
            prop_assert!(ring.len() <= cap, "len {} exceeds capacity {cap}", ring.len());
        }
        // Offered = retained + overwritten, and a zero-capacity ring is inert.
        let expected_seen = if cap == 0 { 0 } else { events.len() as u64 };
        prop_assert_eq!(ring.seen(), expected_seen);
        prop_assert_eq!(ring.dropped(), ring.seen() - ring.len() as u64);
        // Drains oldest-first: timestamps are monotone.
        let times: Vec<u64> = ring.iter().map(|s| s.at.as_nanos()).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "ring drained out of order");
        // Per-core sequence numbers stay strictly increasing per core.
        let mut last_seq = [None::<u64>; 4];
        for s in ring.iter() {
            let slot = &mut last_seq[s.core.index()];
            prop_assert!(slot.is_none_or(|prev| s.seq > prev));
            *slot = Some(s.seq);
        }
    }

    #[test]
    fn counters_conserve_every_event(
        events in proptest::collection::vec(event_strategy(), 0..500),
    ) {
        let mut tel = Telemetry::new(8);
        let mut relabels_out = [0u64; 3];
        for (i, e) in events.iter().enumerate() {
            if let SchedEvent::Relabel { from, .. } = e {
                relabels_out[*from as usize] += 1;
            }
            tel.record(SimTime::from_nanos(i as u64), CoreId(0), *e);
        }
        let c = &tel.counters;
        // Label-matrix row sums equal the relabel events out of that class.
        for class in LabelClass::ALL {
            let row: u64 = c.label_matrix[class as usize].iter().sum();
            prop_assert_eq!(row, relabels_out[class as usize]);
        }
        prop_assert_eq!(c.total_relabels(), relabels_out.iter().sum::<u64>());
        // Every event lands in exactly one counter: the totals partition
        // the event stream.
        let applied = c.total_migrations()
            + c.total_preemptions()
            + c.total_relabels()
            + c.slice_predictions
            + c.futex_wakes
            + c.idle_steals;
        prop_assert_eq!(applied, events.len() as u64);
    }

    #[test]
    fn histogram_quantiles_are_ordered(
        samples in proptest::collection::vec(0u64..10_000_000_000, 1..300),
    ) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let s = h.summary();
        prop_assert!(s.p50 <= s.p95, "p50 {} > p95 {}", s.p50, s.p95);
        prop_assert!(s.p95 <= s.p99, "p95 {} > p99 {}", s.p95, s.p99);
        prop_assert!(s.p99 <= s.max, "p99 {} > max {}", s.p99, s.max);
        prop_assert_eq!(s.count, samples.len() as u64);
        prop_assert_eq!(s.max.as_nanos(), *samples.iter().max().unwrap());
        prop_assert!(h.min() <= s.mean && s.mean <= s.max, "mean outside range");
        // Quantile is monotone in q, and bucket counts conserve samples.
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        for pair in qs.windows(2) {
            prop_assert!(h.quantile(pair[0]) <= h.quantile(pair[1]));
        }
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), samples.len() as u64);
    }

    #[test]
    fn histogram_absorb_pools_exactly(
        a in proptest::collection::vec(0u64..1_000_000_000, 1..100),
        b in proptest::collection::vec(0u64..1_000_000_000, 1..100),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut pooled = LatencyHistogram::new();
        for &s in &a {
            ha.record(SimDuration::from_nanos(s));
            pooled.record(SimDuration::from_nanos(s));
        }
        for &s in &b {
            hb.record(SimDuration::from_nanos(s));
            pooled.record(SimDuration::from_nanos(s));
        }
        ha.absorb(&hb);
        // Absorbing is exactly pooling the samples.
        prop_assert_eq!(ha.count(), pooled.count());
        prop_assert_eq!(ha.max(), pooled.max());
        prop_assert_eq!(ha.bucket_counts(), pooled.bucket_counts());
        prop_assert_eq!(ha.quantile(0.5), pooled.quantile(0.5));
    }

    #[test]
    fn absorb_extends_the_shorter_side_in_either_order(
        a in proptest::collection::vec(any::<u64>(), 0..60),
        a_shift in 0u32..64,
        b in proptest::collection::vec(any::<u64>(), 0..60),
        b_shift in 0u32..64,
    ) {
        // Shifting each side by its own amount gives the two histograms
        // different highest buckets.
        let a: Vec<u64> = a.iter().map(|s| s >> a_shift).collect();
        let b: Vec<u64> = b.iter().map(|s| s >> b_shift).collect();
        let pooled = histogram_of(&[a.as_slice(), b.as_slice()].concat());
        let mut ab = histogram_of(&a);
        ab.absorb(&histogram_of(&b));
        let mut ba = histogram_of(&b);
        ba.absorb(&histogram_of(&a));
        prop_assert_eq!(ab.bucket_counts(), pooled.bucket_counts());
        prop_assert_eq!(ba.bucket_counts(), pooled.bucket_counts());
        prop_assert_eq!(&ab, &pooled);
        prop_assert_eq!(&ba, &pooled);
        prop_assert!(ends_at_highest_sample(&ab));
    }

    #[test]
    fn stored_buckets_end_at_the_highest_non_empty_one(
        samples in proptest::collection::vec(0u64..10_000_000_000, 0..200),
    ) {
        let h = histogram_of(&samples);
        prop_assert!(ends_at_highest_sample(&h), "{:?}", h.bucket_counts().last());
        // The same holds for the histograms a finished run hands over.
        let mut tel = Telemetry::new(0);
        for &s in &samples {
            tel.observe_runqueue_wait(SimDuration::from_nanos(s));
        }
        let (report, _) = tel.finish();
        prop_assert_eq!(report.runqueue_wait.bucket_counts(), h.bucket_counts());
        prop_assert!(report.wakeup_to_run.bucket_counts().is_empty());
    }

    #[test]
    fn consumed_ring_equals_its_oldest_first_iteration(
        events in proptest::collection::vec(event_strategy(), 0..200),
        cap in 0usize..64,
    ) {
        // Covers empty, partly filled and wrapped rings alike.
        let mut ring = EventRing::new(cap);
        for (i, e) in events.iter().enumerate() {
            ring.push(SimTime::from_nanos(i as u64), CoreId((i % 3) as u32), *e);
        }
        let iterated: Vec<_> = ring.iter().copied().collect();
        prop_assert_eq!(ring.into_events(), iterated);
    }
}
