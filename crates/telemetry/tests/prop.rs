//! Property tests for the telemetry invariants the rest of the suite
//! leans on: histogram quantile ordering, packed bucket storage that
//! reads exactly like a dense one, exact merging in any order, counter
//! conservation, and the flight-recorder ring's capacity bound and
//! oldest-first drain under arbitrary event storms.

use std::fmt;

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

/// Latency samples over the whole `u64` range, with the edges drawn
/// often: 0, the exact buckets below 16, and `u64::MAX`.
fn sample_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..16,
        (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift),
        Just(u64::MAX),
    ]
}

fn histogram_of(samples: &[u64]) -> LatencyHistogram {
    samples.iter().map(|&s| SimDuration::from_nanos(s)).collect()
}

fn buckets(h: &LatencyHistogram) -> Vec<(usize, u64)> {
    h.buckets().collect()
}

/// Whether the stored buckets are exactly non-empty ones, strictly
/// ascending (an empty histogram stores none).
fn stores_only_non_empty_buckets(h: &LatencyHistogram) -> bool {
    let stored = buckets(h);
    stored.windows(2).all(|w| w[0].0 < w[1].0)
        && stored.iter().all(|&(_, n)| n > 0)
        && stored.is_empty() == h.is_empty()
}

/// A test-only dense histogram: one counter for every one of the 976
/// buckets, read by walking all of them.
struct DenseReference {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl DenseReference {
    fn of(samples: &[u64]) -> Self {
        let mut counts = vec![0; 976];
        for &v in samples {
            counts[Self::bucket(v)] += 1;
        }
        DenseReference {
            counts,
            count: samples.len() as u64,
            sum: samples.iter().fold(0u64, |sum, &v| sum.saturating_add(v)),
            min: samples.iter().copied().min().unwrap_or(0),
            max: samples.iter().copied().max().unwrap_or(0),
        }
    }

    /// Exact below 16, then 16 linear sub-buckets per power of two.
    fn bucket(v: u64) -> usize {
        if v < 16 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros() as usize;
            (msb - 3) * 16 + ((v >> (msb - 4)) & 15) as usize
        }
    }

    /// Largest value that lands in `index`.
    fn upper(index: usize) -> u64 {
        if index < 16 {
            index as u64
        } else {
            let shift = index / 16 - 1;
            (((16 + index % 16 + 1) as u128) << shift).saturating_sub(1).min(u64::MAX.into()) as u64
        }
    }

    fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0;
        let index = (0..self.counts.len())
            .find(|&i| {
                cumulative += self.counts[i];
                cumulative >= target
            })
            .expect("the counts add up to the sample count");
        SimDuration::from_nanos(Self::upper(index).min(self.max))
    }

    fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.sum.checked_div(self.count).unwrap_or(0))
    }

    fn non_empty(&self) -> Vec<(usize, u64)> {
        (self.counts.iter().enumerate())
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }
}

impl fmt::Debug for DenseReference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.50))
            .field("p95", &self.quantile(0.95))
            .field("p99", &self.quantile(0.99))
            .field("max", &SimDuration::from_nanos(self.max))
            .finish()
    }
}

#[test]
fn empty_histograms_and_reports_own_no_buckets() {
    assert_eq!(LatencyHistogram::new().buckets().len(), 0);
    let report = TelemetryReport::default();
    for h in [
        &report.wakeup_to_run,
        &report.runqueue_wait,
        &report.futex_block,
    ] {
        assert_eq!(h.buckets().len(), 0);
    }
    // A run that recorded nothing stores nothing either.
    let (report, events) = Telemetry::new(8).finish();
    assert_eq!(report.runs, 1);
    assert_eq!(report.wakeup_to_run.buckets().len(), 0);
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
        let h = histogram_of(&samples);
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
        prop_assert_eq!(h.buckets().map(|(_, n)| n).sum::<u64>(), samples.len() as u64);
    }

    #[test]
    fn histogram_absorb_pools_exactly(
        a in proptest::collection::vec(0u64..1_000_000_000, 1..100),
        b in proptest::collection::vec(0u64..1_000_000_000, 1..100),
    ) {
        let mut ha = histogram_of(&a);
        let hb = histogram_of(&b);
        let pooled = histogram_of(&[a.as_slice(), b.as_slice()].concat());
        ha.absorb(&hb);
        // Absorbing is exactly pooling the samples.
        prop_assert_eq!(ha.count(), pooled.count());
        prop_assert_eq!(ha.max(), pooled.max());
        prop_assert_eq!(buckets(&ha), buckets(&pooled));
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
        prop_assert_eq!(buckets(&ab), buckets(&pooled));
        prop_assert_eq!(buckets(&ba), buckets(&pooled));
        prop_assert_eq!(&ab, &pooled);
        prop_assert_eq!(&ba, &pooled);
        prop_assert!(stores_only_non_empty_buckets(&ab));
    }

    #[test]
    fn stored_buckets_are_exactly_the_non_empty_ones(
        samples in proptest::collection::vec(0u64..10_000_000_000, 0..200),
    ) {
        let h = histogram_of(&samples);
        prop_assert!(stores_only_non_empty_buckets(&h), "{:?}", buckets(&h));
        // The same holds for the histograms a finished run hands over.
        let mut tel = Telemetry::new(0);
        for &s in &samples {
            tel.observe_runqueue_wait(SimDuration::from_nanos(s));
        }
        let (report, _) = tel.finish();
        prop_assert_eq!(buckets(&report.runqueue_wait), buckets(&h));
        prop_assert_eq!(&report.runqueue_wait, &h);
        prop_assert_eq!(report.wakeup_to_run.buckets().len(), 0);
    }

    #[test]
    fn packed_histogram_reads_like_a_dense_reference(
        samples in proptest::collection::vec(sample_strategy(), 0..300),
    ) {
        let h = histogram_of(&samples);
        let reference = DenseReference::of(&samples);
        prop_assert_eq!(buckets(&h), reference.non_empty());
        prop_assert!(stores_only_non_empty_buckets(&h), "{:?}", buckets(&h));
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(h.quantile(q), reference.quantile(q), "q = {}", q);
        }
        let s = h.summary();
        prop_assert_eq!(s.count, reference.count);
        prop_assert_eq!(s.mean, reference.mean());
        prop_assert_eq!(s.p50, reference.quantile(0.50));
        prop_assert_eq!(s.p95, reference.quantile(0.95));
        prop_assert_eq!(s.p99, reference.quantile(0.99));
        prop_assert_eq!(s.max.as_nanos(), reference.max);
        prop_assert_eq!(h.count(), reference.count);
        prop_assert_eq!(h.mean(), reference.mean());
        prop_assert_eq!(h.min().as_nanos(), reference.min);
        prop_assert_eq!(h.max().as_nanos(), reference.max);
        prop_assert_eq!(format!("{h:?}"), format!("{reference:?}"));
    }

    #[test]
    fn absorb_in_any_order_and_grouping_equals_the_pooled_histogram(
        samples in proptest::collection::vec(sample_strategy(), 0..200),
        cuts in proptest::collection::vec(0usize..200, 0..6),
        rotate in 0usize..7,
    ) {
        let pooled = histogram_of(&samples);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(samples.len())).collect();
        cuts.sort_unstable();
        let mut parts = Vec::new();
        let mut start = 0;
        for end in cuts.into_iter().chain([samples.len()]) {
            parts.push(histogram_of(&samples[start..end]));
            start = end;
        }
        let fold = |parts: &mut dyn Iterator<Item = &LatencyHistogram>| {
            let mut acc = LatencyHistogram::new();
            for part in parts {
                acc.absorb(part);
            }
            acc
        };
        let forward = fold(&mut parts.iter());
        let reverse = fold(&mut parts.iter().rev());
        let shift = rotate % parts.len();
        let rotated = fold(&mut parts[shift..].iter().chain(&parts[..shift]));
        // Pairwise, as a tree: ((p0 + p1) + (p2 + p3)) + ...
        let mut level = parts.clone();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| {
                    let mut joined = pair[0].clone();
                    if let Some(right) = pair.get(1) {
                        joined.absorb(right);
                    }
                    joined
                })
                .collect();
        }
        let tree = level.pop().expect("at least one part");
        for merged in [&forward, &reverse, &rotated, &tree] {
            prop_assert_eq!(buckets(merged), buckets(&pooled));
            prop_assert_eq!(merged, &pooled);
            prop_assert!(stores_only_non_empty_buckets(merged), "{:?}", buckets(merged));
        }
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
