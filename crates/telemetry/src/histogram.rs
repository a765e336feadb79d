//! Log-bucketed latency histograms, HDR-style, built from scratch.
//!
//! Values (nanoseconds) land in buckets that are exact below 16 ns and
//! thereafter subdivide each power of two into 16 linear sub-buckets,
//! bounding the relative quantile error at ~6.25%; there are 976 buckets.
//!
//! A live run records into a `HistogramRecorder`: one dense counter per
//! bucket up to the highest non-empty one, grown on demand
//! (geometrically), so recording never allocates per sample. When the run
//! ends the recorder packs into a [`LatencyHistogram`], the one stored
//! form, which keeps only its non-empty buckets: one `u64` entry
//! `index << 54 | count` each, sorted by index and exactly sized.
//! Histograms merge by a sorted merge that adds the counts of shared
//! buckets, so a pooled histogram is the same in any merge order. An
//! empty histogram holds no entries and a full one at most 976.

use std::cmp::Ordering;
use std::fmt;

use amp_types::SimDuration;

/// Sub-buckets per octave = 2^SUB_BITS.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Values below SUB get exact unit buckets; octaves 4..=63 each get SUB
/// sub-buckets. The most buckets a histogram can hold.
#[cfg(test)]
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Low bits of a stored entry that hold its bucket's count; the 10 bits
/// above hold the bucket index (every index is below 976 < 2^10).
const COUNT_BITS: u32 = 54;
/// The largest count one stored bucket can hold.
const MAX_COUNT: u64 = (1 << COUNT_BITS) - 1;

fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let sub = ((value >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (msb - SUB_BITS + 1) as usize * SUB + sub
    }
}

/// Inclusive upper bound of the values mapping to `index`.
fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUB {
        index as u64
    } else {
        let octave = (index / SUB) as u32 + SUB_BITS - 1;
        let sub = (index % SUB) as u128;
        // Bucket covers [(SUB+sub) << shift, (SUB+sub+1) << shift);
        // computed in u128 because the topmost bucket's exclusive
        // bound is 2^64.
        let shift = octave - SUB_BITS;
        (((SUB as u128 + sub + 1) << shift) - 1).min(u64::MAX as u128) as u64
    }
}

/// The stored entry of bucket `index` holding `count` samples.
///
/// # Panics
///
/// Panics if `count` does not fit in [`COUNT_BITS`] bits, so a count can
/// never spill into the index bits.
fn entry(index: usize, count: u64) -> u64 {
    assert!(
        count <= MAX_COUNT,
        "bucket {index} count {count} exceeds 2^{COUNT_BITS} - 1"
    );
    ((index as u64) << COUNT_BITS) | count
}

fn entry_index(entry: u64) -> usize {
    (entry >> COUNT_BITS) as usize
}

fn entry_count(entry: u64) -> u64 {
    entry & MAX_COUNT
}

/// Sample count, saturating sum and extremes: what both the recorder and
/// the stored histogram track beside their buckets.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Totals {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Totals {
    const EMPTY: Totals = Totals {
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };

    fn add(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn absorb(&mut self, other: &Totals) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The live recorder of one run: a dense counter per bucket, ending at
/// the highest non-empty one, packed into a [`LatencyHistogram`] by
/// [`finish`](HistogramRecorder::finish).
#[derive(Debug)]
pub(crate) struct HistogramRecorder {
    counts: Vec<u64>,
    totals: Totals,
}

impl HistogramRecorder {
    pub(crate) fn new() -> Self {
        HistogramRecorder {
            counts: Vec::new(),
            totals: Totals::EMPTY,
        }
    }

    /// Records one duration sample.
    pub(crate) fn record(&mut self, value: SimDuration) {
        let v = value.as_nanos();
        let index = bucket_index(v);
        if index >= self.counts.len() {
            // `resize` reserves geometrically: amortised, a run allocates
            // a handful of times, not once per new highest bucket.
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += 1;
        self.totals.add(v);
    }

    /// Packs the non-empty buckets into an exactly sized histogram.
    pub(crate) fn finish(self) -> LatencyHistogram {
        let stored = self.counts.iter().filter(|&&n| n > 0).count();
        let mut entries = Vec::with_capacity(stored);
        entries.extend(
            (self.counts.iter().enumerate())
                .filter(|&(_, &n)| n > 0)
                .map(|(index, &n)| entry(index, n)),
        );
        LatencyHistogram {
            entries,
            totals: self.totals,
        }
    }
}

/// A latency histogram over `u64` nanosecond values, storing only its
/// non-empty buckets.
///
/// Entries are strictly ascending by bucket index and never zero, so two
/// histograms of the same samples are equal entry for entry and a clone
/// holds exactly what was recorded. Build one from samples with
/// [`collect`](Iterator::collect) or read it from a run's
/// [`TelemetryReport`](crate::TelemetryReport).
#[derive(Clone, PartialEq)]
pub struct LatencyHistogram {
    entries: Vec<u64>,
    totals: Totals,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<SimDuration> for LatencyHistogram {
    fn from_iter<I: IntoIterator<Item = SimDuration>>(samples: I) -> Self {
        let mut recorder = HistogramRecorder::new();
        for sample in samples {
            recorder.record(sample);
        }
        recorder.finish()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            entries: Vec::new(),
            totals: Totals::EMPTY,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.totals.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.totals.count == 0
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.totals.max)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> SimDuration {
        if self.is_empty() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.totals.min)
        }
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> SimDuration {
        match self.totals.sum.checked_div(self.totals.count) {
            Some(mean) => SimDuration::from_nanos(mean),
            None => SimDuration::ZERO,
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// smallest bucket boundary at which the cumulative count reaches
    /// `q · count`, clamped to the observed maximum. Monotone in `q` by
    /// construction. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.is_empty() {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.totals.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, n) in self.buckets() {
            cumulative += n;
            if cumulative >= target {
                return SimDuration::from_nanos(bucket_upper_bound(index).min(self.totals.max));
            }
        }
        self.max()
    }

    /// The non-empty buckets as `(bucket, count)` pairs, in ascending
    /// bucket order, for conservation checks and export. Bucket `i` of
    /// any two histograms covers the same values; there are at most 976
    /// pairs, none when the histogram is empty, and each count is
    /// non-zero.
    pub fn buckets(&self) -> impl ExactSizeIterator<Item = (usize, u64)> + '_ {
        self.entries
            .iter()
            .map(|&e| (entry_index(e), entry_count(e)))
    }

    /// Folds another histogram into this one: a sorted merge of the two
    /// entry lists that adds the counts of shared buckets. The result is
    /// exactly sized.
    ///
    /// # Panics
    ///
    /// Panics if a merged bucket count exceeds 2^54 − 1.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        if !other.entries.is_empty() {
            let (a, b) = (&self.entries, &other.entries);
            let mut merged = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match entry_index(a[i]).cmp(&entry_index(b[j])) {
                    Ordering::Less => {
                        merged.push(a[i]);
                        i += 1;
                    }
                    Ordering::Greater => {
                        merged.push(b[j]);
                        j += 1;
                    }
                    Ordering::Equal => {
                        let count = entry_count(a[i]) + entry_count(b[j]);
                        merged.push(entry(entry_index(a[i]), count));
                        i += 1;
                        j += 1;
                    }
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&b[j..]);
            merged.shrink_to_fit();
            self.entries = merged;
        }
        self.totals.absorb(&other.totals);
    }

    /// Snapshot of the headline statistics.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.50))
            .field("p95", &self.quantile(0.95))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max())
            .finish()
    }
}

/// Headline statistics of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Mean value.
    pub mean: SimDuration,
    /// Median upper-bound estimate.
    pub p50: SimDuration,
    /// 95th-percentile upper-bound estimate.
    pub p95: SimDuration,
    /// 99th-percentile upper-bound estimate.
    pub p99: SimDuration,
    /// Observed maximum.
    pub max: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram_of(samples: &[u64]) -> LatencyHistogram {
        samples
            .iter()
            .map(|&v| SimDuration::from_nanos(v))
            .collect()
    }

    #[test]
    fn buckets_are_exact_below_sixteen() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_monotone() {
        let mut previous_upper = None;
        for index in 0..BUCKETS {
            let upper = bucket_upper_bound(index);
            if let Some(prev) = previous_upper {
                assert!(upper > prev, "bucket {index} upper {upper} <= {prev}");
                // The value one past the previous bound maps to this bucket.
                assert_eq!(bucket_index(prev + 1), index);
            }
            assert_eq!(bucket_index(upper), index);
            previous_upper = Some(upper);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn every_bucket_index_fits_above_the_count_bits() {
        let top = entry(BUCKETS - 1, MAX_COUNT);
        assert_eq!(entry_index(top), BUCKETS - 1);
        assert_eq!(entry_count(top), MAX_COUNT);
    }

    #[test]
    #[should_panic(expected = "exceeds 2^54 - 1")]
    fn a_count_past_the_count_bits_panics() {
        entry(3, MAX_COUNT + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds 2^54 - 1")]
    fn absorb_refuses_a_count_that_would_spill_into_the_index() {
        let mut full = histogram_of(&[7]);
        full.entries[0] = entry(7, MAX_COUNT);
        full.absorb(&histogram_of(&[7]));
    }

    #[test]
    fn quantiles_bound_exact_values_within_bucket_width() {
        let h: LatencyHistogram = (1..=1000u64).map(SimDuration::from_nanos).collect();
        let p50 = h.quantile(0.5).as_nanos();
        // Upper-bound estimate: never below the true quantile, within one
        // sub-bucket (6.25%) above it.
        assert!((500..=540).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.95).as_nanos() >= 950);
        assert_eq!(h.quantile(1.0).as_nanos(), 1000);
        assert_eq!(h.max().as_nanos(), 1000);
        assert_eq!(h.mean().as_nanos(), 500);
    }

    #[test]
    fn quantiles_are_monotone_and_capped_by_max() {
        let h = histogram_of(&[3, 17, 900, 4096, 70_000, 1 << 30]);
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q).as_nanos())
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(*qs.last().unwrap() <= h.max().as_nanos());
    }

    #[test]
    fn absorb_pools_samples() {
        let mut a = histogram_of(&[10]);
        a.absorb(&histogram_of(&[1000]));
        assert_eq!(a.count(), 2);
        assert_eq!(a.min().as_nanos(), 10);
        assert_eq!(a.max().as_nanos(), 1000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }
}
