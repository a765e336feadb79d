//! Log-bucketed latency histograms, HDR-style, built from scratch.
//!
//! Values (nanoseconds) land in buckets that are exact below 16 ns and
//! thereafter subdivide each power of two into 16 linear sub-buckets,
//! bounding the relative quantile error at ~6.25%. A histogram stores
//! buckets only up to its highest non-empty one: the bucket vector grows
//! on demand, geometrically, so recording never allocates per sample, and
//! histograms merge by addition, extending the shorter side. An empty
//! histogram holds no buckets and a full one at most 976.

use std::fmt;

use amp_types::SimDuration;

/// Sub-buckets per octave = 2^SUB_BITS.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Values below SUB get exact unit buckets; octaves 4..=63 each get SUB
/// sub-buckets. The most buckets a histogram can hold.
#[cfg(test)]
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A latency histogram over `u64` nanosecond values.
///
/// `counts` always ends at the highest non-empty bucket (it is empty when
/// no sample is recorded), so two histograms of the same samples are
/// equal bucket for bucket and a clone holds exactly what was recorded.
#[derive(Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

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

    /// Records one duration sample.
    pub fn record(&mut self, value: SimDuration) {
        let v = value.as_nanos();
        let index = Self::bucket_index(v);
        if index >= self.counts.len() {
            // `resize` reserves geometrically: amortised, a run allocates
            // a handful of times, not once per new highest bucket.
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min)
        }
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> SimDuration {
        match self.sum.checked_div(self.count) {
            Some(mean) => SimDuration::from_nanos(mean),
            None => SimDuration::ZERO,
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// smallest bucket boundary at which the cumulative count reaches
    /// `q · count`, clamped to the observed maximum. Monotone in `q` by
    /// construction. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return SimDuration::from_nanos(Self::bucket_upper_bound(index).min(self.max));
            }
        }
        SimDuration::from_nanos(self.max)
    }

    /// Per-bucket counts, for conservation checks and export. The slice
    /// ends at the highest non-empty bucket, so its length varies with the
    /// samples (0 when empty, at most 976); bucket `i` of two
    /// histograms covers the same values whatever their lengths.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Releases the spare capacity left by geometric growth, so a stored
    /// histogram owns exactly its buckets.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.counts.shrink_to_fit();
    }

    /// Folds another histogram into this one (bucketwise addition),
    /// extending this one to the other's length if it is shorter.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        let shared = self.counts.len().min(other.counts.len());
        let (common, tail) = other.counts.split_at(shared);
        for (a, b) in self.counts.iter_mut().zip(common) {
            *a += b;
        }
        self.counts.reserve_exact(tail.len());
        self.counts.extend_from_slice(tail);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Snapshot of the headline statistics.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
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
            .field("count", &self.count)
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

    #[test]
    fn buckets_are_exact_below_sixteen() {
        for v in 0..16u64 {
            assert_eq!(LatencyHistogram::bucket_index(v), v as usize);
            assert_eq!(LatencyHistogram::bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_monotone() {
        let mut previous_upper = None;
        for index in 0..BUCKETS {
            let upper = LatencyHistogram::bucket_upper_bound(index);
            if let Some(prev) = previous_upper {
                assert!(upper > prev, "bucket {index} upper {upper} <= {prev}");
                // The value one past the previous bound maps to this bucket.
                assert_eq!(LatencyHistogram::bucket_index(prev + 1), index);
            }
            assert_eq!(LatencyHistogram::bucket_index(upper), index);
            previous_upper = Some(upper);
        }
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_exact_values_within_bucket_width() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(SimDuration::from_nanos(v));
        }
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
        let mut h = LatencyHistogram::new();
        for v in [3u64, 17, 900, 4096, 70_000, 1 << 30] {
            h.record(SimDuration::from_nanos(v));
        }
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q).as_nanos())
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(*qs.last().unwrap() <= h.max().as_nanos());
    }

    #[test]
    fn absorb_pools_samples() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_nanos(10));
        b.record(SimDuration::from_nanos(1000));
        a.absorb(&b);
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
