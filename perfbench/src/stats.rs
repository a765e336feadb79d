//! Order statistics for reporting timings.

/// A tail percentile is reported only with at least this many samples
/// beyond it, so one outlier cannot be the whole tail.
pub const MIN_BEYOND: usize = 10;

/// Median of `values`: the mean of the two middle values for an even
/// count. Returns 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// One-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `pct` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// The highest percentile of `ladder` that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// lowest rung does not.
pub fn tail_percentile(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&pct| n >= rank(n, pct) + MIN_BEYOND)
        .max_by(f64::total_cmp)
}

/// Mean of the samples of `sorted` (ascending, non-empty) above
/// percentile `lo` and up to percentile `hi`, by nearest rank; at least
/// the sample at `hi`. A band rests on many samples where a single
/// percentile rests on one.
pub fn band_mean(sorted: &[f64], lo: f64, hi: f64) -> f64 {
    let end = rank(sorted.len(), hi);
    let start = ((lo / 100.0 * sorted.len() as f64).ceil() as usize).min(end - 1);
    let band = &sorted[start..end];
    band.iter().sum::<f64>() / band.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
    }

    #[test]
    fn tail_is_the_highest_rung_with_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond it.
        assert_eq!(tail_percentile(1000, &LADDER), Some(99.0));
        // One sample fewer leaves only nine beyond p99, so p95 it is.
        assert_eq!(tail_percentile(999, &LADDER), Some(95.0));
        // 200 samples: p95 (rank 190) has ten beyond.
        assert_eq!(tail_percentile(200, &LADDER), Some(95.0));
        assert_eq!(tail_percentile(199, &LADDER), Some(90.0));
        // Too few for any rung.
        assert_eq!(tail_percentile(19, &LADDER), None);
        assert_eq!(tail_percentile(20, &LADDER), Some(50.0));
    }

    #[test]
    fn band_mean_averages_the_ranks_inside_the_band() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ranks 41..=60 and 91..=100.
        assert_eq!(band_mean(&sorted, 40.0, 60.0), 50.5);
        assert_eq!(band_mean(&sorted, 90.0, 100.0), 95.5);
        assert_eq!(band_mean(&sorted, 0.0, 100.0), 50.5);
        // The band beyond the tail of 104 samples (p90) holds ten.
        let sorted: Vec<f64> = (1..=104).map(f64::from).collect();
        assert_eq!(band_mean(&sorted, 90.0, 100.0), 99.5);
        // A band narrower than one rank keeps the sample at `hi`.
        assert_eq!(band_mean(&[7.0, 9.0], 50.0, 60.0), 9.0);
        assert_eq!(band_mean(&[7.0], 40.0, 60.0), 7.0);
    }
}
