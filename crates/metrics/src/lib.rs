//! Heterogeneous scheduling-efficiency metrics (§5.1).
//!
//! ANTT and STP (Eyerman & Eeckhout) normalize each co-scheduled
//! application against its isolated runtime — but on an AMP the isolated
//! runtime itself depends on scheduling decisions. The paper therefore
//! normalizes against the application's runtime **alone on a big-core-only
//! machine** (`T_SB`), defining:
//!
//! * `H_NTT  = T_M / T_SB` (single program; lower is better),
//! * `H_ANTT = (1/n) Σ T_M_i / T_SB_i` (lower is better),
//! * `H_STP  = Σ T_SB_i / T_M_i` (higher is better).
//!
//! # Examples
//!
//! ```
//! use amp_metrics::{h_antt, h_stp, h_ntt};
//! use amp_types::SimDuration;
//!
//! let ms = SimDuration::from_millis;
//! // Two apps: one ran 2× slower than isolated, one 4× slower.
//! let pairs = [(ms(200), ms(100)), (ms(400), ms(100))];
//! assert!((h_antt(&pairs) - 3.0).abs() < 1e-12);
//! assert!((h_stp(&pairs) - 0.75).abs() < 1e-12);
//! assert!((h_ntt(ms(150), ms(100)) - 1.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

use amp_types::SimDuration;

/// Heterogeneous Normalized Turnaround Time for a single application:
/// co-scheduled (or heterogeneous) runtime over isolated big-only runtime.
/// Lower is better.
///
/// # Panics
///
/// Panics if the baseline `t_sb` is zero.
pub fn h_ntt(t_m: SimDuration, t_sb: SimDuration) -> f64 {
    assert!(!t_sb.is_zero(), "isolated baseline must be non-zero");
    t_m.as_secs_f64() / t_sb.as_secs_f64()
}

/// Heterogeneous Average Normalized Turnaround Time over `(T_M, T_SB)`
/// pairs. Lower is better.
///
/// # Panics
///
/// Panics if `pairs` is empty or any baseline is zero.
pub fn h_antt(pairs: &[(SimDuration, SimDuration)]) -> f64 {
    assert!(!pairs.is_empty(), "H_ANTT needs at least one application");
    pairs
        .iter()
        .map(|&(t_m, t_sb)| h_ntt(t_m, t_sb))
        .sum::<f64>()
        / pairs.len() as f64
}

/// Heterogeneous System Throughput over `(T_M, T_SB)` pairs. Higher is
/// better; bounded above by the number of applications.
///
/// # Panics
///
/// Panics if `pairs` is empty or any co-scheduled time is zero.
pub fn h_stp(pairs: &[(SimDuration, SimDuration)]) -> f64 {
    assert!(!pairs.is_empty(), "H_STP needs at least one application");
    pairs
        .iter()
        .map(|&(t_m, t_sb)| {
            assert!(!t_m.is_zero(), "co-scheduled runtime must be non-zero");
            t_sb.as_secs_f64() / t_m.as_secs_f64()
        })
        .sum()
}

/// Ratio of the worst to the best per-application slowdown in a mix —
/// `1.0` is perfectly even suffering; large values mean some application
/// was penalized disproportionately (the unfairness COLAB's equal-progress
/// mechanism targets).
///
/// # Panics
///
/// Panics if `pairs` is empty or any duration is zero.
pub fn slowdown_spread(pairs: &[(SimDuration, SimDuration)]) -> f64 {
    assert!(!pairs.is_empty(), "spread needs at least one application");
    let slowdowns: Vec<f64> = pairs.iter().map(|&(m, b)| h_ntt(m, b)).collect();
    let max = slowdowns.iter().cloned().fold(0.0, f64::max);
    let min = slowdowns.iter().cloned().fold(f64::INFINITY, f64::min);
    max / min
}

/// Jain's fairness index over per-application normalized throughputs
/// (`T_SB / T_M`): `(Σx)² / (n·Σx²)`, in `(0, 1]`, where `1.0` means all
/// applications progress at the same normalized rate.
///
/// # Panics
///
/// Panics if `pairs` is empty or any co-scheduled time is zero.
pub fn jains_index(pairs: &[(SimDuration, SimDuration)]) -> f64 {
    assert!(!pairs.is_empty(), "fairness index needs applications");
    let xs: Vec<f64> = pairs
        .iter()
        .map(|&(m, b)| {
            assert!(!m.is_zero(), "co-scheduled runtime must be non-zero");
            b.as_secs_f64() / m.as_secs_f64()
        })
        .collect();
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    (sum * sum) / (xs.len() as f64 * sq)
}

/// Geometric mean of positive values — the aggregation the paper's figures
/// use for cross-configuration summaries.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing is undefined");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// The evaluated metrics of one `(workload, configuration, scheduler)`
/// cell, averaged over the two core-enumeration orders as in §5.1.
#[derive(Debug, Clone)]
pub struct MixSummary {
    /// Workload name (e.g. `"Sync-2"`).
    pub workload: String,
    /// Machine label (e.g. `"2B4S"`).
    pub config: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Per-application `(name, T_M, T_SB)`.
    pub apps: Vec<(String, SimDuration, SimDuration)>,
    /// Average normalized turnaround (lower is better).
    pub h_antt: f64,
    /// System throughput (higher is better).
    pub h_stp: f64,
}

impl MixSummary {
    /// Computes the summary from per-app turnaround pairs.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or any duration is zero.
    pub fn new(
        workload: impl Into<String>,
        config: impl Into<String>,
        scheduler: impl Into<String>,
        apps: Vec<(String, SimDuration, SimDuration)>,
    ) -> MixSummary {
        let pairs: Vec<(SimDuration, SimDuration)> = apps.iter().map(|&(_, m, b)| (m, b)).collect();
        MixSummary {
            workload: workload.into(),
            config: config.into(),
            scheduler: scheduler.into(),
            h_antt: h_antt(&pairs),
            h_stp: h_stp(&pairs),
            apps,
        }
    }

    /// H_ANTT of this cell normalized to a baseline cell (Linux), as the
    /// figures plot. Lower than 1.0 means better than the baseline.
    pub fn antt_vs(&self, baseline: &MixSummary) -> f64 {
        self.h_antt / baseline.h_antt
    }

    /// H_STP of this cell normalized to a baseline cell (Linux). Higher
    /// than 1.0 means better than the baseline.
    pub fn stp_vs(&self, baseline: &MixSummary) -> f64 {
        self.h_stp / baseline.h_stp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn single_app_identities() {
        // Running exactly at the isolated baseline: H_ANTT = H_STP = 1.
        let pairs = [(ms(100), ms(100))];
        assert_eq!(h_antt(&pairs), 1.0);
        assert_eq!(h_stp(&pairs), 1.0);
    }

    #[test]
    fn h_stp_bounded_by_app_count() {
        let pairs = [(ms(150), ms(100)), (ms(300), ms(100)), (ms(120), ms(100))];
        assert!(h_stp(&pairs) <= pairs.len() as f64);
    }

    #[test]
    fn slower_mix_raises_antt_and_lowers_stp() {
        let fast = [(ms(150), ms(100)), (ms(150), ms(100))];
        let slow = [(ms(300), ms(100)), (ms(300), ms(100))];
        assert!(h_antt(&slow) > h_antt(&fast));
        assert!(h_stp(&slow) < h_stp(&fast));
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn h_ntt_rejects_zero_baseline() {
        let _ = h_ntt(ms(10), ms(0));
    }

    #[test]
    fn fairness_metrics_detect_skew() {
        let even = [(ms(200), ms(100)), (ms(200), ms(100))];
        assert!((slowdown_spread(&even) - 1.0).abs() < 1e-12);
        assert!((jains_index(&even) - 1.0).abs() < 1e-12);

        let skewed = [(ms(120), ms(100)), (ms(480), ms(100))];
        assert!(slowdown_spread(&skewed) > 3.9);
        assert!(jains_index(&skewed) < 0.9);
        // Jain's index is bounded below by 1/n.
        assert!(jains_index(&skewed) >= 0.5);
    }

    #[test]
    fn mix_summary_and_normalization() {
        let linux = MixSummary::new(
            "Sync-1",
            "2B2S",
            "linux",
            vec![
                ("a".into(), ms(200), ms(100)),
                ("b".into(), ms(200), ms(100)),
            ],
        );
        let colab = MixSummary::new(
            "Sync-1",
            "2B2S",
            "colab",
            vec![
                ("a".into(), ms(160), ms(100)),
                ("b".into(), ms(160), ms(100)),
            ],
        );
        assert!((linux.h_antt - 2.0).abs() < 1e-12);
        assert!((colab.antt_vs(&linux) - 0.8).abs() < 1e-12);
        assert!(colab.stp_vs(&linux) > 1.0);
    }
}
