//! Property tests for the heterogeneous metrics: algebraic identities the
//! formulas must satisfy for any positive inputs.

use amp_metrics::{geomean, h_antt, h_ntt, h_stp};
use amp_types::SimDuration;
use proptest::prelude::*;

fn pairs_strategy() -> impl Strategy<Value = Vec<(SimDuration, SimDuration)>> {
    proptest::collection::vec(
        (1u64..1_000_000, 1u64..1_000_000)
            .prop_map(|(m, b)| (SimDuration::from_micros(m), SimDuration::from_micros(b))),
        1..10,
    )
}

proptest! {
    #[test]
    fn h_stp_bounded_by_app_count_when_no_speedup(pairs in pairs_strategy()) {
        // If every app co-runs no faster than isolated (T_M >= T_SB),
        // throughput cannot exceed the app count and ANTT is >= 1.
        let slowed: Vec<_> = pairs
            .iter()
            .map(|&(m, b)| (m.max(b), b))
            .collect();
        prop_assert!(h_stp(&slowed) <= slowed.len() as f64 + 1e-9);
        prop_assert!(h_antt(&slowed) >= 1.0 - 1e-12);
    }

    #[test]
    fn antt_and_stp_move_oppositely_under_uniform_slowdown(pairs in pairs_strategy()) {
        let slower: Vec<_> = pairs.iter().map(|&(m, b)| (m * 2, b)).collect();
        prop_assert!(h_antt(&slower) > h_antt(&pairs));
        prop_assert!(h_stp(&slower) < h_stp(&pairs));
        // Uniform 2x slowdown scales the metrics exactly.
        prop_assert!((h_antt(&slower) / h_antt(&pairs) - 2.0).abs() < 1e-9);
        prop_assert!((h_stp(&pairs) / h_stp(&slower) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_app_antt_equals_ntt(m in 1u64..1_000_000, b in 1u64..1_000_000) {
        let tm = SimDuration::from_micros(m);
        let tb = SimDuration::from_micros(b);
        prop_assert_eq!(h_antt(&[(tm, tb)]), h_ntt(tm, tb));
    }

    #[test]
    fn geomean_properties(values in proptest::collection::vec(0.01f64..100.0, 1..20)) {
        let g = geomean(&values);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= min - 1e-9 && g <= max + 1e-9, "geomean outside range");
        // Scale invariance: geomean(k·x) = k·geomean(x).
        let scaled: Vec<f64> = values.iter().map(|v| v * 3.0).collect();
        prop_assert!((geomean(&scaled) - 3.0 * g).abs() < 1e-6 * g.max(1.0));
    }
}
