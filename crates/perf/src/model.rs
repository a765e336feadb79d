//! The online speedup predictor (the paper's Table 2 artifact).
//!
//! Offline, the paper runs every benchmark on symmetric big-only and
//! little-only machines, records PMU counters and the measured speedup,
//! PCA-selects the six most informative counters, normalizes them by
//! committed instructions, and fits a linear model. Online, the scheduler
//! evaluates the model every 10 ms per thread.
//!
//! [`SpeedupModel::train`] reproduces the offline pipeline;
//! [`SpeedupModel::heuristic`] is an untrained analytic fallback useful for
//! tests and quick examples.

use amp_types::{Error, Result};

use crate::counters::{Counter, PmuCounters, NUM_COUNTERS};
use crate::linreg::LinearModel;
use crate::profile::ExecutionProfile;

/// A labelled training corpus: one row per (thread × sampling interval),
/// pairing a PMU snapshot with the measured big-vs-little speedup.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    rows: Vec<(PmuCounters, f64)>,
}

impl TrainingSet {
    /// An empty corpus.
    pub fn new() -> TrainingSet {
        TrainingSet::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, counters: PmuCounters, speedup: f64) {
        self.rows.push((counters, speedup));
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The observations.
    pub fn rows(&self) -> &[(PmuCounters, f64)] {
        &self.rows
    }
}

#[derive(Debug, Clone)]
enum ModelKind {
    /// PCA-selected counters + linear regression, the paper's pipeline.
    Trained {
        selected: Vec<Counter>,
        model: LinearModel,
    },
    /// Analytic fallback derived from the synthetic PMU's data-generating
    /// process; needs no training run.
    Heuristic,
}

/// Predicts a thread's big-vs-little speedup from its PMU counters.
///
/// Predictions are clamped to the physically meaningful range
/// `[`[`ExecutionProfile::MIN_SPEEDUP`]`, `[`ExecutionProfile::MAX_SPEEDUP`]`]`.
///
/// # Examples
///
/// ```
/// use amp_perf::{ExecutionProfile, SpeedupModel};
/// use amp_types::CoreKind;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let profile = ExecutionProfile::compute_bound();
/// let pmu = profile.synthesize_counters(CoreKind::Big, 2e6, 1.6e6, 0, &mut rng);
/// let predicted = SpeedupModel::heuristic().predict(&pmu);
/// assert!((predicted - profile.true_speedup()).abs() < 0.6);
/// ```
#[derive(Debug, Clone)]
pub struct SpeedupModel {
    kind: ModelKind,
}

impl SpeedupModel {
    /// Trains the paper's pipeline: PCA-rank all counters (normalized by
    /// committed instructions), keep the top `k`, and fit a linear
    /// regression from those `k` normalized counters to the speedup.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] if the corpus is too small or the
    /// decomposition/regression fails.
    pub fn train(set: &TrainingSet, k: usize) -> Result<SpeedupModel> {
        if set.len() < 4 * (k + 1) {
            return Err(Error::Numerical(format!(
                "training set of {} rows is too small for {k} features",
                set.len()
            )));
        }
        // Feature candidates: every counter except the normalizer itself.
        let candidates: Vec<Counter> = Counter::ALL
            .iter()
            .copied()
            .filter(|&c| c != Counter::CommittedInsts)
            .collect();

        let matrix: Vec<Vec<f64>> = set
            .rows()
            .iter()
            .map(|(pmu, _)| candidates.iter().map(|&c| pmu.normalized(c)).collect())
            .collect();

        let speedups: Vec<f64> = set.rows().iter().map(|&(_, s)| s).collect();
        let ranked = crate::pca::rank_features_for_target(&matrix, &speedups)?;
        let selected: Vec<Counter> = ranked
            .iter()
            .take(k.min(candidates.len()))
            .map(|&i| candidates[i])
            .collect();

        let xs: Vec<Vec<f64>> = set
            .rows()
            .iter()
            .map(|(pmu, _)| selected.iter().map(|&c| pmu.normalized(c)).collect())
            .collect();
        let ys: Vec<f64> = set.rows().iter().map(|&(_, s)| s).collect();
        let model = LinearModel::fit(&xs, &ys)?;

        Ok(SpeedupModel {
            kind: ModelKind::Trained { selected, model },
        })
    }

    /// An analytic model that inverts the synthetic PMU's data-generating
    /// process; useful when no training run is available (tests, examples).
    pub fn heuristic() -> SpeedupModel {
        SpeedupModel {
            kind: ModelKind::Heuristic,
        }
    }

    /// Predicts the big-vs-little speedup from a PMU snapshot. Returns the
    /// neutral value `1.0` when no instructions have committed yet.
    pub fn predict(&self, pmu: &PmuCounters) -> f64 {
        if pmu.committed_insts() <= 0.0 {
            return 1.0;
        }
        let raw = match &self.kind {
            ModelKind::Trained { selected, model } => {
                // A stack buffer, not a Vec: this runs per thread per tick.
                let mut x = [0.0; NUM_COUNTERS];
                for (slot, &c) in x.iter_mut().zip(selected) {
                    *slot = pmu.normalized(c);
                }
                model.predict(&x[..selected.len()])
            }
            ModelKind::Heuristic => heuristic_predict(pmu),
        };
        raw.clamp(ExecutionProfile::MIN_SPEEDUP, ExecutionProfile::MAX_SPEEDUP)
    }

    /// The PCA-selected counters (empty for the heuristic model).
    pub fn selected_counters(&self) -> &[Counter] {
        match &self.kind {
            ModelKind::Trained { selected, .. } => selected,
            ModelKind::Heuristic => &[],
        }
    }

    /// Training-set R² (1.0 for the heuristic model, which has no fit).
    pub fn r_squared(&self) -> f64 {
        match &self.kind {
            ModelKind::Trained { model, .. } => model.r_squared(),
            ModelKind::Heuristic => 1.0,
        }
    }

    /// Renders the model in the style of the paper's Table 2: the selected
    /// counters with an index letter, then the linear formula.
    pub fn table2_string(&self) -> String {
        match &self.kind {
            ModelKind::Heuristic => "heuristic model (no trained counters)".to_string(),
            ModelKind::Trained { selected, model } => {
                let mut out = String::from("Selected performance counters by PCA\n");
                for (i, c) in selected.iter().enumerate() {
                    let letter = (b'A' + i as u8) as char;
                    out.push_str(&format!("  {letter}: {}\n", c.gem5_name()));
                }
                out.push_str("Linear predictive speedup model\n  ");
                out.push_str(&format!("{:.4}", model.intercept()));
                for (i, coef) in model.coefficients().iter().enumerate() {
                    let letter = (b'A' + i as u8) as char;
                    out.push_str(&format!(" + ({coef:+.4}*{letter}/G)"));
                }
                out.push_str(&format!(
                    "\n  (G = commit.committedInsts, R^2 = {:.3})",
                    model.r_squared()
                ));
                out
            }
        }
    }
}

/// Analytic inversion of the synthetic counter model in
/// [`ExecutionProfile::synthesize_counters`].
fn heuristic_predict(pmu: &PmuCounters) -> f64 {
    let cycles = pmu[Counter::NumCycles].max(1.0);
    let fp_ratio = (pmu.normalized(Counter::FpRegfileWrites) / 0.6).clamp(0.0, 1.0);
    let branchiness = ((pmu.normalized(Counter::FetchBranches) - 0.04) / 0.18).clamp(0.0, 1.0);
    let mem_ratio = ((pmu.normalized(Counter::DcacheTagsInUse) - 0.05) / 0.45).clamp(0.0, 1.0);
    let ilp = (1.0 - pmu[Counter::DecodeBlockedCycles] / (0.10 * cycles)).clamp(0.0, 1.0);
    1.06 + 1.35 * ilp * (1.0 - 0.50 * mem_ratio) + 0.22 * fp_ratio * (1.0 - mem_ratio)
        - 0.20 * branchiness * (1.0 - ilp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_types::CoreKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn corpus(n: usize, seed: u64) -> (TrainingSet, Vec<ExecutionProfile>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = TrainingSet::new();
        let mut profiles = Vec::new();
        for i in 0..n {
            let p = ExecutionProfile::sample(&mut rng);
            // Big-core counters, as the paper's training procedure records.
            let insts = 1e6 + (i as f64) * 13.0;
            let cycles = insts / p.ipc_big();
            let pmu = p.synthesize_counters(CoreKind::Big, cycles, insts, i as u64, &mut rng);
            set.push(pmu, p.true_speedup());
            profiles.push(p);
        }
        (set, profiles)
    }

    #[test]
    fn training_selects_k_counters_and_fits_well() {
        let (set, _) = corpus(600, 21);
        let model = SpeedupModel::train(&set, 6).unwrap();
        assert_eq!(model.selected_counters().len(), 6);
        assert!(
            model.r_squared() > 0.8,
            "trained model R^2 too low: {}",
            model.r_squared()
        );
        assert!(!model.selected_counters().contains(&Counter::CommittedInsts));
    }

    #[test]
    fn trained_model_predicts_held_out_profiles() {
        let (train, _) = corpus(600, 22);
        let model = SpeedupModel::train(&train, 6).unwrap();
        let (test, profiles) = corpus(100, 99);
        let mut abs_err = 0.0;
        for ((pmu, truth), _) in test.rows().iter().zip(profiles) {
            abs_err += (model.predict(pmu) - truth).abs();
        }
        let mae = abs_err / 100.0;
        assert!(mae < 0.25, "held-out MAE {mae} too high");
    }

    #[test]
    fn predictions_are_clamped() {
        let (set, _) = corpus(600, 23);
        let model = SpeedupModel::train(&set, 6).unwrap();
        let mut extreme = PmuCounters::zeroed();
        extreme[Counter::CommittedInsts] = 1.0;
        extreme[Counter::DcacheTagsInUse] = 1e9;
        let p = model.predict(&extreme);
        assert!((ExecutionProfile::MIN_SPEEDUP..=ExecutionProfile::MAX_SPEEDUP).contains(&p));
    }

    #[test]
    fn empty_counters_predict_neutral() {
        assert_eq!(
            SpeedupModel::heuristic().predict(&PmuCounters::zeroed()),
            1.0
        );
    }

    #[test]
    fn heuristic_tracks_truth_on_big_core_counters() {
        let mut rng = StdRng::seed_from_u64(31);
        let model = SpeedupModel::heuristic();
        for _ in 0..200 {
            let p = ExecutionProfile::sample(&mut rng);
            let insts = 2e6;
            let cycles = insts / p.ipc_big();
            let pmu = p.synthesize_counters(CoreKind::Big, cycles, insts, 0, &mut rng);
            let err = (model.predict(&pmu) - p.true_speedup()).abs();
            assert!(err < 0.8, "heuristic error {err} for {p:?}");
        }
    }

    #[test]
    fn small_corpus_is_rejected() {
        let (set, _) = corpus(10, 1);
        assert!(SpeedupModel::train(&set, 6).is_err());
    }

    #[test]
    fn table2_rendering_lists_letters() {
        let (set, _) = corpus(600, 40);
        let model = SpeedupModel::train(&set, 6).unwrap();
        let rendered = model.table2_string();
        assert!(rendered.contains("A: "));
        assert!(rendered.contains("F: "));
        assert!(rendered.contains("committedInsts"));
    }
}
