//! Performance-counter modelling and the online speedup predictor.
//!
//! The COLAB paper predicts each thread's big-vs-little speedup with an
//! *offline-trained* model: it records all 225 gem5 performance counters on
//! symmetric big-only and little-only runs, applies Principal Component
//! Analysis to pick the six counters with the largest effect, normalizes
//! them by committed instructions, and fits a linear regression (Table 2).
//! At runtime the model is evaluated every 10 ms from fresh counters.
//!
//! This crate rebuilds that entire pipeline from scratch:
//!
//! * [`Counter`] / [`PmuCounters`] — a synthetic gem5-style PMU with 24
//!   counters, including the seven of the paper's Table 2;
//! * [`ExecutionProfile`] — the latent per-thread characteristics (ILP,
//!   memory-boundedness, …) from which true speedups and counters derive;
//! * [`pca`] — standardization + covariance + Jacobi eigendecomposition;
//! * [`linreg`] — ordinary least squares with intercept;
//! * [`SpeedupModel`] — the trained artifact: six selected counters,
//!   per-counter coefficients, and an intercept, evaluated on
//!   instruction-normalized counters exactly like the paper's model.
//!
//! # Examples
//!
//! ```
//! use amp_perf::{ExecutionProfile, SpeedupModel, TrainingSet};
//! use amp_types::CoreKind;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Build a small synthetic training set and fit the Table-2-style model.
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut set = TrainingSet::new();
//! for i in 0..200 {
//!     let profile = ExecutionProfile::sample(&mut rng);
//!     let counters = profile.synthesize_counters(CoreKind::Big, 2e6, 1e6, i, &mut rng);
//!     set.push(counters, profile.true_speedup());
//! }
//! let model = SpeedupModel::train(&set, 6).unwrap();
//! assert_eq!(model.selected_counters().len(), 6);
//! ```

#![warn(missing_docs)]

mod counters;
pub mod linreg;
mod model;
pub mod pca;
mod profile;

pub use counters::{Counter, PmuCounters, NUM_COUNTERS, TABLE2_COUNTERS};
pub use model::{SpeedupModel, TrainingSet};
pub use profile::ExecutionProfile;
