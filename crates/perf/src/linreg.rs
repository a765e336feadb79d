//! Ordinary least-squares linear regression, from scratch.
//!
//! The final stage of the paper's offline pipeline (Table 2): fit a linear
//! model from instruction-normalized counters to the measured big-vs-little
//! speedup. Solved via the normal equations with partial-pivot Gaussian
//! elimination and a tiny ridge term for numerical robustness.
//!
//! # Examples
//!
//! ```
//! use amp_perf::linreg::LinearModel;
//!
//! let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
//! let ys: Vec<f64> = (0..20).map(|i| 3.0 * i as f64 + 1.0).collect();
//! let model = LinearModel::fit(&xs, &ys).unwrap();
//! assert!((model.coefficients()[0] - 3.0).abs() < 1e-6);
//! assert!((model.intercept() - 1.0).abs() < 1e-6);
//! assert!((model.predict(&[10.0]) - 31.0).abs() < 1e-5);
//! ```

// Index-based loops read naturally for matrix algebra.
#![allow(clippy::needless_range_loop)]

use amp_types::{Error, Result};

/// A fitted linear model `y ≈ intercept + Σ coef_i · x_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    coefficients: Vec<f64>,
    intercept: f64,
    r_squared: f64,
}

impl LinearModel {
    /// Fits by ordinary least squares.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] if the input is empty, ragged, has more
    /// features than observations, or yields a singular normal system.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<LinearModel> {
        let n = xs.len();
        if n == 0 || n != ys.len() {
            return Err(Error::Numerical(
                "regression needs equal, non-zero numbers of rows and targets".into(),
            ));
        }
        let d = xs[0].len();
        if xs.iter().any(|r| r.len() != d) {
            return Err(Error::Numerical(
                "regression input must be rectangular".into(),
            ));
        }
        if n <= d {
            return Err(Error::Numerical(format!(
                "regression needs more rows ({n}) than features ({d})"
            )));
        }
        // Degraded counter feeds can carry NaN/Inf (dropped samples divided
        // by zero upstream); reject them here rather than poisoning the
        // normal equations.
        if xs.iter().flatten().chain(ys).any(|v| !v.is_finite()) {
            return Err(Error::Numerical(
                "regression input contains non-finite values".into(),
            ));
        }

        // Normal equations over X augmented with an intercept column.
        let m = d + 1;
        let mut xtx = vec![vec![0.0; m]; m];
        let mut xty = vec![0.0; m];
        for (row, &y) in xs.iter().zip(ys) {
            let aug = |i: usize| if i < d { row[i] } else { 1.0 };
            for i in 0..m {
                xty[i] += aug(i) * y;
                for j in i..m {
                    xtx[i][j] += aug(i) * aug(j);
                }
            }
        }
        for i in 0..m {
            for j in 0..i {
                xtx[i][j] = xtx[j][i];
            }
        }
        // Tiny ridge for robustness against collinear counters.
        let trace: f64 = (0..m).map(|i| xtx[i][i]).sum();
        let ridge = 1e-10 * trace.max(1.0);
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += ridge;
        }

        let w = solve(xtx, xty)?;
        let (coefficients, intercept) = (w[..d].to_vec(), w[d]);

        let mean_y: f64 = ys.iter().sum::<f64>() / n as f64;
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        for (row, &y) in xs.iter().zip(ys) {
            let pred: f64 = intercept
                + row
                    .iter()
                    .zip(&coefficients)
                    .map(|(&x, &c)| x * c)
                    .sum::<f64>();
            ss_res += (y - pred) * (y - pred);
            ss_tot += (y - mean_y) * (y - mean_y);
        }
        let r_squared = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        };

        Ok(LinearModel {
            coefficients,
            intercept,
            r_squared,
        })
    }

    /// Per-feature coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// The intercept term.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Coefficient of determination on the training data.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Evaluates the model on one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` has a different length than the training features.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.coefficients.len(),
            "prediction input must match feature count"
        );
        self.intercept
            + x.iter()
                .zip(&self.coefficients)
                .map(|(&a, &c)| a * c)
                .sum::<f64>()
    }
}

/// Solves `A w = b` by Gaussian elimination with partial pivoting.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>> {
    let n = a.len();
    for col in 0..n {
        let Some(pivot) = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
        else {
            return Err(Error::Numerical("empty pivot range".into()));
        };
        if a[pivot][col].abs() < 1e-300 {
            return Err(Error::Numerical("singular normal system".into()));
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut w = vec![0.0; n];
    for row in (0..n).rev() {
        let tail: f64 = ((row + 1)..n).map(|k| a[row][k] * w[k]).sum();
        w[row] = (b[row] - tail) / a[row][row];
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn recovers_exact_linear_relationship() {
        let mut rng = StdRng::seed_from_u64(11);
        let true_coefs = [2.0, -1.5, 0.25];
        let xs: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..3).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| 4.0 + r.iter().zip(true_coefs).map(|(&x, c)| x * c).sum::<f64>())
            .collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        for (got, want) in m.coefficients().iter().zip(true_coefs) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        assert!((m.intercept() - 4.0).abs() < 1e-6);
        assert!(m.r_squared() > 1.0 - 1e-9);
    }

    #[test]
    fn noisy_fit_has_reasonable_r2() {
        let mut rng = StdRng::seed_from_u64(5);
        let xs: Vec<Vec<f64>> = (0..500).map(|_| vec![rng.gen_range(0.0..10.0)]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| 3.0 * r[0] + 1.0 + rng.gen_range(-0.5..0.5))
            .collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        assert!((m.coefficients()[0] - 3.0).abs() < 0.05);
        assert!(m.r_squared() > 0.99);
    }

    #[test]
    fn handles_collinear_features_via_ridge() {
        // x1 == x0 exactly: the ridge keeps the system solvable.
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..50).map(|i| 2.0 * i as f64).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        let joint = m.coefficients()[0] + m.coefficients()[1];
        assert!((joint - 2.0).abs() < 1e-3, "joint coefficient {joint}");
    }

    #[test]
    fn rejects_underdetermined_systems() {
        let xs = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let ys = vec![1.0, 2.0];
        assert!(LinearModel::fit(&xs, &ys).is_err());
    }

    #[test]
    fn rejects_mismatched_rows() {
        assert!(LinearModel::fit(&[vec![1.0]], &[1.0, 2.0]).is_err());
        assert!(LinearModel::fit(&[], &[]).is_err());
    }

    #[test]
    fn tolerates_all_zero_counter_column() {
        // A fully dropped counter shows up as an all-zero column; the ridge
        // keeps the normal system solvable and the dead feature gets a
        // (near-)zero coefficient.
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, 0.0]).collect();
        let ys: Vec<f64> = (0..40).map(|i| 5.0 * i as f64 + 2.0).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        assert!((m.coefficients()[0] - 5.0).abs() < 1e-3);
        assert!(m.coefficients()[1].abs() < 1e-3);
    }

    #[test]
    fn rejects_non_finite_inputs() {
        let mut xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        xs[3][0] = f64::NAN;
        assert!(LinearModel::fit(&xs, &ys).is_err());
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let mut ys = ys;
        ys[7] = f64::INFINITY;
        assert!(LinearModel::fit(&xs, &ys).is_err());
    }

    #[test]
    #[should_panic(expected = "feature count")]
    fn predict_panics_on_wrong_arity() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        m.predict(&[1.0, 2.0]);
    }
}
