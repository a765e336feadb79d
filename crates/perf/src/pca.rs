//! Principal Component Analysis, from scratch.
//!
//! The paper records 225 gem5 counters and applies PCA to select the six
//! with the largest effect on speedup modelling (Table 2). This module
//! implements the required pieces with no external numerics dependency:
//! column standardization, covariance, a cyclic Jacobi eigendecomposition
//! for symmetric matrices, and the feature ranking the speedup model
//! selects its counters with ([`rank_features_for_target`]).
//!
//! # Examples
//!
//! ```
//! use amp_perf::pca::Pca;
//!
//! // Two perfectly correlated columns: one component carries everything.
//! let rows: Vec<Vec<f64>> = (0..50)
//!     .map(|i| {
//!         let t = i as f64 / 10.0;
//!         vec![t, -2.0 * t]
//!     })
//!     .collect();
//! let pca = Pca::fit(&rows).unwrap();
//! assert!(pca.explained_variance_ratio()[0] > 0.99);
//! ```

// Index-based loops read naturally for matrix algebra.
#![allow(clippy::needless_range_loop)]

use amp_types::{Error, Result};

/// Maximum cyclic Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;
/// Convergence threshold on the squared off-diagonal Frobenius norm.
const OFF_EPS: f64 = 1e-22;

/// A fitted PCA: the eigendecomposition of the correlation matrix,
/// components sorted by decreasing eigenvalue.
#[derive(Debug, Clone)]
pub struct Pca {
    eigenvalues: Vec<f64>,
    /// `components[c][f]`: loading of feature `f` on component `c`.
    components: Vec<Vec<f64>>,
}

impl Pca {
    /// Fits a PCA to row-major data (each inner vec is one observation).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Numerical`] if the data is empty, ragged, or the
    /// Jacobi iteration fails to converge.
    pub fn fit(rows: &[Vec<f64>]) -> Result<Pca> {
        let n = rows.len();
        if n < 2 {
            return Err(Error::Numerical("PCA needs at least two rows".into()));
        }
        let d = rows[0].len();
        if d == 0 || rows.iter().any(|r| r.len() != d) {
            return Err(Error::Numerical("PCA input must be rectangular".into()));
        }
        // Degraded counter feeds can carry NaN/Inf; they would spread
        // through the correlation matrix and stall the Jacobi sweeps.
        if rows.iter().flatten().any(|v| !v.is_finite()) {
            return Err(Error::Numerical(
                "PCA input contains non-finite values".into(),
            ));
        }

        let mut mean = vec![0.0; d];
        for row in rows {
            for (m, &x) in mean.iter_mut().zip(row) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }

        let mut var = vec![0.0; d];
        for row in rows {
            for ((v, &x), &m) in var.iter_mut().zip(row).zip(&mean) {
                *v += (x - m) * (x - m);
            }
        }
        let std: Vec<f64> = var
            .iter()
            .map(|&v| {
                let s = (v / (n - 1) as f64).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0 // constant column: contributes zeros after centring
                }
            })
            .collect();

        // Correlation matrix of the standardized data.
        let mut cov = vec![vec![0.0; d]; d];
        for row in rows {
            let z: Vec<f64> = row
                .iter()
                .zip(&mean)
                .zip(&std)
                .map(|((&x, &m), &s)| (x - m) / s)
                .collect();
            for i in 0..d {
                for j in i..d {
                    cov[i][j] += z[i] * z[j];
                }
            }
        }
        for i in 0..d {
            for j in i..d {
                cov[i][j] /= (n - 1) as f64;
                cov[j][i] = cov[i][j];
            }
        }

        let (eigenvalues, vectors) = jacobi_eigen(cov)?;

        // Sort components by decreasing eigenvalue.
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by(|&a, &b| eigenvalues[b].total_cmp(&eigenvalues[a]));
        let sorted_vals: Vec<f64> = order.iter().map(|&i| eigenvalues[i].max(0.0)).collect();
        let sorted_vecs: Vec<Vec<f64>> = order
            .iter()
            .map(|&c| (0..d).map(|f| vectors[f][c]).collect())
            .collect();

        Ok(Pca {
            eigenvalues: sorted_vals,
            components: sorted_vecs,
        })
    }

    /// Eigenvalues in decreasing order (variance explained per component).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Principal components (rows = components, columns = features),
    /// sorted by decreasing eigenvalue.
    pub fn components(&self) -> &[Vec<f64>] {
        &self.components
    }

    /// Fraction of total variance explained by each component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues.iter().map(|&v| v / total).collect()
    }
}

/// Ranks features by their PCA-mediated association with a target variable.
///
/// This is the selection step of the paper's Table 2: "select the six
/// performance counters with the largest effect on speedup modeling". The
/// target (measured speedup) is appended as an extra column, a PCA is fitted
/// over features + target jointly, and each feature is scored by the
/// variance-weighted co-loading with the target across all components:
/// `score(f) = Σ_c λ_c · |w_{c,f} · w_{c,target}|`. Features sharing
/// principal directions with the target rank first.
///
/// # Errors
///
/// Propagates [`Error::Numerical`] from the underlying [`Pca::fit`].
pub fn rank_features_for_target(rows: &[Vec<f64>], target: &[f64]) -> Result<Vec<usize>> {
    if rows.len() != target.len() {
        return Err(Error::Numerical(
            "feature rows and target must have the same length".into(),
        ));
    }
    let joint: Vec<Vec<f64>> = rows
        .iter()
        .zip(target)
        .map(|(r, &t)| {
            let mut row = r.clone();
            row.push(t);
            row
        })
        .collect();
    let pca = Pca::fit(&joint)?;
    let d = rows.first().map_or(0, Vec::len);
    let mut scores = vec![0.0; d];
    for (comp, &val) in pca.components().iter().zip(pca.eigenvalues()) {
        let target_loading = comp[d];
        for (f, score) in scores.iter_mut().enumerate() {
            *score += val * (comp[f] * target_loading).abs();
        }
    }
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    Ok(order)
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Returns `(eigenvalues, eigenvectors)` where `eigenvectors[i][j]` is the
/// `i`-th coordinate of the eigenvector for eigenvalue `j` (columns are
/// eigenvectors).
///
/// # Errors
///
/// Returns [`Error::Numerical`] if the iteration fails to converge within
/// a fixed number of sweeps.
pub fn jacobi_eigen(mut a: Vec<Vec<f64>>) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
    let d = a.len();
    let mut v = vec![vec![0.0; d]; d];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    if d <= 1 {
        let vals = a.iter().enumerate().map(|(i, r)| r[i]).collect();
        return Ok((vals, v));
    }

    for _ in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for i in 0..d {
            for j in (i + 1)..d {
                off += a[i][j] * a[i][j];
            }
        }
        if off < OFF_EPS {
            let vals = a.iter().enumerate().map(|(i, r)| r[i]).collect();
            return Ok((vals, v));
        }

        for p in 0..d {
            for q in (p + 1)..d {
                if a[p][q].abs() < 1e-300 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                for k in 0..d {
                    let akp = a[k][p];
                    let akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for k in 0..d {
                    let apk = a[p][k];
                    let aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
                for k in 0..d {
                    let vkp = v[k][p];
                    let vkq = v[k][q];
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(Error::Numerical(
        "Jacobi eigendecomposition did not converge".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn jacobi_solves_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let (mut vals, _) = jacobi_eigen(vec![vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(approx(vals[0], 1.0, 1e-9));
        assert!(approx(vals[1], 3.0, 1e-9));
    }

    #[test]
    fn jacobi_eigenvectors_satisfy_definition() {
        let a = vec![
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ];
        let (vals, vecs) = jacobi_eigen(a.clone()).unwrap();
        for j in 0..3 {
            // A v = λ v
            for i in 0..3 {
                let av: f64 = (0..3).map(|k| a[i][k] * vecs[k][j]).sum();
                assert!(
                    approx(av, vals[j] * vecs[i][j], 1e-8),
                    "A v != λ v at ({i},{j})"
                );
            }
        }
        // Orthonormal columns.
        for j1 in 0..3 {
            for j2 in 0..3 {
                let dot: f64 = (0..3).map(|k| vecs[k][j1] * vecs[k][j2]).sum();
                let expect = if j1 == j2 { 1.0 } else { 0.0 };
                assert!(approx(dot, expect, 1e-9));
            }
        }
    }

    #[test]
    fn eigenvalue_sum_equals_trace() {
        let a = vec![
            vec![5.0, 2.0, 1.0, 0.0],
            vec![2.0, 4.0, 0.5, 0.3],
            vec![1.0, 0.5, 3.0, 0.1],
            vec![0.0, 0.3, 0.1, 2.0],
        ];
        let trace: f64 = (0..4).map(|i| a[i][i]).sum();
        let (vals, _) = jacobi_eigen(a).unwrap();
        assert!(approx(vals.iter().sum::<f64>(), trace, 1e-9));
    }

    #[test]
    fn pca_finds_dominant_direction() {
        // Points along y = 2x with small perpendicular jitter.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = (i as f64 - 50.0) / 10.0;
                let jitter = if i % 2 == 0 { 0.01 } else { -0.01 };
                vec![t + jitter * 2.0, 2.0 * t - jitter]
            })
            .collect();
        let pca = Pca::fit(&rows).unwrap();
        let ratios = pca.explained_variance_ratio();
        assert!(ratios[0] > 0.99, "first PC explains {}", ratios[0]);
        // After standardization both features load equally on PC1.
        let c = &pca.components()[0];
        assert!(approx(c[0].abs(), c[1].abs(), 1e-3));
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        assert!(Pca::fit(&[]).is_err());
        assert!(Pca::fit(&[vec![1.0]]).is_err());
        assert!(Pca::fit(&[vec![1.0, 2.0], vec![1.0]]).is_err());
    }

    #[test]
    fn all_zero_variance_data_fits() {
        // Every counter dropped to a constant: the fit must not divide by
        // zero or panic, and no component can claim any variance.
        let rows: Vec<Vec<f64>> = (0..20).map(|_| vec![3.0, 0.0, -1.0]).collect();
        let pca = Pca::fit(&rows).unwrap();
        for ratio in pca.explained_variance_ratio() {
            assert!(approx(ratio, 0.0, 1e-9));
        }
    }

    #[test]
    fn rejects_non_finite_inputs() {
        let mut rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i as f64).cos()]).collect();
        rows[5][1] = f64::NAN;
        assert!(Pca::fit(&rows).is_err());
        let target = vec![0.0; 20];
        assert!(rank_features_for_target(&rows, &target).is_err());
    }
}
