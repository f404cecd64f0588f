//! Principal Component Analysis (§3.2 / Fig 1 of the paper).
//!
//! Fitted on z-scored observations; exposes the explained-variance ratios
//! (the paper reports PC1+PC2 covering 85.22 % of variance) and the loadings
//! used to scatter the *features* in PC space (Fig 1 plots each feature by
//! its loading on PC1/PC2, then clusters them).

use crate::linalg::{eigh, LinalgError, Matrix};

/// A fitted PCA.
///
/// ```
/// use ecost_ml::{Pca, ZScore};
///
/// // Two perfectly correlated features: PC1 captures everything.
/// let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
/// let z = ZScore::fit(&rows);
/// let pca = Pca::fit(&z.transform_all(&rows)).unwrap();
/// assert!(pca.explained_variance_ratio()[0] > 0.999);
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    /// Component matrix: row `k` is the k-th principal axis (unit vector in
    /// feature space), sorted by descending explained variance.
    pub components: Matrix,
    /// Eigenvalues of the covariance matrix (variances along components).
    pub explained_variance: Vec<f64>,
}

impl Pca {
    /// Fit on observations (rows = samples, columns = features). The data
    /// should already be centred/normalised (see
    /// [`crate::preprocess::ZScore`]).
    pub fn fit(rows: &[Vec<f64>]) -> Result<Pca, LinalgError> {
        assert!(rows.len() >= 2, "need at least two samples");
        let n = rows.len();
        let d = rows[0].len();
        // Centre defensively (cheap, idempotent on z-scored data).
        let mut mean = vec![0.0; d];
        for r in rows {
            for (m, v) in mean.iter_mut().zip(r) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let centred = Matrix::from_rows(
            &rows
                .iter()
                .map(|r| r.iter().zip(&mean).map(|(v, m)| v - m).collect())
                .collect::<Vec<Vec<f64>>>(),
        );
        let mut cov = centred.gram();
        for i in 0..d {
            for j in 0..d {
                cov[(i, j)] /= (n - 1) as f64;
            }
        }
        let (vals, vecs) = eigh(&cov)?;
        // Numerical noise can produce tiny negative eigenvalues; clamp.
        let explained_variance = vals.into_iter().map(|v| v.max(0.0)).collect();
        Ok(Pca {
            components: vecs,
            explained_variance,
        })
    }

    /// Fraction of total variance captured by each component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let total: f64 = self.explained_variance.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.explained_variance.len()];
        }
        self.explained_variance.iter().map(|v| v / total).collect()
    }

    /// Cumulative variance ratio of the first `k` components.
    pub fn cumulative_variance(&self, k: usize) -> f64 {
        self.explained_variance_ratio().iter().take(k).sum()
    }

    /// The loading of feature `f` on component `k` scaled by the component's
    /// standard deviation — the coordinates Fig 1 scatters the *features* at.
    pub fn loading(&self, k: usize, f: usize) -> f64 {
        self.components[(k, f)] * self.explained_variance[k].sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::ZScore;

    /// Correlated 2-feature data: PC1 should capture nearly everything and
    /// point along (1,1)/√2.
    fn correlated() -> Vec<Vec<f64>> {
        (0..50)
            .map(|i| {
                let t = i as f64 / 10.0;
                vec![t, t + 0.01 * ((i * 7 % 13) as f64 - 6.0)]
            })
            .collect()
    }

    #[test]
    fn pc1_captures_correlated_variance() {
        let raw = correlated();
        let z = ZScore::fit(&raw);
        let pca = Pca::fit(&z.transform_all(&raw)).unwrap();
        let ratio = pca.explained_variance_ratio();
        assert!(ratio[0] > 0.99, "{ratio:?}");
        let c = pca.components.row(0);
        assert!((c[0].abs() - c[1].abs()).abs() < 1e-6, "{c:?}");
    }

    #[test]
    fn variance_ratios_sum_to_one() {
        let raw = vec![
            vec![1.0, 10.0, 3.0],
            vec![2.0, -5.0, 8.0],
            vec![0.5, 2.0, -1.0],
            vec![3.0, 7.0, 0.0],
            vec![-1.0, 4.0, 2.0],
        ];
        let pca = Pca::fit(&raw).unwrap();
        let sum: f64 = pca.explained_variance_ratio().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((pca.cumulative_variance(3) - 1.0).abs() < 1e-9);
        assert!(pca.cumulative_variance(1) <= 1.0);
    }

    #[test]
    fn uncorrelated_features_scatter_apart() {
        // Feature 0 and 1 perfectly correlated; feature 2 independent.
        let raw: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let t = (i as f64 * 0.7).sin();
                let u = (i as f64 * 2.3).cos();
                vec![t, t, u]
            })
            .collect();
        let z = ZScore::fit(&raw);
        let pca = Pca::fit(&z.transform_all(&raw)).unwrap();
        // Each feature at its (PC1, PC2) loadings, as Fig 1 scatters them.
        let pts: Vec<(f64, f64)> = (0..3)
            .map(|f| (pca.loading(0, f), pca.loading(1, f)))
            .collect();
        let d01 = ((pts[0].0 - pts[1].0).powi(2) + (pts[0].1 - pts[1].1).powi(2)).sqrt();
        let d02 = ((pts[0].0 - pts[2].0).powi(2) + (pts[0].1 - pts[2].1).powi(2)).sqrt();
        assert!(
            d01 < 0.1 * d02,
            "correlated features should sit together: {d01} vs {d02}"
        );
    }
}
