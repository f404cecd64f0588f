//! Common model traits.

use crate::dataset::Dataset;

/// A regression model mapping a feature row to a scalar.
///
/// `Send + Sync` is a supertrait: fitted models are read-only at
/// prediction time and are shared by reference across worker threads.
pub trait Regressor: Send + Sync {
    /// Fit on a dataset. Implementations must be deterministic given the
    /// same data (and, where applicable, the RNG they were constructed with).
    fn fit(&mut self, data: &Dataset);

    /// Predict one row.
    fn predict(&self, row: &[f64]) -> f64;

    /// Predict many rows.
    fn predict_all(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Short model name for reports ("LR", "REPTree", "MLP"…).
    fn name(&self) -> &'static str;
}

/// A classifier mapping a feature row to a label index.
pub trait Classifier {
    /// Fit on rows with label indices.
    fn fit(&mut self, rows: &[Vec<f64>], labels: &[usize]);

    /// Predict a label index for one row.
    fn predict(&self, row: &[f64]) -> usize;
}
