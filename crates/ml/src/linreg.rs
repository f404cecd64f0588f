//! Ordinary least squares linear regression (the paper's "LR" model).
//!
//! Solved by the normal equations with a small ridge term for conditioning.
//! The paper uses LR as the weakest STP model — EDP is strongly non-linear in
//! the tuning knobs, so LR's APE is ~55 % (Table 1); this implementation
//! faithfully reproduces that weakness.

use crate::dataset::Dataset;
use crate::linalg::{solve_spd, Matrix};
use crate::model::Regressor;

/// OLS linear regression with intercept.
#[derive(Debug, Clone, Default)]
pub struct LinearRegression {
    /// Learned weights, one per feature (empty before `fit`).
    pub weights: Vec<f64>,
    /// Learned intercept.
    pub intercept: f64,
    /// Ridge regulariser added to the normal equations' diagonal.
    pub ridge: f64,
}

impl LinearRegression {
    /// Plain OLS (tiny default ridge of 1e-8 for conditioning).
    pub fn new() -> LinearRegression {
        LinearRegression {
            weights: Vec::new(),
            intercept: 0.0,
            ridge: 1e-8,
        }
    }
}

impl Regressor for LinearRegression {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on empty data");
        let d = data.num_features();
        // Design matrix with intercept column.
        let rows: Vec<Vec<f64>> = data
            .x
            .iter()
            .map(|r| {
                let mut v = Vec::with_capacity(d + 1);
                v.push(1.0);
                v.extend_from_slice(r);
                v
            })
            .collect();
        let xm = Matrix::from_rows(&rows);
        let mut xtx = xm.gram();
        for i in 0..=d {
            xtx[(i, i)] += self.ridge.max(1e-12);
        }
        let xty = xm.transpose().matvec(&data.y);
        let beta = solve_spd(&xtx, &xty).unwrap_or_else(|_| {
            // Fall back to heavier regularisation on pathological inputs.
            let mut xtx2 = xm.gram();
            for i in 0..=d {
                xtx2[(i, i)] += 1e-3;
            }
            solve_spd(&xtx2, &xty).expect("ridge-stabilised solve")
        });
        self.intercept = beta[0];
        self.weights = beta[1..].to_vec();
    }

    fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.weights.len(), "fit before predict");
        self.intercept
            + self
                .weights
                .iter()
                .zip(row)
                .map(|(w, x)| w * x)
                .sum::<f64>()
    }

    fn name(&self) -> &'static str {
        "LR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> Dataset {
        // y = 3 + 2·x0 − x1
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()], "y");
        for i in 0..30 {
            let x0 = (i % 7) as f64;
            let x1 = (i % 5) as f64 - 2.0;
            d.push(vec![x0, x1], 3.0 + 2.0 * x0 - x1);
        }
        d
    }

    #[test]
    fn recovers_exact_linear_relation() {
        let mut lr = LinearRegression::new();
        lr.fit(&linear_data());
        assert!((lr.intercept - 3.0).abs() < 1e-6);
        assert!((lr.weights[0] - 2.0).abs() < 1e-6);
        assert!((lr.weights[1] + 1.0).abs() < 1e-6);
        assert!((lr.predict(&[10.0, 1.0]) - 22.0).abs() < 1e-5);
    }

    #[test]
    fn underfits_quadratic_data() {
        // LR must be visibly wrong on y = x² — the paper's point.
        let mut d = Dataset::new(vec!["x".into()], "y");
        for i in -10..=10 {
            let x = i as f64;
            d.push(vec![x], x * x);
        }
        let mut lr = LinearRegression::new();
        lr.fit(&d);
        let pred = lr.predict_all(&d.x);
        let err = crate::metrics::rmse(&d.y, &pred);
        assert!(err > 20.0, "rmse {err}");
    }

    #[test]
    fn handles_collinear_features_via_ridge_fallback() {
        // x1 == x0 duplicated: X'X is singular without regularisation.
        let mut d = Dataset::new(vec!["a".into(), "b".into()], "y");
        for i in 0..20 {
            let x = i as f64;
            d.push(vec![x, x], 5.0 * x);
        }
        let mut lr = LinearRegression::new();
        lr.fit(&d);
        let p = lr.predict(&[4.0, 4.0]);
        assert!((p - 20.0).abs() < 1e-3, "{p}");
    }

    #[test]
    fn ridge_shrinks_weights() {
        let mut plain = LinearRegression::new();
        let mut heavy = LinearRegression {
            ridge: 1e3,
            ..LinearRegression::new()
        };
        let data = linear_data();
        plain.fit(&data);
        heavy.fit(&data);
        assert!(heavy.weights[0].abs() < plain.weights[0].abs());
    }

    #[test]
    fn name_is_lr() {
        assert_eq!(LinearRegression::new().name(), "LR");
    }
}
