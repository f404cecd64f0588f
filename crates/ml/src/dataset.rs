//! Row-oriented dataset with named columns.
//!
//! Used for the feature matrices of §6.1 and the model training sets.

/// A dataset: named feature columns plus one target column.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature column names.
    pub feature_names: Vec<String>,
    /// Target column name.
    pub target_name: String,
    /// Feature rows (all of length `feature_names.len()`).
    pub x: Vec<Vec<f64>>,
    /// Targets, same length as `x`.
    pub y: Vec<f64>,
}

impl Dataset {
    /// Empty dataset with the given schema.
    pub fn new(feature_names: Vec<String>, target_name: impl Into<String>) -> Dataset {
        Dataset {
            feature_names,
            target_name: target_name.into(),
            x: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Append one row.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        assert_eq!(features.len(), self.feature_names.len(), "schema mismatch");
        assert!(features.iter().all(|v| v.is_finite()), "non-finite feature");
        assert!(target.is_finite(), "non-finite target");
        self.x.push(features);
        self.y.push(target);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of feature columns.
    pub fn num_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Split by index: rows `[0, at)` and `[at, len)`.
    pub fn split_at(&self, at: usize) -> (Dataset, Dataset) {
        let mut a = Dataset::new(self.feature_names.clone(), self.target_name.clone());
        let mut b = Dataset::new(self.feature_names.clone(), self.target_name.clone());
        for i in 0..self.len() {
            if i < at {
                a.push(self.x[i].clone(), self.y[i]);
            } else {
                b.push(self.x[i].clone(), self.y[i]);
            }
        }
        (a, b)
    }

    /// Deterministically shuffle rows with the RNG.
    pub fn shuffle<R: rand::Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.x.swap(i, j);
            self.y.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()], "y");
        d.push(vec![1.0, 2.0], 3.0);
        d.push(vec![4.0, 5.0], 6.0);
        d.push(vec![7.0, 8.0], 9.0);
        d
    }

    #[test]
    fn split_preserves_rows() {
        let d = sample();
        let (a, b) = d.split_at(2);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.y[0], 9.0);
        assert_eq!(a.feature_names, d.feature_names);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut d = sample();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        d.shuffle(&mut rng);
        let mut ys = d.y.clone();
        ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(ys, vec![3.0, 6.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "schema mismatch")]
    fn push_checks_arity() {
        let mut d = sample();
        d.push(vec![1.0], 2.0);
    }
}
