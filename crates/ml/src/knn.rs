//! k-nearest-neighbour classification and nearest-profile search.
//!
//! Backs two pieces of ECoST: the incoming-application classifier (nearest
//! training signatures in z-scored feature space) and LkT-STP's "choose the
//! application in the database that best resembles the testing application"
//! step.

use crate::model::Classifier;
use crate::preprocess::ZScore;

/// Distance between feature rows (Euclidean).
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// k-NN classifier with internal z-scoring.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    scaler: Option<ZScore>,
    rows: Vec<Vec<f64>>,
    labels: Vec<usize>,
}

impl KnnClassifier {
    /// New classifier with neighbourhood size `k`.
    pub fn new(k: usize) -> KnnClassifier {
        assert!(k >= 1);
        KnnClassifier {
            k,
            scaler: None,
            rows: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Index of the single nearest training row to `row` (ignores `k`).
    pub fn nearest(&self, row: &[f64]) -> usize {
        let scaler = self.scaler.as_ref().expect("fit before query");
        let q = scaler.transform(row);
        self.rows
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                euclidean(a, &q)
                    .partial_cmp(&euclidean(b, &q))
                    .expect("finite")
            })
            .expect("non-empty training set")
            .0
    }
}

impl Classifier for KnnClassifier {
    fn fit(&mut self, rows: &[Vec<f64>], labels: &[usize]) {
        assert_eq!(rows.len(), labels.len());
        assert!(!rows.is_empty(), "need training data");
        let scaler = ZScore::fit(rows);
        self.rows = scaler.transform_all(rows);
        self.scaler = Some(scaler);
        self.labels = labels.to_vec();
    }

    fn predict(&self, row: &[f64]) -> usize {
        let scaler = self.scaler.as_ref().expect("fit before predict");
        let q = scaler.transform(row);
        let mut dists: Vec<(f64, usize)> = self
            .rows
            .iter()
            .zip(&self.labels)
            .map(|(r, &l)| (euclidean(r, &q), l))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let k = self.k.min(dists.len());
        // Majority vote among the k nearest; ties break toward the closer
        // neighbour (first encountered in sorted order).
        let mut counts: Vec<(usize, usize)> = Vec::new(); // (label, count)
        for (_, l) in dists.iter().take(k) {
            match counts.iter_mut().find(|(cl, _)| cl == l) {
                Some((_, c)) => *c += 1,
                None => counts.push((*l, 1)),
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .expect("k >= 1")
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (l, (cx, cy)) in [(0.0, 0.0), (10.0, 10.0)].iter().enumerate() {
            for d in 0..5 {
                rows.push(vec![cx + d as f64 * 0.2, cy - d as f64 * 0.2]);
                labels.push(l);
            }
        }
        (rows, labels)
    }

    #[test]
    fn classifies_blobs() {
        let (rows, labels) = blobs();
        let mut knn = KnnClassifier::new(3);
        knn.fit(&rows, &labels);
        assert_eq!(knn.predict(&[0.5, 0.5]), 0);
        assert_eq!(knn.predict(&[9.0, 9.5]), 1);
        assert_eq!(knn.accuracy(&rows, &labels), 1.0);
    }

    #[test]
    fn nearest_returns_training_index() {
        let (rows, labels) = blobs();
        let mut knn = KnnClassifier::new(1);
        knn.fit(&rows, &labels);
        let idx = knn.nearest(&rows[7]);
        assert_eq!(idx, 7);
    }

    #[test]
    fn k1_memorises_training_data() {
        let (rows, labels) = blobs();
        let mut knn = KnnClassifier::new(1);
        knn.fit(&rows, &labels);
        for (r, l) in rows.iter().zip(&labels) {
            assert_eq!(knn.predict(r), *l);
        }
    }

    #[test]
    fn scaling_makes_features_commensurate() {
        // Feature 1 has a huge scale but carries no signal; without
        // z-scoring it would dominate the distance.
        let rows = vec![
            vec![0.0, 1e6],
            vec![0.1, -1e6],
            vec![10.0, 1e6],
            vec![10.1, -1e6],
        ];
        let labels = vec![0, 0, 1, 1];
        let mut knn = KnnClassifier::new(1);
        knn.fit(&rows, &labels);
        assert_eq!(knn.predict(&[0.05, 0.0]), 0);
        assert_eq!(knn.predict(&[9.9, 0.0]), 1);
    }
}
