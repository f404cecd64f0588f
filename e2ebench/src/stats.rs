//! Order statistics over timing samples.

/// Nearest-rank quantile `q` in `(0, 1]` of unsorted samples; `None` when
/// there are none.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// The median (nearest-rank); `None` on no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Index of the lower-median element of `v` (`v` non-empty).
pub fn median_index(v: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..v.len()).collect();
    order.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    order[(order.len() - 1) / 2]
}

/// Samples strictly beyond the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_index(&[3.0, 1.0, 2.0, 4.0]), 2);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(beyond(1200, 0.99), 12);
        assert_eq!(beyond(1000, 0.99), 10);
    }
}
