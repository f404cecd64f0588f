//! Small dense linear algebra: row-major matrices, a positive-definite
//! (Cholesky) solve, and a Jacobi symmetric eigendecomposition.
//!
//! Sized for this workspace's needs (≤ a few hundred columns); everything is
//! `O(n³)` textbook code, not a BLAS.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from rows; panics if rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self · rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Gram matrix `Aᵀ·A` (symmetric), computed directly.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    g[(i, j)] += a * row[j];
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Errors from the solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix is singular (or not positive-definite for Cholesky).
    Singular,
    /// Shape mismatch between operands.
    Shape,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular / not positive definite"),
            LinalgError::Shape => write!(f, "shape mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Solve `A·x = b` for symmetric positive-definite `A` via Cholesky.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::Shape);
    }
    // Cholesky: A = L·Lᵀ.
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return Err(LinalgError::Singular);
                }
                l[(i, i)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    // Forward then backward substitution.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[(i, k)] * y[k];
        }
        y[i] = s / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in i + 1..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    Ok(x)
}

/// Symmetric eigendecomposition by the cyclic Jacobi method.
///
/// Returns `(eigenvalues, eigenvectors)` sorted by descending eigenvalue;
/// `eigenvectors.row(k)` is the unit eigenvector of `eigenvalues[k]`.
pub fn eigh(a: &Matrix) -> Result<(Vec<f64>, Matrix), LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::Shape);
    }
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() < 1e-11 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-14 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(j, j)].partial_cmp(&m[(i, i)]).expect("finite"));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (k, &i) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(k, r)] = v[(r, i)];
        }
    }
    Ok((eigenvalues, vectors))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
        assert_eq!(a.transpose().row(0), &[1.0, 3.0]);
    }

    #[test]
    fn gram_equals_at_a() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![3.0, -1.0, 2.0],
            vec![0.0, 4.0, 1.0],
        ]);
        let g = a.gram();
        let g2 = a.transpose().matmul(&a);
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - g2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn spd_solve_recovers_solution() {
        // A = Bᵀ·B + I is SPD.
        let b = Matrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.5, 0.2, 2.0],
        ]);
        let mut a = b.gram();
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let x_true = vec![1.0, -2.0, 0.5];
        let rhs = a.matvec(&x_true);
        let x = solve_spd(&a, &rhs).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn spd_solve_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_eq!(solve_spd(&a, &[1.0, 1.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn eigh_diagonalises_known_matrix() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (vals, vecs) = eigh(&a).unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-9);
        assert!((vals[1] - 1.0).abs() < 1e-9);
        // Eigenvector of 3 is (1,1)/√2 up to sign.
        let v0 = vecs.row(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-8);
        assert!((v0[0] - v0[1]).abs() < 1e-8);
    }

    #[test]
    fn eigh_vectors_are_orthonormal() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5, 0.0],
            vec![1.0, 3.0, 0.2, 0.1],
            vec![0.5, 0.2, 2.0, 0.3],
            vec![0.0, 0.1, 0.3, 1.0],
        ]);
        let (vals, vecs) = eigh(&a).unwrap();
        // Descending order.
        for w in vals.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        for i in 0..4 {
            for j in 0..4 {
                let dot: f64 = vecs
                    .row(i)
                    .iter()
                    .zip(vecs.row(j))
                    .map(|(a, b)| a * b)
                    .sum();
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-8, "({i},{j}) dot {dot}");
            }
        }
        // Reconstruct: A·v = λ·v.
        for (k, &val) in vals.iter().enumerate() {
            let av = a.matvec(vecs.row(k));
            for (x, v) in av.iter().zip(vecs.row(k)) {
                assert!((x - val * v).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn eigh_trace_is_preserved() {
        let a = Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 1.0, 0.5],
            vec![1.0, 0.5, 3.0],
        ]);
        let (vals, _) = eigh(&a).unwrap();
        let trace = 5.0 + 1.0 + 3.0;
        assert!((vals.iter().sum::<f64>() - trace).abs() < 1e-9);
    }
}
