//! Small dense linear algebra.
//!
//! The stability analysis and the dense QP form of the MPC problem
//! (decision dimension = batch cores × control horizon), which the
//! tests use to certify the structured solver, need small matrices.
//! No offline linalg crate is available, so this module provides exactly
//! what the rest of the crate uses: row-major dense matrices, the
//! matrix–vector product, and Cholesky factorization for SPD solves.
//! Everything is `f64`, allocation-explicit, and panics on shape errors
//! — shape bugs are programmer errors, not runtime conditions.

use std::ops::{Add, Index, IndexMut};

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from nested rows; all rows must share a length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty() && !rows[0].is_empty());
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        Mat {
            rows: rows.len(),
            cols,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Diagonal matrix from a slice.
    pub fn diag(d: &[f64]) -> Self {
        let mut m = Mat::zeros(d.len(), d.len());
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "matvec shape mismatch");
        let mut y = vec![0.0; self.rows];
        for (yi, row) in y.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
    /// matrix; returns the lower factor, or `None` if the matrix is not
    /// (numerically) SPD.
    pub fn cholesky(&self) -> Option<Mat> {
        assert!(self.is_square(), "cholesky needs a square matrix");
        let n = self.rows;
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 1e-14 {
                        return None;
                    }
                    l[(i, i)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Solve `A·x = b` for SPD `A` via Cholesky; `None` if not SPD.
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, b.len(), "solve shape mismatch");
        let l = self.cholesky()?;
        let n = self.rows;
        // Forward substitution L·y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= l[(i, k)] * y[k];
            }
            y[i] = s / l[(i, i)];
        }
        // Back substitution Lᵀ·x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in i + 1..n {
                s -= l[(k, i)] * x[k];
            }
            x[i] = s / l[(i, i)];
        }
        Some(x)
    }

    /// Largest eigenvalue magnitude (spectral radius) estimate via the
    /// normalized-power-of-the-matrix method: `ρ(A) ≈ ‖Aᵏ·v‖` growth rate.
    /// Deterministic; accurate to a few percent for the small systems the
    /// stability analysis checks, including complex-pair spectra.
    pub fn spectral_radius_estimate(&self, iterations: usize) -> f64 {
        assert!(self.is_square());
        let n = self.rows;
        // Deterministic pseudo-random start vector with all components
        // nonzero (avoids starting orthogonal to the dominant subspace).
        let mut v: Vec<f64> = (0..n)
            .map(|i| 1.0 + 0.3 * ((i as f64) * 1.7).sin())
            .collect();
        let norm0 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        for x in v.iter_mut() {
            *x /= norm0;
        }
        let mut log_growth = 0.0;
        let iters = iterations.max(8);
        for _ in 0..iters {
            let w = self.matvec(&v);
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-300 {
                return 0.0;
            }
            log_growth += norm.ln();
            v = w.into_iter().map(|x| x / norm).collect();
        }
        (log_growth / iters as f64).exp()
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Mat> for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert!(
            self.rows == rhs.rows && self.cols == rhs.cols,
            "shape mismatch"
        );
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot shape mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Infinity norm.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// Project `x` onto the box `[lo, hi]` elementwise (in place).
pub fn project_box(x: &mut [f64], lo: &[f64], hi: &[f64]) {
    assert!(
        x.len() == lo.len() && x.len() == hi.len(),
        "box shape mismatch"
    );
    for ((xi, l), h) in x.iter_mut().zip(lo).zip(hi) {
        *xi = xi.clamp(*l, *h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_elementwise() {
        let a = Mat::from_rows(&[vec![1.0, 2.0]]);
        let b = Mat::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!(&a + &b, Mat::from_rows(&[vec![4.0, 7.0]]));
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Mat::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.5],
            vec![0.6, 1.5, 2.8],
        ]);
        let l = a.cholesky().expect("SPD");
        for i in 0..3 {
            for j in 0..3 {
                let llt: f64 = (0..3).map(|k| l[(i, k)] * l[(j, k)]).sum();
                assert!((llt - a[(i, j)]).abs() < 1e-10, "({i}, {j}): {llt}");
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eig −1, 3
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn spd_solve_matches_known_solution() {
        let a = Mat::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let b = vec![1.0, 2.0];
        let x = a.solve_spd(&b).unwrap();
        let back = a.matvec(&x);
        assert!((back[0] - 1.0).abs() < 1e-12 && (back[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diag_builder() {
        let d = Mat::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.matvec(&[1.0, 1.0, 1.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn spectral_radius_of_diagonal() {
        let a = Mat::diag(&[0.3, -0.9, 0.5]);
        let r = a.spectral_radius_estimate(200);
        assert!((r - 0.9).abs() < 0.02, "r={r}");
    }

    #[test]
    fn spectral_radius_of_rotation_scaled() {
        // 0.8 × rotation: complex pair with |λ| = 0.8 — the case plain
        // power iteration mishandles.
        let c = 0.8 * (0.7_f64).cos();
        let s = 0.8 * (0.7_f64).sin();
        let a = Mat::from_rows(&[vec![c, -s], vec![s, c]]);
        let r = a.spectral_radius_estimate(400);
        assert!((r - 0.8).abs() < 0.02, "r={r}");
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm_inf(&[1.0, -7.0, 3.0]), 7.0);
    }

    #[test]
    fn project_box_clamps_elementwise() {
        let mut x = vec![-2.0, 0.5, 3.0];
        project_box(&mut x, &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(x, vec![0.0, 0.5, 1.0]);
    }
}
