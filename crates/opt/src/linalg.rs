//! Minimal dense linear algebra used by the Newton and barrier solvers.
//!
//! The QuHE problem instances are small (a handful of routes and links), so a
//! straightforward `Vec<f64>`-backed implementation with an `O(n^3)` Cholesky
//! factorization is entirely sufficient and keeps the workspace free of
//! external linear-algebra dependencies.

use crate::error::{OptError, OptResult};

/// Extension methods for `&[f64]` vectors.
pub trait VectorExt {
    /// Euclidean inner product with `other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    fn dot(&self, other: &[f64]) -> f64;
    /// Euclidean norm.
    fn norm(&self) -> f64;
    /// Infinity norm (largest absolute entry), zero for an empty vector.
    fn norm_inf(&self) -> f64;
    /// Returns `self + alpha * other` as a new vector.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    fn axpy(&self, alpha: f64, other: &[f64]) -> Vec<f64>;
    /// Returns the element-wise scaled vector `alpha * self`.
    fn scale(&self, alpha: f64) -> Vec<f64>;
    /// True when every entry is finite.
    fn is_finite(&self) -> bool;
}

impl VectorExt for [f64] {
    fn dot(&self, other: &[f64]) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.iter().zip(other).map(|(a, b)| a * b).sum()
    }

    fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    fn norm_inf(&self) -> f64 {
        self.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    fn axpy(&self, alpha: f64, other: &[f64]) -> Vec<f64> {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        self.iter().zip(other).map(|(a, b)| a + alpha * b).collect()
    }

    fn scale(&self, alpha: f64) -> Vec<f64> {
        self.iter().map(|a| a * alpha).collect()
    }

    fn is_finite(&self) -> bool {
        self.iter().all(|x| x.is_finite())
    }
}

/// A dense, row-major `rows x cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    /// Returns [`OptError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> OptResult<Self> {
        if data.len() != rows * cols {
            return Err(OptError::DimensionMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry at `(i, j)`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j] = value;
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let row = &self.data[i * self.cols..(i + 1) * self.cols];
                row.dot(x)
            })
            .collect()
    }

    /// Transposed matrix-vector product `A^T x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows()`.
    pub fn mul_vec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "mul_vec_transposed: dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &value) in out.iter_mut().zip(row) {
                *o += value * xi;
            }
        }
        out
    }

    /// Resizes the matrix to `rows x cols` in place and fills it with zeros,
    /// reusing the existing storage when it is already large enough.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Adds `alpha * I` to a square matrix in place (Tikhonov damping).
    ///
    /// # Panics
    /// Panics when the matrix is not square.
    pub fn add_diagonal(&mut self, alpha: f64) {
        assert_eq!(self.rows, self.cols, "add_diagonal: matrix must be square");
        for i in 0..self.rows {
            self.data[i * self.cols + i] += alpha;
        }
    }

    /// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
    ///
    /// One-shot convenience over [`CholeskyFactor`]: factors, solves, and
    /// discards the factor. Callers that solve against many right-hand sides
    /// or re-solve with slowly changing matrices should hold a
    /// [`CholeskyFactor`] and use [`CholeskyFactor::refresh`] +
    /// [`CholeskyFactor::solve_into`] to skip the per-call allocations.
    ///
    /// # Errors
    /// * [`OptError::DimensionMismatch`] if `b.len() != self.rows()` or the
    ///   matrix is not square.
    /// * [`OptError::SingularSystem`] if the factorization encounters a
    ///   non-positive pivot.
    pub fn solve_spd(&self, b: &[f64]) -> OptResult<Vec<f64>> {
        let mut factor = CholeskyFactor::new();
        factor.refresh(self)?;
        let mut x = Vec::new();
        factor.solve_into(b, &mut x)?;
        Ok(x)
    }
}

impl Default for DenseMatrix {
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

/// A reusable Cholesky factorization `A = L L^T` of a symmetric
/// positive-definite matrix.
///
/// The factor is computed once per matrix ([`CholeskyFactor::refresh`]) and
/// can then be re-solved against many right-hand sides
/// ([`CholeskyFactor::solve_into`]) without refactorizing or allocating —
/// the ownership model of the solver workspaces: the factor's storage
/// outlives individual solves and is refreshed in place only when the matrix
/// actually changes. The arithmetic is identical to
/// [`DenseMatrix::solve_spd`] (which is now a thin wrapper), so solutions
/// are bit-for-bit the same.
#[derive(Debug, Clone, Default)]
pub struct CholeskyFactor {
    n: usize,
    /// Lower-triangular factor, row-major `n x n` (upper part unused).
    l: Vec<f64>,
    /// Forward-substitution intermediate, reused across solves.
    y: Vec<f64>,
}

impl CholeskyFactor {
    /// An empty factor; call [`CholeskyFactor::refresh`] before solving.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dimension of the factored matrix (0 before the first refresh).
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// (Re)factorizes `a` into this factor's storage.
    ///
    /// # Errors
    /// * [`OptError::DimensionMismatch`] if `a` is not square.
    /// * [`OptError::SingularSystem`] if the factorization encounters a
    ///   non-positive pivot (the factor is left invalid; refresh again
    ///   before solving).
    pub fn refresh(&mut self, a: &DenseMatrix) -> OptResult<()> {
        if a.rows() != a.cols() {
            return Err(OptError::DimensionMismatch {
                expected: a.rows(),
                actual: a.cols(),
            });
        }
        let n = a.rows();
        self.n = n;
        self.l.clear();
        self.l.resize(n * n, 0.0);
        let l = &mut self.l;
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(OptError::SingularSystem);
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(())
    }

    /// Solves `A x = b` against the current factor, writing the solution
    /// into `x` (resized as needed). No allocation happens once `x` and the
    /// internal intermediate have grown to the system dimension.
    ///
    /// # Errors
    /// [`OptError::DimensionMismatch`] if `b.len()` differs from the
    /// factored dimension.
    // quhe-analyze: hot-path
    pub fn solve_into(&mut self, b: &[f64], x: &mut Vec<f64>) -> OptResult<()> {
        let n = self.n;
        if b.len() != n {
            return Err(OptError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        let l = &self.l;
        // Forward substitution: L y = b.
        self.y.clear();
        self.y.resize(n, 0.0);
        let y = &mut self.y;
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * n + k] * y[k];
            }
            y[i] = sum / l[i * n + i];
        }
        // Back substitution: L^T x = y.
        x.clear();
        x.resize(n, 0.0);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= l[k * n + i] * x[k];
            }
            x[i] = sum / l[i * n + i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm_and_axpy() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(a.dot(&b), 32.0);
        assert!((a.norm() - 14.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.norm_inf(), 3.0);
        assert_eq!(a.axpy(2.0, &b), vec![9.0, 12.0, 15.0]);
        assert_eq!(a.scale(-1.0), vec![-1.0, -2.0, -3.0]);
        assert!(a.is_finite());
        assert!(![f64::NAN, 1.0].is_finite());
    }

    #[test]
    fn identity_solves_trivially() {
        let eye = DenseMatrix::identity(3);
        let x = eye.solve_spd(&[1.0, -2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn spd_solve_recovers_known_solution() {
        // A = [[4,1],[1,3]] is SPD; pick x = [1, 2] => b = [6, 7].
        let a = DenseMatrix::from_rows(2, 2, vec![4.0, 1.0, 1.0, 3.0]).unwrap();
        let x = a.solve_spd(&[6.0, 7.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn non_spd_matrix_is_rejected() {
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        assert_eq!(a.solve_spd(&[1.0, 1.0]), Err(OptError::SingularSystem));
    }

    #[test]
    fn dimension_checks() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.solve_spd(&[1.0, 1.0]),
            Err(OptError::DimensionMismatch { .. })
        ));
        assert!(DenseMatrix::from_rows(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn mul_vec_and_transpose() {
        let a = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(a.mul_vec_transposed(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn add_diagonal_damps() {
        let mut a = DenseMatrix::zeros(2, 2);
        a.add_diagonal(2.5);
        assert_eq!(a.get(0, 0), 2.5);
        assert_eq!(a.get(1, 1), 2.5);
        assert_eq!(a.get(0, 1), 0.0);
    }
}
