//! A minimal dense, row-major `f64` matrix.
//!
//! The matrix is deliberately simple: AutoAI-TS only needs construction,
//! slicing, transposed products, and matrix-vector application on problem
//! sizes of at most a few thousand columns (design matrices built from
//! look-back windows).

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dot product with four independent accumulators.
///
/// The split reduction breaks the serial dependence chain of a naive
/// `sum(a[i] * b[i])`, which is what lets LLVM keep the partial sums in
/// vector registers. The summation order is fixed (lane sums combined
/// pairwise, then the scalar tail), so results are deterministic across
/// runs and threads — they just differ in last-bit rounding from the
/// strictly sequential order, which no contract in this workspace depends
/// on. Mismatched lengths use the shorter of the two.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    let mut acc = [0.0f64; 4];
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Fused scale-and-add `y[i] += a * x[i]`.
///
/// A plain elementwise loop with no reduction, so LLVM autovectorizes it
/// directly. Mismatched lengths use the shorter of the two.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len().min(y.len());
    for (yi, &xi) in y[..n].iter_mut().zip(&x[..n]) {
        *yi += a * xi;
    }
}

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of `rows x cols` filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major vector. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build from a slice of rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build a single-column matrix from a vector.
    pub fn column(v: &[f64]) -> Self {
        Self {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over the rows as slices (row-major chunks). A matrix with
    /// zero columns yields no rows (it holds no data).
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        let cols = self.cols.max(1);
        self.data.chunks(cols).take(self.rows)
    }

    /// Iterate over the rows as mutable slices (row-major chunks).
    pub fn rows_iter_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let cols = self.cols.max(1);
        self.data.chunks_mut(cols).take(self.rows)
    }

    /// Copy column `c` out into a vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        debug_assert!(c < self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`. Panics on dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // Register-tiled ikj: four k-panels fused per pass over the output
        // row, so each `out` element gets four fused multiply-adds per load
        // and the inner loop streams over contiguous rows. No zero-skip —
        // the branch costs more than the multiply and blocks vectorization.
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = out.row_mut(i);
            let mut k = 0;
            while k + 4 <= rhs.rows {
                let (a0, a1, a2, a3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                let quad = rhs
                    .row(k)
                    .iter()
                    .zip(rhs.row(k + 1))
                    .zip(rhs.row(k + 2))
                    .zip(rhs.row(k + 3));
                for (o, (((&b0, &b1), &b2), &b3)) in orow.iter_mut().zip(quad) {
                    *o += a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3;
                }
                k += 4;
            }
            while k < rhs.rows {
                axpy(arow[k], rhs.row(k), orow);
                k += 1;
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(
            self.cols,
            v.len(),
            "matvec: {}x{} * {}",
            self.rows,
            self.cols,
            v.len()
        );
        self.rows_iter().map(|row| dot(row, v)).collect()
    }

    /// Gram matrix `selfᵀ * self` computed without materializing the transpose.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        // Rank-1 updates on the upper triangle, one contiguous axpy per
        // (row, i) pair; the zero-skip branch is gone for the same reason
        // as in `matmul`.
        for r in 0..self.rows {
            for i in 0..n {
                let a = self[(r, i)];
                let row = &self.data[r * n + i..(r + 1) * n];
                axpy(a, row, &mut g.row_mut(i)[i..]);
            }
        }
        // mirror the upper triangle
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `selfᵀ * v` without materializing the transpose.
    pub fn t_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(
            self.rows,
            v.len(),
            "t_matvec: {}x{}ᵀ * {}",
            self.rows,
            self.cols,
            v.len()
        );
        let mut out = vec![0.0; self.cols];
        for (&w, row) in v.iter().zip(self.rows_iter()) {
            axpy(w, row, &mut out);
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
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

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.nrows(), 2);
        assert_eq!(z.ncols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.nrows(), 2);
        assert_eq!(c.ncols(), 2);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn gram_equals_explicit_transpose_product() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let g = a.gram();
        let g2 = a.transpose().matmul(&a);
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - g2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matvec_and_t_matvec() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.matvec(&[1., 0., 1.]), vec![4.0, 10.0]);
        assert_eq!(a.t_matvec(&[1., 1.]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn col_extraction() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_rows_builds_expected_layout() {
        let a = Matrix::from_rows(&[vec![1., 2.], vec![3., 4.]]);
        assert_eq!(a[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[vec![1., 2.], vec![3.]]);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a[(0, 1)] = f64::NAN;
        assert!(a.has_non_finite());
    }
}
