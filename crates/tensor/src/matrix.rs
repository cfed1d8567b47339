//! Row-major dense `f32` matrix.
//!
//! A deliberately small surface: HyScale-GNN needs contiguous row-major
//! buffers (feature matrices are gathered row-wise, GEMM walks rows), not
//! a general tensor library.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Row-major dense `f32` matrix.
///
/// Invariant: `data.len() == rows * cols` (checked on every constructor).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from an existing row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { data, rows, cols }
    }

    /// Matrix whose contents are unspecified — the caller must overwrite
    /// every element before reading. Exists so buffer-pool users can
    /// express "shape without meaningful contents"; the current
    /// implementation zero-fills (allocation via `calloc` is cheap and
    /// avoids undefined behaviour on `f32` reads).
    pub fn uninit(rows: usize, cols: usize) -> Self {
        Self::zeros(rows, cols)
    }

    /// Reshape in place to `rows × cols`, reusing the existing
    /// allocation when capacity allows. Contents are unspecified
    /// afterwards (elements carried over keep their old values, grown
    /// area is zero-filled) — callers are expected to overwrite every
    /// element, as the feature-gather hot path does.
    ///
    /// This is the buffer-pool primitive behind
    /// `gather_features_into`: steady-state training iterations reshape
    /// recycled matrices instead of allocating fresh ones.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Allocated capacity in elements (for pool-reuse diagnostics).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the whole row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the whole row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Element-wise `self += other`.
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Element-wise `self += alpha * other` (AXPY).
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * *b;
        }
    }

    /// Multiply every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element, 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Copy `src` into row `r`.
    ///
    /// # Panics
    /// If `src.len() != cols`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "set_row width mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Gather rows `indices` into a new `indices.len() × cols` matrix.
    ///
    /// This is the CPU feature-loader primitive (paper Fig. 3 "Feature
    /// Loader"): `X' = X[indices, :]`.
    pub fn gather_rows(&self, indices: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src as usize));
        }
        out
    }

    /// Vertically stack two matrices with equal column counts.
    ///
    /// # Panics
    /// On column mismatch.
    pub fn vstack(&self, bottom: &Matrix) -> Matrix {
        assert_eq!(self.cols, bottom.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + bottom.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&bottom.data);
        Matrix::from_vec(self.rows + bottom.rows, self.cols, data)
    }

    /// Split off the first `left_cols` columns, returning `(left, right)`.
    ///
    /// Used by the SAGE backward pass to split `∂[self ‖ mean]`.
    ///
    /// # Panics
    /// If `left_cols > cols`.
    pub fn hsplit(&self, left_cols: usize) -> (Matrix, Matrix) {
        assert!(left_cols <= self.cols, "hsplit out of range");
        let right_cols = self.cols - left_cols;
        let mut left = Matrix::zeros(self.rows, left_cols);
        let mut right = Matrix::zeros(self.rows, right_cols);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..left_cols]);
            right.row_mut(r).copy_from_slice(&self.row(r)[left_cols..]);
        }
        (left, right)
    }

    /// `true` when all elements differ by at most `tol` (absolute) or
    /// `tol` relative to magnitude, whichever is looser.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        self.data.iter().zip(&other.data).all(|(a, b)| {
            let diff = (a - b).abs();
            diff <= tol || diff <= tol * a.abs().max(b.abs())
        })
    }

    /// Size of the matrix payload in bytes (`4·rows·cols`).
    ///
    /// Used throughout the timing models (paper Eq. 7–8: traffic =
    /// `|V|·f·S_feat`).
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4}", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, " ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn index_roundtrip() {
        let mut m = Matrix::zeros(2, 2);
        m[(0, 1)] = 3.5;
        m[(1, 0)] = -1.0;
        assert_eq!(m[(0, 1)], 3.5);
        assert_eq!(m[(1, 0)], -1.0);
        assert_eq!(m.as_slice(), &[0.0, 3.5, -1.0, 0.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_values() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.as_slice(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn gather_rows_selects() {
        let x = Matrix::from_fn(5, 2, |r, c| (10 * r + c) as f32);
        let g = x.gather_rows(&[4, 0, 4]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.row(0), &[40., 41.]);
        assert_eq!(g.row(1), &[0., 1.]);
        assert_eq!(g.row(2), &[40., 41.]);
    }

    #[test]
    fn hsplit_splits_columns() {
        let m = Matrix::from_fn(3, 6, |r, c| (10 * r + c) as f32);
        let (l, r) = m.hsplit(2);
        assert_eq!(l, Matrix::from_fn(3, 2, |r, c| (10 * r + c) as f32));
        assert_eq!(r, Matrix::from_fn(3, 4, |r, c| (10 * r + c + 2) as f32));
        let (all, none) = m.hsplit(6);
        assert_eq!(all, m);
        assert_eq!(none.shape(), (3, 0));
    }

    #[test]
    fn vstack_stacks() {
        let a = Matrix::full(1, 3, 1.0);
        let b = Matrix::full(2, 3, 2.0);
        let s = a.vstack(&b);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.row(0), &[1.0; 3]);
        assert_eq!(s.row(2), &[2.0; 3]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0; 4]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[4.0; 4]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, -4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = Matrix::full(2, 2, 1.0);
        let mut b = a.clone();
        b[(0, 0)] = 1.0 + 1e-7;
        assert!(a.approx_eq(&b, 1e-5));
        b[(0, 0)] = 1.1;
        assert!(!a.approx_eq(&b, 1e-5));
    }

    #[test]
    fn nbytes_counts_payload() {
        assert_eq!(Matrix::zeros(3, 5).nbytes(), 60);
    }

    #[test]
    fn resize_keeps_allocation_when_shrinking() {
        let mut m = Matrix::zeros(100, 8);
        let cap = m.capacity();
        m.resize(50, 8);
        assert_eq!(m.shape(), (50, 8));
        assert_eq!(m.capacity(), cap, "shrink must not reallocate");
        m.resize(100, 8);
        assert_eq!(m.shape(), (100, 8));
        assert_eq!(
            m.capacity(),
            cap,
            "regrow within capacity must not reallocate"
        );
    }

    #[test]
    fn uninit_has_shape() {
        let m = Matrix::uninit(4, 3);
        assert_eq!(m.shape(), (4, 3));
        assert_eq!(m.len(), 12);
    }
}
