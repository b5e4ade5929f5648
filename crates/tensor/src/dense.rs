//! Dense matrix storage.
//!
//! Dense tensors are the degenerate case of Capstan's format hierarchy: a
//! dimension iterated with a plain counter (paper §2.2). They also serve as
//! the ground-truth representation that every sparse format converts to in
//! tests.

use crate::Value;

/// A dense row-major matrix.
///
/// # Example
///
/// ```
/// use capstan_tensor::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 3);
/// m[(1, 2)] = 5.0;
/// assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Value>,
}

impl DenseMatrix {
    /// Creates a zero matrix of shape `rows x cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix by tabulating `f` over all `(row, col)` pairs.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Value) -> Self {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[Value] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [Value] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows the full backing buffer (row-major).
    pub fn as_slice(&self) -> &[Value] {
        &self.data
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = Value;
    fn index(&self, (r, c): (usize, usize)) -> &Value {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Value {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_basics() {
        let m = DenseMatrix::from_fn(2, 3, |r, c| (r * 3 + c) as Value);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
    }
}
