//! Dense vector and matrix storage.
//!
//! Dense tensors are the degenerate case of Capstan's format hierarchy: a
//! dimension iterated with a plain counter (paper §2.2). They also serve as
//! the ground-truth representation that every sparse format converts to in
//! tests.

use crate::{Index, Value};

/// A dense vector of [`Value`]s.
///
/// # Example
///
/// ```
/// use capstan_tensor::DenseVector;
///
/// let v = DenseVector::from_fn(4, |i| i as f32);
/// assert_eq!(v.nnz(), 3); // element 0 is zero
/// assert_eq!(v[2], 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseVector {
    data: Vec<Value>,
}

impl DenseVector {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        DenseVector { data: vec![0.0; n] }
    }

    /// Creates a vector by tabulating `f` over `0..n`.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> Value) -> Self {
        DenseVector {
            data: (0..n).map(f).collect(),
        }
    }

    /// Wraps an existing buffer.
    pub fn from_vec(data: Vec<Value>) -> Self {
        DenseVector { data }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has length zero.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Borrows the underlying slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.data
    }

    /// Iterates over `(index, value)` pairs of non-zero elements.
    pub fn iter_nonzeros(&self) -> impl Iterator<Item = (Index, Value)> + '_ {
        self.data
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, v)| (i as Index, *v))
    }

    /// Dot product with another dense vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &DenseVector) -> Value {
        assert_eq!(self.len(), other.len(), "dot of mismatched lengths");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> Value {
        self.dot(self).sqrt()
    }

    /// `self += alpha * other` (the BLAS `axpy` primitive used by BiCGStab).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: Value, other: &DenseVector) {
        assert_eq!(self.len(), other.len(), "axpy of mismatched lengths");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: Value) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Maximum absolute difference against another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn max_abs_diff(&self, other: &DenseVector) -> Value {
        assert_eq!(self.len(), other.len(), "diff of mismatched lengths");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, Value::max)
    }
}

impl std::ops::Index<usize> for DenseVector {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for DenseVector {
    fn index_mut(&mut self, i: usize) -> &mut Value {
        &mut self.data[i]
    }
}

impl FromIterator<Value> for DenseVector {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        DenseVector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<Value> for DenseVector {
    fn extend<I: IntoIterator<Item = Value>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl From<Vec<Value>> for DenseVector {
    fn from(data: Vec<Value>) -> Self {
        DenseVector { data }
    }
}

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

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
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

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &DenseVector) -> DenseVector {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        DenseVector::from_fn(self.rows, |r| {
            self.row(r)
                .iter()
                .zip(x.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        })
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
    fn vector_basics() {
        let mut v = DenseVector::zeros(4);
        assert_eq!(v.len(), 4);
        assert_eq!(v.nnz(), 0);
        v[1] = 2.0;
        v[3] = -1.0;
        assert_eq!(v.nnz(), 2);
        assert_eq!(
            v.iter_nonzeros().collect::<Vec<_>>(),
            vec![(1, 2.0), (3, -1.0)]
        );
    }

    #[test]
    fn vector_dot_and_axpy() {
        let a = DenseVector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = DenseVector::from_vec(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
        let mut c = a;
        c.axpy(2.0, &b);
        assert_eq!(c.as_slice(), &[9.0, 12.0, 15.0]);
    }

    #[test]
    fn vector_norm() {
        let v = DenseVector::from_vec(vec![3.0, 4.0]);
        assert_eq!(v.norm(), 5.0);
    }

    #[test]
    #[should_panic(expected = "dot of mismatched lengths")]
    fn dot_length_mismatch_panics() {
        let a = DenseVector::zeros(2);
        let b = DenseVector::zeros(3);
        let _ = a.dot(&b);
    }

    #[test]
    fn matrix_basics() {
        let m = DenseMatrix::from_fn(2, 3, |r, c| (r * 3 + c) as Value);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = DenseMatrix::from_fn(2, 2, |r, c| (r + c) as Value);
        let x = DenseVector::from_vec(vec![1.0, 2.0]);
        let y = m.matvec(&x);
        assert_eq!(y.as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut v: DenseVector = (0..3).map(|i| i as Value).collect();
        v.extend([9.0]);
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 9.0]);
    }

    #[test]
    fn max_abs_diff() {
        let a = DenseVector::from_vec(vec![1.0, 2.0]);
        let b = DenseVector::from_vec(vec![1.5, 1.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
