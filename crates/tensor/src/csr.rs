//! Compressed sparse row (CSR) matrix format.
//!
//! "Iterating along rows, the matrix is dense with one entry per row;
//! sparsity is only exploited among columns within a row" (paper §2.1).
//! CSR SpMV is the paper's canonical example of a *compressed dimension*
//! handled purely with indirect accesses: iteration over `i x k` is dense,
//! while the third dimension uses a counter `j'` to index the row's
//! compressed column list (§2.2).

use crate::coo::Coo;
use crate::error::{FormatError, Result};
use crate::{Index, Value};

/// A sparse matrix in compressed-sparse-row format.
///
/// # Invariants
///
/// * `row_ptr.len() == rows + 1`, monotone non-decreasing,
///   `row_ptr[0] == 0`, `row_ptr[rows] == nnz`.
/// * Column indices within each row are strictly increasing and `< cols`.
///
/// # Example
///
/// ```
/// use capstan_tensor::{Coo, Csr};
///
/// let coo = Coo::from_triplets(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
/// let csr = Csr::from_coo(&coo);
/// assert_eq!(csr.row_len(0), 2);
/// assert_eq!(csr.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<Value>,
}

impl Csr {
    /// Builds a CSR matrix from raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::MalformedPointers`] if `row_ptr` is not a
    /// valid monotone pointer array, [`FormatError::LengthMismatch`] if
    /// `col_idx` and `values` disagree, or
    /// [`FormatError::IndexOutOfBounds`] for an invalid column index.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<Value>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1 {
            return Err(FormatError::MalformedPointers {
                detail: format!("row_ptr length {} != rows+1 ({})", row_ptr.len(), rows + 1),
            });
        }
        if row_ptr[0] != 0 {
            return Err(FormatError::MalformedPointers {
                detail: format!("row_ptr[0] = {} (must be 0)", row_ptr[0]),
            });
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(FormatError::MalformedPointers {
                detail: "row_ptr is not monotone non-decreasing".into(),
            });
        }
        if *row_ptr.last().unwrap() != col_idx.len() {
            return Err(FormatError::MalformedPointers {
                detail: format!(
                    "row_ptr[rows] = {} != nnz = {}",
                    row_ptr.last().unwrap(),
                    col_idx.len()
                ),
            });
        }
        if col_idx.len() != values.len() {
            return Err(FormatError::LengthMismatch {
                expected: col_idx.len(),
                found: values.len(),
            });
        }
        for r in 0..rows {
            let slice = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in slice.windows(2) {
                if w[0] >= w[1] {
                    return Err(FormatError::MalformedPointers {
                        detail: format!("columns in row {r} are not strictly increasing"),
                    });
                }
            }
            if let Some(&c) = slice.last() {
                if c as usize >= cols {
                    return Err(FormatError::IndexOutOfBounds {
                        axis: 1,
                        index: c as usize,
                        extent: cols,
                    });
                }
            }
        }
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Converts from COO (which is already sorted and deduplicated).
    pub fn from_coo(coo: &Coo) -> Self {
        let rows = coo.rows();
        let mut row_ptr = vec![0usize; rows + 1];
        for (r, _, _) in coo.iter() {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = Vec::with_capacity(coo.nnz());
        let mut values = Vec::with_capacity(coo.nnz());
        for (_, c, v) in coo.iter() {
            col_idx.push(c);
            values.push(v);
        }
        Csr {
            rows,
            cols: coo.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> Coo {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                triplets.push((r as Index, c, v));
            }
        }
        Coo::from_triplets(self.rows, self.cols, triplets).expect("valid CSR converts to valid COO")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of non-zeros in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_len(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Iterates over `(col, value)` pairs of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (Index, Value)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Borrows the column indices of row `r`.
    pub fn row_cols(&self, r: usize) -> &[Index] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Borrows the values of row `r`.
    pub fn row_values(&self, r: usize) -> &[Value] {
        &self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Reference SpMV: `y = self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[Value]) -> Vec<Value> {
        assert_eq!(x.len(), self.cols, "spmv dimension mismatch");
        (0..self.rows)
            .map(|r| self.row(r).map(|(c, v)| v * x[c as usize]).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        let coo = Coo::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap();
        Csr::from_coo(&coo)
    }

    #[test]
    fn structure_matches_coo() {
        let m = sample();
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (3, 2.0)]);
        assert_eq!(m.row_len(1), 1);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 4.0), (2, 5.0)]);
    }

    #[test]
    fn coo_round_trip() {
        let m = sample();
        assert_eq!(Csr::from_coo(&m.to_coo()), m);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = m.spmv(&x);
        let dense = m.to_coo().to_dense();
        for (r, &yr) in y.iter().enumerate() {
            let expect: Value = dense.row(r).iter().zip(&x).map(|(a, b)| a * b).sum();
            assert_eq!(yr, expect);
        }
    }

    #[test]
    fn from_raw_validates() {
        // Bad row_ptr length.
        assert!(Csr::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Not starting at zero.
        assert!(Csr::from_raw(1, 2, vec![1, 1], vec![], vec![]).is_err());
        // Non-monotone.
        assert!(Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // nnz mismatch.
        assert!(Csr::from_raw(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
        // Length mismatch.
        assert!(Csr::from_raw(1, 2, vec![0, 1], vec![0], vec![]).is_err());
        // Unsorted columns.
        assert!(Csr::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // Column out of range.
        assert!(Csr::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // A valid one.
        assert!(Csr::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::from_coo(&Coo::zeros(3, 3));
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.spmv(&[1.0, 1.0, 1.0]), vec![0.0, 0.0, 0.0]);
    }
}
