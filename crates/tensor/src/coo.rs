//! Coordinate (COO) sparse matrix format.
//!
//! COO stores "compressed non-zeros with row/column pointers" (paper
//! Table 1) and "permits iteration only over non-zero tensor values — not
//! rows or columns — with more efficient storage for extremely sparse
//! matrices" (§2.1). COO SpMV is one of the paper's core benchmarks: every
//! non-zero triggers *two* random accesses (`V[c]` read, `Out[r]` atomic
//! update, Table 2), which makes it the stress test for Capstan's
//! read-modify-write memory pipeline.

use crate::dense::DenseMatrix;
use crate::error::{FormatError, Result};
use crate::{Index, Value};

/// A sparse matrix in coordinate format, sorted row-major and deduplicated.
///
/// # Invariants
///
/// * Entries are sorted by `(row, col)`.
/// * No duplicate coordinates (duplicates are summed at construction).
/// * All coordinates lie within `rows x cols`.
///
/// # Example
///
/// ```
/// use capstan_tensor::Coo;
///
/// let m = Coo::from_triplets(2, 2, vec![(0, 1, 1.0), (0, 1, 2.0), (1, 0, 4.0)]).unwrap();
/// assert_eq!(m.nnz(), 2); // duplicates summed
/// assert_eq!(m.entries()[0], (0, 1, 3.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<(Index, Index, Value)>,
}

impl Coo {
    /// Builds a COO matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order; duplicates are summed; explicit
    /// zeros are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::IndexOutOfBounds`] if any coordinate exceeds
    /// the stated dimensions, or [`FormatError::NonFiniteValue`] if any
    /// value is NaN or infinite — such values would silently poison the
    /// duplicate summation here and every downstream format conversion.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        mut triplets: Vec<(Index, Index, Value)>,
    ) -> Result<Self> {
        for &(r, c, v) in &triplets {
            if r as usize >= rows {
                return Err(FormatError::IndexOutOfBounds {
                    axis: 0,
                    index: r as usize,
                    extent: rows,
                });
            }
            if c as usize >= cols {
                return Err(FormatError::IndexOutOfBounds {
                    axis: 1,
                    index: c as usize,
                    extent: cols,
                });
            }
            if !v.is_finite() {
                return Err(FormatError::NonFiniteValue {
                    row: r as usize,
                    col: c as usize,
                });
            }
        }
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Sum each run of duplicates into its first entry, in sorted order.
        triplets.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 += next.2;
            }
            same
        });
        triplets.retain(|&(_, _, v)| v != 0.0);
        Ok(Coo {
            rows,
            cols,
            entries: triplets,
        })
    }

    /// Keeps the first `nnz` entries in `(row, col)` order. A prefix of a
    /// valid matrix is still sorted, unique and non-zero.
    pub(crate) fn truncate(&mut self, nnz: usize) {
        self.entries.truncate(nnz);
    }

    /// An empty matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::new(),
        }
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
        self.entries.len()
    }

    /// Density: `nnz / (rows * cols)`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.entries.len() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Borrows the sorted `(row, col, value)` entries.
    pub fn entries(&self) -> &[(Index, Index, Value)] {
        &self.entries
    }

    /// The sorted `(row, col, value)` entries, by value.
    pub(crate) fn into_entries(self) -> Vec<(Index, Index, Value)> {
        self.entries
    }

    /// Iterates over the sorted `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, Value)> + '_ {
        self.entries.iter().copied()
    }

    /// Transposes the matrix (swaps rows and columns).
    ///
    /// An O(nnz) column-count scatter, no sort: it counts the entries of
    /// each column, then scatters every entry to its column's next free
    /// slot. Because the entries are already sorted by `(row, col)`,
    /// unique and non-zero (the [`Coo`] invariants), each column's rows
    /// arrive in increasing order and the result is sorted by
    /// `(col, row)` with nothing to merge or drop.
    pub fn transpose(&self) -> Coo {
        let mut next = self.col_starts();
        let mut entries = vec![(0, 0, 0.0); self.entries.len()];
        for &(r, c, v) in &self.entries {
            let slot = &mut next[c as usize];
            entries[*slot] = (c, r, v);
            *slot += 1;
        }
        Coo {
            rows: self.cols,
            cols: self.rows,
            entries,
        }
    }

    /// Column pointers: `cols + 1` prefix sums of the per-column entry
    /// counts, so column `c`'s entries occupy `ptr[c]..ptr[c + 1]` in
    /// column-major order.
    pub(crate) fn col_starts(&self) -> Vec<usize> {
        let mut ptr = vec![0usize; self.cols + 1];
        for &(_, c, _) in &self.entries {
            ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            ptr[c + 1] += ptr[c];
        }
        ptr
    }

    /// Converts to a dense matrix (for tests and small examples).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.entries {
            m[(r as usize, c as usize)] += v;
        }
        m
    }
}

impl<'a> IntoIterator for &'a Coo {
    type Item = (Index, Index, Value);
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, (Index, Index, Value)>>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_dedups() {
        let m = Coo::from_triplets(
            3,
            3,
            vec![(2, 0, 1.0), (0, 1, 2.0), (2, 0, 3.0), (0, 0, 5.0)],
        )
        .unwrap();
        assert_eq!(m.entries(), &[(0, 0, 5.0), (0, 1, 2.0), (2, 0, 4.0)]);
    }

    #[test]
    fn drops_explicit_and_cancelled_zeros() {
        let m = Coo::from_triplets(2, 2, vec![(0, 0, 0.0), (1, 1, 2.0), (1, 1, -2.0)]).unwrap();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let err = Coo::from_triplets(2, 2, vec![(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, FormatError::IndexOutOfBounds { axis: 0, .. }));
        let err = Coo::from_triplets(2, 2, vec![(0, 5, 1.0)]).unwrap_err();
        assert!(matches!(err, FormatError::IndexOutOfBounds { axis: 1, .. }));
    }

    #[test]
    fn rejects_non_finite_values() {
        for bad in [Value::NAN, Value::INFINITY, Value::NEG_INFINITY] {
            let err = Coo::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 0, bad)]).unwrap_err();
            assert_eq!(err, FormatError::NonFiniteValue { row: 1, col: 0 });
        }
    }

    #[test]
    fn transpose_round_trip() {
        let m = Coo::from_triplets(2, 3, vec![(0, 2, 1.0), (1, 0, 2.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn to_dense_places_every_entry() {
        let m = Coo::from_triplets(2, 2, vec![(0, 1, 1.5), (1, 1, -2.0)]).unwrap();
        let d = m.to_dense();
        assert_eq!(d.as_slice(), &[0.0, 1.5, 0.0, -2.0]);
    }

    #[test]
    fn density() {
        let m = Coo::from_triplets(2, 2, vec![(0, 0, 1.0)]).unwrap();
        assert_eq!(m.density(), 0.25);
        assert_eq!(Coo::zeros(0, 0).density(), 0.0);
    }
}
