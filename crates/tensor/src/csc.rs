//! Compressed sparse column (CSC) matrix format.
//!
//! CSC "permits skipping columns that would be multiplied by zero" (paper
//! §2.1): CSC SpMV iterates only over the *non-zero entries of the input
//! vector* (`sparse(V)` in Table 2) and scatters `Out[r] += M[c][r] * V[c]`
//! with atomic random accesses — the access pattern that motivates
//! Capstan's read-modify-write SRAM pipeline.

use crate::coo::Coo;
use crate::error::{FormatError, Result};
use crate::{Index, Value};

/// A sparse matrix in compressed-sparse-column format.
///
/// # Invariants
///
/// Mirror of [`crate::Csr`] with rows and columns exchanged:
/// `col_ptr.len() == cols + 1` is monotone, row indices within each column
/// are strictly increasing and `< rows`.
///
/// # Example
///
/// ```
/// use capstan_tensor::{Coo, Csc};
///
/// let coo = Coo::from_triplets(3, 2, vec![(0, 0, 1.0), (2, 0, 2.0), (1, 1, 3.0)]).unwrap();
/// let csc = Csc::from_coo(&coo);
/// assert_eq!(csc.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Csc {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<Index>,
    values: Vec<Value>,
}

impl Csc {
    /// Builds a CSC matrix from raw arrays.
    ///
    /// # Errors
    ///
    /// Same validation as [`crate::Csr::from_raw`], with the roles of rows
    /// and columns exchanged.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<Index>,
        values: Vec<Value>,
    ) -> Result<Self> {
        if col_ptr.len() != cols + 1 {
            return Err(FormatError::MalformedPointers {
                detail: format!("col_ptr length {} != cols+1 ({})", col_ptr.len(), cols + 1),
            });
        }
        if col_ptr[0] != 0 {
            return Err(FormatError::MalformedPointers {
                detail: format!("col_ptr[0] = {} (must be 0)", col_ptr[0]),
            });
        }
        if col_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(FormatError::MalformedPointers {
                detail: "col_ptr is not monotone non-decreasing".into(),
            });
        }
        if *col_ptr.last().unwrap() != row_idx.len() {
            return Err(FormatError::MalformedPointers {
                detail: format!(
                    "col_ptr[cols] = {} != nnz = {}",
                    col_ptr.last().unwrap(),
                    row_idx.len()
                ),
            });
        }
        if row_idx.len() != values.len() {
            return Err(FormatError::LengthMismatch {
                expected: row_idx.len(),
                found: values.len(),
            });
        }
        for c in 0..cols {
            let slice = &row_idx[col_ptr[c]..col_ptr[c + 1]];
            for w in slice.windows(2) {
                if w[0] >= w[1] {
                    return Err(FormatError::MalformedPointers {
                        detail: format!("rows in column {c} are not strictly increasing"),
                    });
                }
            }
            if let Some(&r) = slice.last() {
                if r as usize >= rows {
                    return Err(FormatError::IndexOutOfBounds {
                        axis: 0,
                        index: r as usize,
                        extent: rows,
                    });
                }
            }
        }
        Ok(Csc {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Converts from COO.
    ///
    /// An O(nnz) column-count scatter, no sort and no intermediate
    /// transpose: `col_ptr` is the prefix sum of the per-column counts,
    /// and each entry goes to its column's next free slot. It relies on
    /// the [`Coo`] invariants — entries sorted by `(row, col)`, unique and
    /// non-zero — so each column's rows arrive strictly increasing.
    pub fn from_coo(coo: &Coo) -> Self {
        let col_ptr = coo.col_starts();
        let mut next = col_ptr.clone();
        let mut row_idx = vec![0; coo.nnz()];
        let mut values = vec![0.0; coo.nnz()];
        for (r, c, v) in coo.iter() {
            let slot = &mut next[c as usize];
            row_idx[*slot] = r;
            values[*slot] = v;
            *slot += 1;
        }
        Csc {
            rows: coo.rows(),
            cols: coo.cols(),
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> Coo {
        let mut triplets = Vec::with_capacity(self.nnz());
        for c in 0..self.cols {
            for (r, v) in self.col(c) {
                triplets.push((r, c as Index, v));
            }
        }
        Coo::from_triplets(self.rows, self.cols, triplets).expect("valid CSC converts to valid COO")
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
        self.row_idx.len()
    }

    /// The column pointer array (`cols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Number of non-zeros in column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col_len(&self, c: usize) -> usize {
        self.col_ptr[c + 1] - self.col_ptr[c]
    }

    /// Iterates over `(row, value)` pairs of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> impl Iterator<Item = (Index, Value)> + '_ {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Borrows the row indices of column `c`.
    pub fn col_rows(&self, c: usize) -> &[Index] {
        &self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// Borrows the values of column `c`.
    pub fn col_values(&self, c: usize) -> &[Value] {
        &self.values[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// Reference CSC SpMV: `y = self * x`, skipping zero input elements —
    /// the algorithm of paper Table 2 ("CSC SpMV").
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[Value]) -> Vec<Value> {
        assert_eq!(x.len(), self.cols, "spmv dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue; // the sparse(V) loop skips zero inputs
            }
            for (r, v) in self.col(c) {
                y[r as usize] += v * xc;
            }
        }
        y
    }
}

impl From<&Coo> for Csc {
    /// [`Csc::from_coo`].
    fn from(coo: &Coo) -> Self {
        Csc::from_coo(coo)
    }
}

impl From<Coo> for Csc {
    /// Converts from an owned COO in its own storage, equal to
    /// [`Csc::from_coo`]. The entries are sorted column-major in place,
    /// then moved into the CSC arrays back to front one chunk at a time
    /// while the COO's storage shrinks behind them, so the conversion
    /// peaks near the COO's size instead of the COO's plus the CSC's.
    fn from(coo: Coo) -> Self {
        let (rows, cols) = (coo.rows(), coo.cols());
        let col_ptr = coo.col_starts();
        let mut entries = coo.into_entries();
        // Coordinates are unique, so column-major order is fully determined.
        entries.sort_unstable_by_key(|&(r, c, _)| (c as u64) << 32 | r as u64);
        let chunk = (entries.len() / 16).max(1 << 16);
        let (mut row_idx, mut values) = (Vec::new(), Vec::new());
        while !entries.is_empty() {
            let rest = entries.len().saturating_sub(chunk);
            row_idx.reserve_exact(entries.len() - rest);
            values.reserve_exact(entries.len() - rest);
            for &(r, _, v) in entries[rest..].iter().rev() {
                row_idx.push(r);
                values.push(v);
            }
            entries.truncate(rest);
            entries.shrink_to_fit();
        }
        row_idx.reverse();
        values.reverse();
        Csc {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    #[test]
    fn converting_an_owned_coo_equals_converting_a_borrowed_one() {
        assert_eq!(Csc::from(sample_coo()), Csc::from_coo(&sample_coo()));
        // More entries than one chunk, every column populated.
        let big = crate::gen::uniform(300, 700, 150_000, 7);
        assert_eq!(Csc::from(big.clone()), Csc::from_coo(&big));
        assert_eq!(
            Csc::from(Coo::zeros(3, 2)),
            Csc::from_coo(&Coo::zeros(3, 2))
        );
    }

    fn sample_coo() -> Coo {
        Coo::from_triplets(
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
        .unwrap()
    }

    #[test]
    fn structure() {
        let m = Csc::from_coo(&sample_coo());
        assert_eq!(m.col_ptr(), &[0, 2, 3, 4, 5]);
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 4.0)]);
        assert_eq!(m.col_len(3), 1);
    }

    #[test]
    fn coo_round_trip() {
        let coo = sample_coo();
        assert_eq!(Csc::from_coo(&coo).to_coo(), coo);
    }

    #[test]
    fn spmv_agrees_with_csr() {
        let coo = sample_coo();
        let csr = Csr::from_coo(&coo);
        let csc = Csc::from_coo(&coo);
        let x = vec![1.0, 0.0, 2.0, 3.0];
        assert_eq!(csr.spmv(&x), csc.spmv(&x));
    }

    #[test]
    fn spmv_skips_zero_inputs() {
        // With a zero input vector CSC SpMV does no work at all.
        let csc = Csc::from_coo(&sample_coo());
        assert_eq!(csc.spmv(&[0.0; 4]), vec![0.0; 3]);
    }

    #[test]
    fn from_raw_validates() {
        assert!(Csc::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(Csc::from_raw(2, 1, vec![0, 2], vec![1, 0], vec![1.0, 2.0]).is_err());
        assert!(Csc::from_raw(2, 1, vec![0, 1], vec![7], vec![1.0]).is_err());
        assert!(Csc::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 2.0]).is_ok());
    }
}
