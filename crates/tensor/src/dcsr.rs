//! Doubly-compressed sparse row/column (DCSR / DCSC) formats.
//!
//! Paper §2.1: "If iteration along rows were sparse, the matrix — with the
//! same row format — would be a doubly-compressed sparse row (DCSR)
//! matrix." DCSR stores only the *non-empty* rows, making it the natural
//! format for hyper-sparse matrices (most rows empty), where CSR's dense
//! `rows + 1` pointer array wastes both storage and iteration bandwidth.
//!
//! On Capstan, the compressed row dimension is iterated with a scanner
//! over the row-occupancy bit-vector, exactly like any other compressed
//! dimension (§2.2).

use crate::bitvec::BitVec;
use crate::coo::Coo;
use crate::{Index, Value};

/// A doubly-compressed sparse row matrix: only non-empty rows are stored.
///
/// # Example
///
/// ```
/// use capstan_tensor::{Coo, dcsr::Dcsr};
///
/// // 1000x1000 with only two occupied rows: DCSR stores 2 row entries.
/// let coo = Coo::from_triplets(1000, 1000, vec![(3, 5, 1.0), (900, 2, 2.0)]).unwrap();
/// let m = Dcsr::from_coo(&coo);
/// assert_eq!(m.occupied_rows(), 2);
/// assert_eq!(m.to_coo(), coo);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dcsr {
    rows: usize,
    cols: usize,
    /// Ids of the non-empty rows, sorted.
    row_ids: Vec<Index>,
    /// `row_ptr[k]..row_ptr[k+1]` indexes the k-th occupied row's data.
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<Value>,
}

impl Dcsr {
    /// Converts from COO (sorted, deduplicated by construction).
    pub fn from_coo(coo: &Coo) -> Self {
        let mut row_ids: Vec<Index> = Vec::new();
        let mut row_ptr: Vec<usize> = vec![0];
        let mut col_idx = Vec::with_capacity(coo.nnz());
        let mut values = Vec::with_capacity(coo.nnz());
        for (r, c, v) in coo.iter() {
            if row_ids.last() != Some(&r) {
                row_ids.push(r);
                row_ptr.push(col_idx.len());
            }
            col_idx.push(c);
            values.push(v);
            *row_ptr.last_mut().expect("non-empty") = col_idx.len();
        }
        Dcsr {
            rows: coo.rows(),
            cols: coo.cols(),
            row_ids,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> Coo {
        let mut triplets = Vec::with_capacity(self.nnz());
        for k in 0..self.row_ids.len() {
            let r = self.row_ids[k];
            for i in self.row_ptr[k]..self.row_ptr[k + 1] {
                triplets.push((r, self.col_idx[i], self.values[i]));
            }
        }
        Coo::from_triplets(self.rows, self.cols, triplets).expect("valid DCSR")
    }

    /// Number of logical rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of logical columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of non-empty rows actually stored.
    pub fn occupied_rows(&self) -> usize {
        self.row_ids.len()
    }

    /// The sorted non-empty row ids.
    pub fn row_ids(&self) -> &[Index] {
        &self.row_ids
    }

    /// Row-occupancy bit-vector — the scanner input for the compressed
    /// outer dimension.
    pub fn row_bitvec(&self) -> BitVec {
        BitVec::from_indices(self.rows, &self.row_ids).expect("row ids in bounds")
    }

    /// Iterates `(col, value)` of the k-th *occupied* row.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.occupied_rows()`.
    pub fn occupied_row(&self, k: usize) -> impl Iterator<Item = (Index, Value)> + '_ {
        let lo = self.row_ptr[k];
        let hi = self.row_ptr[k + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Reference SpMV skipping empty rows entirely.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[Value]) -> Vec<Value> {
        assert_eq!(x.len(), self.cols, "spmv dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for k in 0..self.row_ids.len() {
            let r = self.row_ids[k] as usize;
            y[r] = self.occupied_row(k).map(|(c, v)| v * x[c as usize]).sum();
        }
        y
    }

    /// Pointer storage in words (row ids + row pointers), for format
    /// comparisons against CSR's `rows + 1`.
    pub fn pointer_words(&self) -> usize {
        self.row_ids.len() + self.row_ptr.len()
    }
}

/// A doubly-compressed sparse column matrix (DCSC): DCSR of the transpose.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dcsc {
    inner: Dcsr,
}

impl Dcsc {
    /// Converts from COO.
    pub fn from_coo(coo: &Coo) -> Self {
        Dcsc {
            inner: Dcsr::from_coo(&coo.transpose()),
        }
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> Coo {
        self.inner.to_coo().transpose()
    }

    /// Number of logical rows.
    pub fn rows(&self) -> usize {
        self.inner.cols()
    }

    /// Number of logical columns.
    pub fn cols(&self) -> usize {
        self.inner.rows()
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    /// Number of non-empty columns.
    pub fn occupied_cols(&self) -> usize {
        self.inner.occupied_rows()
    }

    /// Iterates `(row, value)` of the k-th occupied column.
    pub fn occupied_col(&self, k: usize) -> impl Iterator<Item = (Index, Value)> + '_ {
        self.inner.occupied_row(k)
    }
}

/// Chooses between CSR and DCSR by pointer-storage cost (the format
/// decision a compiler like TACO makes per dimension).
pub fn prefers_dcsr(coo: &Coo) -> bool {
    let occupied = {
        let mut rows: Vec<Index> = coo.iter().map(|(r, _, _)| r).collect();
        rows.dedup();
        rows.len()
    };
    // DCSR stores 2 words per occupied row; CSR stores 1 per logical row.
    2 * occupied < coo.rows() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::gen;

    fn hyper_sparse() -> Coo {
        Coo::from_triplets(
            10_000,
            10_000,
            vec![
                (17, 3, 1.0),
                (17, 90, 2.0),
                (4_000, 4_000, 3.0),
                (9_999, 0, -1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let coo = hyper_sparse();
        assert_eq!(Dcsr::from_coo(&coo).to_coo(), coo);
        assert_eq!(Dcsc::from_coo(&coo).to_coo(), coo);
    }

    #[test]
    fn stores_only_occupied_rows() {
        let m = Dcsr::from_coo(&hyper_sparse());
        assert_eq!(m.occupied_rows(), 3);
        assert_eq!(m.row_ids(), &[17, 4_000, 9_999]);
        assert_eq!(m.nnz(), 4);
        // Pointer storage is tiny compared to CSR's 10_001 words.
        assert!(m.pointer_words() < 10);
    }

    #[test]
    fn spmv_matches_csr() {
        let coo = gen::uniform(200, 200, 400, 5);
        let dcsr = Dcsr::from_coo(&coo);
        let csr = Csr::from_coo(&coo);
        let x: Vec<Value> = (0..200).map(|i| (i % 3) as Value + 1.0).collect();
        assert_eq!(dcsr.spmv(&x), csr.spmv(&x));
    }

    #[test]
    fn row_bitvec_marks_occupancy() {
        let m = Dcsr::from_coo(&hyper_sparse());
        let bv = m.row_bitvec();
        assert!(bv.get(17) && bv.get(4_000) && bv.get(9_999));
        assert_eq!(bv.count_ones(), 3);
    }

    #[test]
    fn format_choice_heuristic() {
        assert!(prefers_dcsr(&hyper_sparse()));
        let dense_rows = gen::uniform(100, 100, 2_000, 6);
        assert!(!prefers_dcsr(&dense_rows));
    }

    #[test]
    fn dcsc_views_columns() {
        let coo = hyper_sparse();
        let m = Dcsc::from_coo(&coo);
        assert_eq!(m.occupied_cols(), 4); // cols 0, 3, 90, 4000
        assert_eq!(m.rows(), 10_000);
        let first_col: Vec<(Index, Value)> = m.occupied_col(0).collect();
        assert_eq!(first_col, vec![(9_999, -1.0)]);
    }

    #[test]
    fn empty_matrix() {
        let m = Dcsr::from_coo(&Coo::zeros(5, 5));
        assert_eq!(m.occupied_rows(), 0);
        assert_eq!(m.spmv(&[1.0; 5]), vec![0.0; 5]);
    }
}
