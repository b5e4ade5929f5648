//! Block compressed sparse row (BCSR) format.
//!
//! Paper Table 1: "BCSR — CSR, with k x k blocks instead of 1 x 1
//! non-zeros." §2.1: "Other formats — especially for vector
//! architectures — use block sparsity (e.g., BCSR), with small (e.g.,
//! 16 x 16) dense regions instead of individual elements."
//!
//! Block sparsity trades storage (explicit zeros inside blocks) for
//! perfectly vectorizable inner loops: a 16-wide lane group processes one
//! block row per cycle with no scanner involvement at all.

use crate::coo::Coo;
use crate::{Index, Value};

/// A BCSR matrix with `block x block` dense blocks.
///
/// # Example
///
/// ```
/// use capstan_tensor::{Coo, bcsr::Bcsr};
///
/// let coo = Coo::from_triplets(8, 8, vec![(0, 1, 1.0), (1, 0, 2.0), (7, 7, 3.0)]).unwrap();
/// let m = Bcsr::from_coo(&coo, 4);
/// assert_eq!(m.block_size(), 4);
/// assert_eq!(m.blocks(), 2); // top-left block and bottom-right block
/// assert_eq!(m.to_coo(), coo);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bcsr {
    rows: usize,
    cols: usize,
    block: usize,
    /// Block-row pointers (`block_rows + 1`).
    row_ptr: Vec<usize>,
    /// Block-column index per stored block.
    block_col: Vec<Index>,
    /// Dense block payloads, `block * block` values each, row-major.
    data: Vec<Value>,
}

impl Bcsr {
    /// Builds from COO with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn from_coo(coo: &Coo, block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        let block_rows = coo.rows().div_ceil(block);
        let block_cols = coo.cols().div_ceil(block);
        // Collect occupied blocks.
        let mut blocks: Vec<(usize, usize)> = coo
            .iter()
            .map(|(r, c, _)| (r as usize / block, c as usize / block))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        let mut row_ptr = vec![0usize; block_rows + 1];
        for &(br, _) in &blocks {
            row_ptr[br + 1] += 1;
        }
        for i in 0..block_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let block_col: Vec<Index> = blocks.iter().map(|&(_, bc)| bc as Index).collect();
        let mut data = vec![0.0; blocks.len() * block * block];
        let find_block = |br: usize, bc: usize| -> usize {
            let lo = row_ptr[br];
            let hi = row_ptr[br + 1];
            lo + block_col[lo..hi]
                .binary_search(&(bc as Index))
                .expect("block exists by construction")
        };
        for (r, c, v) in coo.iter() {
            let (br, bc) = (r as usize / block, c as usize / block);
            let k = find_block(br, bc);
            let (ri, ci) = (r as usize % block, c as usize % block);
            data[k * block * block + ri * block + ci] = v;
        }
        let _ = block_cols;
        Bcsr {
            rows: coo.rows(),
            cols: coo.cols(),
            block,
            row_ptr,
            block_col,
            data,
        }
    }

    /// Converts back to COO (dropping explicit zeros).
    pub fn to_coo(&self) -> Coo {
        let mut triplets = Vec::new();
        for br in 0..self.block_rows() {
            for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.block_col[k] as usize;
                for ri in 0..self.block {
                    for ci in 0..self.block {
                        let v = self.data[k * self.block * self.block + ri * self.block + ci];
                        let (r, c) = (br * self.block + ri, bc * self.block + ci);
                        if v != 0.0 && r < self.rows && c < self.cols {
                            triplets.push((r as Index, c as Index, v));
                        }
                    }
                }
            }
        }
        Coo::from_triplets(self.rows, self.cols, triplets).expect("valid blocks")
    }

    /// Logical rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block edge length.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Number of block rows.
    pub fn block_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored blocks.
    pub fn blocks(&self) -> usize {
        self.block_col.len()
    }

    /// Stored values including explicit zeros (the storage cost of
    /// blocking).
    pub fn stored_values(&self) -> usize {
        self.data.len()
    }

    /// Fill ratio: true non-zeros / stored values (1.0 = perfect blocks).
    pub fn fill_ratio(&self) -> f64 {
        let nnz = self.data.iter().filter(|v| **v != 0.0).count();
        nnz as f64 / self.data.len().max(1) as f64
    }

    /// Iterates the stored blocks of block row `br` as
    /// `(block_col, payload)` pairs; each payload is `block * block`
    /// values in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `br >= self.block_rows()`.
    pub fn block_row(&self, br: usize) -> impl Iterator<Item = (Index, &[Value])> + '_ {
        let lo = self.row_ptr[br];
        let hi = self.row_ptr[br + 1];
        let sq = self.block * self.block;
        (lo..hi).map(move |k| (self.block_col[k], &self.data[k * sq..(k + 1) * sq]))
    }

    /// The block-column indices of every stored block, in storage order
    /// (the compressible pointer stream a BCSR load fetches from DRAM).
    pub fn block_cols(&self) -> &[Index] {
        &self.block_col
    }

    /// Reference SpMV over dense blocks.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[Value]) -> Vec<Value> {
        assert_eq!(x.len(), self.cols, "spmv dimension mismatch");
        let mut y = vec![0.0; self.rows];
        let b = self.block;
        for br in 0..self.block_rows() {
            for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                let bc = self.block_col[k] as usize;
                for ri in 0..b {
                    let r = br * b + ri;
                    if r >= self.rows {
                        break;
                    }
                    let mut acc = 0.0;
                    for ci in 0..b {
                        let c = bc * b + ci;
                        if c < self.cols {
                            acc += self.data[k * b * b + ri * b + ci] * x[c];
                        }
                    }
                    y[r] += acc;
                }
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::gen;

    #[test]
    fn round_trip_preserves_entries() {
        let coo = gen::banded(64, 400, 3);
        for block in [2usize, 4, 8, 16] {
            let b = Bcsr::from_coo(&coo, block);
            assert_eq!(b.to_coo(), coo, "block {block}");
        }
    }

    #[test]
    fn spmv_matches_csr() {
        let coo = gen::banded(100, 700, 9);
        let bcsr = Bcsr::from_coo(&coo, 4);
        let csr = Csr::from_coo(&coo);
        let x: Vec<Value> = (0..100).map(|i| (i % 4) as Value - 1.5).collect();
        let yb = bcsr.spmv(&x);
        let yc = csr.spmv(&x);
        for (a, b) in yb.iter().zip(&yc) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn banded_matrices_block_well() {
        // Clustered (banded) structure keeps blocks dense...
        let banded = Bcsr::from_coo(&gen::banded(128, 1500, 4), 4);
        // ...while uniform random structure wastes block storage.
        let random = Bcsr::from_coo(&gen::uniform(128, 128, 1500, 4), 4);
        assert!(
            banded.fill_ratio() > random.fill_ratio(),
            "banded {:.3} vs random {:.3}",
            banded.fill_ratio(),
            random.fill_ratio()
        );
    }

    #[test]
    fn non_divisible_dimensions() {
        let coo = Coo::from_triplets(10, 10, vec![(9, 9, 5.0), (0, 9, 1.0)]).unwrap();
        let b = Bcsr::from_coo(&coo, 4); // 10 not divisible by 4
        assert_eq!(b.block_rows(), 3);
        assert_eq!(b.to_coo(), coo);
        let y = b.spmv(&[1.0; 10]);
        assert_eq!(y[9], 5.0);
        assert_eq!(y[0], 1.0);
    }

    #[test]
    fn empty_matrix() {
        let b = Bcsr::from_coo(&Coo::zeros(16, 16), 4);
        assert_eq!(b.blocks(), 0);
        assert_eq!(b.spmv(&[0.5; 16]), vec![0.0; 16]);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_panics() {
        let _ = Bcsr::from_coo(&Coo::zeros(4, 4), 0);
    }
}
