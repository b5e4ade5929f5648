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
//!
//! The *modeled* format is the paper's: dense `k x k` payloads, explicit
//! zeros included, which is what [`Bcsr::stored_values`] counts and what
//! a BCSR load streams from DRAM. The *host* copy keeps only each
//! block's non-zeros (offset within the block and value), so its memory
//! is O(nnz + blocks) however sparse the blocks are. A dense payload
//! exists only on demand: [`Bcsr::fill_block`] writes it into a buffer
//! the caller owns and reuses.

use crate::coo::Coo;
use crate::{Index, Value};
use std::ops::Range;

/// A BCSR matrix with `block x block` blocks.
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
/// assert_eq!(m.stored_values(), 2 * 16); // dense payloads, zeros included
/// assert_eq!(m.to_coo(), coo);
///
/// // The top-left block's dense payload, row-major.
/// let mut payload = vec![0.0; 16];
/// m.fill_block(0, &mut payload);
/// assert_eq!(payload[..5], [0.0, 1.0, 0.0, 0.0, 2.0]);
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
    /// Entry pointers (`blocks + 1`): block `k`'s non-zeros are
    /// `entries[entry_ptr[k]..entry_ptr[k + 1]]`. With sparse blocks this
    /// array is nearly as long as `entries`, so it is `u32` (`from_coo`
    /// bounds the non-zero count).
    entry_ptr: Vec<u32>,
    /// Each block's non-zeros as `(offset, value)`, the offset row-major
    /// within the block (`ri * block + ci`) and increasing.
    entries: Vec<(u32, Value)>,
}

impl Bcsr {
    /// Builds from COO with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`, or if `block * block` or the non-zero
    /// count exceeds `u32::MAX`.
    pub fn from_coo(coo: &Coo, block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        assert!(
            block
                .checked_mul(block)
                .is_some_and(|sq| sq <= u32::MAX as usize),
            "block size {block} too large for u32 block offsets"
        );
        assert!(
            coo.nnz() <= u32::MAX as usize,
            "{} non-zeros too many for u32 entry pointers",
            coo.nnz()
        );
        let block_rows = coo.rows().div_ceil(block);
        // Count each block row's blocks first, so the block arrays are
        // allocated once at their final size. COO entries are sorted by
        // row, so block rows arrive in order: `last_row[bc]` is one past
        // the last block row that used block column `bc`.
        let mut row_ptr = vec![0usize; block_rows + 1];
        let mut last_row = vec![0usize; coo.cols().div_ceil(block)];
        for &(r, c, _) in coo.entries() {
            let (br, bc) = (r as usize / block, c as usize / block);
            if last_row[bc] != br + 1 {
                last_row[bc] = br + 1;
                row_ptr[br + 1] += 1;
            }
        }
        for i in 0..block_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let blocks = row_ptr[block_rows];
        let mut block_col: Vec<Index> = Vec::with_capacity(blocks);
        let mut entry_ptr: Vec<u32> = Vec::with_capacity(blocks + 1);
        let mut entries: Vec<(u32, Value)> = Vec::with_capacity(coo.nnz());
        // One block row's entries as (block column, offset, value).
        let mut run: Vec<(Index, u32, Value)> = Vec::new();
        // Each block row's entries are one contiguous chunk of the COO.
        // Sorting a chunk by (block column, offset) lays its blocks out
        // left to right, each one row-major.
        for chunk in coo
            .entries()
            .chunk_by(|a, b| a.0 as usize / block == b.0 as usize / block)
        {
            run.clear();
            run.extend(chunk.iter().map(|&(r, c, v)| {
                let (r, c) = (r as usize, c as usize);
                (
                    (c / block) as Index,
                    ((r % block) * block + c % block) as u32,
                    v,
                )
            }));
            run.sort_unstable_by_key(|&(bc, offset, _)| (bc, offset));
            for (i, &(bc, offset, v)) in run.iter().enumerate() {
                if i == 0 || run[i - 1].0 != bc {
                    block_col.push(bc);
                    entry_ptr.push(entries.len() as u32);
                }
                entries.push((offset, v));
            }
        }
        entry_ptr.push(entries.len() as u32);
        debug_assert_eq!(block_col.len(), blocks);
        Bcsr {
            rows: coo.rows(),
            cols: coo.cols(),
            block,
            row_ptr,
            block_col,
            entry_ptr,
            entries,
        }
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> Coo {
        let b = self.block;
        let mut triplets = Vec::with_capacity(self.nnz());
        for br in 0..self.block_rows() {
            for k in self.block_row(br) {
                let bc = self.block_col[k] as usize;
                for &(offset, v) in self.block_entries(k) {
                    let (ri, ci) = (offset as usize / b, offset as usize % b);
                    triplets.push(((br * b + ri) as Index, (bc * b + ci) as Index, v));
                }
            }
        }
        Coo::from_triplets(self.rows, self.cols, triplets).expect("valid blocks")
    }

    /// Logical rows.
    pub fn rows(&self) -> usize {
        self.rows
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

    /// True non-zeros.
    fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Values of the modeled dense payloads, explicit zeros included
    /// (`blocks * block²`, the storage cost of blocking).
    pub fn stored_values(&self) -> usize {
        self.blocks() * self.block * self.block
    }

    /// Fill ratio: true non-zeros / stored values (1.0 = perfect blocks).
    pub fn fill_ratio(&self) -> f64 {
        self.nnz() as f64 / self.stored_values().max(1) as f64
    }

    /// The storage indices of block row `br`'s blocks, left to right
    /// (indices into [`Bcsr::block_cols`] and for [`Bcsr::fill_block`]).
    ///
    /// # Panics
    ///
    /// Panics if `br >= self.block_rows()`.
    pub fn block_row(&self, br: usize) -> Range<usize> {
        self.row_ptr[br]..self.row_ptr[br + 1]
    }

    /// The block-column indices of every stored block, in storage order
    /// (the compressible pointer stream a BCSR load fetches from DRAM).
    pub fn block_cols(&self) -> &[Index] {
        &self.block_col
    }

    /// Block `k`'s non-zeros as `(row-major offset, value)`.
    fn block_entries(&self, k: usize) -> &[(u32, Value)] {
        &self.entries[self.entry_ptr[k] as usize..self.entry_ptr[k + 1] as usize]
    }

    /// Writes block `k`'s dense payload into `payload`: `block * block`
    /// values, row-major, explicit zeros included. Every value is
    /// overwritten, so one buffer serves any number of blocks.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.blocks()` or if `payload.len()` is not
    /// `block * block`.
    pub fn fill_block(&self, k: usize, payload: &mut [Value]) {
        assert_eq!(
            payload.len(),
            self.block * self.block,
            "payload must hold one block"
        );
        payload.fill(0.0);
        for &(offset, v) in self.block_entries(k) {
            payload[offset as usize] = v;
        }
    }

    /// Reference SpMV over the dense blocks, explicit zeros included.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[Value]) -> Vec<Value> {
        assert_eq!(x.len(), self.cols, "spmv dimension mismatch");
        let mut y = vec![0.0; self.rows];
        let b = self.block;
        let mut payload = vec![0.0; b * b];
        for br in 0..self.block_rows() {
            for k in self.block_row(br) {
                let bc = self.block_col[k] as usize;
                self.fill_block(k, &mut payload);
                for ri in 0..b {
                    let r = br * b + ri;
                    if r >= self.rows {
                        break;
                    }
                    let mut acc = 0.0;
                    for ci in 0..b {
                        let c = bc * b + ci;
                        if c < self.cols {
                            acc += payload[ri * b + ci] * x[c];
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
    fn fill_block_overwrites_the_previous_block() {
        let coo = Coo::from_triplets(4, 4, vec![(0, 0, 1.0), (1, 1, 2.0), (2, 3, 3.0)]).unwrap();
        let b = Bcsr::from_coo(&coo, 2);
        assert_eq!(b.blocks(), 2);
        assert_eq!(b.nnz(), 3);
        let mut payload = vec![9.0; 4];
        b.fill_block(0, &mut payload);
        assert_eq!(payload, [1.0, 0.0, 0.0, 2.0]);
        b.fill_block(1, &mut payload);
        assert_eq!(payload, [0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_panics() {
        let _ = Bcsr::from_coo(&Coo::zeros(4, 4), 0);
    }
}
