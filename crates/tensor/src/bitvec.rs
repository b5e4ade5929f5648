//! Packed bit-vector sparsity format.
//!
//! Bit-vectors are Capstan's native iteration format: "some dense vectors
//! (e.g., frontier sets) have boolean elements, motivating a packed
//! bit-vector format. Bit-vectors can also implicitly point to elements in a
//! compressed array" (paper §2.1). The scanner consumes 256-bit windows of a
//! bit-vector per cycle and the sparse-sparse iteration space is formed by
//! intersecting or unioning two bit-vectors (§2.2, Fig. 2).
//!
//! The `rank` operation (prefix popcount) maps a *dense* position `j` to the
//! *compressed* index `jA`/`jB` into the value array — exactly the prefix
//! sums computed by the scanner hardware (Fig. 3f step 3).

use crate::error::{FormatError, Result};
use crate::Index;

const WORD_BITS: usize = 64;

/// A packed bit-vector of logical length `len`.
///
/// # Example
///
/// ```
/// use capstan_tensor::bitvec::BitVec;
///
/// let a = BitVec::from_indices(8, &[1, 3, 6]).unwrap();
/// let b = BitVec::from_indices(8, &[3, 4, 6]).unwrap();
/// let and = a.intersect(&b);
/// assert_eq!(and.iter_ones().collect::<Vec<_>>(), vec![3, 6]);
/// assert_eq!(a.rank(6), 2); // two set bits strictly before position 6
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero bit-vector of logical length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Creates a bit-vector from a list of set positions.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::IndexOutOfBounds`] if a position `>= len`.
    pub fn from_indices(len: usize, indices: &[Index]) -> Result<Self> {
        let mut bv = BitVec::zeros(len);
        for &i in indices {
            if i as usize >= len {
                return Err(FormatError::IndexOutOfBounds {
                    axis: 0,
                    index: i as usize,
                    extent: len,
                });
            }
            bv.set(i as usize, true);
        }
        Ok(bv)
    }

    /// Creates a bit-vector from a bool slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut bv = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bv.set(i, true);
            }
        }
        bv
    }

    /// Logical length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits strictly before position `i` (prefix popcount).
    ///
    /// This is the hardware prefix-sum that converts a dense index `j` into
    /// a compressed index `jA` (paper Fig. 3f).
    ///
    /// # Panics
    ///
    /// Panics if `i > self.len()`.
    pub fn rank(&self, i: usize) -> usize {
        assert!(
            i <= self.len,
            "rank position {i} out of bounds (len {})",
            self.len
        );
        let full_words = i / WORD_BITS;
        let mut count: usize = self.words[..full_words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let rem = i % WORD_BITS;
        if rem > 0 {
            count += (self.words[full_words] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        count
    }

    /// Position of the `k`-th (0-based) set bit, or `None` if fewer than
    /// `k + 1` bits are set.
    pub fn select(&self, k: usize) -> Option<usize> {
        let mut remaining = k;
        for (wi, &w) in self.words.iter().enumerate() {
            let ones = w.count_ones() as usize;
            if remaining < ones {
                let mut word = w;
                for _ in 0..remaining {
                    word &= word - 1; // clear lowest set bit
                }
                return Some(wi * WORD_BITS + word.trailing_zeros() as usize);
            }
            remaining -= ones;
        }
        None
    }

    /// Iterates over the positions of set bits in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            bv: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Bitwise AND — the *intersection* iteration space (paper §2.2).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn intersect(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "intersect of mismatched lengths");
        BitVec {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Bitwise OR — the *union* iteration space (paper §2.2).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn union(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "union of mismatched lengths");
        BitVec {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Borrows the underlying words (the trailing word is zero-padded).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns the set positions as a vector of indices.
    pub fn to_indices(&self) -> Vec<Index> {
        self.iter_ones().map(|i| i as Index).collect()
    }

    /// Storage footprint in bytes (for bandwidth accounting).
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Iterator over set-bit positions, created by [`BitVec::iter_ones`].
#[derive(Debug, Clone)]
pub struct IterOnes<'a> {
    bv: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let pos = self.word_idx * WORD_BITS + bit;
                return if pos < self.bv.len { Some(pos) } else { None };
            }
            self.word_idx += 1;
            if self.word_idx >= self.bv.words.len() {
                return None;
            }
            self.current = self.bv.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut bv = BitVec::zeros(130);
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert!(bv.get(0) && bv.get(64) && bv.get(129));
        assert!(!bv.get(1));
        bv.set(64, false);
        assert!(!bv.get(64));
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    fn from_indices_and_back() {
        let idx = [3u32, 17, 64, 99];
        let bv = BitVec::from_indices(100, &idx).unwrap();
        assert_eq!(bv.to_indices(), idx);
    }

    #[test]
    fn from_indices_bounds_check() {
        assert!(BitVec::from_indices(4, &[4]).is_err());
    }

    #[test]
    fn rank_matches_naive() {
        let bv = BitVec::from_indices(200, &[0, 1, 63, 64, 65, 127, 128, 199]).unwrap();
        for i in 0..=200 {
            let naive = (0..i).filter(|&j| bv.get(j)).count();
            assert_eq!(bv.rank(i), naive, "rank({i})");
        }
    }

    #[test]
    fn select_inverts_rank() {
        let bv = BitVec::from_indices(300, &[5, 70, 130, 131, 299]).unwrap();
        for k in 0..bv.count_ones() {
            let pos = bv.select(k).unwrap();
            assert!(bv.get(pos));
            assert_eq!(bv.rank(pos), k);
        }
        assert_eq!(bv.select(5), None);
    }

    #[test]
    fn intersect_union() {
        let a = BitVec::from_indices(10, &[1, 3, 5, 7]).unwrap();
        let b = BitVec::from_indices(10, &[3, 4, 5, 9]).unwrap();
        assert_eq!(a.intersect(&b).to_indices(), vec![3, 5]);
        assert_eq!(a.union(&b).to_indices(), vec![1, 3, 4, 5, 7, 9]);
    }

    #[test]
    fn iter_ones_on_empty_and_full() {
        assert_eq!(BitVec::zeros(0).iter_ones().count(), 0);
        assert_eq!(BitVec::zeros(77).iter_ones().count(), 0);
        let full = BitVec::from_bools(&[true; 77]);
        assert_eq!(full.iter_ones().count(), 77);
    }

    #[test]
    fn figure1_example() {
        // Paper Fig. 1: dense [0,7,8,3,1(at tail)] with bit-vector
        // 0110 0000 1101 0000 -> dat [7,8,3,1] ... we model the essence:
        // positions of the compressed data recoverable via rank.
        let bv = BitVec::from_bools(&[
            false, true, true, false, // 0110
            false, false, false, false, // 0000
            true, true, false, true, // 1101
            false, false, false, false, // 0000
        ]);
        let dat = [7.0, 8.0, 3.0, 9.0, 1.0];
        // Element at dense position 9 is the rank(9)=3rd compressed value.
        assert_eq!(dat[bv.rank(9)], 9.0);
    }
}
