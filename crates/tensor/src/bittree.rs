//! Two-level bit-tree format for extremely sparse vectors.
//!
//! "Bit-vector sparsity begins to break down when applied to extremely
//! sparse problems (e.g., less than 1% input density) ... For such problems,
//! sparse iteration can be nested to support the bit-tree format. A
//! two-level bit-tree can encode 262,144 zeros with 512 bits" (paper §2.3).
//!
//! The root is a `LEAF_BITS`-bit vector; bit `i` of the root is set iff the
//! `i`-th chunk of `LEAF_BITS` logical positions contains at least one set
//! bit, in which case a `LEAF_BITS`-bit leaf vector is stored (compressed:
//! only non-empty leaves are materialized, indexed by root rank).
//!
//! Streaming union/intersection uses the paper's two-pass algorithm: the
//! first pass runs sparse-sparse iteration over the *root* vectors to
//! realign leaves (union inserts zero leaves for unmatched chunks;
//! intersection drops unmatched leaves), and the second pass runs nested
//! sparse-sparse loops over the realigned leaf pairs.

use crate::bitvec::BitVec;
use crate::error::{FormatError, Result};
use crate::Index;

/// Number of bits in the root and in each leaf (the paper's 512).
pub const LEAF_BITS: usize = 512;

/// Maximum logical length a two-level bit-tree can encode.
pub const MAX_LEN: usize = LEAF_BITS * LEAF_BITS; // 262,144

/// A two-level compressed bit-tree (paper Fig. 1, §2.3).
///
/// # Example
///
/// ```
/// use capstan_tensor::bittree::BitTree;
///
/// let t = BitTree::from_indices(100_000, &[3, 512, 99_999]).unwrap();
/// assert_eq!(t.count_ones(), 3);
/// assert_eq!(t.root().count_ones(), 3); // three distinct chunks occupied
/// assert_eq!(t.leaves().len(), 3); // one materialized leaf per chunk
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitTree {
    len: usize,
    root: BitVec,
    /// One leaf per set root bit, ordered by chunk index.
    leaves: Vec<BitVec>,
}

impl BitTree {
    /// Builds a bit-tree from set positions, touching only the occupied
    /// chunks (`O(indices + chunks/64)`, independent of the logical
    /// length — important when building one tree per matrix row).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::CapacityExceeded`] if `len > MAX_LEN`, or
    /// [`FormatError::IndexOutOfBounds`] if a position `>= len`.
    pub fn from_indices(len: usize, indices: &[Index]) -> Result<Self> {
        if len > MAX_LEN {
            return Err(FormatError::CapacityExceeded {
                requested: len,
                max: MAX_LEN,
            });
        }
        for &i in indices {
            if i as usize >= len {
                return Err(FormatError::IndexOutOfBounds {
                    axis: 0,
                    index: i as usize,
                    extent: len,
                });
            }
        }
        let chunks = len.div_ceil(LEAF_BITS);
        let mut root = BitVec::zeros(chunks);
        // Group indices by chunk; indices may arrive unsorted.
        let mut sorted: Vec<Index> = indices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut leaves: Vec<BitVec> = Vec::new();
        let mut current_chunk = usize::MAX;
        for i in sorted {
            let chunk = i as usize / LEAF_BITS;
            if chunk != current_chunk {
                root.set(chunk, true);
                leaves.push(BitVec::zeros(LEAF_BITS));
                current_chunk = chunk;
            }
            leaves
                .last_mut()
                .expect("just pushed")
                .set(i as usize % LEAF_BITS, true);
        }
        Ok(BitTree { len, root, leaves })
    }

    /// The root occupancy bit-vector (one bit per `LEAF_BITS` chunk).
    pub fn root(&self) -> &BitVec {
        &self.root
    }

    /// The materialized (non-empty) leaves, ordered by chunk.
    pub fn leaves(&self) -> &[BitVec] {
        &self.leaves
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.leaves.iter().map(BitVec::count_ones).sum()
    }

    /// Expands back to a flat bit-vector.
    pub fn to_bitvec(&self) -> BitVec {
        let mut bv = BitVec::zeros(self.len);
        for chunk in self.root.iter_ones() {
            let leaf = &self.leaves[self.root.rank(chunk)];
            for bit in leaf.iter_ones() {
                let pos = chunk * LEAF_BITS + bit;
                if pos < self.len {
                    bv.set(pos, true);
                }
            }
        }
        bv
    }

    /// Two-pass streaming **union** (paper §2.3): pass 1 unions the roots
    /// and realigns leaves, inserting zero leaves for unmatched chunks;
    /// pass 2 unions each aligned leaf pair.
    ///
    /// Returns the result along with [`RealignStats`] describing the work
    /// the realignment pass performed (used by the scanner cycle model).
    ///
    /// # Panics
    ///
    /// Panics if the logical lengths differ.
    pub fn union(&self, other: &BitTree) -> (BitTree, RealignStats) {
        self.merge(other, MergeMode::Union)
    }

    /// Two-pass streaming **intersection** (paper §2.3): unmatched
    /// second-level vectors are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the logical lengths differ.
    pub fn intersect(&self, other: &BitTree) -> (BitTree, RealignStats) {
        self.merge(other, MergeMode::Intersect)
    }

    fn merge(&self, other: &BitTree, mode: MergeMode) -> (BitTree, RealignStats) {
        assert_eq!(self.len, other.len, "bit-tree merge of mismatched lengths");
        let mut stats = RealignStats::default();
        // Pass 1: sparse-sparse iteration over the roots.
        let root_space = match mode {
            MergeMode::Union => self.root.union(&other.root),
            MergeMode::Intersect => self.root.intersect(&other.root),
        };
        stats.root_iterations = root_space.count_ones();
        let mut out_root = BitVec::zeros(self.root.len());
        let mut out_leaves = Vec::new();
        let zero_leaf = BitVec::zeros(LEAF_BITS);
        for chunk in root_space.iter_ones() {
            // Realign: fetch each side's leaf or substitute zeros.
            let a_has = self.root.get(chunk);
            let b_has = other.root.get(chunk);
            let a_leaf = if a_has {
                &self.leaves[self.root.rank(chunk)]
            } else {
                &zero_leaf
            };
            let b_leaf = if b_has {
                &other.leaves[other.root.rank(chunk)]
            } else {
                &zero_leaf
            };
            if !(a_has && b_has) {
                stats.unmatched_leaves += 1;
            }
            // Pass 2: nested sparse-sparse loop on the aligned leaves.
            let merged = match mode {
                MergeMode::Union => a_leaf.union(b_leaf),
                MergeMode::Intersect => a_leaf.intersect(b_leaf),
            };
            stats.leaf_bits_scanned += LEAF_BITS;
            if merged.count_ones() > 0 {
                out_root.set(chunk, true);
                out_leaves.push(merged);
            }
        }
        (
            BitTree {
                len: self.len,
                root: out_root,
                leaves: out_leaves,
            },
            stats,
        )
    }
}

/// Whether a bit-tree merge computes a union or an intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeMode {
    Union,
    Intersect,
}

/// Work statistics from a two-pass bit-tree merge, consumed by the scanner
/// cycle model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RealignStats {
    /// Iterations of the first (root) pass.
    root_iterations: usize,
    /// Leaves paired against an inserted zero leaf (union) or dropped
    /// (intersection bookkeeping).
    unmatched_leaves: usize,
    /// Total leaf bits fed to the second pass.
    leaf_bits_scanned: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacity_claim() {
        // "A two-level bit-tree can encode 262,144 zeros with 512 bits":
        // an empty tree of max length stores only the 512-bit root.
        let t = BitTree::from_indices(MAX_LEN, &[]).unwrap();
        assert_eq!(MAX_LEN, 262_144);
        assert_eq!(t.root().len(), LEAF_BITS);
        assert!(t.leaves().is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        assert!(matches!(
            BitTree::from_indices(MAX_LEN + 1, &[]),
            Err(FormatError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn bitvec_round_trip() {
        let idx = [0u32, 511, 512, 1024, 100_000];
        let bv = BitVec::from_indices(100_001, &idx).unwrap();
        let t = BitTree::from_indices(100_001, &idx).unwrap();
        assert_eq!(t.to_bitvec(), bv);
        assert_eq!(t.count_ones(), idx.len());
    }

    #[test]
    fn union_matches_flat() {
        let a = BitTree::from_indices(5000, &[1, 600, 601, 4999]).unwrap();
        let b = BitTree::from_indices(5000, &[600, 1200, 1201]).unwrap();
        let (u, stats) = a.union(&b);
        let expect = a.to_bitvec().union(&b.to_bitvec());
        assert_eq!(u.to_bitvec(), expect);
        // Chunks: a occupies {0,1,9}, b occupies {1,2}; union root = {0,1,2,9}.
        assert_eq!(stats.root_iterations, 4);
        // Chunks 0, 2, 9 are one-sided.
        assert_eq!(stats.unmatched_leaves, 3);
    }

    #[test]
    fn intersect_matches_flat_and_drops_unmatched() {
        let a = BitTree::from_indices(5000, &[1, 600, 601, 4999]).unwrap();
        let b = BitTree::from_indices(5000, &[600, 1200, 1201]).unwrap();
        let (i, stats) = a.intersect(&b);
        let expect = a.to_bitvec().intersect(&b.to_bitvec());
        assert_eq!(i.to_bitvec(), expect);
        // Only chunk 1 is shared.
        assert_eq!(stats.root_iterations, 1);
        assert_eq!(i.count_ones(), 1);
    }

    #[test]
    fn empty_intersection_has_no_leaves() {
        let a = BitTree::from_indices(2000, &[0]).unwrap();
        let b = BitTree::from_indices(2000, &[1999]).unwrap();
        let (i, _) = a.intersect(&b);
        assert_eq!(i.count_ones(), 0);
        assert_eq!(i.leaves().len(), 0);
    }

    #[test]
    fn leaves_materialize_only_occupied_chunks() {
        // 1% density clustered in one chunk stores one leaf; spread out, 500.
        let clustered = BitTree::from_indices(MAX_LEN, &(0..500u32).collect::<Vec<_>>()).unwrap();
        let spread: Vec<Index> = (0..500u32).map(|i| i * 512).collect();
        let spread_t = BitTree::from_indices(MAX_LEN, &spread).unwrap();
        assert_eq!(clustered.leaves().len(), 1);
        assert_eq!(spread_t.leaves().len(), 500);
    }
}
