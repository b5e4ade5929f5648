//! Compressed-pointer sparse vectors, the input of format conversion.
//!
//! Paper §3.4 ("Format Conversion"): "format-conversion hardware generates
//! bit-vector formats from pointers. Capstan's iterators use bit-vector
//! sparsity for computing intersections. However, these can be less
//! bandwidth-efficient than compressed pointers." The conversion runs in
//! the compute tile (not the SpMU) precisely because building a bit-vector
//! in memory would require multiple read-modify-writes to the same word.
//!
//! This module provides [`SparseVec`], the compressed-pointer vector. The
//! converter's timing is `capstan_arch::fmtconv::FormatConverter`; apps
//! build the bit-vectors themselves with
//! [`BitVec::from_indices`](crate::bitvec::BitVec::from_indices).

use crate::{Index, Value};

/// A compressed sparse vector: pointer list plus dense payload, the
/// "Compressed" row of paper Fig. 1.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    len: usize,
    indices: Vec<Index>,
    values: Vec<Value>,
}

impl SparseVec {
    /// Builds from a dense slice, dropping zeros.
    pub fn from_dense(dense: &[Value]) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                indices.push(i as Index);
                values.push(v);
            }
        }
        SparseVec {
            len: dense.len(),
            indices,
            values,
        }
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Expands to a dense vector.
    pub fn to_dense(&self) -> Vec<Value> {
        let mut out = vec![0.0; self.len];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }

    /// Value at dense position `i` (zero if not stored).
    pub fn get(&self, i: Index) -> Value {
        match self.indices.binary_search(&i) {
            Ok(k) => self.values[k],
            Err(_) => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vec_construction_and_lookup() {
        let v = SparseVec::from_dense(&[0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0]);
        assert_eq!(v.nnz(), 3);
        assert_eq!(v.get(4), 2.0);
        assert_eq!(v.get(5), 0.0);
        assert_eq!(
            v.to_dense(),
            vec![0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0]
        );
    }

    #[test]
    fn from_dense_round_trip() {
        let dense = vec![0.0, 3.0, 0.0, -1.0];
        let v = SparseVec::from_dense(&dense);
        assert_eq!(v.to_dense(), dense);
        assert_eq!(v.nnz(), 2);
        assert_eq!((v.get(1), v.get(3)), (3.0, -1.0));
    }
}
