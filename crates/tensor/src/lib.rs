#![deny(missing_docs)]

//! # capstan-tensor
//!
//! Sparse tensor formats substrate for the Capstan simulator.
//!
//! Capstan (Rucker et al., MICRO 2021) is designed around *declarative
//! tensor sparsity*: instead of specializing hardware per application, the
//! architecture supports common sparse data formats, each of which serves
//! many applications (paper §2). This crate implements every format the
//! paper uses or references:
//!
//! * [`DenseMatrix`] — dense row-major storage.
//! * [`Coo`] — coordinate format (compressed non-zeros with row/column ids).
//! * [`Csr`] / [`Csc`] — compressed sparse row / column.
//! * [`bitvec::BitVec`] — packed bit-vector sparsity with rank/select,
//!   union and intersection; the native input of Capstan's scanner.
//! * [`bittree::BitTree`] — the paper's two-level bit-tree (§2.3, Fig. 1):
//!   a 512-bit root vector whose set bits each point at a 512-bit leaf,
//!   encoding up to 262,144 positions.
//! * [`compress`] — read-only base/offset burst compression used for DRAM
//!   pointer tiles (§3.4).
//!
//! It also provides the evaluation substrate:
//!
//! * [`gen`] — deterministic synthetic generators reproducing the structure
//!   classes of the paper's Table 6 datasets (circuit, FEM, road network,
//!   power-law graph, pruned CNN).
//! * [`mm`] — a Matrix Market loader so real datasets can be substituted.
//! * [`partition`] — balanced graph partitioning (Metis stand-in) and
//!   round-robin linear-algebra tiling.
//! * [`stats`] — per-dataset statistics ([`TensorStats`]) and the unified
//!   format descriptor ([`FormatClass`]) that drive the planning layer.
//!
//! # Example
//!
//! ```
//! use capstan_tensor::{Coo, Csr};
//!
//! let coo = Coo::from_triplets(3, 3, vec![(0, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0)]).unwrap();
//! let csr = Csr::from_coo(&coo);
//! assert_eq!(csr.nnz(), 3);
//! assert_eq!(csr.row(1).collect::<Vec<_>>(), vec![(2, 2.0)]);
//! ```

pub mod bcsr;
pub mod bittree;
pub mod bitvec;
pub mod compress;
pub mod convert;
mod coo;
mod csc;
mod csr;
pub mod dcsr;
pub mod dense;
pub mod error;
pub mod gen;
pub mod mm;
pub mod partition;
pub mod stats;

pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use dense::DenseMatrix;
pub use stats::{FormatClass, TensorStats};

/// The scalar element type used throughout the simulator.
///
/// Capstan's datapath is 32-bit (paper §4.1: "stages perform a map or a
/// reduce operation on 32-bit fixed- or floating-point data"), so the whole
/// reproduction standardizes on `f32`.
pub type Value = f32;

/// Index type for tensor coordinates.
pub type Index = u32;
