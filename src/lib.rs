#![deny(missing_docs)]

//! # Capstan
//!
//! A Rust reproduction of **"Capstan: A Vector RDA for Sparsity"**
//! (Rucker et al., MICRO 2021): a vectorized, reconfigurable dataflow
//! accelerator (RDA) for sparse and dense tensor applications, together
//! with the entire simulation and evaluation stack the paper is built on.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`tensor`] — sparse tensor formats (CSR/CSC/COO, bit-vector,
//!   bit-tree), dataset generators, partitioning.
//! * [`sim`] — simulation kernel: DRAM models, network model, statistics.
//! * [`arch`] — microarchitecture: SpMU (allocated sparse memories),
//!   scanners, shuffle networks, DRAM address generators, area model.
//! * [`core`] — the declarative programming model (`Foreach`/`Scan`) and
//!   the system performance engine with the paper's stall-breakdown
//!   methodology.
//! * [`apps`] — the eleven paper applications (SpMV ×3, Conv, PageRank ×2,
//!   BFS, SSSP, M+M, SpMSpM, BiCGStab).
//! * [`plan`] — the density-driven planner: ranks candidate
//!   (format, memory) configurations from per-dataset statistics.
//! * [`baselines`] — Plasticine, a GPU model, sparse-ASIC models, and the
//!   paper's published CPU and GPU numbers.
//!
//! # Quickstart
//!
//! ```
//! use capstan::tensor::gen::Dataset;
//! use capstan::core::config::{CapstanConfig, MemoryKind};
//! use capstan::apps::spmv::CsrSpmv;
//! use capstan::apps::App;
//!
//! // A scaled-down synthetic equivalent of the paper's circuit matrix.
//! let matrix = Dataset::Ckt11752.generate_scaled(0.02);
//! let app = CsrSpmv::new(&matrix);
//! let cfg = CapstanConfig::new(MemoryKind::Hbm2e);
//! let report = app.simulate(&cfg);
//! assert!(report.cycles > 0);
//! ```

pub use capstan_apps as apps;
pub use capstan_arch as arch;
pub use capstan_baselines as baselines;
pub use capstan_core as core;
pub use capstan_plan as plan;
pub use capstan_sim as sim;
pub use capstan_tensor as tensor;
