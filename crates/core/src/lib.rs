#![deny(missing_docs)]

//! # capstan-core
//!
//! The Capstan programming model and system-level performance engine.
//!
//! Capstan is programmed declaratively (paper §2.3): nested `Foreach` /
//! `Reduce` loops whose headers are either dense counters or `Scan`
//! statements over bit-vector operands. [`program`] provides that model as
//! an embedded DSL: applications express their loop nests against a
//! [`program::TileRecorder`], which *executes the body functionally*
//! (producing numerically correct results) while recording the workload
//! trace — vectorized iteration counts, real scanner inputs, real SpMU
//! address vectors, shuffle-network entries, and DRAM traffic.
//!
//! [`perf`] then costs a recorded [`program::Workload`] with the paper's
//! own staged methodology (Fig. 7): a synthetic analysis (Active, Scan,
//! Load/Store, Vector Length, Imbalance) followed by simulated additions
//! (Network, SRAM bank conflicts via the cycle-level SpMU, and the DRAM
//! model), attributing the cycles lost to each stall source.
//!
//! # Example
//!
//! ```
//! use capstan_core::config::{CapstanConfig, MemoryKind};
//! use capstan_core::program::WorkloadBuilder;
//! use capstan_core::perf::simulate;
//!
//! let cfg = CapstanConfig::new(MemoryKind::Hbm2e);
//! let mut wl = WorkloadBuilder::new("axpy");
//! let (xs, ys) = (vec![1.0f32; 1024], vec![2.0f32; 1024]);
//! let mut out = vec![0.0f32; 1024];
//! {
//!     let mut tile = wl.tile();
//!     tile.dram_stream_read((xs.len() + ys.len()) * 4);
//!     tile.foreach_vec(xs.len(), |_t, i| {
//!         out[i] = 2.0 * xs[i] + ys[i];
//!     });
//!     tile.dram_stream_write(out.len() * 4);
//!     wl.commit(tile);
//! }
//! let report = simulate(&wl.finish(), &cfg);
//! assert!(report.cycles > 0);
//! assert_eq!(out[0], 4.0);
//! ```

pub mod config;
pub mod perf;
pub mod program;
pub mod report;
