#![deny(missing_docs)]

//! # capstan-bench
//!
//! The experiment harness: one entry point per table and figure of the
//! paper's evaluation (Tables 4-13, Figures 4-7), each printing the same
//! rows/series the paper reports, alongside the paper's published values
//! where applicable.
//!
//! Run via the `experiments` binary (owned by the `capstan-serve`
//! crate, which also exposes it as a network service):
//!
//! ```text
//! cargo run --release -p capstan-serve --bin experiments -- table12
//! cargo run --release -p capstan-serve --bin experiments -- all --scale small
//! ```
//!
//! The full CLI (`--scale`, `--mem`, `--mem-channels`, `--bench-out`,
//! `--bench-base`, `--resume`, the service verbs `--serve`/`--submit`),
//! the `BENCH_core.json` record format, and the baseline-regeneration
//! recipe are documented in this crate's `README.md`; the [`gate`]
//! module is the CI perf gate that enforces the committed baseline, and
//! the [`journal`] module is the crash-safe completed-experiment
//! journal behind `--resume`.

pub mod experiments;
pub mod gate;
pub mod journal;
mod suite;

pub use suite::{AppId, Suite};
