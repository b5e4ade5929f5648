#![deny(missing_docs)]

//! # capstan-baselines
//!
//! Every comparison point of the paper's evaluation:
//!
//! * [`plasticine`] — the dense-RDA baseline (Plasticine, ISCA'17),
//!   modeled as a Capstan configuration with its sparse mechanisms
//!   removed: arbitrated memories, no RMW pipeline, scalar stream-join
//!   iteration, no shuffle network.
//! * [`cpu`] — measured multi-threaded Rust kernels (the TACO / GraphIt
//!   stand-in) plus the paper's published 128-thread Xeon numbers.
//! * [`gpu`] — a V100 analytic model (cuSparse / Gunrock stand-in) plus
//!   the paper's published numbers.
//! * [`asic`] — idealized throughput models of EIE, SCNN, Graphicionado,
//!   and MatRaptor, mirroring the paper's own "ideal model of each
//!   baseline" methodology (Table 13).
//! * [`published`] — every number printed in the paper's Table 12, as
//!   reference constants the harness prints beside reproduced values.

pub mod asic;
pub mod cpu;
pub mod gpu;
pub mod plasticine;
pub mod published;
