#![deny(missing_docs)]

//! # capstan-baselines
//!
//! Every comparison point of the paper's evaluation:
//!
//! * [`plasticine`] — the dense-RDA baseline (Plasticine, ISCA'17),
//!   modeled as a Capstan configuration with its sparse mechanisms
//!   removed: arbitrated memories, no RMW pipeline, scalar stream-join
//!   iteration, no shuffle network.
//! * [`gpu`] — a V100 analytic model (the cuSparse / Gunrock stand-in)
//!   that `examples/solver_fusion.rs` uses for the §4.4 kernel-fusion
//!   claim.
//! * [`asic`] — idealized throughput models of EIE, SCNN, Graphicionado,
//!   and MatRaptor, mirroring the paper's own "ideal model of each
//!   baseline" methodology (Table 13).
//! * [`published`] — every number printed in the paper's Table 12, as
//!   reference constants the harness prints beside reproduced values.
//!   The CPU (TACO / GraphIt on a 128-thread Xeon) and GPU rows come
//!   from here: the host machine is not the paper's testbed.

pub mod asic;
pub mod gpu;
pub mod plasticine;
pub mod published;
