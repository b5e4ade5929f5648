#![deny(missing_docs)]

//! # capstan-arch
//!
//! Cycle-level microarchitecture models for Capstan (Rucker et al.,
//! MICRO 2021): the three hardware mechanisms the paper adds to a dense
//! RDA, plus the surrounding fabric.
//!
//! * [`spmu`] — the **Sparse Memory Unit** (§3.1): a banked scratchpad
//!   fronted by a 16-deep vector issue queue, an input-first separable
//!   allocator with age-priority windows, address hashing, a
//!   read-modify-write FPU per bank, and configurable memory-ordering
//!   modes. This is the unit behind Table 4, Table 9, Table 10 and Fig. 4.
//! * [`scanner`] — **sparse loop headers** (§3.3): the bit-vector scanner
//!   (256-bit window, 16 outputs/cycle), the data scanner, and two-pass
//!   bit-tree iteration. Behind Table 5 and Fig. 6.
//! * [`shuffle`] — the **shuffle network** (§3.2): butterfly merge units
//!   with ±1-lane shifting and inverse-permutation FIFOs. Behind Table 11.
//! * [`ag`] — DRAM **address generators** (§3.4): burst tracking, atomic
//!   DRAM read-modify-writes, and the read-only decompressor.
//! * [`memdrv`] — the cycle-level memory-system driver
//!   (`MemTiming::CycleLevel`): tile DRAM traffic replayed through N
//!   region channels (banked DRAM channels behind a deterministic
//!   crossbar) and N per-region AGs, all ticked in lockstep — the
//!   multi-channel topology behind the paper's per-AG memory regions.
//! * [`fmtconv`] — the compute-tile format converter (pointers →
//!   bit-vectors, §3.4).
//! * [`area`] — the calibrated area/power model (Tables 4, 5, 8).
//! * [`grid`] — the 20×20 CU/MU checkerboard and AG ring (Table 7).

pub mod ag;
pub mod area;
pub mod fmtconv;
pub mod grid;
pub mod memdrv;
pub mod scanner;
pub mod shuffle;
pub mod spmu;
