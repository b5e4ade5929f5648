#![deny(missing_docs)]

//! # capstan-sim
//!
//! Simulation kernel for the Capstan reproduction: the pieces of the
//! paper's evaluation stack that sit *underneath* the microarchitecture.
//!
//! * [`stats`] — the process-wide simulated-cycle counter and the
//!   utilization tracker shared by the unit simulators.
//! * [`dram`] — the DRAM model standing in for Ramulator: burst-level
//!   (64 B) transfers, DDR4-2133 / HBM2 / HBM2E presets (Table 7), random
//!   versus streaming efficiency, cycle-level channels (the plain
//!   [`dram::DramChannel`], the banked open-row
//!   [`dram::BankedDramChannel`]), and the multi-channel
//!   [`dram::ChannelArray`] — N banked channels behind a deterministic
//!   region-bit crossbar, the topology of the cycle-level memory mode.
//! * [`network`] — the hybrid static/dynamic on-chip network model
//!   (512-bit vector links, per-hop latency, §4.1).
//! * [`snapshot`] — FNV-1a-64 and the atomic temp-file + rename used
//!   for every crash-safe file the harness writes.
//!
//! Everything is deterministic; no wall-clock time is consulted anywhere.

pub mod dram;
pub mod network;
mod queue;
pub mod snapshot;
pub mod stats;

/// Capstan's core clock in GHz (paper §4.2: synthesized at 1.6 GHz).
pub const CLOCK_GHZ: f64 = 1.6;

/// Seconds per core cycle.
const CYCLE_SECONDS: f64 = 1.0e-9 / CLOCK_GHZ;

/// Converts a cycle count at the core clock into seconds.
pub fn cycles_to_seconds(cycles: u64) -> f64 {
    cycles as f64 * CYCLE_SECONDS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_constants_are_consistent() {
        assert!((CYCLE_SECONDS - 0.625e-9).abs() < 1e-15);
        assert!((cycles_to_seconds(1_600_000_000) - 1.0).abs() < 1e-9);
    }
}
