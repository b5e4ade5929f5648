//! Performance reports and the Fig. 7 stall breakdown.

use capstan_arch::memdrv::{MemStats, TenantStats};
use capstan_sim::cycles_to_seconds;
use std::fmt;

/// Cycles attributed to each stall source, following the paper's Fig. 7
/// methodology: the synthetic components (Active through Imbalance) are
/// computed with ideal memory; the simulated components (Network, SRAM,
/// DRAM) are "added one at a time" so each captures the *additional*
/// cycles its effect costs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Cycles in which every lane would do useful work.
    pub active: u64,
    /// Scanner overhead (all-zero windows, narrow-window throttling).
    pub scan: u64,
    /// End-to-end DRAM load/store issue time (ideal DRAM).
    pub load_store: u64,
    /// Under-filled vector slots (short inner loops).
    pub vector_length: u64,
    /// Uneven tile sizes across outer-parallel pipelines.
    pub imbalance: u64,
    /// On-chip network and shuffle effects.
    pub network: u64,
    /// SRAM bank conflicts (cycle-level SpMU simulation).
    pub sram: u64,
    /// DRAM bandwidth and latency (the Ramulator-substitute model).
    pub dram: u64,
}

impl Breakdown {
    /// Total cycles across all components, saturating at `u64::MAX`: a
    /// near-zero memory bandwidth can push the DRAM component alone there.
    pub fn total(&self) -> u64 {
        [
            self.active,
            self.scan,
            self.load_store,
            self.vector_length,
            self.imbalance,
            self.network,
            self.sram,
            self.dram,
        ]
        .into_iter()
        .fold(0, u64::saturating_add)
    }

    /// Each component as a fraction of the total (the Fig. 7 bars).
    pub fn fractions(&self) -> [(&'static str, f64); 8] {
        let t = self.total().max(1) as f64;
        [
            ("Active", self.active as f64 / t),
            ("Scan", self.scan as f64 / t),
            ("Load/Store", self.load_store as f64 / t),
            ("Vector Length", self.vector_length as f64 / t),
            ("Imbalance", self.imbalance as f64 / t),
            ("Network", self.network as f64 / t),
            ("SRAM", self.sram as f64 / t),
            ("DRAM", self.dram as f64 / t),
        ]
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, frac) in self.fractions() {
            write!(f, "{name} {:.1}% ", frac * 100.0)?;
        }
        Ok(())
    }
}

/// The result of simulating one workload on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Workload name.
    pub(crate) name: String,
    /// Total runtime in core cycles (1.6 GHz).
    pub cycles: u64,
    /// Stall attribution.
    pub breakdown: Breakdown,
    /// Outer-parallel pipelines used.
    pub pipelines: usize,
    /// Measured SRAM bank utilization over the replayed trace (0 when the
    /// workload performs no random SRAM accesses).
    pub sram_bank_utilization: f64,
    /// Total DRAM traffic in bytes (after compression).
    pub(crate) dram_bytes: u64,
    /// Fraction of lane slots doing useful work.
    pub lane_efficiency: f64,
    /// Cycle-level memory statistics (row conflicts, bank contention,
    /// AG burst counts), rolled up across every region channel and AG
    /// of the multi-channel topology. `Some` only under
    /// `MemTiming::CycleLevel` with a non-ideal memory system; the
    /// analytic mode has no cycle-level observables.
    pub mem: Option<MemStats>,
    /// Per-tenant cycle-level memory statistics, indexed by
    /// `TenantId.0` (one entry per configured memory tenant, including
    /// the single-tenant case). Empty under the analytic mode, which
    /// has no tenant-attributed observables.
    pub mem_tenants: Vec<TenantStats>,
}

impl PerfReport {
    /// Runtime in seconds at the 1.6 GHz core clock.
    fn seconds(&self) -> f64 {
        cycles_to_seconds(self.cycles)
    }
}

impl fmt::Display for PerfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} cycles ({:.3} ms), {} pipelines, lane eff {:.1}%, DRAM {:.1} MiB",
            self.name,
            self.cycles,
            self.seconds() * 1e3,
            self.pipelines,
            self.lane_efficiency * 100.0,
            self.dram_bytes as f64 / (1024.0 * 1024.0),
        )?;
        write!(f, "  breakdown: {}", self.breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_and_fractions() {
        let b = Breakdown {
            active: 50,
            scan: 10,
            load_store: 10,
            vector_length: 10,
            imbalance: 5,
            network: 5,
            sram: 5,
            dram: 5,
        };
        assert_eq!(b.total(), 100);
        let fr = b.fractions();
        assert_eq!(fr[0], ("Active", 0.5));
        let sum: f64 = fr.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn report_seconds() {
        let report = PerfReport {
            name: "x".into(),
            cycles: 1_600_000,
            breakdown: Breakdown::default(),
            pipelines: 1,
            sram_bank_utilization: 0.0,
            dram_bytes: 0,
            lane_efficiency: 1.0,
            mem: None,
            mem_tenants: Vec::new(),
        };
        assert!((report.seconds() - 0.001).abs() < 1e-9);
    }

    #[test]
    fn display_is_nonempty() {
        let b = Breakdown::default();
        assert!(!format!("{b}").is_empty());
    }
}
