//! The Plasticine dense-RDA baseline.
//!
//! Paper §5 ("Plasticine & Spatial"): "Plasticine's programs are
//! statically banked so no two lanes access the same memory bank in a
//! cycle ... In the worst banking cases (random accesses), each memory
//! only supports one access per cycle, leaving 15 banks inactive.
//! Plasticine also does not permit read-modify-write (RMW) accesses — for
//! consistent random RMWs, each read must block on the preceding write,
//! introducing multi-cycle bubbles. This is most visible in COO and CSC
//! SpMV, which rely on modifying data. Furthermore, Plasticine has no
//! sparse iteration support, which limits which programs can be mapped."
//!
//! We model Plasticine as a Capstan configuration with every sparse
//! mechanism stripped: the same grid, lanes, clock, and dense compute
//! throughput (the paper: "it has the same clock frequency and dense
//! performance as Plasticine"), but arbitrated memories, RMW bubbles,
//! scalar stream-join loop headers, and no shuffle network.

use capstan_core::config::{CapstanConfig, MemoryKind};

/// Applications that can be mapped (inefficiently) to Plasticine.
///
/// "Several Capstan features, including cross-tile sparse updates (Conv),
/// sparse DRAM updates (PREdge), and sparse iteration (BFS, SSSP, M+M,
/// and SpMSpM) can not be mapped efficiently to Plasticine, so only some
/// applications have Plasticine baselines" (§4.4).
const SUPPORTED_APPS: [&str; 5] = ["CSR SpMV", "COO SpMV", "CSC SpMV", "PR-Pull", "BiCGStab"];

/// Whether an application has a Plasticine mapping.
pub fn supports(app_name: &str) -> bool {
    SUPPORTED_APPS.contains(&app_name)
}

/// Read-block-on-write bubble depth for random RMW emulation: with no
/// atomic pipeline, a consistent update must read, modify in the CU, and
/// write back before any aliasing read may issue — a full on-chip
/// round trip (two network traversals at ~27 cycles each, paper's 20x20
/// grid) per update.
const RMW_BUBBLE_CYCLES: u64 = 48;

/// Builds the Plasticine configuration for a memory system.
pub fn config(memory: MemoryKind) -> CapstanConfig {
    let mut cfg = CapstanConfig::new(memory);
    // Statically banked memory: worst-case random accesses arbitrate to
    // one access per vector per cycle.
    cfg.spmu.ordering = capstan_arch::spmu::OrderingMode::Arbitrated;
    // No address hashing (static banking is schedule-time).
    cfg.spmu.hash = capstan_arch::spmu::BankHash::Linear;
    // No allocator.
    cfg.spmu.priorities = 1;
    cfg.spmu.alloc_iterations = 1;
    // Statically banked memory: one random access per cycle per memory.
    cfg.serialized_sram = true;
    // No RMW pipeline: emulate with read-block-write bubbles.
    cfg.rmw_bubble_cycles = RMW_BUBBLE_CYCLES;
    // No scanner: sparse iteration decays to scalar stream-join.
    cfg.scalar_stream_join = true;
    // No shuffle network (cross-tile sparse updates fall back to DRAM).
    cfg.shuffle = None;
    // No sparse-pointer DRAM compression.
    cfg.compression = false;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use capstan_apps::spmv::{CooSpmv, CscSpmv, CsrSpmv};
    use capstan_apps::App;
    use capstan_tensor::gen::Dataset;

    #[test]
    fn supported_set_matches_paper() {
        assert!(supports("CSR SpMV"));
        assert!(supports("BiCGStab"));
        assert!(!supports("BFS"));
        assert!(!supports("SpMSpM"));
        assert!(!supports("Conv"));
        assert!(!supports("PR-Edge"));
    }

    #[test]
    fn capstan_beats_plasticine_on_random_reads() {
        // CSR SpMV: structural hazards reading on-chip memory. The paper
        // reports 17x at system level; at minimum our model must show a
        // large gap in the same direction.
        let m = Dataset::Ckt11752.generate_scaled(0.02);
        let app = CsrSpmv::new(&m);
        let capstan = app.simulate(&CapstanConfig::new(MemoryKind::Hbm2e));
        let plasticine = app.simulate(&config(MemoryKind::Hbm2e));
        let speedup = plasticine.cycles as f64 / capstan.cycles as f64;
        assert!(speedup > 2.0, "CSR speedup only {speedup:.2}x");
    }

    #[test]
    fn rmw_heavy_apps_suffer_most() {
        // COO/CSC modify memory: Plasticine's penalty must exceed CSR's
        // (paper: 17x reads vs 184x/365x updates).
        let m = Dataset::Ckt11752.generate_scaled(0.02);
        let hbm = MemoryKind::Hbm2e;
        let ratio = |app: &dyn App| {
            let c = app.simulate(&CapstanConfig::new(hbm));
            let p = app.simulate(&config(hbm));
            p.cycles as f64 / c.cycles as f64
        };
        let csr = ratio(&CsrSpmv::new(&m));
        let coo = ratio(&CooSpmv::new(&m));
        let csc = ratio(&CscSpmv::new(&m));
        assert!(coo > csr, "COO {coo:.1}x should exceed CSR {csr:.1}x");
        assert!(csc > csr, "CSC {csc:.1}x should exceed CSR {csr:.1}x");
    }
}
