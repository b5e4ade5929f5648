//! Idealized throughput models of bespoke sparse accelerators (Table 13).
//!
//! The paper compares Capstan against "an ideal (i.e., ignoring network
//! delays, bank conflicts, and load/store time) model of each baseline"
//! for EIE and SCNN, published edge rates for Graphicionado, and the
//! highest demonstrated throughput for MatRaptor. These models implement
//! the same idealizations from each accelerator's published
//! microarchitecture.

/// EIE (Han et al., ISCA'16): 64 scalar PEs at 800 MHz with the entire
/// compressed model resident on-chip. Each PE retires one MAC on a
/// non-zero (activation, weight) pair per cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eie {
    /// Processing elements.
    pes: u64,
    /// Clock in GHz.
    clock_ghz: f64,
}

impl Default for Eie {
    fn default() -> Self {
        Eie {
            pes: 64,
            clock_ghz: 0.8,
        }
    }
}

impl Eie {
    /// Seconds to run a CSC SpMV with `effective_macs` non-zero pairs
    /// (zeros in activations and weights both skipped).
    pub fn spmv_seconds(&self, effective_macs: u64) -> f64 {
        // Load imbalance across PEs is the published ~30% overhead.
        let cycles = effective_macs as f64 / self.pes as f64 * 1.3;
        cycles / (self.clock_ghz * 1e9)
    }
}

/// SCNN (Parashar et al., ISCA'17): 64 PEs, each with a 4x4 Cartesian
/// multiplier array (4 activations x 4 weights per cycle) at 1 GHz.
/// "For layers with few activations, 75% of this array is unused" and
/// "SCNN is forced to tile its outputs, which limits the amount of
/// available weight parallelism" (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scnn {
    /// Processing elements.
    pes: u64,
    /// Activation operands per PE per cycle.
    act_width: u64,
    /// Weight operands per PE per cycle.
    weight_width: u64,
    /// Clock in GHz.
    clock_ghz: f64,
    /// Output-tiling passes: SCNN's small per-PE accumulator banks force
    /// the output channels to be processed in multiple passes ("SCNN is
    /// forced to tile its outputs, which limits the amount of available
    /// weight parallelism and forces multiple iterations", paper §4.4).
    output_passes: u64,
}

impl Default for Scnn {
    fn default() -> Self {
        Scnn {
            pes: 64,
            act_width: 4,
            weight_width: 4,
            clock_ghz: 1.0,
            output_passes: 2,
        }
    }
}

impl Scnn {
    /// Seconds for one pruned layer, given per-input-channel non-zero
    /// counts of activations and weights.
    pub fn conv_seconds(&self, per_channel: &[(u64, u64)]) -> f64 {
        // Activations tile spatially across PEs; weights vectorize within
        // a PE. Ceil effects at both levels model the underutilization.
        let mut cycles = 0.0;
        for &(act_nnz, kern_nnz) in per_channel {
            let acts_per_pe = act_nnz.div_ceil(self.pes);
            let act_groups = acts_per_pe.div_ceil(self.act_width);
            let weights_per_pass = kern_nnz.div_ceil(self.output_passes);
            let weight_groups = weights_per_pass.div_ceil(self.weight_width);
            // Each output pass re-streams the activations into the PEs.
            cycles += (self.output_passes * act_groups * (weight_groups + 1)) as f64;
        }
        cycles / (self.clock_ghz * 1e9)
    }
}

/// Graphicionado (Ham et al., MICRO'16): pipelined vertex programming
/// with 64 MiB of eDRAM, evaluated via its published edge-processing
/// rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Graphicionado {
    /// Processed edges per second for PageRank.
    pr_edges_per_sec: f64,
    /// Processed edges per second for BFS.
    bfs_edges_per_sec: f64,
    /// Processed edges per second for SSSP.
    sssp_edges_per_sec: f64,
}

impl Default for Graphicionado {
    fn default() -> Self {
        // Published rates on power-law social graphs (order of 1-3 GEPS).
        Graphicionado {
            pr_edges_per_sec: 2.0e9,
            bfs_edges_per_sec: 1.2e9,
            sssp_edges_per_sec: 1.6e9,
        }
    }
}

impl Graphicionado {
    /// Seconds for one PageRank iteration over `edges`.
    pub fn pr_seconds(&self, edges: u64) -> f64 {
        edges as f64 / self.pr_edges_per_sec
    }

    /// Seconds for a BFS touching `edges` edges.
    pub fn bfs_seconds(&self, edges: u64) -> f64 {
        edges as f64 / self.bfs_edges_per_sec
    }

    /// Seconds for an SSSP processing `edges` relaxations.
    pub fn sssp_seconds(&self, edges: u64) -> f64 {
        edges as f64 / self.sssp_edges_per_sec
    }
}

/// MatRaptor (Srivastava et al., MICRO'20): row-product SpMSpM with eight
/// scalar pipelines; compared at its highest demonstrated throughput of
/// 10 GOP/s (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatRaptor {
    /// Peak demonstrated operations per second.
    ops_per_sec: f64,
}

impl Default for MatRaptor {
    fn default() -> Self {
        MatRaptor {
            ops_per_sec: 10.0e9,
        }
    }
}

impl MatRaptor {
    /// Seconds for an SpMSpM with `multiplies` scalar multiply-accumulates
    /// (2 ops each).
    pub fn spmspm_seconds(&self, multiplies: u64) -> f64 {
        (multiplies * 2) as f64 / self.ops_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eie_throughput_scales_with_pes() {
        let small = Eie {
            pes: 16,
            ..Default::default()
        };
        let big = Eie::default();
        let t_small = small.spmv_seconds(1_000_000);
        let t_big = big.spmv_seconds(1_000_000);
        assert!((t_small / t_big - 4.0).abs() < 0.01);
    }

    #[test]
    fn scnn_underutilizes_on_sparse_activations() {
        let scnn = Scnn::default();
        // 64 non-zero activations (1 per PE) can't fill the 4-wide
        // activation port: same cycles as 256 activations.
        let sparse = scnn.conv_seconds(&[(64, 1024)]);
        let dense = scnn.conv_seconds(&[(256, 1024)]);
        assert_eq!(sparse, dense);
        // But 4x more weights takes 4x longer.
        let heavy = scnn.conv_seconds(&[(64, 4096)]);
        assert!((heavy / sparse - 4.0).abs() < 0.05);
        // Output tiling forces extra passes.
        let single_pass = Scnn {
            output_passes: 1,
            ..Default::default()
        };
        assert!(scnn.conv_seconds(&[(64, 1024)]) > single_pass.conv_seconds(&[(64, 1024)]));
    }

    #[test]
    fn graphicionado_rates_are_per_app() {
        let g = Graphicionado::default();
        let edges = 9_837_214; // flickr
        assert!(g.bfs_seconds(edges) > g.pr_seconds(edges));
    }

    #[test]
    fn matraptor_counts_two_ops_per_mac() {
        let m = MatRaptor::default();
        assert!((m.spmspm_seconds(5_000_000_000) - 1.0).abs() < 1e-9);
    }
}
