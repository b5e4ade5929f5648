//! The accelerator grid: Capstan's chip-level organization.
//!
//! Paper §4.1 (Table 7): "a 1:1 ratio of homogeneous compute (CU) and
//! memory units (MU). These form a 20x20 checkerboard array, ringed by 80
//! DRAM address generators. ... Each CU has 16 vector lanes and 6 vector
//! stages. ... On-chip memories are arranged as 16 banks of 4096 32-bit
//! words each, with 256 KiB per memory (50 MiB total)."

/// Chip-level grid configuration (Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridConfig {
    /// Checkerboard side (20 -> 200 CUs + 200 MUs).
    pub side: usize,
    /// DRAM address generators ringing the array.
    pub ags: usize,
    /// SIMD lanes per CU.
    pub lanes: usize,
    /// SRAM banks per SpMU.
    pub banks: usize,
    /// Words per bank.
    bank_words: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            side: 20,
            ags: 80,
            lanes: 16,
            banks: 16,
            bank_words: 4096,
        }
    }
}

impl GridConfig {
    /// Number of compute units (half the checkerboard).
    pub fn compute_units(&self) -> usize {
        self.side * self.side / 2
    }

    /// Number of sparse memory units.
    pub fn memory_units(&self) -> usize {
        self.side * self.side / 2
    }

    /// Bytes of on-chip SRAM per memory unit.
    pub fn sram_bytes_per_mu(&self) -> usize {
        self.banks * self.bank_words * 4
    }

    /// Total on-chip SRAM bytes.
    pub fn total_sram_bytes(&self) -> usize {
        self.memory_units() * self.sram_bytes_per_mu()
    }

    /// Maximum outer parallelism: how many (CU, MU) pipeline pairs the
    /// fabric can host. Apps that need a scanner-only CU feeding a compute
    /// CU (paper §3.3) consume `cus_per_pipeline = 2`.
    pub fn max_outer_parallel(&self, cus_per_pipeline: usize) -> usize {
        assert!(cus_per_pipeline > 0, "a pipeline needs at least one CU");
        (self.compute_units() / cus_per_pipeline).min(self.memory_units())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_resources() {
        let g = GridConfig::default();
        assert_eq!(g.compute_units(), 200);
        assert_eq!(g.memory_units(), 200);
        assert_eq!(g.sram_bytes_per_mu(), 256 * 1024);
        // "50 MiB total" on-chip SRAM.
        assert_eq!(g.total_sram_bytes(), 50 * 1024 * 1024);
    }

    #[test]
    fn outer_parallelism_accounts_for_scanner_only_cus() {
        let g = GridConfig::default();
        assert_eq!(g.max_outer_parallel(1), 200);
        assert_eq!(g.max_outer_parallel(2), 100);
    }
}
