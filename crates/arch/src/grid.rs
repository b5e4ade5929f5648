//! The accelerator grid: Capstan's chip-level organization.
//!
//! Paper §4.1 (Table 7): "a 1:1 ratio of homogeneous compute (CU) and
//! memory units (MU). These form a 20x20 checkerboard array, ringed by 80
//! DRAM address generators. ... Each CU has 16 vector lanes and 6 vector
//! stages. ... On-chip memories are arranged as 16 banks of 4096 32-bit
//! words each, with 256 KiB per memory (50 MiB total)."

/// Checkerboard side (20 -> 200 CUs + 200 MUs).
pub const SIDE: usize = 20;
/// DRAM address generators ringing the array.
pub const AGS: usize = 80;
/// SIMD lanes per CU.
pub const LANES: usize = 16;
/// SRAM banks per SpMU.
pub const BANKS: usize = 16;
/// Words per bank.
const BANK_WORDS: usize = 4096;

/// Number of compute units (half the checkerboard).
pub fn compute_units() -> usize {
    SIDE * SIDE / 2
}

/// Number of sparse memory units.
pub fn memory_units() -> usize {
    SIDE * SIDE / 2
}

/// Bytes of on-chip SRAM per memory unit.
pub fn sram_bytes_per_mu() -> usize {
    BANKS * BANK_WORDS * 4
}

/// Total on-chip SRAM bytes.
pub fn total_sram_bytes() -> usize {
    memory_units() * sram_bytes_per_mu()
}

/// Maximum outer parallelism: how many (CU, MU) pipeline pairs the
/// fabric can host. Apps that need a scanner-only CU feeding a compute
/// CU (paper §3.3) consume `cus_per_pipeline = 2`.
pub fn max_outer_parallel(cus_per_pipeline: usize) -> usize {
    assert!(cus_per_pipeline > 0, "a pipeline needs at least one CU");
    (compute_units() / cus_per_pipeline).min(memory_units())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_resources() {
        assert_eq!(compute_units(), 200);
        assert_eq!(memory_units(), 200);
        assert_eq!(sram_bytes_per_mu(), 256 * 1024);
        // "50 MiB total" on-chip SRAM.
        assert_eq!(total_sram_bytes(), 50 * 1024 * 1024);
    }

    #[test]
    fn outer_parallelism_accounts_for_scanner_only_cus() {
        assert_eq!(max_outer_parallel(1), 200);
        assert_eq!(max_outer_parallel(2), 100);
    }
}
