//! Format-conversion hardware: pointers to bit-vectors.
//!
//! Paper §3.4: "format-conversion hardware generates bit-vector formats
//! from pointers. Capstan's iterators use bit-vector sparsity for
//! computing intersections. However, these can be less bandwidth-efficient
//! than compressed pointers. Converting compressed pointers to bit-vectors
//! in the SpMU would require multiple modifications to the same word,
//! causing bank conflicts and slowing execution. Therefore,
//! special-purpose format conversion hardware is added to the compute
//! tile with minimal area overhead."
//!
//! The unit consumes one vector of (sorted) pointers per cycle and emits
//! bit-vector words; because the pointers are sorted, set bits land in
//! monotonically non-decreasing words and the unit needs no RMW port.

/// The compute-tile format converter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormatConverter {
    /// Pointers consumed per cycle (one SIMD vector; paper lanes = 16).
    pointers_per_cycle: usize,
}

impl Default for FormatConverter {
    fn default() -> Self {
        FormatConverter {
            pointers_per_cycle: 16,
        }
    }
}

impl FormatConverter {
    /// Cycle cost to convert `n` pointers.
    pub fn convert_cycles(&self, n: usize) -> u64 {
        n.div_ceil(self.pointers_per_cycle) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_vector_rate() {
        let conv = FormatConverter::default();
        assert_eq!(conv.convert_cycles(0), 0);
        assert_eq!(conv.convert_cycles(16), 1);
        assert_eq!(conv.convert_cycles(17), 2);
        assert_eq!(conv.convert_cycles(160), 10);
        let scalar = FormatConverter {
            pointers_per_cycle: 1,
        };
        assert_eq!(scalar.convert_cycles(160), 160);
    }
}
