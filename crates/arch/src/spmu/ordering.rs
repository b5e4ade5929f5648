//! Memory-ordering modes and the address-conflict Bloom filter.
//!
//! Paper Table 3 defines three ordering strictness levels, plus the
//! arbitrated baseline used for comparison (Fig. 4, Table 10):
//!
//! | Mode            | Constraint                                        |
//! |-----------------|---------------------------------------------------|
//! | Unordered       | accesses complete once, in arbitrary order        |
//! | Address ordered | accesses to the same address are ordered          |
//! | Fully ordered   | accesses complete in program order                |
//! | Arbitrated      | baseline: one vector at a time, no reordering     |
//!
//! Address ordering is enforced *before* the reordering pipeline: request
//! vectors are split if two lanes share an address, and "a 128-entry Bloom
//! filter checks for potential conflicts with pending in-queue requests"
//! (§3.1.2). The filter must never report a false negative, so it is
//! implemented as a counting Bloom filter supporting removal on
//! completion.

/// The SpMU's memory-ordering mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrderingMode {
    /// Full reordering (the default, highest-throughput mode).
    #[default]
    Unordered,
    /// Same-address accesses keep program order (SSSP, deterministic
    /// floating-point accumulation).
    AddressOrdered,
    /// All accesses complete in program order.
    FullyOrdered,
    /// Plasticine-style baseline: execute one vector at a time with bank
    /// arbitration only.
    Arbitrated,
}

impl OrderingMode {
    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            OrderingMode::Unordered => "Unordered",
            OrderingMode::AddressOrdered => "Address Ordered",
            OrderingMode::FullyOrdered => "Fully Ordered",
            OrderingMode::Arbitrated => "Arbitrated",
        }
    }
}

/// A counting Bloom filter over word addresses (default 128 counters,
/// paper §3.1.2: "Using 128 entries provides reasonable performance for
/// this less-common access mode while minimally increasing area").
#[derive(Debug, Clone)]
pub struct BloomFilter {
    counters: Vec<u16>,
    hashes: usize,
}

impl BloomFilter {
    /// Creates a filter with `entries` counters and `hashes` hash probes.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `hashes == 0`.
    pub(crate) fn new(entries: usize, hashes: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "bloom entries must be a power of two"
        );
        assert!(hashes > 0, "bloom filter needs at least one hash");
        BloomFilter {
            counters: vec![0; entries],
            hashes,
        }
    }

    /// The paper's configuration: 128 entries, two probes.
    pub fn paper_default() -> Self {
        BloomFilter::new(128, 2)
    }

    fn probe(&self, addr: u32, k: usize) -> usize {
        // Distinct multiplicative hashes per probe (Knuth constants).
        let salt = [0x9E37_79B9u32, 0x85EB_CA6B, 0xC2B2_AE35, 0x27D4_EB2F][k % 4];
        let h = addr.wrapping_add(k as u32 + 1).wrapping_mul(salt);
        (h >> 16) as usize & (self.counters.len() - 1)
    }

    /// Inserts an address.
    pub fn insert(&mut self, addr: u32) {
        for k in 0..self.hashes {
            let i = self.probe(addr, k);
            self.counters[i] = self.counters[i].saturating_add(1);
        }
    }

    /// Removes a previously inserted address.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the address was never inserted, which
    /// would corrupt the no-false-negative guarantee.
    pub fn remove(&mut self, addr: u32) {
        for k in 0..self.hashes {
            let i = self.probe(addr, k);
            debug_assert!(
                self.counters[i] > 0,
                "bloom underflow at {i} for addr {addr}"
            );
            self.counters[i] = self.counters[i].saturating_sub(1);
        }
    }

    /// Whether the address *may* be present (false positives possible,
    /// false negatives impossible).
    pub fn may_contain(&self, addr: u32) -> bool {
        (0..self.hashes).all(|k| self.counters[self.probe(addr, k)] > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::paper_default();
        for addr in (0..1000u32).step_by(7) {
            f.insert(addr);
        }
        for addr in (0..1000u32).step_by(7) {
            assert!(f.may_contain(addr), "false negative at {addr}");
        }
    }

    #[test]
    fn removal_restores_emptiness() {
        let mut f = BloomFilter::paper_default();
        let addrs = [1u32, 500, 99_999, 1, 1]; // duplicates allowed
        for &a in &addrs {
            f.insert(a);
        }
        for &a in &addrs {
            f.remove(a);
        }
        assert!(f.counters.iter().all(|&c| c == 0));
        assert!(!f.may_contain(1));
    }

    #[test]
    fn false_positives_exist_under_load() {
        // With 128 counters and 100 inserted addresses, some absent
        // address almost surely collides — this is the behaviour that
        // throttles the address-ordered mode (Fig. 4's 34.2%).
        let mut f = BloomFilter::paper_default();
        for addr in 0..100u32 {
            f.insert(addr * 3 + 1_000_000);
        }
        let fp = (0..1000u32).filter(|&a| f.may_contain(a)).count();
        assert!(fp > 0, "expected some false positives");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::paper_default();
        assert!(!f.may_contain(42));
        assert!(f.counters.iter().all(|&c| c == 0));
    }

    #[test]
    fn mode_names() {
        assert_eq!(OrderingMode::Unordered.name(), "Unordered");
        assert_eq!(OrderingMode::default(), OrderingMode::Unordered);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_entry_count() {
        let _ = BloomFilter::new(100, 2);
    }
}
