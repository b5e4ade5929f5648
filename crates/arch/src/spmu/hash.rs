//! Address-to-bank hashing.
//!
//! Paper §3.1: "some applications (e.g., Conv) have pathological strided
//! access patterns: with a naive, linear bank-mapping scheme, accesses
//! strided by 2^n for n >= log2(b) will hit the same bank and must be
//! serialized. Therefore, we hash addresses to get a bank ID
//! (a0:3 ⊕ a4:7 ⊕ a8:11 ⊕ a12:15) that guarantees that any stride will map
//! to sequential banks."
//!
//! With the XOR-fold hash, the mapping `addr -> (bank, offset)` with
//! `offset = addr / banks` remains a bijection: addresses sharing an
//! offset differ only in their low `log2(banks)` bits, which the fold XORs
//! into the bank id, so they land in distinct banks.

/// Bank-mapping scheme for the SpMU scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BankHash {
    /// XOR-fold of the address nibbles (the paper's scheme).
    #[default]
    Hashed,
    /// Naive linear mapping: `bank = addr % banks`.
    Linear,
}

impl BankHash {
    /// Maps a word address to a bank id in `0..banks`.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two.
    pub fn bank_of(self, addr: u32, banks: usize) -> usize {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        let bits = banks.trailing_zeros();
        let mask = banks as u32 - 1;
        match self {
            BankHash::Linear => (addr & mask) as usize,
            BankHash::Hashed => {
                let mut acc = 0u32;
                let mut a = addr;
                // Fold the full 32-bit address, `bits` at a time.
                while a != 0 {
                    acc ^= a & mask;
                    a >>= bits;
                }
                acc as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_mapping_is_modulo() {
        for addr in 0..64u32 {
            assert_eq!(BankHash::Linear.bank_of(addr, 16), (addr % 16) as usize);
        }
    }

    #[test]
    fn hashed_consecutive_addresses_hit_distinct_banks() {
        // Unit stride must spread across all banks, like linear.
        for base in [0u32, 4096, 65_536] {
            let banks: Vec<usize> = (0..16)
                .map(|i| BankHash::Hashed.bank_of(base + i, 16))
                .collect();
            let mut sorted = banks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 16, "base {base}: {banks:?}");
        }
    }

    #[test]
    fn hashed_power_of_two_strides_spread() {
        // The paper's guarantee: any power-of-two stride maps 16
        // consecutive elements to 16 distinct banks (linear collapses to 1).
        for n in 4..=12u32 {
            let stride = 1u32 << n;
            let hashed: Vec<usize> = (0..16)
                .map(|i| BankHash::Hashed.bank_of(i * stride, 16))
                .collect();
            let mut uniq = hashed.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 16, "stride 2^{n} does not spread: {hashed:?}");
            // And the linear scheme is indeed pathological here.
            let linear: Vec<usize> = (0..16)
                .map(|i| BankHash::Linear.bank_of(i * stride, 16))
                .collect();
            assert!(
                linear.iter().all(|&b| b == 0),
                "stride 2^{n} should collapse linearly"
            );
        }
    }

    #[test]
    fn bank_offset_is_bijective() {
        // No two addresses may share (bank, within-bank offset
        // `addr / 16`).
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for addr in 0..4096u32 {
            let key = (BankHash::Hashed.bank_of(addr, 16), addr / 16);
            assert!(seen.insert(key), "collision at addr {addr}: {key:?}");
        }
    }

    #[test]
    fn works_for_other_bank_counts() {
        for banks in [2usize, 4, 8, 32, 64] {
            let ids: Vec<usize> = (0..banks as u32)
                .map(|i| BankHash::Hashed.bank_of(i, banks))
                .collect();
            let mut uniq = ids.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), banks);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = BankHash::Hashed.bank_of(0, 12);
    }
}
