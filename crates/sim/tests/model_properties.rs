//! Property tests for the DRAM and network models: conservation,
//! monotonicity, pattern ordering, and the banked channel's queueing
//! invariants (per-bank FIFO order, byte conservation, CAS lower bound).

use capstan_sim::dram::{
    AccessPattern, BankTiming, BankedDramChannel, BurstRequest, DramChannel, DramModel, MemoryKind,
    BURST_BYTES,
};
use capstan_sim::network::NetworkModel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transfer_cycles_monotone_in_bytes(
        a in 0u64..(1 << 28),
        b in 0u64..(1 << 28),
    ) {
        let (lo, hi) = (a.min(b), a.max(b));
        for kind in [MemoryKind::Ddr4, MemoryKind::Hbm2, MemoryKind::Hbm2e] {
            let m = DramModel::new(kind);
            for pattern in [AccessPattern::Streaming, AccessPattern::Random] {
                prop_assert!(m.transfer_cycles(lo, pattern) <= m.transfer_cycles(hi, pattern));
            }
        }
    }

    #[test]
    fn random_never_beats_streaming(bytes in 1u64..(1 << 26)) {
        for kind in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
            let m = DramModel::new(kind);
            prop_assert!(
                m.transfer_cycles(bytes, AccessPattern::Random)
                    >= m.transfer_cycles(bytes, AccessPattern::Streaming)
            );
        }
    }

    #[test]
    fn faster_memory_never_slower(bytes in 1u64..(1 << 26)) {
        let ddr = DramModel::new(MemoryKind::Ddr4);
        let hbm2 = DramModel::new(MemoryKind::Hbm2);
        let hbm2e = DramModel::new(MemoryKind::Hbm2e);
        for pattern in [AccessPattern::Streaming, AccessPattern::Random] {
            let d = ddr.transfer_cycles(bytes, pattern);
            let h2 = hbm2.transfer_cycles(bytes, pattern);
            let h2e = hbm2e.transfer_cycles(bytes, pattern);
            prop_assert!(d >= h2 && h2 >= h2e);
        }
    }

    #[test]
    fn channel_completes_every_burst_exactly_once(n in 1usize..48) {
        let mut ch = DramChannel::new(DramModel::new(MemoryKind::Ddr4), 64);
        let mut pushed = 0u64;
        let mut seen: Vec<u64> = Vec::new();
        let mut next_tag = 0u64;
        for cycle in 0..200_000u64 {
            if (pushed as usize) < n && cycle % 3 == 0 {
                let req = BurstRequest { addr: pushed * 64, tag: next_tag };
                if ch.push(req).is_ok() {
                    pushed += 1;
                    next_tag += 1;
                }
            }
            for c in ch.tick() {
                seen.push(c.tag);
            }
            if pushed as usize == n && ch.is_idle() {
                break;
            }
        }
        prop_assert_eq!(seen.len(), n, "lost or duplicated bursts");
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), n);
        // FIFO service order.
        prop_assert!(seen.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn banked_channel_preserves_per_bank_fifo_and_conserves_bytes(
        bursts in prop::collection::vec(0u64..4096, 1..64),
        kind_ddr4 in any::<bool>(),
        gap in 1u64..5,
    ) {
        // Random request interleavings (addresses and a randomized push
        // cadence) must preserve per-bank FIFO order,
        // complete every burst exactly once (byte conservation), and
        // never complete a burst before the configured CAS latency.
        let model = DramModel::new(if kind_ddr4 { MemoryKind::Ddr4 } else { MemoryKind::Hbm2e });
        let timing = BankTiming::for_model(&model);
        let mut ch = BankedDramChannel::new(model, timing);
        let mut next = 0usize;
        let mut enq_cycle = vec![0u64; bursts.len()];
        let mut completions: Vec<(u64, u64)> = Vec::new(); // (tag, cycle)
        for cycle in 0..2_000_000u64 {
            if next < bursts.len() && cycle % gap == 0 {
                let req = BurstRequest {
                    addr: bursts[next] * BURST_BYTES,
                    tag: next as u64,
                };
                if ch.push(req).is_ok() {
                    enq_cycle[next] = ch.cycle();
                    next += 1;
                }
            }
            for c in ch.tick() {
                completions.push((c.tag, c.cycle));
            }
            if next == bursts.len() && ch.is_idle() {
                break;
            }
        }
        // Conservation: every pushed burst completes exactly once.
        prop_assert_eq!(completions.len(), bursts.len(), "lost or duplicated bursts");
        let mut seen: Vec<u64> = completions.iter().map(|&(t, _)| t).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), bursts.len());
        prop_assert_eq!(ch.stats().served * BURST_BYTES, bursts.len() as u64 * BURST_BYTES);
        // CAS lower bound on every completion's latency.
        for &(tag, cycle) in &completions {
            prop_assert!(
                cycle >= enq_cycle[tag as usize] + timing.cas_latency,
                "burst {} completed {} cycles after enqueue (CAS {})",
                tag, cycle - enq_cycle[tag as usize], timing.cas_latency
            );
        }
        // Per-bank FIFO: completions of one bank happen in push order.
        for bank in 0..timing.banks {
            let order: Vec<u64> = completions
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| ch.bank_of(bursts[t as usize] * BURST_BYTES) == bank)
                .collect();
            prop_assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "bank {} completed out of FIFO order: {:?}",
                bank, order
            );
        }
    }

    #[test]
    fn network_round_trips_are_linear(iterations in 0u64..(1 << 24), side in 1usize..64) {
        let m = NetworkModel::new(side);
        prop_assert_eq!(
            m.round_trip_cycles(iterations),
            iterations * m.round_trip_cycles(1)
        );
    }
}
