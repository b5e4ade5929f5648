//! Differential tests between the two memory-timing modes.
//!
//! The cycle-level mode (`MemTiming::CycleLevel`) replays DRAM traffic
//! through a banked channel and a real address generator whose timing
//! parameters are *derived* from the analytic `DramModel`'s efficiency
//! constants, so the two modes must stay coupled: the cycle-level drain
//! can add contention the closed form cannot see (slower is expected),
//! but it must never beat the analytic rate on traffic the closed form
//! prices tightly, and on contention-free streaming the two must agree
//! within a bounded ratio. Atomic traffic additionally must be strictly
//! monotone: more RMW words can never make the cycle-level drain faster.
//!
//! The multi-channel topology (`CapstanConfig::mem_channels`) adds a
//! third axis: one region channel must reproduce the single-channel
//! driver bit-for-bit (the golden pins depend on it), growing the
//! channel count can only shrink the drain on bank-parallel traffic,
//! and the atomic-monotonicity contract must hold at *every* channel
//! count.
//!
//! Recorded addressing (`CapstanConfig::mem_addresses`) adds a fourth:
//! replaying the recorder's real sampled address vectors must conserve
//! word counts, never lose to the uniform synthetic streams on
//! hub-skewed kernels (coalescing can only help), fall back
//! bit-identically when a workload recorded no addresses, and stay
//! bit-reproducible run to run.

use capstan::core::config::{CapstanConfig, MemAddressing, MemTiming, MemoryKind};
use capstan::core::perf::simulate;
use capstan::core::program::{Workload, WorkloadBuilder};
use capstan::core::report::PerfReport;

/// Builds a one-knob DRAM workload: `tiles` tiles, each with the given
/// streaming bytes, random words, and atomic words (plus a little lane
/// work so the recording is well-formed).
fn dram_workload(
    tiles: usize,
    stream_bytes: usize,
    random_words: u64,
    atomic_words: u64,
) -> Workload {
    let mut wl = WorkloadBuilder::new("dram-grid");
    for _ in 0..tiles {
        let mut t = wl.tile();
        t.foreach_vec(256, |_, _| {});
        t.dram_stream_read(stream_bytes);
        t.dram_random_read(random_words);
        t.dram_atomic(atomic_words);
        wl.commit(t);
    }
    wl.finish()
}

fn both_modes(w: &Workload, memory: MemoryKind) -> (PerfReport, PerfReport) {
    let mut analytic = CapstanConfig::new(memory);
    analytic.mem_timing = MemTiming::Analytic;
    let mut cycle = analytic;
    cycle.mem_timing = MemTiming::CycleLevel;
    (simulate(w, &analytic), simulate(w, &cycle))
}

#[test]
fn streaming_only_agrees_within_a_bounded_ratio() {
    // Contention-free streaming: sequential bursts rotate cleanly
    // across banks and mostly row-hit, so the banked channel earns
    // nearly the analytic streaming rate. The CAS pipeline fill and the
    // row-activation boundaries are the only extra costs.
    for memory in [MemoryKind::Ddr4, MemoryKind::Hbm2, MemoryKind::Hbm2e] {
        let w = dram_workload(8, 1 << 20, 0, 0);
        let (a, c) = both_modes(&w, memory);
        let ratio = c.cycles as f64 / a.cycles as f64;
        assert!(
            (0.95..2.0).contains(&ratio),
            "{memory:?}: streaming ratio {ratio:.3} (analytic {}, cycle {})",
            a.cycles,
            c.cycles
        );
        let stats = c.mem.expect("cycle mode surfaces stats");
        assert!(stats.row_hits > stats.row_conflicts, "{stats:?}");
    }
}

#[test]
fn random_only_never_beats_the_analytic_rate() {
    // The banked row-miss penalty is derived so all-miss throughput
    // sits at or below the analytic random efficiency; scattered reads
    // must therefore drain no faster than the closed form (tolerance
    // covers the final partial burst and pipeline drain).
    for memory in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
        let w = dram_workload(8, 0, 4096, 0);
        let (a, c) = both_modes(&w, memory);
        assert!(
            c.cycles as f64 >= a.cycles as f64 * 0.95,
            "{memory:?}: cycle {} < analytic {}",
            c.cycles,
            a.cycles
        );
        let stats = c.mem.expect("cycle mode surfaces stats");
        assert!(stats.row_conflicts > 0);
        assert!(stats.contention_cycles > 0);
    }
}

#[test]
fn atomic_heavy_pays_for_ag_serialization() {
    // Uniform scatter over the AG region coalesces poorly: each atomic
    // pays a fetch and (on eviction) a writeback through the AG's own
    // channel, plus locked read-after-writeback holds — the analytic
    // 128-bytes-per-atomic estimate is a floor here, not a ceiling.
    // Coalescing can legitimately undercut the closed form, so the
    // lower bound carries a generous tolerance; the AG burst counters
    // prove the traffic really flowed through the slab.
    for memory in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
        let w = dram_workload(8, 0, 0, 4096);
        let (a, c) = both_modes(&w, memory);
        assert!(
            c.cycles as f64 >= a.cycles as f64 * 0.5,
            "{memory:?}: cycle {} implausibly beat analytic {}",
            c.cycles,
            a.cycles
        );
        let stats = c.mem.expect("cycle mode surfaces stats");
        assert!(stats.ag_bursts_fetched > 0);
        assert!(stats.ag_bursts_written > 0);
        assert_eq!(stats.atomic_words, 8 * 4096);
    }
}

#[test]
fn mixed_traffic_overlaps_but_respects_the_bandwidth_floor() {
    // The analytic model serializes the stream and random components
    // (sum of transfer times); the banked channel genuinely overlaps
    // them, so the cycle-level drain may undercut the analytic *sum* —
    // but never the bandwidth floor of either component alone.
    let w = dram_workload(8, 1 << 19, 2048, 1024);
    for memory in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
        let (a, c) = both_modes(&w, memory);
        let stream_only = both_modes(&dram_workload(8, 1 << 19, 0, 0), memory).0;
        assert!(
            c.cycles >= stream_only.cycles,
            "{memory:?}: mixed cycle {} beat its streaming floor {}",
            c.cycles,
            stream_only.cycles
        );
        assert!(
            c.cycles as f64 >= a.cycles as f64 * 0.45,
            "{memory:?}: cycle {} fell below the analytic band ({})",
            c.cycles,
            a.cycles
        );
        assert!(
            c.cycles as f64 <= a.cycles as f64 * 3.0,
            "{memory:?}: cycle {} diverged above the analytic band ({})",
            c.cycles,
            a.cycles
        );
    }
}

#[test]
fn cycle_level_is_strictly_monotone_in_atomic_words() {
    // Sweeping only the atomic intensity (the banked traffic is
    // byte-identical across the sweep — the driver keeps independent
    // address streams for exactly this reason) must strictly increase
    // the cycle-level drain.
    for memory in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
        let mut last = None;
        for atomic_words in [512u64, 2048, 8192, 32_768] {
            let w = dram_workload(4, 1 << 16, 512, atomic_words);
            let (_, c) = both_modes(&w, memory);
            if let Some(prev) = last {
                assert!(
                    c.cycles > prev,
                    "{memory:?}: {atomic_words} atomic words gave {} cycles, not above {prev}",
                    c.cycles
                );
            }
            last = Some(c.cycles);
        }
    }
}

#[test]
fn modes_agree_exactly_when_memory_is_ideal() {
    let w = dram_workload(4, 1 << 18, 1024, 1024);
    let (a, c) = both_modes(&w, MemoryKind::Ideal);
    assert_eq!(
        a.cycles, c.cycles,
        "ideal memory must cost zero in both modes"
    );
    assert!(c.mem.is_none());
}

#[test]
fn one_channel_config_matches_the_single_channel_driver_exactly() {
    // `mem_channels = 1` must be bit-identical to the default
    // (pre-multi-channel) configuration, end to end through `simulate`:
    // same cycles, same breakdown, same rolled-up memory counters. The
    // committed golden pins in `tests/determinism_golden.rs` pin the
    // absolute values; this differential pins the config plumbing.
    let w = dram_workload(8, 1 << 18, 2048, 4096);
    for memory in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
        let mut default_cfg = CapstanConfig::new(memory);
        default_cfg.mem_timing = MemTiming::CycleLevel;
        let mut explicit = default_cfg;
        explicit.mem_channels = 1;
        assert_eq!(default_cfg.mem_channels, 1, "default must stay 1");
        let a = simulate(&w, &default_cfg);
        let b = simulate(&w, &explicit);
        assert_eq!(a, b, "{memory:?}: explicit channels=1 diverged");
        assert_eq!(a.mem.expect("stats").channels, 1);
    }
}

#[test]
fn cycles_never_increase_as_channels_grow_on_bank_parallel_traffic() {
    // Bank-parallel traffic (streaming rows plus region-scattered
    // random bursts plus atomics) gains service bandwidth with every
    // added region channel; the cycle-level drain must be monotonically
    // non-increasing across the sweep.
    let w = dram_workload(8, 1 << 18, 2048, 4096);
    for memory in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
        let mut last = u64::MAX;
        for channels in [1usize, 2, 4, 8] {
            let mut cfg = CapstanConfig::new(memory);
            cfg.mem_timing = MemTiming::CycleLevel;
            cfg.mem_channels = channels;
            let r = simulate(&w, &cfg);
            assert!(
                r.cycles <= last,
                "{memory:?}: {channels} channels took {} cycles, more than {last}",
                r.cycles
            );
            assert_eq!(r.mem.expect("stats").channels, channels as u64);
            last = r.cycles;
        }
    }
}

#[test]
fn four_channels_strictly_beat_one_on_atomic_heavy_traffic() {
    // The acceptance shape of the `table13-channels` experiment:
    // atomic serialization is a per-region effect, so four AG regions
    // must drain an atomic-heavy batch strictly faster than one.
    for memory in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
        let w = dram_workload(8, 1 << 16, 512, 16_384);
        let mut one = CapstanConfig::new(memory);
        one.mem_timing = MemTiming::CycleLevel;
        one.mem_channels = 1;
        let mut four = one;
        four.mem_channels = 4;
        let r1 = simulate(&w, &one);
        let r4 = simulate(&w, &four);
        assert!(
            r4.cycles < r1.cycles,
            "{memory:?}: 4 channels ({}) must strictly beat 1 ({})",
            r4.cycles,
            r1.cycles
        );
    }
}

#[test]
fn atomic_monotonicity_holds_at_every_channel_count() {
    // The strict atomic-intensity monotonicity contract (the banked
    // traffic is byte-identical across the sweep; only the atomic
    // stream grows) must survive the multi-channel generalization: the
    // atomic address stream spans all regions, so a longer sweep is a
    // superset prefix regardless of how many AGs it steers to.
    for channels in [1usize, 2, 4] {
        let mut last = None;
        for atomic_words in [512u64, 2048, 8192, 32_768] {
            let w = dram_workload(4, 1 << 16, 512, atomic_words);
            let mut cfg = CapstanConfig::new(MemoryKind::Hbm2e);
            cfg.mem_timing = MemTiming::CycleLevel;
            cfg.mem_channels = channels;
            let r = simulate(&w, &cfg);
            if let Some(prev) = last {
                assert!(
                    r.cycles > prev,
                    "{channels} channels: {atomic_words} atomic words gave {} cycles, not above {prev}",
                    r.cycles
                );
            }
            last = Some(r.cycles);
        }
    }
}

/// Builds a workload whose atomic addresses are *recorded*:
/// `hub_permille`/1000 of the updates hit a 64-word hot set, the rest
/// stride over a wide region (deterministic, no RNG needed).
fn recorded_atomic_workload(tiles: usize, atomic_words: u64, hub_permille: u64) -> Workload {
    let mut wl = WorkloadBuilder::new("recorded-grid");
    for tile in 0..tiles as u64 {
        let mut t = wl.tile();
        t.foreach_vec(256, |_, _| {});
        t.dram_stream_read(1 << 14);
        for i in 0..atomic_words {
            let addr = if (i * 997 + tile) % 1000 < hub_permille {
                (i * 31 + tile) % 64 // the hot set
            } else {
                ((i * 7919) ^ (tile << 17)) % (1 << 22)
            };
            t.dram_atomic_at(addr);
        }
        wl.commit(t);
    }
    wl.finish()
}

fn with_addressing(memory: MemoryKind, addresses: MemAddressing) -> CapstanConfig {
    let mut cfg = CapstanConfig::new(memory);
    cfg.mem_timing = MemTiming::CycleLevel;
    cfg.mem_addresses = addresses;
    cfg
}

#[test]
fn recorded_addressing_never_loses_to_synthetic_on_skewed_kernels() {
    // Hub-heavy recorded streams coalesce in the AGs' open-burst caches;
    // the uniform synthetic spray cannot, so the recorded drain must be
    // no slower — and strictly faster at heavy skew.
    for memory in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
        let w = recorded_atomic_workload(4, 4096, 875);
        let s = simulate(&w, &with_addressing(memory, MemAddressing::Synthetic));
        let r = simulate(&w, &with_addressing(memory, MemAddressing::Recorded));
        assert!(
            r.cycles <= s.cycles,
            "{memory:?}: recorded {} exceeded synthetic {}",
            r.cycles,
            s.cycles
        );
        let (sm, rm) = (s.mem.expect("stats"), r.mem.expect("stats"));
        assert_eq!(sm.atomic_words, rm.atomic_words, "word counts conserved");
        assert!(
            rm.ag_bursts_fetched < sm.ag_bursts_fetched,
            "{memory:?}: hub replay must coalesce ({} vs {} fetches)",
            rm.ag_bursts_fetched,
            sm.ag_bursts_fetched
        );
    }
}

#[test]
fn recorded_addressing_without_recordings_matches_synthetic_exactly() {
    // Count-only workloads record no addresses, so the recorded mode
    // must fall back to the synthetic streams bit-for-bit — the
    // contract that keeps every committed golden pin valid.
    let w = dram_workload(8, 1 << 18, 2048, 4096);
    for memory in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
        let s = simulate(&w, &with_addressing(memory, MemAddressing::Synthetic));
        let r = simulate(&w, &with_addressing(memory, MemAddressing::Recorded));
        assert_eq!(s, r, "{memory:?}: fallback diverged from synthetic");
    }
}

#[test]
fn recorded_addressing_agrees_with_synthetic_on_ideal_memory() {
    // Ideal memory skips the cycle-level driver entirely; the
    // addressing mode must not matter.
    let w = recorded_atomic_workload(4, 2048, 875);
    let s = simulate(
        &w,
        &with_addressing(MemoryKind::Ideal, MemAddressing::Synthetic),
    );
    let r = simulate(
        &w,
        &with_addressing(MemoryKind::Ideal, MemAddressing::Recorded),
    );
    assert_eq!(s.cycles, r.cycles);
    assert!(s.mem.is_none() && r.mem.is_none());
}

#[test]
fn recorded_replay_is_bit_reproducible() {
    // Two recorded-mode simulations of the same workload must agree
    // bit-for-bit — the golden pins and the CI `CAPSTAN_THREADS`
    // byte-diff build on this (the cross-thread half lives in
    // `crates/bench/tests/sampling_determinism.rs`, which needs
    // `capstan_par`).
    let w = recorded_atomic_workload(8, 2048, 500);
    let cfg = with_addressing(MemoryKind::Hbm2e, MemAddressing::Recorded);
    let a = simulate(&w, &cfg);
    let b = simulate(&w, &cfg);
    assert_eq!(a, b);
}

#[test]
fn cycle_level_report_is_reproducible() {
    // Two simulations of the same workload must agree bit-for-bit —
    // the determinism contract golden tests and CI byte-diffs build on.
    let w = dram_workload(8, 1 << 18, 2048, 4096);
    let (_, c1) = both_modes(&w, MemoryKind::Hbm2e);
    let (_, c2) = both_modes(&w, MemoryKind::Hbm2e);
    assert_eq!(c1, c2);
}
