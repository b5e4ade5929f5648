//! The savestate differential proof: saving the cycle-level memory
//! system at a mid-run cut point, restoring the snapshot into a
//! **fresh** driver, and continuing must be bit-identical to never
//! having stopped — same final statistics, same exact cycle count —
//! for every topology (1 and 4 region channels) and both scattered
//! address sources (synthetic streams and recorded vectors), at
//! deterministic cut points and at proptest-chosen ones.
//!
//! This is the contract the crash-safe experiment harness
//! (`experiments --resume`) and the checkpoint/fault-injection knobs
//! (`CAPSTAN_CHECKPOINT_DIR`, `CAPSTAN_FAULT_AFTER_CYCLES`) stand on:
//! if a restored continuation diverged by even one cycle, a resumed
//! sweep could not byte-diff clean against an uninterrupted one.

use capstan_arch::memdrv::{
    MemStats, MemSysConfig, MemSysSim, TenantId, TenantPartition, TenantStats, TileTraffic,
};
use capstan_sim::dram::{DramModel, MemoryKind};
use proptest::prelude::*;

/// Builds a driver with `channels` region channels and the given
/// traffic queued, from recorded vectors when `recorded` is true.
fn build(channels: usize, traffic: TileTraffic, recorded: bool) -> MemSysSim {
    let model = DramModel::new(MemoryKind::Hbm2e);
    let mut sim = MemSysSim::with_config(model, MemSysConfig::with_channels(&model, channels));
    if recorded {
        // A skewed sample: hub words plus a strided tail, so the replay
        // exercises coalescing and eviction, not just uniform spray.
        let random: Vec<u64> = (0..96u64).map(|i| (i * 7919) % (1 << 18)).collect();
        let atomic: Vec<u64> = (0..96u64)
            .map(|i| if i % 3 == 0 { i % 48 } else { i * 131 })
            .collect();
        sim.add_tile_recorded(traffic, &random, &atomic);
    } else {
        sim.add_tile(traffic);
    }
    sim
}

/// Runs the uninterrupted reference, then replays the same workload
/// with a save at `cut` cycles restored into a fresh driver, and
/// asserts the continuation is bit-identical.
fn prove_cut(channels: usize, traffic: TileTraffic, recorded: bool, cut: u64) -> MemStats {
    let mut reference = build(channels, traffic, recorded);
    let want = reference.run();

    let mut original = build(channels, traffic, recorded);
    let done_early = original.step(cut);
    let bytes = original.save_state();

    let mut resumed = build(channels, traffic, recorded);
    // Restore clobbers the queued traffic with the snapshot's own
    // mid-run state, so pre-queuing above only shapes construction.
    resumed
        .restore_state(&bytes)
        .expect("snapshot must restore into a same-config driver");
    assert_eq!(resumed.cycle(), original.cycle(), "cut not restored");
    let got = resumed.run();
    assert_eq!(
        got, want,
        "{channels}ch recorded={recorded}: resume at cycle {cut} diverged \
         (done_early={done_early})"
    );
    assert!(resumed.is_done());
    want
}

#[test]
fn resume_is_bit_identical_at_three_cut_points_per_config() {
    let traffic = TileTraffic {
        stream_bursts: 600,
        random_bursts: 400,
        atomic_words: 800,
    };
    for channels in [1usize, 4] {
        for recorded in [false, true] {
            // Discover the run length, then cut at 25%, 50%, and 75%.
            let mut probe = build(channels, traffic, recorded);
            let total = probe.run().cycles;
            assert!(total > 8, "workload too small to cut meaningfully");
            for quarter in [1u64, 2, 3] {
                prove_cut(channels, traffic, recorded, total * quarter / 4);
            }
        }
    }
}

/// Builds a multi-tenant driver: tenant `t` gets one tile with a mix
/// skewed by `t` so the tenant scheduler has real arbitration to do.
fn build_tenants(tenants: usize, channels: usize, partition: TenantPartition) -> MemSysSim {
    let model = DramModel::new(MemoryKind::Hbm2e);
    let cfg = MemSysConfig::with_tenants(&model, channels, tenants, partition);
    let mut sim = MemSysSim::with_config(model, cfg);
    for t in 0..tenants {
        sim.add_tile_for(
            TenantId(t),
            TileTraffic {
                stream_bursts: 350 + 120 * t as u64,
                random_bursts: 250_u64.saturating_sub(70 * t as u64),
                atomic_words: 400 + 53 * t as u64,
            },
        );
    }
    sim
}

#[test]
fn multi_tenant_resume_is_bit_identical_at_quarter_cuts() {
    // The v2 snapshot carries per-tenant cursors, the round-robin
    // schedule position, the latency-attribution ring, and every
    // `TenantStats` block; a mid-run restore must put all of it back so
    // the continuation — including the per-tenant stats, not just the
    // aggregate — is indistinguishable from never stopping.
    for (tenants, channels, partition) in [
        (2usize, 1usize, TenantPartition::Shared),
        (2, 4, TenantPartition::Dedicated),
        (3, 3, TenantPartition::Dedicated),
    ] {
        let per = |sim: &MemSysSim| -> Vec<TenantStats> {
            (0..tenants)
                .map(|t| sim.tenant_stats(TenantId(t)))
                .collect()
        };
        let mut reference = build_tenants(tenants, channels, partition);
        let want = reference.run();
        let want_per = per(&reference);
        assert!(want.cycles > 8, "workload too small to cut meaningfully");
        for quarter in [1u64, 2, 3] {
            let cut = want.cycles * quarter / 4;
            let mut original = build_tenants(tenants, channels, partition);
            original.step(cut);
            let bytes = original.save_state();
            let mut resumed = build_tenants(tenants, channels, partition);
            resumed
                .restore_state(&bytes)
                .expect("multi-tenant snapshot must restore into a same-config driver");
            assert_eq!(resumed.cycle(), original.cycle(), "cut not restored");
            assert_eq!(
                resumed.run(),
                want,
                "{partition:?}/{tenants}t/{channels}ch: resume at {cut} diverged"
            );
            assert_eq!(
                per(&resumed),
                want_per,
                "{partition:?}/{tenants}t/{channels}ch: per-tenant stats diverged at {cut}"
            );
        }
    }
}

#[test]
fn resume_at_the_boundaries_is_bit_identical_too() {
    let traffic = TileTraffic {
        stream_bursts: 300,
        random_bursts: 200,
        atomic_words: 300,
    };
    // Cut at cycle 0 (nothing simulated yet) and far past the drain
    // (snapshot of a finished run): both degenerate cases must hold.
    prove_cut(1, traffic, false, 0);
    prove_cut(1, traffic, false, u64::MAX);
}

#[test]
fn step_budgets_reproduce_one_uninterrupted_run() {
    // `CAPSTAN_CHECKPOINT_EVERY_CYCLES` drives the drain through bounded
    // `step` slices; wherever the slice boundaries fall, the tick
    // sequence must be the one a single `run` call performs.
    let traffic = TileTraffic {
        stream_bursts: 400,
        random_bursts: 300,
        atomic_words: 500,
    };
    for kind in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
        let fresh = || {
            let mut sim = MemSysSim::new(DramModel::new(kind));
            sim.add_tile(traffic);
            sim
        };
        let want = fresh().run();
        for budget in [1u64, 7, 64, 1000, 1023] {
            let mut sliced = fresh();
            while !sliced.step(budget) {}
            assert_eq!(
                sliced.finish_run(),
                want,
                "{kind:?}: budget {budget} changed the run"
            );
            assert!(sliced.is_done());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resume_is_bit_identical_at_any_cut(
        stream in 0u64..800,
        random in 0u64..600,
        atomic in 0u64..1000,
        channels in prop::sample::select(vec![1usize, 4]),
        recorded in any::<bool>(),
        // Cut fraction in thousandths of the total run length.
        frac in 0u64..1000,
    ) {
        let traffic = TileTraffic {
            stream_bursts: stream,
            random_bursts: random,
            atomic_words: atomic,
        };
        let mut probe = build(channels, traffic, recorded);
        let total = probe.run().cycles;
        prove_cut(channels, traffic, recorded, total * frac / 1000);
    }
}
