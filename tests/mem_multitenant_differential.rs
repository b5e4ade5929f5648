//! Differential invariants for multi-tenant memory traffic.
//!
//! The tenant-aware driver (`capstan_arch::memdrv`) interleaves N
//! tenants' replay buffers through one cycle-level memory system. Four
//! contracts pin it down:
//!
//! * **Single-tenant identity**: `tenants = 1` must reproduce the
//!   pre-tenant driver bit-for-bit — same mid-run and final stats, same
//!   per-channel stats, same end-to-end `PerfReport` — whether the
//!   traffic arrives through the legacy `add_tile` API or the explicit
//!   `TenantId(0)` one. Every committed golden pin rides on this.
//! * **Dedicated isolation**: under `TenantPartition::Dedicated` each
//!   tenant owns a private channel group, so a tenant's entire stat
//!   block is independent of the co-tenant's load.
//! * **Shared contention floor**: shared channels can only add
//!   contention — the combined drain takes at least as long as the
//!   slowest tenant running alone on the same geometry.
//! * **Per-tenant conservation**: every word a tenant submits is
//!   completed and attributed back to that tenant, and the latency
//!   histogram carries exactly the completed count.
//!
//! A proptest additionally pins registration-order independence: tiles
//! registered in any interleaving across tenants (preserving each
//! tenant's own order) produce identical stats, per-tenant stats and
//! per-channel stats.

use capstan::arch::memdrv::{
    MemSysConfig, MemSysSim, TenantId, TenantPartition, TenantStats, TileTraffic,
};
use capstan::core::config::{CapstanConfig, MemTiming, MemoryKind};
use capstan::core::perf::simulate;
use capstan::core::program::{Workload, WorkloadBuilder};
use capstan::sim::dram::DramModel;
use proptest::prelude::*;

/// A one-knob DRAM workload (`tiles` identical tiles), as in
/// `mem_mode_differential.rs`.
fn dram_workload(
    tiles: usize,
    stream_bytes: usize,
    random_words: u64,
    atomic_words: u64,
) -> Workload {
    let mut wl = WorkloadBuilder::new("mt-grid");
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

fn cycle_cfg(memory: MemoryKind) -> CapstanConfig {
    let mut cfg = CapstanConfig::new(memory);
    cfg.mem_timing = MemTiming::CycleLevel;
    cfg
}

#[test]
fn single_tenant_is_bit_identical_to_the_pre_tenant_driver() {
    // Driver level: the legacy API, the explicit-tenant API, and the
    // explicit 1-tenant config must produce the same stats after the
    // same mid-run cut and at the end of the drain.
    let model = DramModel::new(capstan::sim::dram::MemoryKind::Hbm2e);
    let traffic = TileTraffic {
        stream_bursts: 700,
        random_bursts: 500,
        atomic_words: 900,
    };
    let mut reference = MemSysSim::new(model);
    reference.add_tile(traffic);
    let cut = reference.run().cycles / 2;
    let mut legacy = MemSysSim::new(model);
    legacy.add_tile(traffic);
    let mut explicit = MemSysSim::with_config(
        model,
        MemSysConfig::with_tenants(&model, 1, 1, TenantPartition::Shared),
    );
    explicit.add_tile_for(TenantId(0), traffic);
    // Same mid-run stats...
    for _ in 0..cut {
        legacy.tick();
        explicit.tick();
    }
    assert!(
        !legacy.is_done() && !explicit.is_done(),
        "cut must be mid-run"
    );
    assert_eq!(legacy.stats(), explicit.stats(), "mid-run stats diverged");
    assert_eq!(legacy.channel_stats(0), explicit.channel_stats(0));
    // ...and the same final stats.
    assert_eq!(legacy.run(), explicit.run());
    assert_eq!(
        legacy.tenant_stats(TenantId(0)),
        explicit.tenant_stats(TenantId(0))
    );
    assert_eq!(legacy.channel_stats(0), explicit.channel_stats(0));
}

#[test]
fn single_tenant_config_is_identical_end_to_end() {
    // `mem_tenants = 1` (the default) vs an explicitly set 1 must be
    // indistinguishable through the full `simulate` stack, and the
    // report's tenant vector must carry the whole traffic.
    let w = dram_workload(8, 1 << 18, 2048, 4096);
    for memory in [MemoryKind::Ddr4, MemoryKind::Hbm2e] {
        let default_cfg = cycle_cfg(memory);
        assert_eq!(default_cfg.mem_tenants, 1, "default must stay 1");
        let mut explicit = default_cfg;
        explicit.mem_tenants = 1;
        let a = simulate(&w, &default_cfg);
        let b = simulate(&w, &explicit);
        assert_eq!(a, b, "{memory:?}: explicit tenants=1 diverged");
        assert_eq!(a.mem_tenants.len(), 1);
        let t = &a.mem_tenants[0];
        assert_eq!(t.submitted, t.completed, "{memory:?}: conservation");
        assert!(t.submitted > 0);
    }
}

#[test]
fn dedicated_partition_isolates_tenants_end_to_end() {
    // Two-tenant dedicated run through `simulate`: tiles alternate
    // between the tenants (the perf engine's round-robin attribution),
    // so changing only the odd tiles' traffic must leave tenant 0's
    // stat block untouched.
    let build = |odd_atomic: u64| {
        let mut wl = WorkloadBuilder::new("mt-iso");
        for i in 0..8u64 {
            let mut t = wl.tile();
            t.foreach_vec(256, |_, _| {});
            if i % 2 == 0 {
                t.dram_stream_read(1 << 16);
                t.dram_random_read(512);
                t.dram_atomic(256);
            } else {
                t.dram_stream_read(1 << 14);
                t.dram_atomic(odd_atomic);
            }
            wl.commit(t);
        }
        wl.finish()
    };
    let mut cfg = cycle_cfg(MemoryKind::Hbm2e);
    cfg.mem_channels = 2;
    cfg.mem_tenants = 2;
    cfg.mem_tenant_partition = TenantPartition::Dedicated;
    let light = simulate(&build(16), &cfg);
    let heavy = simulate(&build(8192), &cfg);
    assert_eq!(
        light.mem_tenants[0], heavy.mem_tenants[0],
        "dedicated tenant 0 must not see tenant 1's load"
    );
    assert_ne!(
        light.mem_tenants[1], heavy.mem_tenants[1],
        "tenant 1's own stats must track its own load"
    );
}

#[test]
fn shared_channels_cost_at_least_the_slowest_tenant_alone() {
    // Contention floor: a tenant running alone on the same 2-tenant
    // shared geometry (co-tenant empty, so every address and seed stays
    // identical) is a lower bound on the combined drain.
    let model = DramModel::new(capstan::sim::dram::MemoryKind::Hbm2e);
    let a = TileTraffic {
        stream_bursts: 500,
        random_bursts: 800,
        atomic_words: 1200,
    };
    let b = TileTraffic {
        stream_bursts: 2500,
        random_bursts: 200,
        atomic_words: 100,
    };
    let cfg = MemSysConfig::with_tenants(&model, 2, 2, TenantPartition::Shared);
    let alone = |tenant: usize, traffic: TileTraffic| {
        let mut sim = MemSysSim::with_config(model, cfg);
        sim.add_tile_for(TenantId(tenant), traffic);
        sim.run().cycles
    };
    let mut both = MemSysSim::with_config(model, cfg);
    both.add_tile_for(TenantId(0), a);
    both.add_tile_for(TenantId(1), b);
    let combined = both.run().cycles;
    let floor = alone(0, a).max(alone(1, b));
    assert!(
        combined >= floor,
        "shared drain {combined} beat the slowest-alone floor {floor}"
    );
}

#[test]
fn per_tenant_served_words_are_conserved_end_to_end() {
    // Every word a tenant's tiles queue must come back attributed to
    // that tenant, for 2 and 3 tenants, shared and dedicated.
    let w = dram_workload(9, 1 << 15, 1024, 2048);
    for (tenants, channels, partition) in [
        (2usize, 1usize, TenantPartition::Shared),
        (2, 4, TenantPartition::Dedicated),
        (3, 1, TenantPartition::Shared),
        (3, 3, TenantPartition::Dedicated),
    ] {
        let mut cfg = cycle_cfg(MemoryKind::Hbm2e);
        cfg.mem_channels = channels;
        cfg.mem_tenants = tenants;
        cfg.mem_tenant_partition = partition;
        let r = simulate(&w, &cfg);
        assert_eq!(r.mem_tenants.len(), tenants);
        let mut total = 0u64;
        for (t, s) in r.mem_tenants.iter().enumerate() {
            assert_eq!(
                s.submitted, s.completed,
                "{partition:?}/{tenants}: tenant {t} conservation"
            );
            assert_eq!(
                s.queued_stream_bursts + s.queued_random_bursts + s.queued_atomic_words,
                s.submitted,
                "{partition:?}/{tenants}: tenant {t} queued == submitted"
            );
            assert_eq!(s.latency_hist.iter().sum::<u64>(), s.completed);
            total += s.completed;
        }
        let m = r.mem.expect("cycle mode surfaces stats");
        assert_eq!(
            total,
            m.stream_bursts + m.random_bursts + m.atomic_words,
            "{partition:?}/{tenants}: tenant stats must partition the traffic"
        );
    }
}

/// Compact generator for a tenant-tagged tile list: each entry is
/// (tenant index, traffic) with small word counts so a proptest case
/// stays fast.
fn tile_list(tenants: usize) -> impl Strategy<Value = Vec<(usize, TileTraffic)>> {
    prop::collection::vec(
        (0..tenants, 0u64..60, 0u64..60, 0u64..60).prop_map(|(t, s, r, a)| {
            (
                t,
                TileTraffic {
                    stream_bursts: s,
                    random_bursts: r,
                    atomic_words: a,
                },
            )
        }),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Registration order across tenants is irrelevant: a stable
    /// re-grouping by tenant (which preserves each tenant's own tile
    /// order) must leave the run — stats, per-tenant stats, per-channel
    /// stats — bit-identical to the interleaved registration.
    #[test]
    fn interleaved_registration_matches_grouped_registration(
        tiles in tile_list(3),
        partition_dedicated in any::<bool>(),
    ) {
        let model = DramModel::new(capstan::sim::dram::MemoryKind::Hbm2e);
        let partition = if partition_dedicated {
            TenantPartition::Dedicated
        } else {
            TenantPartition::Shared
        };
        let cfg = MemSysConfig::with_tenants(&model, 3, 3, partition);
        let run_order = |order: &[(usize, TileTraffic)]| {
            let mut sim = MemSysSim::with_config(model, cfg);
            for &(t, traffic) in order {
                sim.add_tile_for(TenantId(t), traffic);
            }
            let stats = sim.run();
            let per: Vec<TenantStats> =
                (0..3).map(|t| sim.tenant_stats(TenantId(t))).collect();
            let channels: Vec<_> = (0..cfg.channels).map(|i| sim.channel_stats(i)).collect();
            (stats, per, channels)
        };
        let mut grouped = tiles.clone();
        grouped.sort_by_key(|&(t, _)| t); // stable: within-tenant order kept
        prop_assert_eq!(run_order(&tiles), run_order(&grouped));
    }
}
