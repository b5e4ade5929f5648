//! Proves the simulation hot loops perform **zero heap allocations in
//! steady state**, for every issue mode, using a counting global
//! allocator:
//!
//! * `Spmu::tick` — the scratch-buffer refactor's acceptance gate: the
//!   naive loop allocated several `Vec`s per tick (`finished_addrs`,
//!   allocator masks/grants, per-entry lane states, completion results),
//!   which this harness would count in the tens of thousands. With the
//!   `TickScratch` + buffer-pool design the count must be exactly zero
//!   once the pools reach their high-water mark.
//! * `AddressGenerator::tick` — the slab-indexed burst table must not
//!   touch the heap once slots, waiter lists, and result buffers reach
//!   their high-water mark, even under eviction/writeback pressure.
//! * `ButterflyNetwork::route_ref` — repeated routing through one
//!   `RouteScratch` must reuse its arenas for every merge-shift mode.
//! * `MemSysSim::tick` — the cycle-level memory mode's driver, in both
//!   the single-channel and multi-channel topologies: the region
//!   channels' queues are fixed at construction and each AG's
//!   slab/arena high-water marks are bounded by the per-AG
//!   outstanding-atomic window, so steady-state ticks must not touch
//!   the heap.
//! * `MemSysSim::reset` + replay — the persistent driver pool's reuse
//!   path (`capstan_core::perf` checks a pooled driver out and resets
//!   it instead of constructing one per `simulate` call): a reset must
//!   release no capacity, so a warmed driver's entire reset → add-tile
//!   → run round trip stays off the heap.
//! * `MemSysSim::add_tile_recorded` + run — the recorded-address replay
//!   (`CapstanConfig::mem_addresses = Recorded`): the per-class replay
//!   buffers retain capacity across `reset` and the cyclic cursor
//!   replay adds no per-access state, so replaying recorded vectors is
//!   as allocation-free as the synthetic streams.
//!
//! The tests live in their own integration-test binary because a
//! `#[global_allocator]` is process-wide. The allocator counts per
//! thread, so each test reads only its own thread's allocations and the
//! proofs hold under the parallel test runner on any core count.

use capstan_arch::ag::{AddressGenerator, DramAccess, BURST_WORDS};
use capstan_arch::memdrv::{MemSysConfig, MemSysSim, TenantId, TenantPartition, TileTraffic};
use capstan_arch::shuffle::{
    ButterflyNetwork, MergeShift, RouteScratch, ShuffleConfig, ShuffleEntry, ShuffleVector,
};
use capstan_arch::spmu::driver::TraceRng;
use capstan_arch::spmu::{AccessVector, LaneRequest, OrderingMode, RmwOp, Spmu, SpmuConfig};
use capstan_sim::dram::{DramModel, MemoryKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // `const` with a `Drop`-free type: no lazy init and no destructor,
    // so touching it from inside the allocator can never allocate or
    // fail, even while a thread is being torn down.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is the one the caller already meets; the
// only extra work is bumping a thread-local counter, which neither
// allocates nor touches the memory being handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Drives `spmu` with a saturating random read/RMW stream for `cycles`
/// cycles, reusing one vector buffer (the same discipline the trace
/// drivers use).
fn drive(spmu: &mut Spmu, rng: &mut TraceRng, vector: &mut AccessVector, cycles: u64, rmw: bool) {
    let cfg = *spmu.config();
    let span = cfg.capacity_words() as u64;
    let mut pending = false;
    for _ in 0..cycles {
        if !pending {
            vector.lanes.clear();
            vector.lanes.extend((0..cfg.lanes).map(|_| {
                let addr = rng.below(span) as u32;
                Some(if rmw && addr.is_multiple_of(3) {
                    LaneRequest::rmw(addr, RmwOp::AddF, 1.0)
                } else {
                    LaneRequest::read(addr)
                })
            }));
        }
        pending = !spmu.try_enqueue(vector);
        let _ = spmu.tick();
    }
}

#[test]
fn steady_state_tick_is_allocation_free() {
    for ordering in [
        OrderingMode::Unordered,
        OrderingMode::AddressOrdered,
        OrderingMode::FullyOrdered,
        OrderingMode::Arbitrated,
    ] {
        let cfg = SpmuConfig {
            ordering,
            ..Default::default()
        };
        let mut spmu = Spmu::new(cfg);
        let mut rng = TraceRng::new(0xA110C);
        let mut vector = AccessVector::default();
        // Warm-up: scratch buffers and pools grow to their high-water
        // mark here (vector splits, queue-entry recycling, allocator
        // masks).
        drive(&mut spmu, &mut rng, &mut vector, 2_000, true);

        let before = allocations();
        drive(&mut spmu, &mut rng, &mut vector, 10_000, true);
        let during = allocations() - before;
        assert_eq!(
            during, 0,
            "{ordering:?}: {during} heap allocations in 10k steady-state cycles"
        );
    }
}

/// Drives `ag` with a mixed-op random stream for `ticks` cycles. Low
/// open-burst capacity keeps evictions, writebacks, and
/// read-after-writeback holds continuously active, so every state
/// transition of the slab is exercised.
fn drive_ag(ag: &mut AddressGenerator, rng: &mut TraceRng, ticks: u64, submitted: &mut u64) {
    for _ in 0..ticks {
        if rng.below(2) == 0 {
            let addr = rng.below(4096);
            let op = match rng.below(6) {
                0 => RmwOp::Read,
                1 => RmwOp::AddF,
                2 => RmwOp::Write,
                3 => RmwOp::MinReportChanged,
                4 => RmwOp::TestAndSet,
                _ => RmwOp::SubF,
            };
            ag.submit(DramAccess {
                addr,
                op,
                operand: rng.below(100) as f32,
                tag: *submitted,
            });
            *submitted += 1;
        }
        let _ = ag.tick();
    }
}

#[test]
fn ag_steady_state_tick_is_allocation_free() {
    // Sweep open-burst capacities: 1 maximizes writeback/refetch churn,
    // larger values exercise the resident FIFO and clean evictions.
    for capacity in [1, 2, 8] {
        let mut ag = AddressGenerator::new(DramModel::new(MemoryKind::Hbm2e), 4096, capacity);
        let mut rng = TraceRng::new(0xA6_0000 + capacity as u64);
        let mut submitted = 0u64;
        // Warm-up: slab, waiter lists, retry/result buffers, and the
        // completion scratch grow to their high-water mark here. The
        // per-slot waiter-list maxima are reached stochastically, so the
        // warm-up must be long relative to the measurement window; the
        // deterministic RNG makes the resulting count exact, not flaky.
        drive_ag(&mut ag, &mut rng, 40_000, &mut submitted);

        let before = allocations();
        drive_ag(&mut ag, &mut rng, 10_000, &mut submitted);
        let during = allocations() - before;
        assert_eq!(
            during, 0,
            "capacity {capacity}: {during} heap allocations in 10k steady-state AG cycles"
        );
        assert!(
            ag.bursts_written() > 0,
            "workload must exercise the writeback path"
        );
    }
}

#[test]
fn ag_flush_after_warmup_is_allocation_free() {
    let mut ag = AddressGenerator::new(DramModel::new(MemoryKind::Hbm2e), 1 << 12, 4);
    let mut rng = TraceRng::new(0xF1_005);
    let mut submitted = 0u64;
    drive_ag(&mut ag, &mut rng, 40_000, &mut submitted);
    // One flush/drain round trip warms the flush scratch.
    ag.flush();
    drive_ag(&mut ag, &mut rng, 2_000, &mut submitted);

    let before = allocations();
    ag.flush();
    for _ in 0..10_000 {
        let _ = ag.tick();
        if ag.is_idle() {
            break;
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "flush + drain allocated after warm-up"
    );
}

/// Deterministic random per-port streams (borrowed by `route_ref`).
fn shuffle_streams(cfg: &ShuffleConfig, vectors: usize, seed: u64) -> Vec<Vec<ShuffleVector>> {
    let mut rng = TraceRng::new(seed);
    (0..cfg.ports)
        .map(|_| {
            (0..vectors)
                .map(|_| {
                    (0..cfg.lanes)
                        .map(|l| {
                            (rng.below(3) == 0).then(|| ShuffleEntry {
                                dest: rng.below(cfg.ports as u64) as u32,
                                lane: l,
                            })
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[test]
fn route_ref_steady_state_is_allocation_free() {
    for shift in [MergeShift::None, MergeShift::One, MergeShift::Full] {
        let cfg = ShuffleConfig {
            shift,
            ..Default::default()
        };
        let net = ButterflyNetwork::new(cfg);
        let owned = shuffle_streams(&cfg, 20, 0x0DD_BA11);
        let streams: Vec<Vec<&ShuffleVector>> = owned.iter().map(|s| s.iter().collect()).collect();
        let mut scratch = RouteScratch::default();
        // Warm-up: arenas and link lists grow to their high-water mark.
        let golden = net.route_ref(&streams, &mut scratch).clone();

        let before = allocations();
        for _ in 0..50 {
            let r = net.route_ref(&streams, &mut scratch);
            assert_eq!(r.cycles, golden.cycles);
        }
        let during = allocations() - before;
        assert_eq!(
            during,
            0,
            "{}: {during} heap allocations in 50 steady-state route_ref calls",
            shift.name()
        );
    }
}

#[test]
fn memsys_steady_state_tick_is_allocation_free() {
    for (kind, channels) in [
        (MemoryKind::Hbm2e, 1),
        (MemoryKind::Ddr4, 1),
        // The multi-channel topology: four region channels and four
        // per-region AGs all churning at once.
        (MemoryKind::Hbm2e, 4),
        (MemoryKind::Ddr4, 4),
    ] {
        let model = DramModel::new(kind);
        let mut sim = MemSysSim::with_config(model, MemSysConfig::with_channels(&model, channels));
        // All three traffic classes active so streams, scattered reads,
        // the AG slab, waiter lists, evictions, and writebacks all churn
        // during the measured window.
        sim.add_tile(TileTraffic {
            stream_bursts: 100_000,
            random_bursts: 100_000,
            atomic_words: 100_000,
        });
        // Warm-up: the AG's slab, waiter arena, and result buffers grow
        // to their high-water marks here (the banked channel is fully
        // pre-sized at construction).
        for _ in 0..40_000 {
            sim.tick();
        }
        let before = allocations();
        for _ in 0..10_000 {
            sim.tick();
        }
        let during = allocations() - before;
        assert_eq!(
            during, 0,
            "{kind:?}/{channels}ch: {during} heap allocations in 10k steady-state memory-system cycles"
        );
        let stats = sim.stats();
        assert!(stats.ag_bursts_written > 0, "writeback path not exercised");
        assert!(stats.row_conflicts > 0, "row-conflict path not exercised");
    }
}

#[test]
fn memsys_persistent_reset_and_rerun_is_allocation_free() {
    // The persistent driver pool in `capstan_core::perf` reuses one
    // `MemSysSim` per (model, geometry) by resetting it before each
    // `simulate` call. After a warm-up batch has grown every buffer to
    // its high-water mark, the entire reuse round trip — reset, re-add
    // tiles, run to drain including the AG flush — must stay off the
    // heap. Covers both the default and the multi-channel topology.
    for channels in [1usize, 4] {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let mut sim = MemSysSim::with_config(model, MemSysConfig::with_channels(&model, channels));
        let batch = TileTraffic {
            stream_bursts: 2_000,
            random_bursts: 2_000,
            atomic_words: 8_000,
        };
        // Warm-up: two full reuse cycles reach the slab and waiter-arena
        // high-water marks (stochastic, so warm-up exceeds the measured
        // batch; the deterministic address streams make the final count
        // exact, not flaky).
        let mut golden = None;
        for _ in 0..2 {
            sim.reset();
            sim.add_tile(batch);
            golden = Some(sim.run());
        }
        let before = allocations();
        sim.reset();
        sim.add_tile(batch);
        let stats = sim.run();
        assert_eq!(
            allocations() - before,
            0,
            "{channels}ch: reset + replay allocated after warm-up"
        );
        assert_eq!(
            Some(stats),
            golden,
            "{channels}ch: reused driver diverged from its warm-up run"
        );
    }
}

#[test]
fn memsys_recorded_replay_is_allocation_free() {
    // The recorded-address replay path (`add_tile_recorded` + run) must
    // stay off the heap in steady state too: the per-class replay
    // buffers keep their capacity across `reset`, so re-queueing the
    // same recorded tiles only copies into warmed storage, and the
    // cyclic cursor replay allocates nothing by construction.
    for channels in [1usize, 4] {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let mut sim = MemSysSim::with_config(model, MemSysConfig::with_channels(&model, channels));
        let batch = TileTraffic {
            stream_bursts: 1_000,
            random_bursts: 2_000,
            atomic_words: 8_000,
        };
        // Hub-heavy recorded samples: the coalescing fast path and the
        // eviction/writeback path both churn.
        let random_addrs: Vec<u64> = (0..256u64).map(|i| (i * 7919) % (1 << 20)).collect();
        let atomic_addrs: Vec<u64> = (0..256u64)
            .map(|i| if i % 4 == 0 { i % 64 } else { i * 131 })
            .collect();
        // Warm-up: two full reuse cycles grow every buffer (incl. the
        // replay buffers) to its high-water mark.
        let mut golden = None;
        for _ in 0..2 {
            sim.reset();
            sim.add_tile_recorded(batch, &random_addrs, &atomic_addrs);
            golden = Some(sim.run());
        }
        let before = allocations();
        sim.reset();
        sim.add_tile_recorded(batch, &random_addrs, &atomic_addrs);
        let stats = sim.run();
        assert_eq!(
            allocations() - before,
            0,
            "{channels}ch: recorded reset + replay allocated after warm-up"
        );
        assert_eq!(
            Some(stats),
            golden,
            "{channels}ch: reused recorded driver diverged from its warm-up run"
        );
        assert!(stats.ag_bursts_written > 0, "writeback path not exercised");
    }
}

#[test]
fn memsys_multi_tenant_tick_is_allocation_free() {
    // The tenant layer adds per-tenant lanes, the weighted round-robin
    // schedule, the latency-attribution ring, and per-tenant stat
    // blocks; all of it is sized at construction (or warmed with the
    // replay buffers), so interleaving tenants must not reopen the
    // heap in steady state — shared and dedicated alike.
    for (tenants, channels, partition) in [
        (2usize, 1usize, TenantPartition::Shared),
        (2, 4, TenantPartition::Dedicated),
        (3, 3, TenantPartition::Dedicated),
    ] {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let cfg = MemSysConfig::with_tenants(&model, channels, tenants, partition);
        let mut sim = MemSysSim::with_config(model, cfg);
        for t in 0..tenants {
            sim.add_tile_for(
                TenantId(t),
                TileTraffic {
                    stream_bursts: 200_000,
                    random_bursts: 200_000,
                    atomic_words: 200_000,
                },
            );
        }
        // Longer warm-up than the single-tenant test: the interleaving
        // divides each tenant's issue rate, so the AGs' stochastic
        // high-water marks (waiter arenas, retry buffers) are reached
        // proportionally later.
        for _ in 0..120_000 {
            sim.tick();
        }
        let before = allocations();
        for _ in 0..10_000 {
            sim.tick();
        }
        let during = allocations() - before;
        assert_eq!(
            during, 0,
            "{partition:?}/{tenants}t/{channels}ch: {during} heap allocations \
             in 10k steady-state multi-tenant cycles"
        );
    }
}

#[test]
fn memsys_multi_tenant_reset_and_rerun_is_allocation_free() {
    // The persistent-pool reuse contract extends to tenant-tagged
    // traffic: after warm-up, a reset → per-tenant re-add → full drain
    // round trip must stay off the heap, and per-tenant stats must
    // reproduce the warm-up run exactly.
    let model = DramModel::new(MemoryKind::Hbm2e);
    let cfg = MemSysConfig::with_tenants(&model, 2, 2, TenantPartition::Shared);
    let mut sim = MemSysSim::with_config(model, cfg);
    let batch = |t: usize| TileTraffic {
        stream_bursts: 1_500 + 500 * t as u64,
        random_bursts: 2_000,
        atomic_words: 6_000 + 1_000 * t as u64,
    };
    let mut golden = None;
    for _ in 0..2 {
        sim.reset();
        for t in 0..2 {
            sim.add_tile_for(TenantId(t), batch(t));
        }
        let stats = sim.run();
        golden = Some((
            stats,
            sim.tenant_stats(TenantId(0)),
            sim.tenant_stats(TenantId(1)),
        ));
    }
    let before = allocations();
    sim.reset();
    for t in 0..2 {
        sim.add_tile_for(TenantId(t), batch(t));
    }
    let stats = sim.run();
    assert_eq!(
        allocations() - before,
        0,
        "multi-tenant reset + replay allocated after warm-up"
    );
    assert_eq!(
        Some((
            stats,
            sim.tenant_stats(TenantId(0)),
            sim.tenant_stats(TenantId(1))
        )),
        golden,
        "reused multi-tenant driver diverged from its warm-up run"
    );
}

#[test]
fn memsys_drain_and_flush_after_warmup_is_allocation_free() {
    let mut sim = MemSysSim::new(DramModel::new(MemoryKind::Hbm2e));
    // Two full runs (including the end-of-kernel AG flush) warm every
    // buffer — the AG's waiter-arena high-water mark is reached
    // stochastically, so the warm-up spans more traffic than the
    // measured batch; the deterministic address streams make the
    // resulting count exact, not flaky. The third batch must then stay
    // off the heap end to end.
    for _ in 0..2 {
        sim.add_tile(TileTraffic {
            stream_bursts: 2_000,
            random_bursts: 2_000,
            atomic_words: 8_000,
        });
        let _ = sim.run();
    }
    sim.add_tile(TileTraffic {
        stream_bursts: 2_000,
        random_bursts: 2_000,
        atomic_words: 4_000,
    });
    let before = allocations();
    let stats = sim.run();
    assert_eq!(
        allocations() - before,
        0,
        "third drain (incl. flush) allocated after warm-up"
    );
    assert_eq!(stats.atomic_words, 20_000);
}

#[test]
fn ag_burst_sized_streaming_is_allocation_free() {
    // The coalescing fast path (all lanes of a burst resident) must stay
    // allocation-free too: sequential sweeps re-touch open bursts.
    let mut ag = AddressGenerator::new(DramModel::new(MemoryKind::Ddr4), 4096, 8);
    let mut tag = 0u64;
    let sweep = |ag: &mut AddressGenerator, tag: &mut u64| {
        for burst in 0..16u64 {
            for w in 0..BURST_WORDS as u64 {
                ag.submit(DramAccess {
                    addr: burst * BURST_WORDS as u64 + w,
                    op: RmwOp::AddF,
                    operand: 1.0,
                    tag: *tag,
                });
                *tag += 1;
                let _ = ag.tick();
            }
        }
        for _ in 0..20_000 {
            let _ = ag.tick();
            if ag.is_idle() {
                break;
            }
        }
    };
    sweep(&mut ag, &mut tag);
    let before = allocations();
    sweep(&mut ag, &mut tag);
    assert_eq!(allocations() - before, 0);
}

#[test]
fn ideal_mode_is_allocation_free_too() {
    let cfg = SpmuConfig {
        ideal_conflict_free: true,
        ..Default::default()
    };
    let mut spmu = Spmu::new(cfg);
    let mut rng = TraceRng::new(0xF00D);
    let mut vector = AccessVector::default();
    drive(&mut spmu, &mut rng, &mut vector, 1_000, false);
    let before = allocations();
    drive(&mut spmu, &mut rng, &mut vector, 5_000, false);
    assert_eq!(allocations() - before, 0);
}
