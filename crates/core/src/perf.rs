//! The system performance engine.
//!
//! Costs a recorded [`Workload`] with the paper's Fig. 7 methodology:
//!
//! > "We start with a synthetic analysis, which tells us how many cycles
//! > would be needed if every lane were active in every cycle (Active).
//! > We then look at lanes that are inactive because their associated
//! > scanner is processing an all-zero vector (Scan) and lanes that are
//! > waiting for data to be loaded from or stored to DRAM (Load/Store).
//! > For the synthetic analysis, load/store time assumes zero-latency,
//! > infinite-bandwidth DRAM. Next, our synthetic analysis shows lanes
//! > that are underused because vectorized loops are too short (Vector
//! > Length) or because workload tiling generates unevenly-sized tiles
//! > (Imbalance). We then simulate, adding in on-chip pipelining and
//! > network effects (Network), bank conflicts (SRAM), and the Ramulator
//! > HBM2E model (DRAM). By adding these one at a time, we identify the
//! > cycles that are lost to each stall source."
//!
//! The SRAM component replays each tile's *real* (sampled) address
//! vectors through the cycle-level SpMU of [`capstan_arch::spmu`]; the
//! Network component routes the real shuffle traffic through the
//! butterfly model; the DRAM component prices the real traffic against
//! the configured memory system.
//!
//! # Memory-timing modes
//!
//! The DRAM component supports two timing modes, selected by
//! [`CapstanConfig::mem_timing`]:
//!
//! * [`MemTiming::Analytic`] (default): traffic is priced in closed form
//!   by [`DramModel::transfer_cycles`] — streaming bytes at the
//!   streaming efficiency, random and atomic bytes at the random
//!   efficiency. Fast, and the mode every committed golden value was
//!   captured under.
//! * [`MemTiming::CycleLevel`]: each tile's traffic is replayed through
//!   [`MemSysSim`] — [`CapstanConfig::mem_channels`] region channels
//!   (banked DRAM channels behind a deterministic crossbar) for
//!   streaming/random bursts plus per-region
//!   [`capstan_arch::ag::AddressGenerator`]s for atomic
//!   read-modify-writes — all ticked in lockstep until the traffic
//!   drains. This captures bank contention, row conflicts, atomics
//!   serialization, and multi-channel parallelism (the Table 13
//!   sensitivities the analytic model cannot see) and surfaces the
//!   rolled-up counters in [`PerfReport::mem`]. The replay is
//!   deterministic and machine-independent, so cycle-level results are
//!   golden-pinnable and byte-identical across `CAPSTAN_THREADS`
//!   settings — but they intentionally differ from analytic-mode cycle
//!   counts, so perf baselines are recorded per mode (and per channel
//!   count).
//!
//! Within the cycle-level mode, [`CapstanConfig::mem_addresses`] picks
//! where scattered (random/atomic) DRAM addresses come from: synthetic
//! uniform streams (the default every golden value was captured under)
//! or the recorder's *real* sampled address vectors
//! (`MemAddressing::Recorded`), replayed cyclically so hub-heavy
//! workloads coalesce in the AGs' open-burst caches. Workloads without
//! recordings fall back to the synthetic streams bit-for-bit.
//!
//! # The persistent memory-driver pool
//!
//! Sweep-style experiments call [`simulate`] hundreds of times;
//! constructing a fresh [`MemSysSim`] each time would re-allocate the
//! channel queues and AG slabs on every call. Instead, a process-wide
//! pool keeps constructed drivers keyed by `(DramModel, MemSysConfig)`:
//! each `simulate` call **checks a matching driver out** (holding the
//! pool lock only for the take/return, never during simulation — so
//! worker threads never serialize on each other), **resets** it, runs
//! the replay, and returns it. The pool is process-wide rather than
//! `thread_local!` because `capstan_par::par_map` spawns fresh scoped
//! threads per call — per-thread storage would die between sweep
//! points. [`MemSysSim::reset`] is contractually indistinguishable from
//! fresh construction (same tiles replay to the same cycle count), so
//! the pooling is invisible in results: cycle counts stay bit-identical
//! to the construct-per-call path regardless of which thread checks out
//! which driver, preserving the `CAPSTAN_THREADS` byte-diff contract.
//! The reuse path is allocation-free in steady state — proven in
//! `crates/arch/tests/alloc_free.rs`.
//!
//! # The SpMU replay memo
//!
//! The SRAM component is the simulator's largest layer, and most of its
//! replays repeat: sensitivity tables re-cost the same recorded tiles
//! under the same [`SpmuConfig`] that an earlier experiment (or an
//! earlier sweep point varying only the DRAM or the network) already
//! replayed. [`run_vectors`] is a pure function of the configuration and
//! the masked trace, so a process-wide memo sits in front of it:
//!
//! * **Key.** `(SpmuConfig, vector count, 128-bit digest of the masked
//!   trace)`. The digest is computed word-wise inside the masking pass
//!   that builds the trace anyway, one 128-bit word per lane (masked
//!   address, operation, operand bits, presence) plus one per vector
//!   (its lane count). Each digest step is a bijection of both the state
//!   and the word, so traces that differ in a single lane never share a
//!   key.
//! * **Credit on hit.** A hit credits the stored replay's cycles to
//!   [`capstan_sim::stats::record_simulated_cycles`], exactly as
//!   [`run_vectors`] does on a miss, so per-experiment simulated-cycle
//!   deltas, golden pins and the bench record are identical whether a
//!   replay ran or hit.
//! * **Locking and bound.** The lock is held only for the lookup and the
//!   insert, never during a replay; two threads that miss on one key
//!   both replay and insert the same value. At `SPMU_MEMO_CAP` entries
//!   the map is cleared (the whole `small` suite holds ~10.5k), which
//!   costs only repeated replays, never a different result.
//! * **Scope.** Only [`simulate`] goes through the memo; [`run_vectors`]
//!   stays a pure engine for its direct callers. There is deliberately
//!   no `Spmu` pool beside it: constructing and dropping a unit costs
//!   ~7 µs against ~1.4 ms for a typical 300-vector replay.

use crate::config::CapstanConfig;
use crate::config::{MemAddressing, MemTiming};
use crate::program::{TileWork, Workload};
use crate::report::{Breakdown, PerfReport};
use capstan_arch::memdrv::{
    MemStats, MemSysConfig, MemSysSim, TenantId, TenantStats, TileTraffic, MAX_TENANTS,
};
use capstan_arch::shuffle::{ButterflyNetwork, RouteScratch, ShuffleVector};
use capstan_arch::spmu::driver::{run_vectors, ThroughputResult};
use capstan_arch::spmu::{AccessVector, LaneRequest, SpmuConfig};
use capstan_sim::dram::{AccessPattern, DramModel, MemoryKind, BURST_BYTES};
use capstan_sim::network::NetworkModel;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::{Mutex, OnceLock};

/// Process-wide pool of persistent cycle-level memory drivers, keyed by
/// `(DramModel, MemSysConfig)`. See the module docs ("The persistent
/// memory-driver pool") for the checkout/reset contract.
static MEMSYS_POOL: Mutex<Vec<(DramModel, MemSysConfig, MemSysSim)>> = Mutex::new(Vec::new());

/// Retained-driver cap: a returning driver is dropped instead of pooled
/// once this many are already parked. Bounds the cache for long-lived
/// processes that sweep many geometries (a paper-scale 80-channel driver
/// holds ~20 MB of AG regions) without affecting results — pooling is
/// bit-invisible, so dropping is too.
const MEMSYS_POOL_CAP: usize = 16;

/// Runs `f` on a persistent [`MemSysSim`] for the given model and
/// geometry, checking one out of the process-wide pool (reset before
/// reuse — bit-equivalent to fresh construction, so pooling never
/// changes results) or constructing one when no match is free. The pool
/// lock is held only for the take/return, never while `f` runs.
fn with_memsys<R>(model: DramModel, mcfg: MemSysConfig, f: impl FnOnce(&mut MemSysSim) -> R) -> R {
    let mut sim = {
        let mut pool = MEMSYS_POOL.lock().expect("memsys pool poisoned");
        match pool.iter().position(|(m, c, _)| *m == model && *c == mcfg) {
            Some(i) => {
                let (_, _, mut sim) = pool.swap_remove(i);
                sim.reset();
                sim
            }
            None => MemSysSim::with_config(model, mcfg),
        }
    };
    let result = f(&mut sim);
    // A panic inside `f` simply drops the driver instead of returning
    // it — the pool never holds a half-simulated entry.
    let mut pool = MEMSYS_POOL.lock().expect("memsys pool poisoned");
    if pool.len() < MEMSYS_POOL_CAP {
        pool.push((model, mcfg, sim));
    }
    result
}

/// Identity of one SpMU replay: the unit's configuration and the masked
/// trace, as its vector count and [`TraceDigest`]. See the module docs
/// ("The SpMU replay memo").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReplayKey {
    spmu: SpmuConfig,
    vectors: usize,
    digest: u128,
}

type ReplayMemo = HashMap<ReplayKey, ThroughputResult, BuildHasherDefault<DefaultHasher>>;

/// Process-wide SpMU replay results, keyed by [`ReplayKey`].
static SPMU_MEMO: Mutex<ReplayMemo> = Mutex::new(HashMap::with_hasher(BuildHasherDefault::new()));

/// Entry cap: an insert into a full memo clears it first. The whole
/// `small` suite needs ~10.5k entries; the cap only bounds long-lived
/// processes, and clearing never changes a result.
const SPMU_MEMO_CAP: usize = 65_536;

/// Inserts one replay result, clearing the memo first once it is full.
fn memo_insert(memo: &mut ReplayMemo, key: ReplayKey, result: ThroughputResult) {
    if memo.len() >= SPMU_MEMO_CAP {
        memo.clear();
    }
    memo.insert(key, result);
}

/// [`run_vectors`] on `trace` (identified by `key`), replayed at most
/// once per process. A hit credits the stored cycles to the
/// simulated-cycle counter exactly as the replay did. The memo lock is
/// held only for the lookup and the insert, never during a replay.
fn replay_memoized(key: ReplayKey, trace: &[AccessVector]) -> ThroughputResult {
    let hit = SPMU_MEMO
        .lock()
        .expect("spmu memo poisoned")
        .get(&key)
        .copied();
    if let Some(result) = hit {
        capstan_sim::stats::record_simulated_cycles(result.cycles);
        return result;
    }
    let result = run_vectors(key.spmu, trace);
    memo_insert(
        &mut SPMU_MEMO.lock().expect("spmu memo poisoned"),
        key,
        result,
    );
    result
}

/// Drains `msim` to completion ([`MemSysSim::run`]), then applies the
/// one crash-safety hook, read once from the environment:
///
/// * `CAPSTAN_FAULT_AFTER_CYCLES` — fault injection: once the
///   process-wide simulated-cycle total
///   ([`capstan_sim::stats::simulated_cycles`]) reaches this at the end
///   of a cycle-level drain, the process prints a diagnostic and exits
///   with code 43, simulating a mid-experiment crash for the
///   kill-and-resume CI job. The check runs at drain granularity (and,
///   with worker threads, after whichever drain crosses first), so the
///   exact exit point is approximate — the resume contract never
///   depends on *where* a run died, only that the journal already
///   holds every completed row.
fn drive_memsys(msim: &mut MemSysSim) -> MemStats {
    static FAULT_AFTER: OnceLock<Option<u64>> = OnceLock::new();
    let stats = msim.run();
    let fault_after = FAULT_AFTER.get_or_init(|| {
        std::env::var("CAPSTAN_FAULT_AFTER_CYCLES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
    });
    if let Some(limit) = *fault_after {
        let total = capstan_sim::stats::simulated_cycles();
        if total >= limit {
            eprintln!(
                "capstan: injected fault after {total} simulated cycles (CAPSTAN_FAULT_AFTER_CYCLES)"
            );
            std::process::exit(43);
        }
    }
    stats
}

/// Synthetic (ideal-memory) cycle analysis of one tile.
#[derive(Debug, Clone, Copy, Default)]
struct TileSynthetic {
    active: u64,
    scan: u64,
    load_store: u64,
    vector_length: u64,
    total: u64,
}

fn scan_stage_cycles(tile: &TileWork, cfg: &CapstanConfig) -> u64 {
    if cfg.scalar_stream_join {
        // Without a scanner, sparse loop headers decay to one scalar
        // decision per cycle. Joins over *dense* operands (frontier
        // bitsets, sparse input vectors) must examine every element;
        // compressed-list joins pay one cycle per input element.
        tile.scan_input_bits
            .max(tile.scan_input_nnz)
            .max(tile.scan_emitted)
    } else {
        tile.scan_cycles
    }
}

fn tile_synthetic(tile: &TileWork, cfg: &CapstanConfig) -> TileSynthetic {
    let lanes = cfg.grid.lanes as u64;
    let active = tile.lane_work.div_ceil(lanes);
    let scan_stage = scan_stage_cycles(tile, cfg);
    // Streaming loads/stores overlap with compute through SRAM
    // multi-buffers (paper §4.4); lanes only stall when the issue stage
    // outpaces the data movement, so the stages compose as a max.
    let t1 = active.max(scan_stage);
    let ls_words = tile.dram_stream_bytes / 4 + tile.dram_random_words + tile.dram_atomic_words;
    let ls_stage = ls_words.div_ceil(lanes);
    let t2 = t1.max(ls_stage);
    let t3 = tile.vectors.max(scan_stage).max(ls_stage);
    TileSynthetic {
        active,
        scan: t1 - active,
        load_store: t2 - t1,
        vector_length: t3 - t2,
        total: t3,
    }
}

/// 128-bit digest of a masked SpMU trace, fed one 128-bit word at a
/// time. Each step (xor the word in, multiply by an odd constant, swap
/// the halves) is a bijection of both the state and the word, so two
/// equally long word streams that differ in one word never collide.
struct TraceDigest(u128);

impl TraceDigest {
    /// The FNV-128 offset basis.
    const SEED: u128 = 0x6C62_272E_07BB_0142_62B8_2175_6295_C58D;
    /// PCG's 128-bit LCG multiplier (odd).
    const MUL: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;
    /// Tags bits 96.. of a word: absent lanes are 0, present lanes
    /// `LANE`, per-vector lane-count headers `VECTOR`.
    const LANE: u128 = 1 << 96;
    const VECTOR: u128 = 2 << 96;

    fn word(&mut self, w: u128) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::MUL).rotate_left(64);
    }

    /// One lane: presence, operation, operand bits and masked address.
    fn lane(&mut self, lane: Option<LaneRequest>) {
        self.word(lane.map_or(0, |r| {
            Self::LANE | (r.op as u128) << 64 | (r.operand.to_bits() as u128) << 32 | r.addr as u128
        }));
    }
}

/// Rewrites a tile's sampled trace into `scratch`, masking addresses
/// into the local address space of an SpMU configured as `spmu`, and
/// returns the masked trace's [`ReplayKey`]. Reuses both the outer
/// vector and each slot's lane buffer, so repeated tiles allocate
/// nothing once the buffers reach their high-water mark.
fn mask_sampled_into(
    scratch: &mut Vec<AccessVector>,
    sampled: &[AccessVector],
    spmu: SpmuConfig,
) -> ReplayKey {
    let capacity = spmu.capacity_words() as u32;
    scratch.truncate(sampled.len());
    while scratch.len() < sampled.len() {
        scratch.push(AccessVector::default());
    }
    let mut digest = TraceDigest(TraceDigest::SEED);
    for (dst, src) in scratch.iter_mut().zip(sampled) {
        digest.word(TraceDigest::VECTOR | src.lanes.len() as u128);
        dst.lanes.clear();
        dst.lanes.extend(src.lanes.iter().map(|l| {
            let masked = l.map(|r| LaneRequest {
                addr: r.addr % capacity,
                ..r
            });
            digest.lane(masked);
            masked
        }));
    }
    ReplayKey {
        spmu,
        vectors: scratch.len(),
        digest: digest.0,
    }
}

/// Replays a tile's sampled SRAM trace through the cycle-level SpMU and
/// returns `(excess cycles over ideal for the whole tile, bank util)`.
/// `trace_scratch` is the reusable masked-trace buffer shared across
/// tiles.
fn tile_sram_excess(
    tile: &TileWork,
    cfg: &CapstanConfig,
    trace_scratch: &mut Vec<AccessVector>,
) -> (u64, f64) {
    let sram = &tile.sram;
    if sram.total_vectors == 0 {
        return (0, 0.0);
    }
    let mut excess = 0.0f64;
    let mut util = 0.0f64;
    if cfg.serialized_sram {
        // Statically banked memory (Plasticine): one random access per
        // cycle per memory — a 16-lane vector serializes over 16 cycles
        // (paper §5: "each memory only supports one access per cycle,
        // leaving 15 banks inactive") — and RMW bubbles serialize too,
        // because there is no lane-level overlap to hide them.
        excess = sram.total_requests.saturating_sub(sram.total_vectors) as f64
            + (sram.rmw_requests * cfg.rmw_bubble_cycles) as f64;
        util = 1.0 / cfg.spmu.banks as f64;
        return (excess.round() as u64, util);
    }
    if !cfg.spmu.ideal_conflict_free && !sram.sampled.is_empty() {
        // Mask addresses into the SpMU's local address space.
        let key = mask_sampled_into(trace_scratch, &sram.sampled, cfg.spmu);
        let result = replay_memoized(key, trace_scratch);
        util = result.bank_utilization;
        let n = trace_scratch.len() as f64;
        // Ideal throughput is one vector per cycle; subtract the fixed
        // pipeline drain so short samples are not over-penalized.
        let drain = cfg.spmu.pipeline_latency as f64 + 3.0;
        let excess_per_vector = ((result.cycles as f64 - drain) - n).max(0.0) / n;
        excess = excess_per_vector * sram.total_vectors as f64;
    }
    // Fabrics without an RMW pipeline pay a bubble per update request.
    if cfg.rmw_bubble_cycles > 0 {
        excess += (sram.rmw_requests * cfg.rmw_bubble_cycles) as f64 / cfg.grid.lanes as f64;
    }
    (excess.round() as u64, util)
}

/// Routes the workload's sampled shuffle traffic and returns the total
/// extra network cycles (beyond ideal delivery), extrapolated.
fn network_excess(workload: &Workload, cfg: &CapstanConfig) -> u64 {
    let Some(shuffle_cfg) = cfg.shuffle else {
        return 0;
    };
    let total_entries: u64 = workload.tiles.iter().map(|t| t.remote.total_entries).sum();
    if total_entries == 0 {
        return 0;
    }
    // Build per-port sample streams: tile i injects at port i mod ports.
    // The streams borrow each tile's sampled vectors in place — the
    // butterfly's `route_ref` works on borrows, so nothing is cloned.
    let ports = shuffle_cfg.ports;
    let mut streams: Vec<Vec<&ShuffleVector>> = vec![Vec::new(); ports];
    let mut sample_entries = 0u64;
    for (i, tile) in workload.tiles.iter().enumerate() {
        for v in &tile.remote.sampled {
            sample_entries += v.iter().flatten().count() as u64;
            streams[i % ports].push(v);
        }
    }
    if sample_entries == 0 {
        return 0;
    }
    let net = ButterflyNetwork::new(shuffle_cfg);
    let mut scratch = RouteScratch::default();
    let result = net.route_ref(&streams, &mut scratch);
    // Ideal delivery: the bottleneck input port's vector count.
    let ideal: u64 = streams.iter().map(|s| s.len() as u64).max().unwrap_or(1);
    let extra_sample = result.cycles.saturating_sub(ideal);
    let scale = total_entries as f64 / sample_entries as f64;
    (extra_sample as f64 * scale).round() as u64
}

/// Simulates a workload on a configuration, producing the cycle count and
/// stall breakdown.
pub fn simulate(workload: &Workload, cfg: &CapstanConfig) -> PerfReport {
    let pipelines = cfg.effective_outer_par(workload.cus_per_pipeline);
    let p = pipelines as f64;
    let net_model = NetworkModel::new(cfg.network, cfg.grid.side);
    let dram_model = DramModel::new(cfg.memory);

    // --- Synthetic analysis ---------------------------------------------
    let synth: Vec<TileSynthetic> = workload
        .tiles
        .iter()
        .map(|t| tile_synthetic(t, cfg))
        .collect();
    let mut pipeline_load = vec![0u64; pipelines];
    for (i, s) in synth.iter().enumerate() {
        pipeline_load[i % pipelines] += s.total;
    }
    let t_max = pipeline_load.iter().copied().max().unwrap_or(0);
    let t_mean = synth.iter().map(|s| s.total).sum::<u64>() as f64 / p;
    let active = synth.iter().map(|s| s.active).sum::<u64>() as f64 / p;
    let scan = synth.iter().map(|s| s.scan).sum::<u64>() as f64 / p;
    let load_store = synth.iter().map(|s| s.load_store).sum::<u64>() as f64 / p;
    let vector_length = synth.iter().map(|s| s.vector_length).sum::<u64>() as f64 / p;
    let imbalance = (t_max as f64 - t_mean).max(0.0);

    // --- Network ----------------------------------------------------------
    let mut network = 0.0f64;
    let mut dram_extra_atomic_words = 0u64;
    let mut fallback_atomic_entries = 0u64;
    if !cfg.ideal_net_and_mem {
        if cfg.shuffle.is_some() {
            network += network_excess(workload, cfg) as f64;
        } else {
            // Without a shuffle network, cross-tile updates fall back to
            // atomic DRAM accesses (Table 11's "None" column). The AGs'
            // open-burst tracking coalesces updates that hit the same
            // 16-word burst (§3.4), which graph hubs and conv halos do
            // heavily; 8 hits per fetched burst is the calibrated rate
            // the *analytic* mode prices with. The cycle-level mode
            // replays the raw entry count instead — its real AG models
            // coalescing itself, and pre-dividing would discount twice.
            const AG_COALESCE: u64 = 8;
            fallback_atomic_entries = workload
                .tiles
                .iter()
                .map(|t| t.remote.total_entries)
                .sum::<u64>();
            dram_extra_atomic_words += fallback_atomic_entries.div_ceil(AG_COALESCE);
        }
        // Non-pipelinable rounds each pay a network round trip.
        network += (workload.dependent_rounds * net_model.round_trip_cycles(1)) as f64;
    }

    // --- SRAM --------------------------------------------------------------
    let mut sram_total = 0u64;
    let mut util_weighted = 0.0f64;
    let mut util_weight = 0.0f64;
    let mut trace_scratch: Vec<AccessVector> = Vec::new();
    for tile in &workload.tiles {
        let (excess, util) = tile_sram_excess(tile, cfg, &mut trace_scratch);
        sram_total += excess;
        if tile.sram.total_vectors > 0 {
            util_weighted += util * tile.sram.total_vectors as f64;
            util_weight += tile.sram.total_vectors as f64;
        }
    }
    let sram = sram_total as f64 / p;

    // --- DRAM ---------------------------------------------------------------
    let effective_stream_bytes = |t: &TileWork| {
        if cfg.compression {
            t.dram_stream_bytes - t.dram_compressible_bytes + t.dram_compressed_bytes
        } else {
            t.dram_stream_bytes
        }
    };
    let stream_bytes: u64 = workload.tiles.iter().map(effective_stream_bytes).sum();
    let random_bursts: u64 = workload
        .tiles
        .iter()
        .map(|t| t.dram_random_words)
        .sum::<u64>();
    let atomic_bursts: u64 = workload
        .tiles
        .iter()
        .map(|t| t.dram_atomic_words)
        .sum::<u64>()
        + dram_extra_atomic_words;
    let random_bytes = random_bursts * 64 + atomic_bursts * 128; // RMW: fetch + writeback
    let dram_bytes = stream_bytes + random_bytes;
    let mut dram = 0.0f64;
    let mut mem_stats: Option<MemStats> = None;
    let mut mem_tenant_stats: Vec<TenantStats> = Vec::new();
    if !cfg.ideal_net_and_mem {
        let dram_cycles = match cfg.mem_timing {
            MemTiming::CycleLevel if !matches!(cfg.memory, MemoryKind::Ideal) => {
                // Replay each tile's traffic through the region channels
                // and the per-region AGs, ticked in lockstep; the drain
                // time replaces the closed-form estimate. The driver comes
                // from the process-wide pool (see the module docs), so
                // sweep-style experiments pay construction once.
                let mut mcfg = MemSysConfig::with_channels(&dram_model, cfg.mem_channels);
                // Memory tenants: tiles are attributed round-robin over
                // the tile index, so a run's tenant assignment depends
                // only on the workload's deterministic tile order. With
                // one tenant (the default) every tile lands on
                // `TenantId(0)` and the replay is bit-identical to the
                // pre-tenant driver.
                mcfg.tenants = cfg.mem_tenants.clamp(1, MAX_TENANTS);
                mcfg.partition = cfg.mem_tenant_partition;
                // Under recorded addressing, each tile also hands the
                // driver its sampled scattered-address vectors. The
                // fallback is per traffic class and driver-wide: a
                // class whose recorded buffer stays empty across every
                // queued tile replays from its synthetic stream
                // bit-for-bit (so the two modes only diverge for
                // workloads that actually record addresses), while a
                // class with any recordings replays *all* of its words
                // — including count-only contributions — from the
                // concatenated sample, weighted by sample length. See
                // `MemSysSim::add_tile_recorded` for the contract.
                let recorded = matches!(cfg.mem_addresses, MemAddressing::Recorded);
                let tenants = mcfg.tenants;
                let (stats, tenant_stats) = with_memsys(dram_model, mcfg, |msim| {
                    for (i, tile) in workload.tiles.iter().enumerate() {
                        let tenant = TenantId(i % tenants);
                        let traffic = TileTraffic {
                            stream_bursts: effective_stream_bytes(tile).div_ceil(BURST_BYTES),
                            random_bursts: tile.dram_random_words,
                            atomic_words: tile.dram_atomic_words,
                        };
                        if recorded {
                            msim.add_tile_recorded_for(
                                tenant,
                                traffic,
                                &tile.dram_random_addrs,
                                &tile.dram_atomic_addrs,
                            );
                        } else {
                            msim.add_tile_for(tenant, traffic);
                        }
                    }
                    if fallback_atomic_entries > 0 {
                        // Shuffle-less fallback traffic (Table 11's
                        // "None" column): cross-tile updates as DRAM
                        // atomics. The raw entry count goes in — the
                        // AG's open-burst tracking coalesces, not a
                        // pre-applied constant. Under recorded
                        // addressing the tiles' sampled remote
                        // destinations feed the atomic replay, so hub
                        // destinations coalesce with their real skew.
                        let traffic = TileTraffic {
                            atomic_words: fallback_atomic_entries,
                            ..Default::default()
                        };
                        if recorded {
                            for tile in &workload.tiles {
                                msim.add_tile_recorded(
                                    TileTraffic::default(),
                                    &[],
                                    &tile.remote.addr_sampled,
                                );
                            }
                        }
                        msim.add_tile(traffic);
                    }
                    let stats = drive_memsys(msim);
                    let tenant_stats: Vec<TenantStats> = (0..msim.tenants())
                        .map(|t| msim.tenant_stats(TenantId(t)))
                        .collect();
                    (stats, tenant_stats)
                });
                mem_stats = Some(stats);
                mem_tenant_stats = tenant_stats;
                stats.cycles
            }
            _ => {
                dram_model.transfer_cycles(stream_bytes, AccessPattern::Streaming)
                    + dram_model.transfer_cycles(random_bytes, AccessPattern::Random)
            }
        };
        let t_before = t_max as f64 + network + sram;
        dram += (dram_cycles as f64 - t_before).max(0.0);
        dram += (workload.dependent_rounds * dram_model.latency_cycles()) as f64;
    }

    let breakdown = Breakdown {
        active: active.round() as u64,
        scan: scan.round() as u64,
        load_store: load_store.round() as u64,
        vector_length: vector_length.round() as u64,
        imbalance: imbalance.round() as u64,
        network: network.round() as u64,
        sram: sram.round() as u64,
        dram: dram.round() as u64,
    };
    // Note: the process-wide simulated-cycle counter is NOT bumped with
    // this modeled total. In both timing modes the genuinely simulated
    // ticks are recorded by the engines that produced them — the SpMU
    // replays inside `tile_sram_excess` and, under
    // `MemTiming::CycleLevel`, the memory-system drain inside
    // `MemSysSim::run` — while the synthetic components (Active, Scan,
    // Imbalance, ...) are closed-form estimates; adding the breakdown
    // total would double-count the replays and change units whenever
    // the perf *model* (not a simulator) changes.
    let cycles = breakdown.total().max(1);
    let total_lane_work: u64 = workload.tiles.iter().map(|t| t.lane_work).sum();
    PerfReport {
        name: workload.name.clone(),
        cycles,
        breakdown,
        pipelines,
        sram_bank_utilization: if util_weight > 0.0 {
            util_weighted / util_weight
        } else {
            0.0
        },
        dram_bytes,
        lane_efficiency: total_lane_work as f64
            / (cycles as f64 * p * cfg.grid.lanes as f64).max(1.0),
        mem: mem_stats,
        mem_tenants: mem_tenant_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryKind;
    use crate::program::WorkloadBuilder;
    use capstan_arch::spmu::{BankHash, OrderingMode, RmwOp};

    fn dense_workload(n: usize, tiles: usize) -> Workload {
        let mut wl = WorkloadBuilder::new("dense");
        for _ in 0..tiles {
            let mut t = wl.tile();
            t.dram_stream_read(n * 4);
            t.foreach_vec(n, |_, _| {});
            t.dram_stream_write(n * 4);
            wl.commit(t);
        }
        wl.finish()
    }

    #[test]
    fn dense_workload_is_mostly_active_or_loadstore() {
        let cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        let report = simulate(&dense_workload(16_000, 32), &cfg);
        let b = report.breakdown;
        assert_eq!(b.scan, 0);
        assert_eq!(b.sram, 0);
        assert!(b.active > 0);
        assert_eq!(b.total(), report.cycles);
    }

    #[test]
    fn more_bandwidth_never_hurts() {
        let mut wl = WorkloadBuilder::new("bw");
        for _ in 0..32 {
            let mut t = wl.tile();
            t.dram_stream_read((100 << 20) / 32);
            t.foreach_vec(1000, |_, _| {});
            wl.commit(t);
        }
        let w = wl.finish();
        let slow = simulate(&w, &CapstanConfig::new(MemoryKind::Ddr4));
        let fast = simulate(&w, &CapstanConfig::new(MemoryKind::Hbm2e));
        assert!(slow.cycles > fast.cycles);
        // DDR4/HBM2E cycle ratio should approach the bandwidth ratio for a
        // fully memory-bound workload.
        let ratio = slow.cycles as f64 / fast.cycles as f64;
        assert!(ratio > 10.0, "ratio {ratio}");
    }

    #[test]
    fn random_sram_traffic_shows_up_as_sram_stall() {
        let mut wl = WorkloadBuilder::new("sram");
        {
            let mut t = wl.tile();
            // Random-ish conflicting addresses: bank conflicts guaranteed.
            t.foreach_vec(4096, |t, i| {
                t.sram_rmw(((i * 7919) % 65_536) as u32, RmwOp::AddF);
            });
            wl.commit(t);
        }
        let w = wl.finish();
        let cfg = CapstanConfig::new(MemoryKind::Ideal);
        let report = simulate(&w, &cfg);
        assert!(report.breakdown.sram > 0, "{:?}", report.breakdown);
        assert!(report.sram_bank_utilization > 0.1);
    }

    #[test]
    fn ideal_config_removes_memory_components() {
        let w = dense_workload(10_000, 8);
        let report = simulate(&w, &CapstanConfig::ideal());
        assert_eq!(report.breakdown.dram, 0);
        assert_eq!(report.breakdown.network, 0);
    }

    #[test]
    fn imbalance_appears_for_skewed_tiles() {
        let mut wl = WorkloadBuilder::new("skew");
        {
            let mut t = wl.tile();
            t.foreach_vec(100_000, |_, _| {});
            wl.commit(t);
        }
        for _ in 0..31 {
            let mut t = wl.tile();
            t.foreach_vec(100, |_, _| {});
            wl.commit(t);
        }
        let report = simulate(&wl.finish(), &CapstanConfig::ideal());
        assert!(
            report.breakdown.imbalance > report.breakdown.active,
            "{:?}",
            report.breakdown
        );
    }

    #[test]
    fn dependent_rounds_cost_network_and_dram_latency() {
        let mut wl = WorkloadBuilder::new("rounds");
        {
            let mut t = wl.tile();
            t.foreach_vec(100, |_, _| {});
            wl.commit(t);
        }
        wl.set_dependent_rounds(100);
        let w = wl.finish();
        let with = simulate(&w, &CapstanConfig::new(MemoryKind::Hbm2e));
        assert!(with.breakdown.network > 0);
        assert!(with.breakdown.dram > 0);
        let ideal = simulate(&w, &CapstanConfig::ideal());
        assert_eq!(ideal.breakdown.network, 0);
    }

    #[test]
    fn stream_join_slows_scans() {
        use capstan_tensor::bitvec::BitVec;
        let a = BitVec::from_indices(65_536, &(0..2000u32).map(|i| i * 30).collect::<Vec<_>>())
            .unwrap();
        let b = BitVec::from_indices(
            65_536,
            &(0..2000u32).map(|i| i * 30 + 3).collect::<Vec<_>>(),
        )
        .unwrap();
        let build = |cfg: &CapstanConfig| {
            let mut wl = WorkloadBuilder::for_config("scan", cfg);
            {
                let mut t = wl.tile();
                t.scan(
                    capstan_arch::scanner::ScanMode::Union,
                    &a,
                    Some(&b),
                    |_, _| {},
                );
                wl.commit(t);
            }
            wl.finish()
        };
        let capstan_cfg = CapstanConfig::ideal();
        let mut plasticine_cfg = CapstanConfig::ideal();
        plasticine_cfg.scalar_stream_join = true;
        let vectorized = simulate(&build(&capstan_cfg), &capstan_cfg);
        let scalar = simulate(&build(&plasticine_cfg), &plasticine_cfg);
        assert!(
            scalar.cycles > vectorized.cycles * 3,
            "scalar {} vs vectorized {}",
            scalar.cycles,
            vectorized.cycles
        );
    }

    #[test]
    fn rmw_bubbles_penalize_updates() {
        let mut wl = WorkloadBuilder::new("rmw");
        {
            let mut t = wl.tile();
            t.foreach_vec(10_000, |t, i| t.sram_rmw((i % 4096) as u32, RmwOp::AddF));
            wl.commit(t);
        }
        let w = wl.finish();
        let mut bubbly = CapstanConfig::ideal();
        bubbly.rmw_bubble_cycles = 10;
        let clean = simulate(&w, &CapstanConfig::ideal());
        let slow = simulate(&w, &bubbly);
        assert!(slow.cycles > clean.cycles);
    }

    #[test]
    fn compression_reduces_dram_component() {
        let ptrs: Vec<u32> = (0..1_000_000u32).map(|i| 5_000_000 + i / 8).collect();
        let build = || {
            let mut wl = WorkloadBuilder::new("ptr");
            {
                let mut t = wl.tile();
                t.dram_pointer_read(&ptrs);
                t.foreach_vec(1000, |_, _| {});
                wl.commit(t);
            }
            wl.finish()
        };
        let mut on = CapstanConfig::new(MemoryKind::Ddr4);
        on.compression = true;
        let mut off = on;
        off.compression = false;
        let w = build();
        let r_on = simulate(&w, &on);
        let r_off = simulate(&w, &off);
        assert!(
            r_on.cycles < r_off.cycles,
            "on {} off {}",
            r_on.cycles,
            r_off.cycles
        );
        assert!(r_on.dram_bytes < r_off.dram_bytes);
    }

    #[test]
    fn cycle_level_mode_surfaces_stats_and_never_beats_analytic_here() {
        let w = dense_workload(16_000, 32);
        let mut analytic = CapstanConfig::new(MemoryKind::Ddr4);
        analytic.mem_timing = MemTiming::Analytic;
        let mut cyc = analytic;
        cyc.mem_timing = MemTiming::CycleLevel;
        let a = simulate(&w, &analytic);
        let c = simulate(&w, &cyc);
        assert!(a.mem.is_none(), "analytic mode has no cycle observables");
        let stats = c.mem.expect("cycle mode must surface MemStats");
        assert!(stats.cycles > 0);
        assert_eq!(stats.random_bursts, 0);
        assert!(stats.stream_bursts > 0);
        // The banked channel's derived timing can only refine the
        // analytic rate downward, so a DRAM-bound streaming workload
        // never gets faster under the cycle-level mode.
        assert!(c.cycles >= a.cycles, "{} < {}", c.cycles, a.cycles);
        assert_eq!(c.breakdown.total(), c.cycles);
    }

    #[test]
    fn cycle_level_ideal_memory_is_still_free() {
        let w = dense_workload(10_000, 8);
        let mut cfg = CapstanConfig::ideal();
        cfg.mem_timing = MemTiming::CycleLevel;
        let report = simulate(&w, &cfg);
        assert_eq!(report.breakdown.dram, 0);
        assert!(report.mem.is_none());
    }

    #[test]
    fn cycle_level_prices_atomics_through_the_ag() {
        let mut wl = WorkloadBuilder::new("atomic");
        {
            let mut t = wl.tile();
            t.foreach_vec(1000, |_, _| {});
            t.dram_atomic(4096);
            wl.commit(t);
        }
        let w = wl.finish();
        let mut cfg = CapstanConfig::new(MemoryKind::Ddr4);
        cfg.mem_timing = MemTiming::CycleLevel;
        let report = simulate(&w, &cfg);
        let stats = report.mem.expect("stats present");
        assert_eq!(stats.atomic_words, 4096);
        assert!(stats.ag_bursts_fetched > 0);
        assert!(stats.ag_bursts_written > 0);
        assert!(report.breakdown.dram > 0);
    }

    #[test]
    fn persistent_driver_reuse_is_invisible_in_results() {
        // The second call on this thread takes the pooled-reset path;
        // the first constructed the driver. Reset is contractually
        // bit-equivalent to fresh construction, so the two reports must
        // be identical — including the rolled-up memory counters.
        let mut wl = WorkloadBuilder::new("pooled");
        {
            let mut t = wl.tile();
            t.foreach_vec(500, |_, _| {});
            t.dram_stream_read(1 << 16);
            t.dram_random_read(2048);
            t.dram_atomic(2048);
            wl.commit(t);
        }
        let w = wl.finish();
        let mut cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        cfg.mem_timing = MemTiming::CycleLevel;
        let a = simulate(&w, &cfg);
        let b = simulate(&w, &cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mem, b.mem);
        assert!(a.mem.is_some());
    }

    /// A mixed trace: reads and updates with varied operands, every
    /// seventh lane absent, addresses spanning twice the SpMU capacity.
    fn mixed_trace(vectors: usize) -> Vec<AccessVector> {
        let mut rng = capstan_arch::spmu::driver::TraceRng::new(7);
        (0..vectors)
            .map(|v| AccessVector {
                lanes: (0..16)
                    .map(|l| {
                        ((v * 16 + l) % 7 != 0).then(|| LaneRequest {
                            addr: rng.below(1 << 17) as u32,
                            op: if rng.below(2) == 0 {
                                RmwOp::Read
                            } else {
                                RmwOp::AddF
                            },
                            operand: rng.below(100) as f32,
                        })
                    })
                    .collect(),
            })
            .collect()
    }

    fn replay_key(spmu: SpmuConfig, sampled: &[AccessVector]) -> ReplayKey {
        mask_sampled_into(&mut Vec::new(), sampled, spmu)
    }

    /// An SRAM-heavy workload whose tiles all replay through the SpMU.
    fn sram_heavy_workload(name: &str, seed: usize) -> Workload {
        let mut wl = WorkloadBuilder::new(name);
        for tile in 0..4 {
            let mut t = wl.tile();
            t.foreach_vec(2048, |t, i| {
                t.sram_rmw(((i * 7919 + tile * seed) % 65_536) as u32, RmwOp::AddF);
            });
            wl.commit(t);
        }
        wl.finish()
    }

    #[test]
    fn memoized_replay_returns_exactly_what_run_vectors_does() {
        let spmu = SpmuConfig::default();
        let mut masked = Vec::new();
        let key = mask_sampled_into(&mut masked, &mixed_trace(64), spmu);
        let direct = run_vectors(spmu, &masked);
        // The first call may miss or hit (another test may have stored
        // this key); the second always hits. Both equal the engine.
        assert_eq!(replay_memoized(key, &masked), direct);
        assert_eq!(replay_memoized(key, &masked), direct);
        assert!(direct.cycles > 0);
    }

    #[test]
    fn every_single_lane_or_config_change_gives_a_distinct_key() {
        let spmu = SpmuConfig::default();
        let base = mixed_trace(32);
        let base_key = replay_key(spmu, &base);
        assert_eq!(
            replay_key(spmu, &base),
            base_key,
            "the key is deterministic"
        );
        // Addresses that mask to the same local word are the same replay.
        let mut aliased = base.clone();
        if let Some(r) = aliased[3].lanes[1].as_mut() {
            r.addr ^= spmu.capacity_words() as u32;
        }
        assert_eq!(replay_key(spmu, &aliased), base_key);

        let capacity = spmu.capacity_words() as u32;
        type LaneEdit = fn(&mut Option<LaneRequest>, u32);
        let lane_edits: [(&str, LaneEdit); 5] = [
            ("addr", |l, cap| {
                let r = l.as_mut().unwrap();
                r.addr = (r.addr + 1) % cap;
            }),
            ("op", |l, _| {
                let r = l.as_mut().unwrap();
                r.op = if r.op == RmwOp::Read {
                    RmwOp::AddF
                } else {
                    RmwOp::Read
                };
            }),
            ("operand", |l, _| l.as_mut().unwrap().operand += 0.5),
            ("present -> absent", |l, _| *l = None),
            ("absent -> present", |l, _| *l = Some(LaneRequest::read(0))),
        ];
        for (what, edit) in lane_edits {
            let wants_absent = what == "absent -> present";
            for v in [0, 17, 31] {
                let l = (0..16)
                    .find(|&l| base[v].lanes[l].is_none() == wants_absent)
                    .unwrap();
                let mut trace = base.clone();
                edit(&mut trace[v].lanes[l], capacity);
                assert_ne!(
                    replay_key(spmu, &trace),
                    base_key,
                    "{what} edit at vector {v} lane {l} must change the key"
                );
            }
        }

        type ConfigEdit = fn(&mut SpmuConfig);
        let config_edits: [(&str, ConfigEdit); 11] = [
            ("lanes", |c| c.lanes = 8),
            ("banks", |c| c.banks = 32),
            ("bloom_entries", |c| c.bloom_entries = 64),
            ("ordering", |c| c.ordering = OrderingMode::Arbitrated),
            ("queue_depth", |c| c.queue_depth = 8),
            ("hash", |c| c.hash = BankHash::Linear),
            ("elide_repeated_reads", |c| c.elide_repeated_reads = false),
            ("priorities", |c| c.priorities = 1),
            ("alloc_iterations", |c| c.alloc_iterations = 1),
            ("input_speedup", |c| c.input_speedup = 2),
            ("pipeline_latency", |c| c.pipeline_latency = 4),
        ];
        for (what, edit) in config_edits {
            let mut other = spmu;
            edit(&mut other);
            assert_ne!(
                replay_key(other, &base),
                base_key,
                "{what} must change the key"
            );
        }
    }

    #[test]
    fn sram_replay_memo_is_invisible_in_results() {
        // The SRAM analogue of `persistent_driver_reuse_is_invisible_in_results`:
        // the second call hits the replay memo for every tile.
        let w = sram_heavy_workload("memo-twice", 104_729);
        let cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        let a = simulate(&w, &cfg);
        let b = simulate(&w, &cfg);
        assert!(a.breakdown.sram > 0, "{:?}", a.breakdown);
        assert_eq!(a, b);
    }

    #[test]
    fn replay_memo_cap_clear_leaves_results_unchanged() {
        let w = sram_heavy_workload("memo-cap", 15_485_863);
        let cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        let before = simulate(&w, &cfg);
        {
            // Fill the memo to the cap with keys no trace produces (zero
            // vectors), then insert once more: the memo clears itself.
            let mut memo = SPMU_MEMO.lock().unwrap();
            let dummy = |i: usize| ReplayKey {
                spmu: SpmuConfig::default(),
                vectors: 0,
                digest: i as u128,
            };
            let result = run_vectors(SpmuConfig::default(), &[]);
            let mut i = 0;
            while memo.len() < SPMU_MEMO_CAP {
                memo_insert(&mut memo, dummy(i), result);
                i += 1;
            }
            memo_insert(&mut memo, dummy(i), result);
            assert_eq!(memo.len(), 1, "a full memo clears before inserting");
        }
        assert_eq!(simulate(&w, &cfg), before);
    }

    #[test]
    fn recorded_addressing_without_recordings_is_bit_identical_to_synthetic() {
        // The fallback contract end to end through `simulate`: a
        // workload that never recorded addresses must produce the same
        // report under both addressing modes.
        let mut wl = WorkloadBuilder::new("unrecorded");
        {
            let mut t = wl.tile();
            t.foreach_vec(500, |_, _| {});
            t.dram_stream_read(1 << 16);
            t.dram_random_read(2048);
            t.dram_atomic(2048);
            wl.commit(t);
        }
        let w = wl.finish();
        let mut synth = CapstanConfig::new(MemoryKind::Hbm2e);
        synth.mem_timing = MemTiming::CycleLevel;
        synth.mem_addresses = MemAddressing::Synthetic;
        let mut rec = synth;
        rec.mem_addresses = MemAddressing::Recorded;
        assert_eq!(simulate(&w, &synth), simulate(&w, &rec));
    }

    #[test]
    fn recorded_hub_addresses_beat_synthetic_on_skewed_atomics() {
        // A hub-heavy recorded atomic stream coalesces in the AG's
        // open-burst cache; the uniform synthetic spray cannot.
        let mut wl = WorkloadBuilder::new("hubs");
        {
            let mut t = wl.tile();
            t.foreach_vec(500, |_, _| {});
            for i in 0..8192u64 {
                t.dram_atomic_at(i % 64); // 4 hot bursts
            }
            wl.commit(t);
        }
        let w = wl.finish();
        let mut synth = CapstanConfig::new(MemoryKind::Hbm2e);
        synth.mem_timing = MemTiming::CycleLevel;
        let mut rec = synth;
        rec.mem_addresses = MemAddressing::Recorded;
        let s = simulate(&w, &synth);
        let r = simulate(&w, &rec);
        assert_eq!(
            s.mem.unwrap().atomic_words,
            r.mem.unwrap().atomic_words,
            "word counts must be conserved across addressing modes"
        );
        assert!(
            r.cycles < s.cycles,
            "recorded hubs ({}) must beat synthetic uniform ({})",
            r.cycles,
            s.cycles
        );
    }

    #[test]
    fn mem_channels_shrink_atomic_heavy_drains() {
        let mut wl = WorkloadBuilder::new("channels");
        {
            let mut t = wl.tile();
            t.foreach_vec(500, |_, _| {});
            t.dram_atomic(16_384);
            wl.commit(t);
        }
        let w = wl.finish();
        let mut one = CapstanConfig::new(MemoryKind::Hbm2e);
        one.mem_timing = MemTiming::CycleLevel;
        one.mem_channels = 1;
        let mut four = one;
        four.mem_channels = 4;
        let r1 = simulate(&w, &one);
        let r4 = simulate(&w, &four);
        assert_eq!(r1.mem.unwrap().channels, 1);
        assert_eq!(r4.mem.unwrap().channels, 4);
        assert!(
            r4.cycles < r1.cycles,
            "4 channels ({}) must beat 1 ({}) on atomic-heavy traffic",
            r4.cycles,
            r1.cycles
        );
    }

    #[test]
    fn breakdown_sums_to_cycles() {
        let w = dense_workload(5000, 16);
        for mem in [MemoryKind::Ddr4, MemoryKind::Hbm2, MemoryKind::Hbm2e] {
            let report = simulate(&w, &CapstanConfig::new(mem));
            assert_eq!(report.breakdown.total(), report.cycles);
        }
    }
}
