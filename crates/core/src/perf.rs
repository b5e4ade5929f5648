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
//! # The replay memos
//!
//! The SRAM component is the simulator's largest layer, and most of its
//! replays repeat: sensitivity tables re-cost the same recorded tiles
//! under the same [`SpmuConfig`] that an earlier experiment (or an
//! earlier sweep point varying only the DRAM or the network) already
//! replayed. The Network component repeats the same way: Tables 9 and 12
//! and Fig. 7 route the same sampled shuffle traffic under a
//! [`ShuffleConfig`] they leave unchanged. [`run_vectors`] and
//! [`ButterflyNetwork::route_ref`] are pure functions of the
//! configuration and the trace, so a process-wide, content-addressed memo
//! sits in front of each:
//!
//! * **Keys.** [`WorkloadBuilder::commit`] digests each tile's SRAM and
//!   shuffle samples once into a [`SampleDigest`]: the vector count, the
//!   present lanes, and a 128-bit hash with one word per vector (its
//!   lane count) and one per lane (presence plus the unmasked address
//!   and operation, or the destination port and lane). Each hash step is
//!   a bijection of both the state and the word, so traces that differ
//!   in a single lane never share a key. An SpMU replay is
//!   `(SpmuConfig, vector count, SRAM hash)`; the configuration fixes
//!   the address mask, so traces that alias only after masking get
//!   separate keys for the same result. A route is `(ShuffleConfig,
//!   vector count, a hash over every tile's shuffle digest in tile
//!   order)`: tile `i` injects at port `i mod ports`, so the ordered
//!   tiles and the port count fix every stream. No call hashes a trace;
//!   only a miss builds the masked trace or the streams it runs.
//! * **Credit on hit.** An SpMU hit credits the stored replay's cycles to
//!   [`capstan_sim::stats::record_simulated_cycles`], exactly as
//!   [`run_vectors`] does on a miss, so per-experiment simulated-cycle
//!   deltas, golden pins and the bench record are identical whether a
//!   replay ran or hit. Routes add nothing to that counter, so a route
//!   hit credits nothing.
//! * **Locking and bound.** Both memos are one [`Memo`] type. Its lock is
//!   held only for the lookup and the insert, never during a replay; two
//!   threads that miss on one key both replay and insert the same value.
//!   At `MEMO_CAP` entries a memo clears itself (the whole `small`
//!   suite holds ~10.5k replays and ~50 routes), which costs only
//!   repeated replays, never a different result.
//! * **Scope.** Only [`simulate`] and [`try_simulate`] go through the
//!   memos; [`run_vectors`] and `route_ref` stay pure engines for their
//!   direct callers. There is deliberately no `Spmu` pool beside them:
//!   constructing and dropping a unit costs ~7 µs against ~1.4 ms for a
//!   typical 300-vector replay.
//!
//! # Costing without samples
//!
//! Past recording, a workload's samples are read only when a memo
//! misses (and by the cycle-level memory mode's recorded addressing).
//! [`Workload::drop_samples`] frees every sample vector and keeps the
//! counters and digests, a few kilobytes per workload. [`try_simulate`]
//! costs such a workload from the memos and returns exactly what
//! [`simulate`] returns on the full one. Where it would need a sample it
//! declines with `None`: an SpMU replay or a route the memos lack, or
//! [`MemAddressing::Recorded`] under [`MemTiming::CycleLevel`]. Replay
//! hits credit their cycles only once every replay is in hand, so a
//! decline credits nothing.
//! The experiment harness keeps its recordings this way
//! (`cost_recording` in `capstan_bench::experiments`) and re-records
//! only on a decline.
//!
//! [`WorkloadBuilder::commit`]: crate::program::WorkloadBuilder::commit

use crate::config::CapstanConfig;
use crate::config::{MemAddressing, MemTiming};
use crate::program::{SampleDigest, TileWork, TraceDigest, Workload};
use crate::report::{Breakdown, PerfReport};
use capstan_arch::grid;
use capstan_arch::memdrv::{MemStats, MemSysConfig, MemSysSim, TenantId, TenantStats, TileTraffic};
use capstan_arch::shuffle::{ButterflyNetwork, RouteScratch, ShuffleConfig, ShuffleVector};
use capstan_arch::spmu::driver::{run_vectors, ThroughputResult};
use capstan_arch::spmu::{AccessVector, LaneRequest, SpmuConfig};
use capstan_sim::dram::{AccessPattern, DramModel, MemoryKind, BURST_BYTES};
use capstan_sim::network::NetworkModel;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher, Hash};
use std::sync::{Mutex, OnceLock};

/// A process-wide, content-addressed memo. The lock is held only for a
/// lookup or an insert, and an insert into a full memo clears it first.
/// See the module docs ("The replay memos").
pub struct Memo<K, V>(Mutex<MemoMap<K, V>>);

type MemoMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// Entry cap of each [`Memo`]. The whole `small` suite needs ~10.5k
/// entries; the cap only bounds long-lived processes, and clearing never
/// changes a result.
const MEMO_CAP: usize = 65_536;

/// Inserts into a locked memo map, clearing it first once it is full.
fn memo_insert<K: Eq + Hash, V>(map: &mut MemoMap<K, V>, key: K, value: V) {
    if map.len() >= MEMO_CAP {
        map.clear();
    }
    map.insert(key, value);
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo.
    pub const fn new() -> Self {
        Memo(Mutex::new(HashMap::with_hasher(BuildHasherDefault::new())))
    }

    /// A clone of the value stored under `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        self.0.lock().expect("memo poisoned").get(key).cloned()
    }

    /// Stores `value` under `key`, clearing a full memo first.
    pub fn insert(&self, key: K, value: V) {
        memo_insert(&mut self.0.lock().expect("memo poisoned"), key, value);
    }

    /// Drops every entry.
    pub fn clear(&self) {
        self.0.lock().expect("memo poisoned").clear();
    }
}

impl<K: Eq + Hash, V: Clone> Default for Memo<K, V> {
    fn default() -> Self {
        Memo::new()
    }
}

/// Identity of one SpMU replay: the unit's configuration and the tile's
/// sampled trace, as its vector count and [`SampleDigest`] hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReplayKey {
    spmu: SpmuConfig,
    vectors: usize,
    digest: u128,
}

impl ReplayKey {
    fn new(spmu: SpmuConfig, sample: SampleDigest) -> Self {
        ReplayKey {
            spmu,
            vectors: sample.vectors,
            digest: sample.hash,
        }
    }
}

/// Process-wide SpMU replay results, keyed by [`ReplayKey`].
static SPMU_MEMO: Memo<ReplayKey, ThroughputResult> = Memo::new();

/// Identity of one shuffle route: the network's configuration and the
/// tiles' shuffle samples, as their total vector count and a digest over
/// each tile's [`SampleDigest`] in tile order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RouteKey {
    shuffle: ShuffleConfig,
    vectors: usize,
    digest: u128,
}

impl RouteKey {
    /// The key of `tiles`' shuffle samples (in tile order) routed under
    /// `shuffle`. Tile `i` injects at port `i mod ports`, so the ordered
    /// per-tile samples and the port count determine every stream.
    fn new(shuffle: ShuffleConfig, tiles: impl Iterator<Item = SampleDigest>) -> Self {
        let mut digest = TraceDigest(TraceDigest::SEED);
        let mut vectors = 0;
        for sample in tiles {
            digest.word(TraceDigest::TILE | sample.vectors as u128);
            digest.word(sample.hash);
            vectors += sample.vectors;
        }
        RouteKey {
            shuffle,
            vectors,
            digest: digest.0,
        }
    }
}

/// Process-wide route cycles ([`ButterflyNetwork::route_ref`]'s
/// `cycles`), keyed by [`RouteKey`].
static ROUTE_MEMO: Memo<RouteKey, u64> = Memo::new();

/// [`run_vectors`] on `sampled` masked into an SpMU configured as
/// `key.spmu` (filling `trace_scratch` with the masked trace), stored in
/// the memo under `key`.
fn replay(
    key: ReplayKey,
    sampled: &[AccessVector],
    trace_scratch: &mut Vec<AccessVector>,
) -> ThroughputResult {
    debug_assert_eq!(
        sampled.len(),
        key.vectors,
        "the digest describes the samples"
    );
    mask_sampled_into(trace_scratch, sampled, key.spmu);
    let result = run_vectors(key.spmu, trace_scratch);
    SPMU_MEMO.insert(key, result);
    result
}

/// [`ButterflyNetwork::route_ref`]'s cycles for the per-tile shuffle
/// samples `tiles` (tile `i` at port `i mod ports`), stored in the memo
/// under `key`.
fn route<'a>(key: RouteKey, tiles: impl Iterator<Item = &'a [ShuffleVector]>) -> u64 {
    // The streams borrow each tile's sampled vectors in place: the
    // butterfly's `route_ref` works on borrows, so nothing is cloned.
    let ports = key.shuffle.ports;
    let mut streams: Vec<Vec<&ShuffleVector>> = vec![Vec::new(); ports];
    for (i, sampled) in tiles.enumerate() {
        streams[i % ports].extend(sampled);
    }
    debug_assert_eq!(
        streams.iter().map(Vec::len).sum::<usize>(),
        key.vectors,
        "the digests describe the samples"
    );
    let cycles = ButterflyNetwork::new(key.shuffle)
        .route_ref(&streams, &mut RouteScratch::default())
        .cycles;
    ROUTE_MEMO.insert(key, cycles);
    cycles
}

/// Drains `msim` to completion ([`MemSysSim::run`]), then applies the
/// one crash-safety hook, read once from the environment:
///
/// * `CAPSTAN_FAULT_AFTER_CYCLES` — fault injection: once the
///   process-wide simulated-cycle total
///   ([`capstan_sim::stats::simulated_cycles`]) reaches this at the end
///   of a cycle-level drain, the process prints a diagnostic and exits
///   with code 43, simulating a mid-experiment crash for the
///   kill-and-resume CI step. The check runs at drain granularity (and,
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
    let lanes = grid::LANES as u64;
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

/// A lane with its address masked into the local address space of an
/// SpMU with `capacity` words.
fn mask_lane(lane: Option<LaneRequest>, capacity: u32) -> Option<LaneRequest> {
    lane.map(|r| LaneRequest {
        addr: r.addr % capacity,
        ..r
    })
}

/// Rewrites a tile's sampled trace into `scratch`, masking addresses
/// into the local address space of an SpMU configured as `spmu`. Reuses
/// both the outer vector and each slot's lane buffer, so repeated tiles
/// allocate nothing once the buffers reach their high-water mark.
fn mask_sampled_into(scratch: &mut Vec<AccessVector>, sampled: &[AccessVector], spmu: SpmuConfig) {
    let capacity = spmu.capacity_words() as u32;
    scratch.truncate(sampled.len());
    while scratch.len() < sampled.len() {
        scratch.push(AccessVector::default());
    }
    for (dst, src) in scratch.iter_mut().zip(sampled) {
        dst.lanes.clear();
        dst.lanes
            .extend(src.lanes.iter().map(|&l| mask_lane(l, capacity)));
    }
}

/// Whether costing `tile` under `cfg` replays its sampled SRAM trace
/// through the cycle-level SpMU.
fn replays_sram(tile: &TileWork, cfg: &CapstanConfig) -> bool {
    tile.sram.total_vectors > 0
        && !cfg.serialized_sram
        && !cfg.spmu.ideal_conflict_free
        && tile.sram.digest().vectors > 0
}

/// Every tile's SpMU replay under `cfg` (`None` for a tile that replays
/// nothing): the memo's result, or a replay of the tile's samples. Returns
/// `None` on a memo miss once the workload's samples are dropped. Hits
/// credit their stored cycles after every replay is in hand, so a
/// decline credits nothing.
fn sram_replays(workload: &Workload, cfg: &CapstanConfig) -> Option<Vec<Option<ThroughputResult>>> {
    let mut hit_cycles = 0;
    let mut trace_scratch = Vec::new();
    let replays = workload
        .tiles
        .iter()
        .map(|t| {
            if !replays_sram(t, cfg) {
                return Some(None);
            }
            let key = ReplayKey::new(cfg.spmu, t.sram.digest());
            let result = match SPMU_MEMO.get(&key) {
                Some(hit) => {
                    hit_cycles += hit.cycles;
                    hit
                }
                None if workload.samples_dropped() => return None,
                None => replay(key, &t.sram.sampled, &mut trace_scratch),
            };
            Some(Some(result))
        })
        .collect::<Option<Vec<_>>>()?;
    capstan_sim::stats::record_simulated_cycles(hit_cycles);
    Some(replays)
}

/// A tile's SRAM stall from its SpMU `replay` (see [`sram_replays`]):
/// `(excess cycles over ideal for the whole tile, bank util)`.
fn tile_sram_excess(
    tile: &TileWork,
    cfg: &CapstanConfig,
    replay: Option<ThroughputResult>,
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
    if let Some(result) = replay {
        util = result.bank_utilization;
        let n = sram.digest().vectors as f64;
        // Ideal throughput is one vector per cycle; subtract the fixed
        // pipeline drain so short samples are not over-penalized.
        let drain = cfg.spmu.pipeline_latency as f64 + 3.0;
        let excess_per_vector = ((result.cycles as f64 - drain) - n).max(0.0) / n;
        excess = excess_per_vector * sram.total_vectors as f64;
    }
    // Fabrics without an RMW pipeline pay a bubble per update request.
    if cfg.rmw_bubble_cycles > 0 {
        excess += (sram.rmw_requests * cfg.rmw_bubble_cycles) as f64 / grid::LANES as f64;
    }
    (excess.round() as u64, util)
}

/// Routes the workload's sampled shuffle traffic and returns the total
/// extra network cycles (beyond ideal delivery), extrapolated: the
/// memo's route, or a route of the tiles' samples. `None` on a memo miss
/// once the workload's samples are dropped.
fn network_excess(workload: &Workload, cfg: &CapstanConfig) -> Option<u64> {
    let Some(shuffle_cfg) = cfg.shuffle else {
        return Some(0);
    };
    let total_entries: u64 = workload.tiles.iter().map(|t| t.remote.total_entries).sum();
    if total_entries == 0 {
        return Some(0);
    }
    let sample_entries: u64 = workload.tiles.iter().map(|t| t.remote.digest().lanes).sum();
    if sample_entries == 0 {
        return Some(0);
    }
    // Tile i injects at port i mod ports.
    let ports = shuffle_cfg.ports;
    let key = RouteKey::new(
        shuffle_cfg,
        workload.tiles.iter().map(|t| t.remote.digest()),
    );
    let cycles = match ROUTE_MEMO.get(&key) {
        Some(cycles) => cycles,
        None if workload.samples_dropped() => return None,
        None => route(
            key,
            workload.tiles.iter().map(|t| t.remote.sampled.as_slice()),
        ),
    };
    // Ideal delivery: the bottleneck input port's vector count.
    let mut port_vectors = vec![0u64; ports];
    for (i, tile) in workload.tiles.iter().enumerate() {
        port_vectors[i % ports] += tile.remote.digest().vectors as u64;
    }
    let ideal: u64 = port_vectors.into_iter().max().unwrap_or(1);
    let extra_sample = cycles.saturating_sub(ideal);
    let scale = total_entries as f64 / sample_entries as f64;
    Some((extra_sample as f64 * scale).round() as u64)
}

/// Simulates a workload on a configuration, producing the cycle count and
/// stall breakdown.
///
/// # Panics
///
/// Panics if the workload's samples were dropped and the memos cannot
/// cost it (see [`try_simulate`]).
pub fn simulate(workload: &Workload, cfg: &CapstanConfig) -> PerfReport {
    try_simulate(workload, cfg).expect("costing a sample-free workload needs warm memos")
}

/// [`simulate`], or `None` when costing would need samples the workload
/// dropped ([`Workload::drop_samples`]): an SpMU replay or a route the
/// memos do not hold, or recorded DRAM addressing under the cycle-level
/// memory mode. A `None` credits no simulated cycles. A workload that
/// keeps its samples always returns `Some`.
pub fn try_simulate(workload: &Workload, cfg: &CapstanConfig) -> Option<PerfReport> {
    let drains_recorded = !cfg.ideal_net_and_mem
        && cfg.mem_timing == MemTiming::CycleLevel
        && !matches!(cfg.memory, MemoryKind::Ideal)
        && cfg.mem_addresses == MemAddressing::Recorded;
    if workload.samples_dropped() && drains_recorded {
        return None;
    }
    let pipelines = cfg.effective_outer_par(workload.cus_per_pipeline);
    let p = pipelines as f64;
    let net_model = NetworkModel::new(grid::SIDE);
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
            network += network_excess(workload, cfg)? as f64;
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
    for (tile, replay) in workload.tiles.iter().zip(sram_replays(workload, cfg)?) {
        let (excess, util) = tile_sram_excess(tile, cfg, replay);
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
                // time replaces the closed-form estimate.
                // Memory tenants: tiles are attributed round-robin over
                // the tile index, so a run's tenant assignment depends
                // only on the workload's deterministic tile order. With
                // one tenant (the default) every tile lands on
                // `TenantId(0)` and the replay is bit-identical to the
                // pre-tenant driver.
                let mcfg = MemSysConfig::with_tenants(
                    &dram_model,
                    cfg.mem_channels,
                    cfg.mem_tenants,
                    cfg.mem_tenant_partition,
                );
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
                let tenants = mcfg.tenants;
                let mut msim = MemSysSim::with_config(dram_model, mcfg);
                for (i, tile) in workload.tiles.iter().enumerate() {
                    let tenant = TenantId(i % tenants);
                    let traffic = TileTraffic {
                        stream_bursts: effective_stream_bytes(tile).div_ceil(BURST_BYTES),
                        random_bursts: tile.dram_random_words,
                        atomic_words: tile.dram_atomic_words,
                    };
                    if drains_recorded {
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
                    if drains_recorded {
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
                let stats = drive_memsys(&mut msim);
                mem_tenant_stats = (0..msim.tenants())
                    .map(|t| msim.tenant_stats(TenantId(t)))
                    .collect();
                mem_stats = Some(stats);
                stats.cycles
            }
            _ => dram_model
                .transfer_cycles(stream_bytes, AccessPattern::Streaming)
                .saturating_add(dram_model.transfer_cycles(random_bytes, AccessPattern::Random)),
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
    Some(PerfReport {
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
        lane_efficiency: total_lane_work as f64 / (cycles as f64 * p * grid::LANES as f64).max(1.0),
        mem: mem_stats,
        mem_tenants: mem_tenant_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryKind;
    use crate::program::WorkloadBuilder;
    use capstan_arch::shuffle::{MergeShift, ShuffleEntry};
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
    fn near_zero_bandwidth_saturates_instead_of_wrapping() {
        // At 1e-300 GB/s the streaming and the random transfer times are
        // each past `u64::MAX`; their sum and the total stop near it
        // instead of wrapping around to a small cycle count.
        let mut cfg = CapstanConfig::new(MemoryKind::Custom(1e-300));
        cfg.mem_timing = MemTiming::Analytic;
        let mut wl = WorkloadBuilder::new("scatter");
        for _ in 0..32 {
            let mut t = wl.tile();
            t.dram_stream_read(1 << 16);
            t.dram_random_read(1024);
            t.foreach_vec(1 << 16, |_, _| {});
            wl.commit(t);
        }
        let report = simulate(&wl.finish(), &cfg);
        assert!(report.breakdown.dram > u64::MAX / 2);
        assert!(report.cycles >= report.breakdown.dram);
        assert_eq!(report.breakdown.total(), report.cycles);
        for (name, frac) in report.breakdown.fractions() {
            assert!((0.0..=1.0).contains(&frac), "{name} {frac}");
        }
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
    fn cycle_level_simulate_is_repeatable() {
        // Two calls on one workload drain two fresh drivers; the reports
        // must be identical, the rolled-up memory counters included.
        let mut wl = WorkloadBuilder::new("repeat");
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

    /// A mixed trace: reads and updates, every
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
                        })
                    })
                    .collect(),
            })
            .collect()
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

    /// The replay key of `sampled` under `spmu`, as `simulate` forms it
    /// from a committed tile.
    fn replay_key(spmu: SpmuConfig, sampled: &[AccessVector]) -> ReplayKey {
        ReplayKey::new(spmu, SampleDigest::of_sram(sampled))
    }

    #[test]
    fn memoized_replay_returns_exactly_what_run_vectors_does() {
        let spmu = SpmuConfig::default();
        let sampled = mixed_trace(64);
        let capacity = spmu.capacity_words() as u32;
        let masked: Vec<AccessVector> = sampled
            .iter()
            .map(|v| AccessVector {
                lanes: v
                    .lanes
                    .iter()
                    .map(|l| {
                        l.map(|r| LaneRequest {
                            addr: r.addr % capacity,
                            ..r
                        })
                    })
                    .collect(),
            })
            .collect();
        let direct = run_vectors(spmu, &masked);
        // A replay returns and stores exactly what the engine returns.
        let key = replay_key(spmu, &sampled);
        let mut scratch = Vec::new();
        assert_eq!(replay(key, &sampled, &mut scratch), direct);
        assert_eq!(SPMU_MEMO.get(&key), Some(direct));
        assert!(direct.cycles > 0);
        // A miss masks exactly like the reference above.
        mask_sampled_into(&mut scratch, &sampled, spmu);
        assert_eq!(scratch, masked);
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
        // The digest covers unmasked addresses, so a trace whose
        // addresses only alias in the SpMU's local space replays under
        // its own key (the same result, stored twice).
        let mut aliased = base.clone();
        let r = aliased[3]
            .lanes
            .iter_mut()
            .find_map(Option::as_mut)
            .unwrap();
        r.addr ^= spmu.capacity_words() as u32;
        assert_ne!(replay_key(spmu, &aliased), base_key);

        let capacity = spmu.capacity_words() as u32;
        type LaneEdit = fn(&mut Option<LaneRequest>, u32);
        let lane_edits: [(&str, LaneEdit); 4] = [
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
                let key = replay_key(spmu, &trace);
                assert_ne!(
                    key, base_key,
                    "{what} edit at vector {v} lane {l} must change the key"
                );
                assert_eq!(key.vectors, base_key.vectors, "{what} keeps the count");
            }
        }
        // A vector's lane count is part of the digest: one more absent
        // lane is a different trace.
        for v in [0, 17, 31] {
            let mut trace = base.clone();
            trace[v].lanes.push(None);
            assert_ne!(
                replay_key(spmu, &trace),
                base_key,
                "a lane-count change at vector {v} must change the key"
            );
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
        // The SRAM analogue of `cycle_level_simulate_is_repeatable`:
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
        // Fill the memo to the cap with keys no trace produces (zero
        // vectors); the next insert clears it.
        let result = run_vectors(SpmuConfig::default(), &[]);
        force_cap_clear(&SPMU_MEMO, result, |i| ReplayKey {
            spmu: SpmuConfig::default(),
            vectors: 0,
            digest: i as u128,
        });
        assert_eq!(simulate(&w, &cfg), before);
    }

    /// Fills `memo` to [`MEMO_CAP`] with `dummy(i)` keys, then inserts
    /// once more: the full memo clears itself first.
    fn force_cap_clear<K: Eq + Hash, V: Copy>(
        memo: &Memo<K, V>,
        value: V,
        dummy: impl Fn(usize) -> K,
    ) {
        let mut map = memo.0.lock().unwrap();
        let mut i = 0;
        while map.len() < MEMO_CAP {
            memo_insert(&mut map, dummy(i), value);
            i += 1;
        }
        memo_insert(&mut map, dummy(i), value);
        assert_eq!(map.len(), 1, "a full memo clears before inserting");
    }

    /// Per-port shuffle streams: `vectors` vectors per port, every fifth
    /// lane absent, destinations skewed towards low ports.
    fn shuffle_streams(ports: usize, vectors: usize) -> Vec<Vec<ShuffleVector>> {
        let mut rng = capstan_arch::spmu::driver::TraceRng::new(11);
        (0..ports)
            .map(|_| {
                (0..vectors)
                    .map(|v| {
                        (0..16)
                            .map(|lane| {
                                ((v + lane) % 5 != 0).then(|| ShuffleEntry {
                                    dest: (rng.below(ports as u64) * rng.below(ports as u64)
                                        / ports as u64)
                                        as u32,
                                    lane,
                                })
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// The route key of per-tile shuffle samples under `shuffle`, as
    /// `simulate` forms it from committed tiles.
    fn route_key(shuffle: ShuffleConfig, tiles: &[Vec<ShuffleVector>]) -> RouteKey {
        RouteKey::new(shuffle, tiles.iter().map(|t| SampleDigest::of_shuffle(t)))
    }

    fn borrowed(streams: &[Vec<ShuffleVector>]) -> Vec<Vec<&ShuffleVector>> {
        streams.iter().map(|s| s.iter().collect()).collect()
    }

    #[test]
    fn memoized_route_returns_exactly_what_route_ref_does() {
        let shuffle = ShuffleConfig::default();
        let streams = shuffle_streams(shuffle.ports, 24);
        let direct = ButterflyNetwork::new(shuffle)
            .route_ref(&borrowed(&streams), &mut RouteScratch::default())
            .cycles;
        // Twice as many tiles as ports, each half a stream: tile i joins
        // port i mod ports's stream after tile i - ports.
        let (first, second): (Vec<_>, Vec<_>) = streams
            .iter()
            .map(|s| (s[..12].to_vec(), s[12..].to_vec()))
            .unzip();
        let tiles = [first, second].concat();
        // A route returns and stores exactly what the engine returns.
        let key = route_key(shuffle, &tiles);
        assert_eq!(route(key, tiles.iter().map(Vec::as_slice)), direct);
        assert_eq!(ROUTE_MEMO.get(&key), Some(direct));
        assert!(direct > 24);
    }

    #[test]
    fn every_route_edit_or_config_change_gives_a_distinct_key() {
        let shuffle = ShuffleConfig::default();
        // One tile per port, so tile i's samples are port i's stream.
        let base = shuffle_streams(shuffle.ports, 8);
        let base_key = route_key(shuffle, &base);
        assert_eq!(route_key(shuffle, &base), base_key);

        // Each edit touches tile 3's sixth vector, or moves a vector from
        // tile 3 to tile 4 (and so from port 3 to port 4).
        type StreamEdit = fn(&mut [Vec<ShuffleVector>]);
        fn first(v: &ShuffleVector, present: bool) -> usize {
            v.iter().position(|e| e.is_some() == present).unwrap()
        }
        let edits: [(&str, StreamEdit); 7] = [
            ("dest", |s| {
                let l = first(&s[3][5], true);
                let e = s[3][5][l].as_mut().unwrap();
                e.dest = (e.dest + 1) % 16;
            }),
            ("lane", |s| {
                let l = first(&s[3][5], true);
                let e = s[3][5][l].as_mut().unwrap();
                e.lane = (e.lane + 1) % 16;
            }),
            ("present -> absent", |s| {
                let l = first(&s[3][5], true);
                s[3][5][l] = None;
            }),
            ("absent -> present", |s| {
                let l = first(&s[3][5], false);
                s[3][5][l] = Some(ShuffleEntry { dest: 0, lane: l });
            }),
            ("lane count", |s| s[3][5].push(None)),
            ("vector moved to another tile", |s| {
                let v = s[3].pop().unwrap();
                s[4].push(v);
            }),
            ("tiles swapped", |s| s.swap(3, 4)),
        ];
        for (what, edit) in edits {
            let mut tiles = base.clone();
            edit(&mut tiles);
            let key = route_key(shuffle, &tiles);
            assert_ne!(key, base_key, "{what} must change the key");
            assert_eq!(key.vectors, base_key.vectors, "{what} keeps the count");
        }

        type ConfigEdit = fn(&mut ShuffleConfig);
        let config_edits: [(&str, ConfigEdit); 3] = [
            ("ports", |c| c.ports = 32),
            ("lanes", |c| c.lanes = 8),
            ("shift", |c| c.shift = MergeShift::Full),
        ];
        for (what, edit) in config_edits {
            let mut other = shuffle;
            edit(&mut other);
            assert_ne!(
                route_key(other, &base),
                base_key,
                "{what} must change the key"
            );
        }
    }

    /// A workload whose tiles send skewed cross-tile updates through the
    /// shuffle network.
    fn shuffle_heavy_workload(name: &str, seed: usize) -> Workload {
        let cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        let mut wl = WorkloadBuilder::for_config(name, &cfg);
        for tile in 0..8 {
            let mut t = wl.tile();
            t.foreach_vec(512, |t, i| {
                t.remote_update((i * i + tile * seed) % 7 % 16);
            });
            wl.commit(t);
        }
        wl.finish()
    }

    #[test]
    fn route_memo_is_invisible_in_results() {
        let w = shuffle_heavy_workload("route-twice", 31);
        let cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        let a = simulate(&w, &cfg);
        let b = simulate(&w, &cfg);
        assert!(a.breakdown.network > 0, "{:?}", a.breakdown);
        assert_eq!(a, b);
    }

    #[test]
    fn route_memo_cap_clear_leaves_results_unchanged() {
        let w = shuffle_heavy_workload("route-cap", 97);
        let cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        let before = simulate(&w, &cfg);
        force_cap_clear(&ROUTE_MEMO, 0, |i| RouteKey {
            shuffle: ShuffleConfig::default(),
            vectors: 0,
            digest: i as u128,
        });
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
