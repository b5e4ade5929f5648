//! The declarative programming model: loop nests recorded as workloads.
//!
//! Paper §2.3: Capstan programs are nested `Foreach`/`Reduce` loops whose
//! headers are dense counters or `Scan` statements:
//!
//! ```text
//! Dense:  Foreach(min until max by step par p) { j => ... }
//! Sparse: Foreach(Scan(par=p, len=l, A.deq, B.deq)) { j, jA, jB, jprime => ... }
//! ```
//!
//! The Rust embedding is a *recording executor*: each application runs its
//! loop nest against a [`TileRecorder`]. Loop bodies are ordinary closures
//! that read and write the application's own data (so the run produces
//! numerically correct results), while the recorder captures everything
//! the performance model needs: vectorized iteration counts, scanner
//! inputs and cycle statistics, real SpMU address vectors (sampled),
//! shuffle-network entries, and DRAM traffic — including bounded
//! deterministic samples of the *real* scattered DRAM addresses
//! (random reads, atomics, remote-update destinations) that the
//! cycle-level memory mode can replay under
//! `CapstanConfig::mem_addresses = Recorded`.

use crate::config::CapstanConfig;
use capstan_arch::grid;
use capstan_arch::scanner::{BitVecScanner, DataScanner, ScanElement, ScanMode, ScanStats};
use capstan_arch::shuffle::{ShuffleEntry, ShuffleVector};
use capstan_arch::spmu::{AccessVector, LaneRequest, RmwOp};
use capstan_tensor::bittree::BitTree;
use capstan_tensor::bitvec::BitVec;
use capstan_tensor::compress::CompressedTile;
use capstan_tensor::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// Workloads finished by any [`WorkloadBuilder`] in this process.
static RECORDINGS: AtomicU64 = AtomicU64::new(0);

/// How many workloads this process has recorded ([`WorkloadBuilder::finish`]
/// calls), so callers can see which requests re-recorded.
pub fn recordings() -> u64 {
    RECORDINGS.load(Ordering::Relaxed)
}

/// 128-bit digest of a sampled trace, fed one 128-bit word at a time.
/// Each step (xor the word in, multiply by an odd constant, swap the
/// halves) is a bijection of both the state and the word, so two equally
/// long word streams that differ in one word never collide.
pub(crate) struct TraceDigest(pub(crate) u128);

impl TraceDigest {
    /// The FNV-128 offset basis.
    pub(crate) const SEED: u128 = 0x6C62_272E_07BB_0142_62B8_2175_6295_C58D;
    /// PCG's 128-bit LCG multiplier (odd).
    const MUL: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;
    /// Tags bits 96.. of a word: absent lanes are 0, present lanes
    /// `LANE`, per-vector lane-count headers `VECTOR`, per-tile sample
    /// headers `TILE`.
    const LANE: u128 = 1 << 96;
    const VECTOR: u128 = 2 << 96;
    pub(crate) const TILE: u128 = 3 << 96;

    pub(crate) fn word(&mut self, w: u128) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::MUL).rotate_left(64);
    }
}

/// What the performance engine needs of one tile's sampled SRAM or
/// shuffle trace once the samples themselves are gone: their counts and
/// a content digest. [`WorkloadBuilder::commit`] computes it once per
/// tile, and the replay and route memos key on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SampleDigest {
    /// Sampled vectors.
    pub vectors: usize,
    /// Present lanes across the sampled vectors.
    pub lanes: u64,
    /// 128-bit digest over the samples: per vector its lane
    /// count, then per lane its presence and contents (unmasked).
    pub(crate) hash: u128,
}

impl SampleDigest {
    /// Digests `vectors`, mapping each present lane to a 128-bit word
    /// with `word`.
    fn of<'a, L: Copy + 'a>(
        vectors: impl Iterator<Item = &'a [Option<L>]>,
        word: impl Fn(L) -> u128,
    ) -> Self {
        let mut digest = TraceDigest(TraceDigest::SEED);
        let mut count = 0;
        let mut lanes = 0;
        for v in vectors {
            count += 1;
            digest.word(TraceDigest::VECTOR | v.len() as u128);
            for &l in v {
                lanes += l.is_some() as u64;
                digest.word(l.map_or(0, |l| TraceDigest::LANE | word(l)));
            }
        }
        SampleDigest {
            vectors: count,
            lanes,
            hash: digest.0,
        }
    }

    /// Digest of an SRAM sample: each lane's presence, operation and
    /// address.
    pub(crate) fn of_sram(sampled: &[AccessVector]) -> Self {
        SampleDigest::of(
            sampled.iter().map(|v| v.lanes.as_slice()),
            |r: LaneRequest| (r.op as u128) << 64 | r.addr as u128,
        )
    }

    /// Digest of a shuffle sample: each lane's presence, destination
    /// port and lane.
    pub(crate) fn of_shuffle(sampled: &[ShuffleVector]) -> Self {
        SampleDigest::of(sampled.iter().map(Vec::as_slice), |e: ShuffleEntry| {
            (e.dest as u128) << 64 | e.lane as u64 as u128
        })
    }
}

/// Maximum access vectors per tile replayed through the cycle-level
/// SpMU (longer traces are sampled and extrapolated).
pub const SRAM_SAMPLE_LIMIT: usize = 384;
/// Maximum request vectors per tile routed through the cycle-level
/// shuffle network model.
const SHUFFLE_SAMPLE_LIMIT: usize = 128;
/// Maximum recorded DRAM addresses retained per tile *per traffic
/// class* (random reads, atomics, remote-update destinations). The
/// cycle-level recorded-address replay cycles through this sample to
/// cover the class's full traffic total.
const ADDR_SAMPLE_LIMIT: usize = 512;

/// Deterministic decimating reservoir: keeps an evenly spaced sample of a
/// stream without randomness (every `2^k`-th element once full).
#[derive(Debug, Clone)]
struct Decimator<T> {
    limit: usize,
    stride: u64,
    seen: u64,
    items: Vec<T>,
}

impl<T> Decimator<T> {
    /// Creates a decimator retaining about `limit` items.
    fn new(limit: usize) -> Self {
        Decimator {
            limit: limit.max(1),
            stride: 1,
            seen: 0,
            items: Vec::new(),
        }
    }

    /// Offers one stream element.
    fn offer(&mut self, item: T) {
        if self.seen.is_multiple_of(self.stride) {
            if self.items.len() >= 2 * self.limit {
                // Thin: drop every other retained item, double the stride.
                let mut keep = Vec::with_capacity(self.limit);
                for (i, it) in self.items.drain(..).enumerate() {
                    if i % 2 == 0 {
                        keep.push(it);
                    }
                }
                self.items = keep;
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.items.push(item);
            }
        }
        self.seen += 1;
    }
}

/// SRAM access trace of one tile: totals plus a sampled vector stream for
/// replay through the cycle-level SpMU.
#[derive(Debug, Clone)]
pub struct SramWork {
    /// Total access vectors generated.
    pub total_vectors: u64,
    /// Total lane requests.
    pub total_requests: u64,
    /// Requests that modify memory (read-modify-writes and writes).
    pub rmw_requests: u64,
    /// Sampled access vectors (empty once [`Workload::drop_samples`]
    /// ran). [`WorkloadBuilder::commit`] digests them once
    /// ([`SramWork::digest`]), and the replay memo keys on that digest,
    /// so editing them after commit leaves the digest stale.
    pub sampled: Vec<AccessVector>,
    digest: SampleDigest,
}

impl SramWork {
    /// Counts and digest of `sampled` as committed, kept when the samples
    /// are dropped.
    pub fn digest(&self) -> SampleDigest {
        self.digest
    }
}

/// Cross-tile (shuffle network) traffic of one tile.
#[derive(Debug, Clone)]
pub struct RemoteWork {
    /// Total remote entries sent.
    pub total_entries: u64,
    /// Total request vectors sent.
    total_vectors: u64,
    /// Sampled request vectors (destination ports populated; empty once
    /// [`Workload::drop_samples`] ran). [`WorkloadBuilder::commit`]
    /// digests them once ([`RemoteWork::digest`]), and the route memo
    /// keys on that digest, so editing them after commit leaves the
    /// digest stale.
    pub sampled: Vec<ShuffleVector>,
    digest: SampleDigest,
    /// Sampled destination *word addresses* of remote updates (recorded
    /// by [`TileRecorder::remote_update_at`]; empty when the
    /// application only reports destination tiles). On a machine
    /// without a shuffle network these updates fall back to DRAM
    /// atomics, and the cycle-level memory mode's recorded-address
    /// replay (`CapstanConfig::mem_addresses`) feeds this sample to the
    /// per-region address generators so hub-heavy destination skew can
    /// coalesce in their open-burst caches.
    pub addr_sampled: Vec<u64>,
}

impl RemoteWork {
    /// Counts and digest of `sampled` as committed, kept when the samples
    /// are dropped.
    pub fn digest(&self) -> SampleDigest {
        self.digest
    }
}

/// Everything recorded about one tile (one outer-parallel pipeline
/// instance) of a workload.
#[derive(Debug, Clone)]
pub struct TileWork {
    /// Scalar loop-body executions (useful lane work).
    pub lane_work: u64,
    /// Vectorized loop iterations issued (`>= lane_work / lanes`; the
    /// excess is vector-length underutilization).
    pub vectors: u64,
    /// Scanner cycles (loop headers).
    pub scan_cycles: u64,
    /// Scanner cycles wasted on all-zero windows.
    scan_empty_cycles: u64,
    /// Elements emitted by scanners.
    pub scan_emitted: u64,
    /// Total set bits across scanner inputs (stream-join cost for scalar
    /// baselines).
    pub scan_input_nnz: u64,
    /// Total logical bits across scanner inputs.
    pub(crate) scan_input_bits: u64,
    /// Local SRAM trace.
    pub sram: SramWork,
    /// Cross-tile traffic.
    pub remote: RemoteWork,
    /// Streaming DRAM bytes (tile loads/stores).
    pub dram_stream_bytes: u64,
    /// Portion of the streaming bytes that is compressible pointer data.
    pub dram_compressible_bytes: u64,
    /// The compressible portion's size after base/offset compression.
    pub dram_compressed_bytes: u64,
    /// Random-access DRAM words (reads).
    pub dram_random_words: u64,
    /// Atomic DRAM words (read-modify-writes through the AGs).
    pub dram_atomic_words: u64,
    /// Sampled word addresses of the random-access reads (recorded by
    /// [`TileRecorder::dram_random_read_at`]; empty when the
    /// application only reports counts). Replayed by the cycle-level
    /// memory mode under `CapstanConfig::mem_addresses = Recorded`.
    pub dram_random_addrs: Vec<u64>,
    /// Sampled word addresses of the atomic read-modify-writes
    /// (recorded by [`TileRecorder::dram_atomic_at`]; empty when the
    /// application only reports counts). Replayed through the
    /// per-region address generators under
    /// `CapstanConfig::mem_addresses = Recorded`.
    pub dram_atomic_addrs: Vec<u64>,
}

impl TileWork {
    fn new() -> Self {
        TileWork {
            lane_work: 0,
            vectors: 0,
            scan_cycles: 0,
            scan_empty_cycles: 0,
            scan_emitted: 0,
            scan_input_nnz: 0,
            scan_input_bits: 0,
            sram: SramWork {
                total_vectors: 0,
                total_requests: 0,
                rmw_requests: 0,
                sampled: Vec::new(),
                digest: SampleDigest::default(),
            },
            remote: RemoteWork {
                total_entries: 0,
                total_vectors: 0,
                sampled: Vec::new(),
                digest: SampleDigest::default(),
                addr_sampled: Vec::new(),
            },
            dram_stream_bytes: 0,
            dram_compressible_bytes: 0,
            dram_compressed_bytes: 0,
            dram_random_words: 0,
            dram_atomic_words: 0,
            dram_random_addrs: Vec::new(),
            dram_atomic_addrs: Vec::new(),
        }
    }
}

/// A recorded workload: the unit the performance engine costs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Application name.
    pub name: String,
    /// Per-tile traces (one tile per outer-parallel work unit).
    pub tiles: Vec<TileWork>,
    /// Rounds that cannot be pipelined (BFS levels, solver iterations):
    /// each pays an end-to-end network/memory round trip.
    pub dependent_rounds: u64,
    /// Compute units consumed per pipeline (2 when a scanner-only CU
    /// feeds a compute CU, §3.3).
    pub cus_per_pipeline: usize,
    samples_dropped: bool,
}

impl Workload {
    /// Whether [`Workload::drop_samples`] ran: the sample vectors are
    /// gone, so `perf::try_simulate` can cost this workload only from the
    /// memos.
    pub fn samples_dropped(&self) -> bool {
        self.samples_dropped
    }

    /// Frees every sample vector (SRAM, shuffle and DRAM addresses),
    /// keeping the per-tile counters and [`SampleDigest`]s. What is left
    /// is a few kilobytes that `perf::try_simulate` can still cost
    /// wherever the replay and route memos already hold the results.
    pub fn drop_samples(&mut self) {
        for tile in &mut self.tiles {
            tile.sram.sampled = Vec::new();
            tile.remote.sampled = Vec::new();
            tile.remote.addr_sampled = Vec::new();
            tile.dram_random_addrs = Vec::new();
            tile.dram_atomic_addrs = Vec::new();
        }
        self.samples_dropped = true;
    }
}

/// Builds a [`Workload`] tile by tile.
#[derive(Debug)]
pub struct WorkloadBuilder {
    name: String,
    scanner: BitVecScanner,
    data_scanner: DataScanner,
    lanes: usize,
    shuffle_ports: usize,
    tiles: Vec<TileWork>,
    dependent_rounds: u64,
    cus_per_pipeline: usize,
}

impl WorkloadBuilder {
    /// Creates a builder with the paper-default scanner and lane count.
    pub fn new(name: impl Into<String>) -> Self {
        WorkloadBuilder::for_config(name, &CapstanConfig::paper_default())
    }

    /// Creates a builder matching a specific configuration (scanner
    /// widths and lane counts affect what gets recorded).
    pub fn for_config(name: impl Into<String>, cfg: &CapstanConfig) -> Self {
        WorkloadBuilder {
            name: name.into(),
            scanner: cfg.scanner,
            data_scanner: cfg.data_scanner,
            lanes: grid::LANES,
            shuffle_ports: cfg.shuffle.map(|s| s.ports).unwrap_or(16),
            tiles: Vec::new(),
            dependent_rounds: 0,
            cus_per_pipeline: 1,
        }
    }

    /// Opens a new tile recorder. The recorder is an owned value so that
    /// several tiles can record concurrently (e.g. a fused solver whose
    /// steps interleave across tiles); pass it back to
    /// [`WorkloadBuilder::commit`] to add the tile to the workload.
    pub fn tile(&mut self) -> TileRecorder {
        TileRecorder {
            work: TileWork::new(),
            scanner: self.scanner,
            data_scanner: self.data_scanner,
            lanes: self.lanes,
            shuffle_ports: self.shuffle_ports,
            lane_cursor: 0,
            in_vector_loop: false,
            access_seq: 0,
            builders: Vec::new(),
            remote_builder: Vec::new(),
            sram_sample: Decimator::new(SRAM_SAMPLE_LIMIT),
            remote_sample: Decimator::new(SHUFFLE_SAMPLE_LIMIT),
            remote_addr_sample: Decimator::new(ADDR_SAMPLE_LIMIT),
            random_addr_sample: Decimator::new(ADDR_SAMPLE_LIMIT),
            atomic_addr_sample: Decimator::new(ADDR_SAMPLE_LIMIT),
        }
    }

    /// Adds a recorded tile to the workload, digesting its SRAM and
    /// shuffle samples once.
    pub fn commit(&mut self, recorder: TileRecorder) {
        let mut work = recorder.into_work();
        work.sram.digest = SampleDigest::of_sram(&work.sram.sampled);
        work.remote.digest = SampleDigest::of_shuffle(&work.remote.sampled);
        self.tiles.push(work);
    }

    /// Marks the workload as `rounds` dependent (non-pipelinable) rounds.
    pub fn set_dependent_rounds(&mut self, rounds: u64) {
        self.dependent_rounds = rounds;
    }

    /// Declares that each pipeline consumes `n` CUs (scanner-only CU
    /// feeding a compute CU uses 2).
    pub fn set_cus_per_pipeline(&mut self, n: usize) {
        assert!(n > 0, "a pipeline needs at least one CU");
        self.cus_per_pipeline = n;
    }

    /// Finalizes the workload, counting one recording ([`recordings`]).
    pub fn finish(self) -> Workload {
        RECORDINGS.fetch_add(1, Ordering::Relaxed);
        Workload {
            name: self.name,
            tiles: self.tiles,
            dependent_rounds: self.dependent_rounds,
            cus_per_pipeline: self.cus_per_pipeline,
            samples_dropped: false,
        }
    }
}

/// Records one tile's execution; the application's loop bodies run inside.
#[derive(Debug)]
pub struct TileRecorder {
    work: TileWork,
    scanner: BitVecScanner,
    data_scanner: DataScanner,
    lanes: usize,
    shuffle_ports: usize,
    lane_cursor: usize,
    in_vector_loop: bool,
    access_seq: usize,
    /// One access-vector builder per distinct SRAM access site in the
    /// current vectorized loop body.
    builders: Vec<Vec<Option<LaneRequest>>>,
    remote_builder: Vec<Option<ShuffleEntry>>,
    sram_sample: Decimator<AccessVector>,
    remote_sample: Decimator<ShuffleVector>,
    remote_addr_sample: Decimator<u64>,
    random_addr_sample: Decimator<u64>,
    atomic_addr_sample: Decimator<u64>,
}

impl TileRecorder {
    /// Finalizes the recording into a [`TileWork`].
    fn into_work(mut self) -> TileWork {
        self.flush_accesses();
        self.flush_remote();
        self.work.sram.sampled = std::mem::take(&mut self.sram_sample).into_items();
        self.work.remote.sampled = std::mem::take(&mut self.remote_sample).into_items();
        self.work.remote.addr_sampled = std::mem::take(&mut self.remote_addr_sample).into_items();
        self.work.dram_random_addrs = std::mem::take(&mut self.random_addr_sample).into_items();
        self.work.dram_atomic_addrs = std::mem::take(&mut self.atomic_addr_sample).into_items();
        self.work
    }

    /// A dense, vectorized `Foreach` (paper §2.3's
    /// `Foreach(0 until n par 16)`): the body runs once per element; every
    /// `lanes` consecutive iterations form one hardware vector.
    pub fn foreach_vec(&mut self, n: usize, mut body: impl FnMut(&mut Self, usize)) {
        self.begin_vector_loop();
        for i in 0..n {
            self.access_seq = 0;
            body(self, i);
            self.advance_lane();
        }
        self.end_vector_loop(n as u64);
    }

    /// A sparse `Foreach(Scan(...))` loop (paper §2.3): iterates the
    /// intersection or union of one or two bit-vectors; the body receives
    /// the scanner tuple `(j, jA, jB, j')`.
    pub fn scan(
        &mut self,
        mode: ScanMode,
        a: &BitVec,
        b: Option<&BitVec>,
        mut body: impl FnMut(&mut Self, ScanElement),
    ) {
        self.begin_vector_loop();
        let scanner = self.scanner;
        let stats = scanner.for_each(mode, a, b, |e| {
            self.access_seq = 0;
            body(self, e);
            self.advance_lane();
        });
        self.record_scan_inputs(a, b, stats);
        self.end_vector_loop(stats.emitted);
    }

    /// An *outer* sparse loop (paper Table 2's "Loop Over" level 1): the
    /// scanner produces the iteration space, but each element drives a
    /// nested loop, so the body runs in scalar context and may contain
    /// `foreach_vec`/`scan` loops. Scanner cycles are still recorded (the
    /// header pipelines with the inner loops; `perf` takes the max).
    pub fn scan_outer(
        &mut self,
        mode: ScanMode,
        a: &BitVec,
        b: Option<&BitVec>,
        mut body: impl FnMut(&mut Self, ScanElement),
    ) {
        let scanner = self.scanner;
        let stats = scanner.for_each(mode, a, b, |e| body(self, e));
        self.record_scan_inputs(a, b, stats);
    }

    /// An outer sparse loop over raw data values (the data scanner
    /// feeding nested loops — the Conv pattern of paper Table 2).
    pub fn scan_data_outer(&mut self, data: &[Value], mut body: impl FnMut(&mut Self, u32, Value)) {
        let (nz, stats) = self.data_scanner.scan(data);
        self.work.scan_cycles += stats.cycles;
        self.work.scan_empty_cycles += stats.empty_window_cycles;
        self.work.scan_emitted += stats.emitted;
        self.work.scan_input_bits += data.len() as u64;
        self.work.scan_input_nnz += stats.emitted;
        for (i, v) in nz {
            body(self, i, v);
        }
    }

    /// Nested two-pass bit-tree iteration (paper §2.3).
    pub fn scan_bittree(
        &mut self,
        mode: ScanMode,
        a: &BitTree,
        b: &BitTree,
        mut body: impl FnMut(&mut Self, u32),
    ) {
        let (positions, stats) = capstan_arch::scanner::scan_bittree(&self.scanner, mode, a, b);
        self.work.scan_cycles += stats.cycles;
        self.work.scan_empty_cycles += stats.empty_window_cycles;
        self.work.scan_emitted += stats.emitted;
        self.work.scan_input_nnz += (a.count_ones() + b.count_ones()) as u64;
        self.work.scan_input_bits += (a.root().len() + b.root().len()) as u64
            + (a.leaves().len() + b.leaves().len()) as u64 * 512;
        self.begin_vector_loop();
        for p in positions {
            self.access_seq = 0;
            body(self, p);
            self.advance_lane();
        }
        self.end_vector_loop(stats.emitted);
    }

    fn record_scan_inputs(&mut self, a: &BitVec, b: Option<&BitVec>, stats: ScanStats) {
        self.work.scan_cycles += stats.cycles;
        self.work.scan_empty_cycles += stats.empty_window_cycles;
        self.work.scan_emitted += stats.emitted;
        self.work.scan_input_nnz += a.count_ones() as u64;
        self.work.scan_input_bits += a.len() as u64;
        if let Some(b) = b {
            self.work.scan_input_nnz += b.count_ones() as u64;
            self.work.scan_input_bits += b.len() as u64;
        }
    }

    // --- memory operations --------------------------------------------------

    /// Records a pointer-list to bit-vector conversion through the
    /// compute tile's format converter (paper §3.4): one pointer vector
    /// per cycle, charged to the loop-header (scan) stage it feeds.
    pub fn convert_pointers(&mut self, count: usize) {
        let converter = capstan_arch::fmtconv::FormatConverter::default();
        self.work.scan_cycles += converter.convert_cycles(count);
    }

    /// Records a random SRAM read from the tile-local SpMU.
    pub fn sram_read(&mut self, addr: u32) {
        self.push_access(LaneRequest::read(addr));
    }

    /// Records an atomic SRAM read-modify-write (paper §3.1's RMW FPU).
    pub fn sram_rmw(&mut self, addr: u32, op: RmwOp) {
        self.push_access(LaneRequest::rmw(addr, op));
    }

    /// Records a cross-tile update routed through the shuffle network to
    /// `dest_tile`'s memory (paper §3.2).
    pub fn remote_update(&mut self, dest_tile: usize) {
        let port = (dest_tile % self.shuffle_ports) as u32;
        let lane = self.lane_cursor;
        self.remote_builder.resize(self.lanes, None);
        if self.remote_builder[lane].is_some() {
            self.flush_remote();
            self.remote_builder.resize(self.lanes, None);
        }
        self.remote_builder[lane] = Some(ShuffleEntry { dest: port, lane });
        self.work.remote.total_entries += 1;
    }

    /// Records a cross-tile update like [`TileRecorder::remote_update`],
    /// additionally sampling the destination *word address* `addr` (the
    /// remote entry being updated — e.g. the vertex id of a graph
    /// update). The sample drives the cycle-level memory mode's
    /// recorded-address replay on machines without a shuffle network,
    /// where these updates fall back to DRAM atomics; hub-heavy
    /// destination skew then coalesces in the AGs' open-burst caches.
    pub fn remote_update_at(&mut self, dest_tile: usize, addr: u64) {
        self.remote_update(dest_tile);
        self.remote_addr_sample.offer(addr);
    }

    /// Records a streaming DRAM read of `bytes` (dense tile loads).
    pub fn dram_stream_read(&mut self, bytes: usize) {
        self.work.dram_stream_bytes += bytes as u64;
    }

    /// Records a streaming DRAM write of `bytes`.
    pub fn dram_stream_write(&mut self, bytes: usize) {
        self.work.dram_stream_bytes += bytes as u64;
    }

    /// Records a streaming read of a *compressible pointer tile* (§3.4):
    /// the words are compressed with the base/offset format to determine
    /// the on-wire size when compression is enabled.
    pub fn dram_pointer_read(&mut self, words: &[u32]) {
        let bytes = words.len() as u64 * 4;
        self.work.dram_stream_bytes += bytes;
        self.work.dram_compressible_bytes += bytes;
        // Compress a bounded prefix and extrapolate the ratio.
        const CAP: usize = 1 << 16;
        let sample = &words[..words.len().min(CAP)];
        if sample.is_empty() {
            return;
        }
        let tile = CompressedTile::compress(sample);
        // Incompressible tiles are left uncompressed (pre-compression is
        // a programmer choice, §3.4), so the ratio never exceeds 1.
        let ratio = (tile.traffic_bytes() as f64 / tile.original_bytes().max(1) as f64).min(1.0);
        self.work.dram_compressed_bytes += (bytes as f64 * ratio).ceil() as u64;
    }

    /// Records `words` random-access DRAM reads (burst-granular).
    pub fn dram_random_read(&mut self, words: u64) {
        self.work.dram_random_words += words;
    }

    /// Records one burst-granular random-access DRAM read at word
    /// address `addr`, sampling the address for the cycle-level memory
    /// mode's recorded-address replay (counts exactly like
    /// `dram_random_read(1)`).
    pub fn dram_random_read_at(&mut self, addr: u64) {
        self.work.dram_random_words += 1;
        self.random_addr_sample.offer(addr);
    }

    /// Records `words` atomic DRAM read-modify-writes through an AG.
    pub fn dram_atomic(&mut self, words: u64) {
        self.work.dram_atomic_words += words;
    }

    /// Records one atomic DRAM read-modify-write at word address
    /// `addr`, sampling the address for the cycle-level memory mode's
    /// recorded-address replay (counts exactly like `dram_atomic(1)`).
    /// Repeated hot addresses — power-law hubs, conv halo cells — let
    /// the replay coalesce in the AGs' open-burst caches the way the
    /// paper's hardware does (§3.4).
    pub fn dram_atomic_at(&mut self, addr: u64) {
        self.work.dram_atomic_words += 1;
        self.atomic_addr_sample.offer(addr);
    }

    // --- internals -----------------------------------------------------------

    fn begin_vector_loop(&mut self) {
        assert!(
            !self.in_vector_loop,
            "vectorized loops cannot nest; vectorize the innermost loop only"
        );
        // Flush any scalar-context accesses accumulated before the loop.
        self.flush_accesses();
        self.flush_remote();
        self.in_vector_loop = true;
        self.lane_cursor = 0;
    }

    fn advance_lane(&mut self) {
        self.lane_cursor += 1;
        if self.lane_cursor == self.lanes {
            self.flush_accesses();
            self.flush_remote();
            self.lane_cursor = 0;
        }
    }

    fn end_vector_loop(&mut self, elements: u64) {
        if self.lane_cursor > 0 {
            self.flush_accesses();
            self.flush_remote();
            self.lane_cursor = 0;
        }
        self.in_vector_loop = false;
        self.work.lane_work += elements;
        self.work.vectors += elements.div_ceil(self.lanes as u64);
    }

    fn push_access(&mut self, req: LaneRequest) {
        if !self.in_vector_loop {
            // Scalar context: pack sequential scalar accesses into lanes.
            self.access_seq = 0;
            if self.builders.is_empty() {
                self.builders.push(vec![None; self.lanes]);
            }
            let lane = self.lane_cursor;
            if self.builders[0][lane].is_some() {
                self.flush_accesses();
                self.builders.push(vec![None; self.lanes]);
            }
            self.builders[0][lane] = Some(req);
            self.record_request(&req);
            self.lane_cursor = (self.lane_cursor + 1) % self.lanes;
            if self.lane_cursor == 0 {
                self.flush_accesses();
            }
            return;
        }
        while self.builders.len() <= self.access_seq {
            self.builders.push(vec![None; self.lanes]);
        }
        self.builders[self.access_seq][self.lane_cursor] = Some(req);
        self.record_request(&req);
        self.access_seq += 1;
    }

    fn record_request(&mut self, req: &LaneRequest) {
        self.work.sram.total_requests += 1;
        if req.op.is_update() {
            self.work.sram.rmw_requests += 1;
        }
    }

    fn flush_accesses(&mut self) {
        for lanes in self.builders.drain(..) {
            if lanes.iter().any(Option::is_some) {
                self.work.sram.total_vectors += 1;
                self.sram_sample.offer(AccessVector::new(lanes));
            }
        }
    }

    fn flush_remote(&mut self) {
        if self.remote_builder.iter().any(Option::is_some) {
            self.work.remote.total_vectors += 1;
            let v = std::mem::take(&mut self.remote_builder);
            self.remote_sample.offer(v);
        }
    }
}

impl<T> Decimator<T> {
    /// Consumes the decimator, returning the retained sample.
    fn into_items(self) -> Vec<T> {
        self.items
    }
}

impl<T> Default for Decimator<T> {
    fn default() -> Self {
        Decimator::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn foreach_vec_counts_vectors_and_lanes() {
        let mut wl = WorkloadBuilder::new("t");
        {
            let mut t = wl.tile();
            t.foreach_vec(40, |_, _| {});
            wl.commit(t);
        }
        let w = wl.finish();
        assert_eq!(w.tiles[0].lane_work, 40);
        assert_eq!(w.tiles[0].vectors, 3); // ceil(40/16)
    }

    #[test]
    fn bodies_execute_functionally() {
        let mut wl = WorkloadBuilder::new("t");
        let mut sum = 0usize;
        {
            let mut t = wl.tile();
            t.foreach_vec(10, |_, i| sum += i);
            wl.commit(t);
        }
        assert_eq!(sum, 45);
    }

    #[test]
    fn sram_accesses_group_into_vectors_by_site() {
        let mut wl = WorkloadBuilder::new("t");
        {
            let mut t = wl.tile();
            // 16 iterations, two access sites each -> 2 vectors of 16.
            t.foreach_vec(16, |t, i| {
                t.sram_read(i as u32);
                t.sram_rmw(1000 + i as u32, RmwOp::AddF);
            });
            wl.commit(t);
        }
        let w = wl.finish();
        let sram = &w.tiles[0].sram;
        assert_eq!(sram.total_vectors, 2);
        assert_eq!(sram.total_requests, 32);
        assert_eq!(sram.rmw_requests, 16);
        assert_eq!(sram.sampled.len(), 2);
        assert_eq!(sram.sampled[0].occupancy(), 16);
    }

    #[test]
    fn partial_vectors_flush_at_loop_end() {
        let mut wl = WorkloadBuilder::new("t");
        {
            let mut t = wl.tile();
            t.foreach_vec(5, |t, i| t.sram_read(i as u32));
            wl.commit(t);
        }
        let w = wl.finish();
        assert_eq!(w.tiles[0].sram.total_vectors, 1);
        assert_eq!(w.tiles[0].sram.sampled[0].occupancy(), 5);
    }

    #[test]
    fn scalar_accesses_pack_into_lanes() {
        let mut wl = WorkloadBuilder::new("t");
        {
            let mut t = wl.tile();
            for i in 0..20u32 {
                t.sram_read(i);
            }
            wl.commit(t);
        }
        let w = wl.finish();
        assert_eq!(w.tiles[0].sram.total_vectors, 2);
        assert_eq!(w.tiles[0].sram.total_requests, 20);
    }

    #[test]
    fn scan_records_stats_and_executes_body() {
        let a = BitVec::from_indices(512, &[0, 10, 300]).unwrap();
        let b = BitVec::from_indices(512, &[10, 300, 400]).unwrap();
        let mut wl = WorkloadBuilder::new("t");
        let mut seen = Vec::new();
        {
            let mut t = wl.tile();
            t.scan(ScanMode::Intersect, &a, Some(&b), |_, e| seen.push(e.j));
            wl.commit(t);
        }
        assert_eq!(seen, vec![10, 300]);
        let w = wl.finish();
        assert_eq!(w.tiles[0].scan_emitted, 2);
        assert_eq!(w.tiles[0].scan_input_nnz, 6);
        assert_eq!(w.tiles[0].scan_input_bits, 1024);
        assert!(w.tiles[0].scan_cycles >= 2);
        assert_eq!(w.tiles[0].lane_work, 2);
    }

    #[test]
    fn remote_updates_fill_shuffle_vectors() {
        let mut wl = WorkloadBuilder::new("t");
        {
            let mut t = wl.tile();
            t.foreach_vec(32, |t, i| t.remote_update(i % 7));
            wl.commit(t);
        }
        let w = wl.finish();
        assert_eq!(w.tiles[0].remote.total_entries, 32);
        assert_eq!(w.tiles[0].remote.total_vectors, 2);
    }

    #[test]
    fn commit_digests_the_samples_and_drop_samples_keeps_the_digests() {
        let mut wl = WorkloadBuilder::new("t");
        {
            let mut t = wl.tile();
            t.foreach_vec(40, |t, i| {
                t.sram_rmw(i as u32 * 3, RmwOp::AddF);
                t.remote_update_at(i % 7, i as u64);
                t.dram_atomic_at(i as u64);
            });
            wl.commit(t);
        }
        let mut w = wl.finish();
        let tile = w.tiles[0].clone();
        assert_eq!(
            tile.sram.digest(),
            SampleDigest::of_sram(&tile.sram.sampled)
        );
        assert_eq!(
            tile.remote.digest(),
            SampleDigest::of_shuffle(&tile.remote.sampled)
        );
        assert_eq!(tile.sram.digest().vectors, 3);
        assert_eq!(tile.sram.digest().lanes, 40);
        assert_eq!(tile.remote.digest().lanes, 40);
        w.drop_samples();
        let kept = &w.tiles[0];
        assert!(w.samples_dropped());
        assert!(kept.sram.sampled.is_empty() && kept.remote.sampled.is_empty());
        assert!(kept.remote.addr_sampled.is_empty() && kept.dram_atomic_addrs.is_empty());
        assert_eq!(kept.sram.digest(), tile.sram.digest());
        assert_eq!(kept.remote.digest(), tile.remote.digest());
    }

    #[test]
    fn finish_counts_recordings() {
        // Other tests record concurrently, so the count only grows.
        let before = recordings();
        WorkloadBuilder::new("t").finish();
        assert!(recordings() > before);
    }

    #[test]
    fn pointer_reads_account_compression() {
        let mut wl = WorkloadBuilder::new("t");
        {
            let mut t = wl.tile();
            let ptrs: Vec<u32> = (0..1024u32).map(|i| 100_000 + i / 4).collect();
            t.dram_pointer_read(&ptrs);
            wl.commit(t);
        }
        let w = wl.finish();
        let tile = &w.tiles[0];
        assert_eq!(tile.dram_compressible_bytes, 4096);
        assert!(tile.dram_compressed_bytes < tile.dram_compressible_bytes / 2);
    }

    #[test]
    fn address_recording_samples_and_counts() {
        let mut wl = WorkloadBuilder::new("t");
        {
            let mut t = wl.tile();
            for i in 0..100u64 {
                t.dram_atomic_at(i % 8); // hot set
                t.dram_random_read_at(i * 16);
            }
            t.dram_atomic(50); // count-only API still composes
            t.foreach_vec(32, |t, i| t.remote_update_at(i % 5, (i % 3) as u64));
            wl.commit(t);
        }
        let w = wl.finish();
        let tile = &w.tiles[0];
        assert_eq!(tile.dram_atomic_words, 150);
        assert_eq!(tile.dram_random_words, 100);
        assert_eq!(tile.remote.total_entries, 32);
        assert!(!tile.dram_atomic_addrs.is_empty());
        assert!(tile.dram_atomic_addrs.iter().all(|&a| a < 8));
        assert!(!tile.dram_random_addrs.is_empty());
        assert!(!tile.remote.addr_sampled.is_empty());
        assert!(tile.remote.addr_sampled.iter().all(|&a| a < 3));
    }

    #[test]
    fn address_samples_stay_bounded() {
        let mut wl = WorkloadBuilder::new("t");
        {
            let mut t = wl.tile();
            for i in 0..100_000u64 {
                t.dram_atomic_at(i);
            }
            wl.commit(t);
        }
        let w = wl.finish();
        let sample = &w.tiles[0].dram_atomic_addrs;
        assert!(
            sample.len() <= 2 * ADDR_SAMPLE_LIMIT,
            "sample grew to {}",
            sample.len()
        );
        // The sample spans the stream, not just its head.
        assert!(*sample.last().unwrap() > 50_000);
        assert_eq!(w.tiles[0].dram_atomic_words, 100_000);
    }

    #[test]
    fn count_only_recordings_leave_address_samples_empty() {
        let mut wl = WorkloadBuilder::new("t");
        {
            let mut t = wl.tile();
            t.dram_atomic(100);
            t.dram_random_read(100);
            t.foreach_vec(16, |t, i| t.remote_update(i % 4));
            wl.commit(t);
        }
        let w = wl.finish();
        let tile = &w.tiles[0];
        assert!(tile.dram_atomic_addrs.is_empty());
        assert!(tile.dram_random_addrs.is_empty());
        assert!(tile.remote.addr_sampled.is_empty());
    }

    #[test]
    fn decimator_bounds_memory() {
        let mut d: Decimator<u64> = Decimator::new(64);
        for i in 0..100_000u64 {
            d.offer(i);
        }
        assert_eq!(d.seen, 100_000);
        let items = d.into_items();
        assert!(items.len() <= 128);
        // The sample spans the stream, not just its head.
        assert!(*items.last().unwrap() > 50_000);
    }

    #[test]
    #[should_panic(expected = "cannot nest")]
    fn nested_vector_loops_panic() {
        let mut wl = WorkloadBuilder::new("t");
        let mut t = wl.tile();
        t.foreach_vec(4, |t, _| {
            t.foreach_vec(4, |_, _| {});
        });
        wl.commit(t);
    }
}
