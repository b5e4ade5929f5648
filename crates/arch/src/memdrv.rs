//! Cycle-level memory-system driver (`MemTiming::CycleLevel`).
//!
//! The analytic performance engine prices a workload's DRAM traffic in
//! closed form ([`capstan_sim::dram::DramModel::transfer_cycles`]),
//! which cannot capture bank contention, row conflicts, or the atomics
//! serialization that dominates the paper's Table 13 comparisons
//! (Graphicionado, SpArch). [`MemSysSim`] is the cycle-level
//! alternative: it replays each tile's recorded DRAM traffic — streaming
//! bursts, random/pointer words, and atomic read-modify-write words —
//! through *real* simulated units, ticked in lockstep until the traffic
//! drains.
//!
//! # Multi-channel topology
//!
//! Capstan attaches its 80 address generators to mutually-exclusive
//! memory regions (paper §3.4, Table 7), so DRAM bandwidth and atomic
//! serialization are **per-region** effects. The driver models this
//! with [`MemSysConfig::channels`] independent region channels behind a
//! deterministic crossbar:
//!
//! * Streaming and random bursts route through a
//!   [`ChannelArray`] — N [`capstan_sim::dram::BankedDramChannel`]s
//!   whose crossbar maps a
//!   burst address to its owning channel by the address's *region bits*
//!   (the bits above the DRAM row index), so rows stay whole and
//!   consecutive rows rotate across channels.
//! * Atomic words route through N per-region [`AddressGenerator`]s: the
//!   atomic address space is `channels x ag_region_words` words, and the
//!   high region bits of each generated address select the owning AG
//!   (each AG sees only its own `ag_region_words`-word region, the
//!   paper's mutually-exclusive-region contract).
//!
//! `channels = 1` (the default) degenerates to exactly the
//! single-channel, single-AG topology — bit-identical to it, which is
//! what keeps the committed golden pins in
//! `tests/determinism_golden.rs` valid under the default configuration.
//! Paper scale is [`PAPER_CHANNELS`] (one channel per AG).
//!
//! # Multi-tenant traffic
//!
//! The driver can interleave up to [`MAX_TENANTS`] tenants' traffic
//! ([`MemSysConfig::tenants`]): each tenant owns a private replay lane
//! (pending counters, frozen per-class cursors, recorded replay
//! buffers, statistics), every request tag carries the tenant id in its
//! high bits, and completions are attributed back to their tenant for
//! per-tenant stats ([`TenantStats`]: completion cycle, served counts,
//! AG fetches, queue-occupancy share, latency histogram). Under
//! [`TenantPartition::Shared`] all tenants contend for one channel
//! array in weighted round-robin issue order; under
//! [`TenantPartition::Dedicated`] the channels split into equal private
//! groups, making each tenant's drain independent of its co-tenants.
//! `tenants = 1` (the default) is bit-identical to the pre-tenancy
//! driver — the invariant behind every committed golden pin — proven by
//! `tests/mem_multitenant_differential.rs`.
//!
//! # Scattered addresses: synthetic streams or recorded vectors
//!
//! Scattered traffic (random reads and atomics) needs concrete
//! addresses. By default each class draws from a synthetic uniform
//! `AddressStream`; alternatively, a tile can be queued with its
//! *recorded* address sample ([`MemSysSim::add_tile_recorded`] — the
//! bounded deterministic samples `capstan_core::program`'s recorder
//! captures). Recorded replay cycles through the sample to cover the
//! class's full word count, so a power-law destination distribution
//! reaches the AGs with its real skew and coalesces in their
//! open-burst caches — the effect the paper's Table 13 workloads
//! depend on and a uniform stream cannot show. A class with **no**
//! recorded addresses falls back to its synthetic stream bit-for-bit,
//! which is what keeps every committed golden pin valid under the
//! default configuration.
//!
//! # Determinism contract
//!
//! The driver consults no randomness and no wall-clock time: streaming
//! addresses are sequential, scattered addresses come either from fixed
//! SplitMix-style counter generators (one `AddressStream` per traffic
//! class, constructed by the same parameterized constructor so the
//! classes cannot drift) or from the recorded samples replayed
//! cyclically in queue order, the crossbar route is a pure function of
//! the address, and every simulated unit is deterministic — so the
//! resulting cycle count, and the completion stream pinned by
//! `tests/determinism_golden.rs`, is machine-independent and identical
//! across `CAPSTAN_THREADS` settings.
//!
//! # Allocation contract
//!
//! Every buffer is either fixed at construction (the channels' per-bank
//! queues, the merged completion buffer) or grows to a bounded
//! high-water mark during warm-up (each AG's slab and waiter arena,
//! bounded by the outstanding-access window). The steady-state
//! [`MemSysSim::tick`] loop performs **zero** heap allocations, and so
//! does the persistent-driver reuse path ([`MemSysSim::reset`] +
//! replay) — both proven by the counting-allocator tests in
//! `crates/arch/tests/alloc_free.rs`.

use crate::ag::{AddressGenerator, DramAccess, BURST_WORDS};
use crate::spmu::RmwOp;
use capstan_sim::channel::MemChannel;
use capstan_sim::dram::{
    BankTiming, BankedStats, BurstRequest, ChannelArray, DramModel, BURST_BYTES,
};

/// One tile's DRAM traffic, as recorded by the workload builder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileTraffic {
    /// Streaming (sequential) bursts: dense tile loads and stores.
    pub stream_bursts: u64,
    /// Independent random-read bursts (pointer chasing).
    pub random_bursts: u64,
    /// Atomic read-modify-write words routed through the AGs.
    pub atomic_words: u64,
}

/// Aggregate statistics of one cycle-level memory simulation, rolled up
/// across every region channel and AG (per-channel breakdowns are
/// available through [`MemSysSim::channel_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Cycles until the last burst drained (the DRAM time).
    pub cycles: u64,
    /// Region channels (and per-region AGs) the simulation ran with.
    pub channels: u64,
    /// Streaming bursts replayed.
    pub stream_bursts: u64,
    /// Random bursts replayed.
    pub random_bursts: u64,
    /// Atomic words replayed through the AGs.
    pub atomic_words: u64,
    /// Row hits, summed over channels.
    pub row_hits: u64,
    /// Row conflicts (an open row was closed), summed over channels.
    pub row_conflicts: u64,
    /// Cycles requests waited in bank queues beyond the CAS latency,
    /// summed over channels.
    pub contention_cycles: u64,
    /// Cycles banks spent busy, summed over banks and channels.
    pub bank_busy_cycles: u64,
    /// Highest per-bank queue occupancy observed on any channel.
    pub peak_bank_queue: u64,
    /// Bursts the AGs fetched for atomic execution, summed.
    pub ag_bursts_fetched: u64,
    /// Dirty bursts the AGs wrote back, summed.
    pub ag_bursts_written: u64,
}

/// Paper-scale channel count: one region channel per address generator
/// (80 AGs, Table 7).
pub const PAPER_CHANNELS: usize = 80;

/// Hard cap on tenants sharing one driver. Small by design: the tenant
/// id is encoded in the high bits of every request tag, and the weight
/// table is a fixed array so [`MemSysConfig`] stays `Copy + Eq` (the
/// persistent-driver pool in `capstan_core::perf` keys on it).
pub const MAX_TENANTS: usize = 8;

/// Identity of one tenant whose traffic is interleaved through the
/// driver. Tenant 0 is the default: every single-tenant entry point
/// ([`MemSysSim::add_tile`], [`MemSysSim::add_tile_recorded`]) queues
/// for tenant 0, and a `tenants = 1` driver is bit-identical to the
/// pre-tenancy driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub usize);

/// How the region channels are divided among tenants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TenantPartition {
    /// Every tenant issues into one shared [`ChannelArray`] (and its
    /// per-region AGs) in weighted round-robin order — tenants contend
    /// for banks, rows, and AG windows exactly like co-scheduled
    /// workloads on one memory system.
    #[default]
    Shared,
    /// The channels are split into `tenants` equal private groups, one
    /// per tenant (requires `channels % tenants == 0`). A tenant's
    /// drain is then completely independent of its co-tenants' load —
    /// the isolation invariant proven in
    /// `tests/mem_multitenant_differential.rs`.
    Dedicated,
}

/// Latency-histogram buckets in [`TenantStats::latency_hist`].
pub const LATENCY_BUCKETS: usize = 8;

/// Upper bounds (inclusive) of the first `LATENCY_BUCKETS - 1` latency
/// buckets, in cycles; the last bucket is the overflow.
pub const LATENCY_BUCKET_BOUNDS: [u64; LATENCY_BUCKETS - 1] = [16, 32, 64, 128, 256, 512, 1024];

/// Per-tenant statistics of one cycle-level memory simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Streaming bursts queued for this tenant.
    pub queued_stream_bursts: u64,
    /// Random bursts queued for this tenant.
    pub queued_random_bursts: u64,
    /// Atomic words queued for this tenant.
    pub queued_atomic_words: u64,
    /// Requests accepted by the issue stage (all three classes).
    pub submitted: u64,
    /// Requests whose completions have been observed (channel serves
    /// plus released AG results). After [`MemSysSim::run`] this equals
    /// `submitted` — the per-tenant conservation invariant.
    pub completed: u64,
    /// AG burst fetches attributed to this tenant: accepted submissions
    /// to bursts no AG was tracking at submission time (re-fetches
    /// behind a racing writeback are not attributed, so the sum over
    /// tenants is a lower bound of [`MemStats::ag_bursts_fetched`]).
    pub ag_fetch_bursts: u64,
    /// Sum over cycles of this tenant's outstanding requests — the
    /// tenant's share of queue occupancy (divide by the drain cycles
    /// for the mean).
    pub occupancy_cycles: u64,
    /// First cycle at which the tenant had queued traffic but nothing
    /// pending or outstanding (0 for a tenant that queued nothing).
    pub completion_cycle: u64,
    /// Request-latency histogram: bucket `i < LATENCY_BUCKETS - 1`
    /// counts completions with issue-to-completion latency `<=`
    /// [`LATENCY_BUCKET_BOUNDS`]`[i]` (and above the previous bound);
    /// the last bucket is the overflow.
    pub latency_hist: [u64; LATENCY_BUCKETS],
}

/// Configuration of the cycle-level memory driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSysConfig {
    /// Banked-channel timing (banks, queues, CAS latency, row size),
    /// applied to every region channel.
    pub timing: BankTiming,
    /// Independent region channels (each pairing one banked DRAM
    /// channel with one AG region). 1 — the default — reproduces the
    /// single-channel topology bit-for-bit; [`PAPER_CHANNELS`] is the
    /// paper's design point.
    pub channels: usize,
    /// Words in each AG's atomic region (addresses wrap into the
    /// combined `channels x ag_region_words` space and the high region
    /// bits select the owning AG).
    pub ag_region_words: usize,
    /// Simultaneously open bursts each AG tracks (§3.4's burst cache).
    pub ag_open_bursts: usize,
    /// Memory requests the fabric can issue per cycle (all AGs
    /// combined).
    pub issue_width: usize,
    /// Outstanding-atomic window *per AG*: submissions throttle above
    /// this, which bounds each AG's internal state (see the allocation
    /// contract).
    pub max_outstanding_atomics: u64,
    /// Has no effect; kept only so external code that still assigns it compiles.
    pub fast_forward: bool,
    /// Tenants whose traffic the driver interleaves (`1..=MAX_TENANTS`).
    /// 1 — the default — is the single-tenant driver, bit-identical to
    /// the pre-tenancy code path regardless of `partition` (one tenant
    /// owns every channel either way).
    pub tenants: usize,
    /// How the region channels are divided among tenants.
    pub partition: TenantPartition,
    /// Issue weights of the shared-partition round-robin schedule:
    /// tenant `t` gets `tenant_weights[t].max(1)` issue opportunities
    /// per round. Entries beyond `tenants` are ignored; the dedicated
    /// partition ignores the table entirely (each tenant has a private
    /// issue budget of `issue_width / tenants`, at least 1).
    pub tenant_weights: [u8; MAX_TENANTS],
}

impl MemSysConfig {
    /// The default driver geometry for a memory system (one region
    /// channel — the bit-compatible topology every committed golden
    /// value was captured under).
    pub fn for_model(model: &DramModel) -> Self {
        MemSysConfig {
            timing: BankTiming::for_model(model),
            channels: 1,
            ag_region_words: 1 << 16,
            ag_open_bursts: 64,
            issue_width: 16,
            max_outstanding_atomics: 256,
            fast_forward: false,
            tenants: 1,
            partition: TenantPartition::Shared,
            tenant_weights: [1; MAX_TENANTS],
        }
    }

    /// The default geometry with `channels` region channels.
    pub fn with_channels(model: &DramModel, channels: usize) -> Self {
        MemSysConfig {
            channels: channels.max(1),
            ..MemSysConfig::for_model(model)
        }
    }

    /// The default geometry with `channels` region channels shared (or
    /// partitioned, per `partition`) among `tenants` tenants.
    pub fn with_tenants(
        model: &DramModel,
        channels: usize,
        tenants: usize,
        partition: TenantPartition,
    ) -> Self {
        MemSysConfig {
            tenants: tenants.clamp(1, MAX_TENANTS),
            partition,
            ..MemSysConfig::with_channels(model, channels)
        }
    }
}

/// Deterministic SplitMix64 step (the scattered-address generator).
fn splitmix(state: u64) -> (u64, u64) {
    let next = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = next;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (next, z ^ (z >> 31))
}

/// A deterministic scattered-address stream for one traffic class: a
/// SplitMix64 counter generator whose values wrap into the class's
/// address span.
///
/// Every scattered class (random reads, atomics) is built by the same
/// [`AddressStream::new`] constructor, parameterized only by seed and
/// span — so the per-region steering, which divides the generated
/// address by the per-region size, can never drift between classes.
/// Peek/advance are split so a backpressured request retries the *same*
/// address next cycle (the stream only advances on acceptance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AddressStream {
    seed: u64,
    state: u64,
    /// Modulus the raw SplitMix value wraps into (a burst or word count).
    span: u64,
}

impl AddressStream {
    /// A stream over `[0, span)` with the given seed.
    fn new(seed: u64, span: u64) -> Self {
        debug_assert!(span > 0, "address stream needs a non-empty span");
        AddressStream {
            seed,
            state: seed,
            span,
        }
    }

    /// The next address, without consuming it.
    fn peek(&self) -> u64 {
        splitmix(self.state).1 % self.span
    }

    /// Consumes the peeked address.
    fn advance(&mut self) {
        self.state = splitmix(self.state).0;
    }

    /// Rewinds the stream to its seed (the persistent-driver reset).
    fn reset(&mut self) {
        self.state = self.seed;
    }
}

/// Base byte address of the streaming region (clear of the scattered
/// region so the two traffic classes never alias rows).
const STREAM_BASE: u64 = 1 << 40;
/// Scattered random reads spread over this many bursts (64 MiB).
const RANDOM_REGION_BURSTS: u64 = 1 << 20;
/// Seed of the scattered-read address stream.
const RANDOM_SEED: u64 = 0x00C0_FFEE_D00D_F00D;
/// Seed of the atomic address stream.
const ATOMIC_SEED: u64 = 0x0A70_3A1C_5EED_0001;
/// Per-tenant offset added to both class seeds (an arbitrary odd
/// constant, deliberately *not* the SplitMix increment so tenant
/// streams are not shifted copies of each other). Tenant 0's seeds are
/// exactly the pre-tenancy seeds.
const TENANT_SEED_STRIDE: u64 = 0xD1B5_4A32_D192_ED03;
/// Per-tenant stride of the streaming region (64 GiB apart, so tenants'
/// streams never alias rows). Tenant 0 streams from `STREAM_BASE`
/// exactly as the pre-tenancy driver did.
const TENANT_STREAM_STRIDE: u64 = 1 << 36;
/// Bit position of the tenant id inside a request tag. The low 56 bits
/// carry the global issue sequence number, so tenant 0's tags (and the
/// golden-pinned completion stream) are unchanged from the pre-tenancy
/// single-counter tags.
const TAG_TENANT_SHIFT: u32 = 56;
/// Mask extracting the sequence number from a tag.
const TAG_SEQ_MASK: u64 = (1 << TAG_TENANT_SHIFT) - 1;

/// Streaming byte address of one tenant's next sequential burst.
fn stream_addr(tenant: usize, cursor: u64) -> u64 {
    STREAM_BASE + tenant as u64 * TENANT_STREAM_STRIDE + cursor * BURST_BYTES
}

/// One partition group: a [`ChannelArray`] of banked DRAM channels plus
/// one [`AddressGenerator`] per channel of the group. The shared
/// partition has a single group holding every channel (for one tenant
/// this *is* the pre-tenancy topology); the dedicated partition has one
/// group per tenant.
#[derive(Debug)]
struct MemGroup {
    channels: ChannelArray,
    /// One AG per region channel of this group, selected by the atomic
    /// address's region bits.
    ags: Vec<AddressGenerator>,
}

/// Per-tenant replay state: the pending/queued counters, the frozen
/// per-class cursors (stream cursor, synthetic PRNG states, recorded
/// replay positions — all advancing only on acceptance), and the
/// tenant's statistics. Sized once at construction; the steady-state
/// tick loop never allocates lane state.
#[derive(Debug)]
struct TenantLane {
    pending_stream: u64,
    pending_random: u64,
    pending_atomic: u64,
    stream_cursor: u64,
    /// Scattered-read address stream. Independent from the atomic
    /// stream so sweeping atomic intensity never perturbs the banked
    /// channels' traffic (monotonicity of the sweep depends on it).
    random_stream: AddressStream,
    /// Atomic address stream over the tenant's combined
    /// `group channels x ag_region_words` region space.
    atomic_stream: AddressStream,
    /// Recorded random-read word addresses (from
    /// [`MemSysSim::add_tile_recorded_for`]); when non-empty they
    /// replace the synthetic `random_stream`, cycled to cover the full
    /// pending count. Capacity is retained across [`MemSysSim::reset`].
    rec_random: Vec<u64>,
    /// Replay cursor into `rec_random` (advances only on acceptance, so
    /// a backpressured request retries the same address — the same
    /// semantics as the synthetic stream's peek/advance split).
    rec_random_pos: usize,
    /// Recorded atomic word addresses; when non-empty they replace the
    /// synthetic `atomic_stream`.
    rec_atomic: Vec<u64>,
    /// Replay cursor into `rec_atomic`.
    rec_atomic_pos: usize,
    /// Requests issued but not yet completed (all three classes).
    outstanding: u64,
    stats: TenantStats,
}

impl TenantLane {
    fn new(tenant: usize, group_channels: usize, cfg: &MemSysConfig) -> Self {
        let stride = (tenant as u64).wrapping_mul(TENANT_SEED_STRIDE);
        TenantLane {
            pending_stream: 0,
            pending_random: 0,
            pending_atomic: 0,
            stream_cursor: 0,
            random_stream: AddressStream::new(
                RANDOM_SEED.wrapping_add(stride),
                RANDOM_REGION_BURSTS,
            ),
            atomic_stream: AddressStream::new(
                ATOMIC_SEED.wrapping_add(stride),
                cfg.ag_region_words as u64 * group_channels as u64,
            ),
            rec_random: Vec::new(),
            rec_random_pos: 0,
            rec_atomic: Vec::new(),
            rec_atomic_pos: 0,
            outstanding: 0,
            stats: TenantStats::default(),
        }
    }

    fn pending_total(&self) -> u64 {
        self.pending_stream + self.pending_random + self.pending_atomic
    }

    fn queued_total(&self) -> u64 {
        self.stats.queued_stream_bursts
            + self.stats.queued_random_bursts
            + self.stats.queued_atomic_words
    }

    /// Records one completion with the given issue-to-completion
    /// latency.
    fn note_completion(&mut self, latency: u64) {
        self.stats.completed += 1;
        let mut b = 0;
        while b < LATENCY_BUCKET_BOUNDS.len() && latency > LATENCY_BUCKET_BOUNDS[b] {
            b += 1;
        }
        self.stats.latency_hist[b] += 1;
    }

    /// Returns the lane to its as-constructed state without releasing
    /// buffer capacity.
    fn reset(&mut self) {
        self.pending_stream = 0;
        self.pending_random = 0;
        self.pending_atomic = 0;
        self.stream_cursor = 0;
        self.random_stream.reset();
        self.atomic_stream.reset();
        self.rec_random.clear();
        self.rec_random_pos = 0;
        self.rec_atomic.clear();
        self.rec_atomic_pos = 0;
        self.outstanding = 0;
        self.stats = TenantStats::default();
    }
}

/// The cycle-level memory-system simulator: N region channels (a
/// [`ChannelArray`] of banked DRAM channels) for streaming and random
/// bursts plus N per-region [`AddressGenerator`]s for atomic
/// read-modify-writes, all ticked in lockstep, optionally interleaving
/// several tenants' traffic (see [`TenantPartition`]). See the module
/// docs for the topology, determinism, and allocation contracts.
#[derive(Debug)]
pub struct MemSysSim {
    /// Partition groups: one shared group, or one private group per
    /// tenant under [`TenantPartition::Dedicated`].
    groups: Vec<MemGroup>,
    cfg: MemSysConfig,
    /// Per-tenant replay lanes (`cfg.tenants` of them).
    lanes: Vec<TenantLane>,
    /// Shared-partition issue schedule: tenant `t` appears
    /// `tenant_weights[t].max(1)` times per round. `[0]` for a
    /// single-tenant driver, making the issue loop identical to the
    /// pre-tenancy one.
    schedule: Vec<u8>,
    /// Per-tenant issue budget under the dedicated partition
    /// (`issue_width / tenants`, at least 1; 0 only when `issue_width`
    /// is 0).
    dedicated_budget: usize,
    /// Issue-cycle ring indexed by `sequence & (len - 1)`: the cycle
    /// each in-flight request was issued, read back at completion for
    /// the per-tenant latency histogram. Sized (power of two) above the
    /// driver-wide outstanding-request bound so live entries never
    /// collide.
    lat_ring: Vec<u64>,
    /// Global issue sequence number (the low 56 bits of every tag).
    next_tag: u64,
    /// Channel requests in flight (pushed minus completed).
    inflight: u64,
    cycles: u64,
    flushed: bool,
    cycles_recorded: u64,
}

impl MemSysSim {
    /// Creates a driver with the default geometry for `model`.
    pub fn new(model: DramModel) -> Self {
        MemSysSim::with_config(model, MemSysConfig::for_model(&model))
    }

    /// Creates a driver with an explicit geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.channels` is zero, `cfg.tenants` is outside
    /// `1..=MAX_TENANTS`, or the dedicated partition cannot split the
    /// channels evenly (`channels % tenants != 0`).
    pub fn with_config(model: DramModel, cfg: MemSysConfig) -> Self {
        assert!(cfg.channels > 0, "memory system needs at least one channel");
        assert!(
            (1..=MAX_TENANTS).contains(&cfg.tenants),
            "tenants must be in 1..={MAX_TENANTS}, got {}",
            cfg.tenants
        );
        let (group_count, group_channels) = match cfg.partition {
            TenantPartition::Shared => (1, cfg.channels),
            TenantPartition::Dedicated => {
                assert!(
                    cfg.channels.is_multiple_of(cfg.tenants),
                    "dedicated partition needs channels ({}) divisible by tenants ({})",
                    cfg.channels,
                    cfg.tenants
                );
                (cfg.tenants, cfg.channels / cfg.tenants)
            }
        };
        let mut schedule = Vec::new();
        for t in 0..cfg.tenants {
            for _ in 0..cfg.tenant_weights[t].max(1) {
                schedule.push(t as u8);
            }
        }
        // Upper bound on simultaneously outstanding requests: every
        // bank queue full on every channel, plus every AG's atomic
        // window, plus one issue round of slack. Live ring entries can
        // never collide below this bound.
        let outstanding_bound = cfg.channels * cfg.timing.banks * cfg.timing.queue_depth
            + cfg.channels * cfg.max_outstanding_atomics as usize
            + cfg.issue_width
            + 64;
        MemSysSim {
            groups: (0..group_count)
                .map(|_| MemGroup {
                    channels: ChannelArray::new(model, cfg.timing, group_channels),
                    ags: (0..group_channels)
                        .map(|_| {
                            AddressGenerator::new(model, cfg.ag_region_words, cfg.ag_open_bursts)
                        })
                        .collect(),
                })
                .collect(),
            lanes: (0..cfg.tenants)
                .map(|t| TenantLane::new(t, group_channels, &cfg))
                .collect(),
            schedule,
            dedicated_budget: match cfg.issue_width {
                0 => 0,
                w => (w / cfg.tenants).max(1),
            },
            lat_ring: vec![0; outstanding_bound.next_power_of_two()],
            cfg,
            next_tag: 0,
            inflight: 0,
            cycles: 0,
            flushed: false,
            cycles_recorded: 0,
        }
    }

    /// The partition group owning tenant `t`'s traffic.
    fn group_of(&self, t: usize) -> usize {
        match self.cfg.partition {
            TenantPartition::Shared => 0,
            TenantPartition::Dedicated => t,
        }
    }

    /// The driver geometry.
    pub fn config(&self) -> &MemSysConfig {
        &self.cfg
    }

    /// Queues one tile's traffic for replay with synthetic scattered
    /// addresses (unless an earlier tile already queued recorded ones —
    /// the per-class address source is per-tenant, see
    /// [`MemSysSim::add_tile_recorded_for`]). Single-tenant convenience
    /// for [`MemSysSim::add_tile_for`] with tenant 0.
    pub fn add_tile(&mut self, traffic: TileTraffic) {
        self.add_tile_for(TenantId(0), traffic);
    }

    /// Queues one tile's traffic for replay as `tenant`'s traffic.
    ///
    /// # Panics
    ///
    /// Panics if `tenant.0 >= self.config().tenants`.
    pub fn add_tile_for(&mut self, tenant: TenantId, traffic: TileTraffic) {
        assert!(
            tenant.0 < self.cfg.tenants,
            "tenant {} outside the configured {} tenants",
            tenant.0,
            self.cfg.tenants
        );
        let lane = &mut self.lanes[tenant.0];
        lane.pending_stream += traffic.stream_bursts;
        lane.pending_random += traffic.random_bursts;
        lane.pending_atomic += traffic.atomic_words;
        lane.stats.queued_stream_bursts += traffic.stream_bursts;
        lane.stats.queued_random_bursts += traffic.random_bursts;
        lane.stats.queued_atomic_words += traffic.atomic_words;
        self.flushed = false;
    }

    /// Queues one tile's traffic for replay together with its recorded
    /// scattered-address samples: `random_addrs` are word addresses of
    /// the tile's random reads, `atomic_addrs` word addresses of its
    /// atomic read-modify-writes (both as sampled by
    /// `capstan_core::program`'s recorder; either may be empty).
    ///
    /// The samples of every queued tile concatenate into one per-class
    /// replay buffer, cycled in order to cover the class's full pending
    /// count — so the bounded sample reproduces the recorded address
    /// *distribution* at the recorded traffic *volume*. Two modeling
    /// caveats follow from the concatenation: tiles contribute to the
    /// mixture in proportion to their *sample lengths*, not their
    /// traffic volumes (the per-tile samples are already bounded to the
    /// same limit, so this is close for similar tiles but approximate
    /// for very uneven ones), and a class with *any* recordings replays
    /// every one of its pending words — including words queued by
    /// count-only tiles — from the recorded mixture. Only a class
    /// whose buffer stays empty across all queued tiles falls back to
    /// its synthetic `AddressStream`, and that fallback is
    /// bit-for-bit. Buffer capacity is retained across
    /// [`MemSysSim::reset`], keeping the persistent driver's reuse
    /// path allocation-free in steady state.
    ///
    /// Single-tenant convenience for
    /// [`MemSysSim::add_tile_recorded_for`] with tenant 0.
    pub fn add_tile_recorded(
        &mut self,
        traffic: TileTraffic,
        random_addrs: &[u64],
        atomic_addrs: &[u64],
    ) {
        self.add_tile_recorded_for(TenantId(0), traffic, random_addrs, atomic_addrs);
    }

    /// Queues one tile's traffic plus its recorded address samples as
    /// `tenant`'s traffic. Replay buffers are per-tenant: each tenant's
    /// samples concatenate into that tenant's per-class buffer with the
    /// same cycling semantics as [`MemSysSim::add_tile_recorded`], so
    /// per-tenant replay is independent of how other tenants' tiles
    /// interleave with this one in registration order.
    ///
    /// # Panics
    ///
    /// Panics if `tenant.0 >= self.config().tenants`.
    pub fn add_tile_recorded_for(
        &mut self,
        tenant: TenantId,
        traffic: TileTraffic,
        random_addrs: &[u64],
        atomic_addrs: &[u64],
    ) {
        assert!(
            tenant.0 < self.cfg.tenants,
            "tenant {} outside the configured {} tenants",
            tenant.0,
            self.cfg.tenants
        );
        let lane = &mut self.lanes[tenant.0];
        lane.rec_random.extend_from_slice(random_addrs);
        lane.rec_atomic.extend_from_slice(atomic_addrs);
        self.add_tile_for(tenant, traffic);
    }

    /// Whether every queued burst and atomic has drained (the flush
    /// rounds in [`MemSysSim::run`] may still owe dirty writebacks).
    fn drained(&self) -> bool {
        self.lanes.iter().all(|lane| lane.pending_total() == 0)
            && self.inflight == 0
            && self.groups.iter().all(|g| {
                g.channels.is_idle() && g.ags.iter().all(|ag| ag.outstanding() == 0 && ag.is_idle())
            })
    }

    /// Whether every queued burst and atomic has drained (including the
    /// AGs' end-of-kernel dirty flush).
    pub fn is_done(&self) -> bool {
        self.drained() && self.flushed
    }

    /// The burst address (tenant-offset) of tenant `t`'s next random
    /// read: the recorded sample under the replay cursor when the lane
    /// has recordings, the synthetic stream's peek otherwise. Recorded
    /// word addresses map to their containing burst (wrapped into the
    /// scattered region); the synthetic stream is already
    /// burst-granular.
    fn random_burst(&self, t: usize) -> u64 {
        let lane = &self.lanes[t];
        let base = match lane.rec_random.is_empty() {
            true => lane.random_stream.peek(),
            false => {
                let addr = lane.rec_random[lane.rec_random_pos % lane.rec_random.len()];
                (addr / BURST_WORDS as u64) % RANDOM_REGION_BURSTS
            }
        };
        base + t as u64 * RANDOM_REGION_BURSTS
    }

    /// The word address of tenant `t`'s next atomic, in the tenant's
    /// combined `group channels x ag_region_words` region space (the
    /// high region bits select the owning AG within the tenant's
    /// group).
    fn atomic_word(&self, t: usize) -> u64 {
        let lane = &self.lanes[t];
        match lane.rec_atomic.is_empty() {
            true => lane.atomic_stream.peek(),
            false => {
                lane.rec_atomic[lane.rec_atomic_pos % lane.rec_atomic.len()]
                    % lane.atomic_stream.span
            }
        }
    }

    /// Tries to issue tenant `t`'s next streaming burst; returns
    /// whether it was accepted.
    fn try_issue_stream(&mut self, t: usize) -> bool {
        if self.lanes[t].pending_stream == 0 {
            return false;
        }
        let g = self.group_of(t);
        let req = BurstRequest {
            addr: stream_addr(t, self.lanes[t].stream_cursor),
            is_write: false,
            tag: self.next_tag | ((t as u64) << TAG_TENANT_SHIFT),
        };
        if self.groups[g].channels.push(req).is_err() {
            return false;
        }
        let mask = self.lat_ring.len() as u64 - 1;
        self.lat_ring[(self.next_tag & mask) as usize] = self.cycles;
        self.next_tag += 1;
        self.inflight += 1;
        let lane = &mut self.lanes[t];
        lane.stream_cursor += 1;
        lane.pending_stream -= 1;
        lane.outstanding += 1;
        lane.stats.submitted += 1;
        true
    }

    /// Tries to issue tenant `t`'s next random-read burst; returns
    /// whether it was accepted.
    fn try_issue_random(&mut self, t: usize) -> bool {
        if self.lanes[t].pending_random == 0 {
            return false;
        }
        let g = self.group_of(t);
        let req = BurstRequest {
            addr: self.random_burst(t) * BURST_BYTES,
            is_write: false,
            tag: self.next_tag | ((t as u64) << TAG_TENANT_SHIFT),
        };
        if self.groups[g].channels.push(req).is_err() {
            return false;
        }
        let mask = self.lat_ring.len() as u64 - 1;
        self.lat_ring[(self.next_tag & mask) as usize] = self.cycles;
        self.next_tag += 1;
        self.inflight += 1;
        let lane = &mut self.lanes[t];
        if lane.rec_random.is_empty() {
            lane.random_stream.advance();
        } else {
            lane.rec_random_pos += 1;
        }
        lane.pending_random -= 1;
        lane.outstanding += 1;
        lane.stats.submitted += 1;
        true
    }

    /// Tries to submit tenant `t`'s next atomic word to its region AG;
    /// returns whether it was accepted.
    fn try_issue_atomic(&mut self, t: usize) -> bool {
        if self.lanes[t].pending_atomic == 0 {
            return false;
        }
        // The atomic space spans the tenant's group; the high region
        // bits select the owning AG and the low bits address into its
        // private region. Recorded addresses wrap into the same
        // combined space, so the steering is identical for both
        // sources.
        let g = self.group_of(t);
        let word = self.atomic_word(t);
        let region = (word / self.cfg.ag_region_words as u64) as usize;
        let access = DramAccess {
            addr: word % self.cfg.ag_region_words as u64,
            op: RmwOp::AddF,
            operand: 1.0,
            tag: self.next_tag | ((t as u64) << TAG_TENANT_SHIFT),
        };
        // Fetch attribution: an accepted submission to a burst no slot
        // tracks triggers exactly one fetch, charged to this tenant.
        let untracked = !self.groups[g].ags[region].tracks(access.addr);
        if !self.groups[g].ags[region].try_submit(access, self.cfg.max_outstanding_atomics) {
            return false;
        }
        let mask = self.lat_ring.len() as u64 - 1;
        self.lat_ring[(self.next_tag & mask) as usize] = self.cycles;
        self.next_tag += 1;
        let lane = &mut self.lanes[t];
        if lane.rec_atomic.is_empty() {
            lane.atomic_stream.advance();
        } else {
            lane.rec_atomic_pos += 1;
        }
        lane.pending_atomic -= 1;
        lane.outstanding += 1;
        lane.stats.submitted += 1;
        lane.stats.ag_fetch_bursts += u64::from(untracked);
        true
    }

    /// Advances the memory system one cycle: issues up to `issue_width`
    /// requests round-robin across tenants (per the weighted schedule
    /// under the shared partition; per-tenant private budgets under the
    /// dedicated one) and the three traffic classes (each request
    /// crossbar-routed to its region channel or region AG), then ticks
    /// every channel and every AG in lockstep, attributing completions
    /// to tenants by the tag's tenant bits.
    pub fn tick(&mut self) {
        match self.cfg.partition {
            TenantPartition::Shared => {
                let mut budget = self.cfg.issue_width;
                let mut progress = true;
                while budget > 0 && progress {
                    progress = false;
                    for i in 0..self.schedule.len() {
                        if budget == 0 {
                            break;
                        }
                        let t = self.schedule[i] as usize;
                        if self.try_issue_stream(t) {
                            budget -= 1;
                            progress = true;
                        }
                        if budget == 0 {
                            break;
                        }
                        if self.try_issue_random(t) {
                            budget -= 1;
                            progress = true;
                        }
                        if budget == 0 {
                            break;
                        }
                        if self.try_issue_atomic(t) {
                            budget -= 1;
                            progress = true;
                        }
                    }
                }
            }
            TenantPartition::Dedicated => {
                // Each tenant's subsystem (lane + private group) is
                // closed under the dedicated partition, so the
                // per-tenant loops commute — tenant order cannot change
                // any tenant's behavior.
                for t in 0..self.cfg.tenants {
                    let mut budget = self.dedicated_budget;
                    let mut progress = true;
                    while budget > 0 && progress {
                        progress = false;
                        if self.try_issue_stream(t) {
                            budget -= 1;
                            progress = true;
                        }
                        if budget == 0 {
                            break;
                        }
                        if self.try_issue_random(t) {
                            budget -= 1;
                            progress = true;
                        }
                        if budget == 0 {
                            break;
                        }
                        if self.try_issue_atomic(t) {
                            budget -= 1;
                            progress = true;
                        }
                    }
                }
            }
        }
        self.complete_and_advance();
    }

    /// Ticks every channel and AG, attributes their completions to
    /// tenants, and advances the cycle (with the per-tenant occupancy
    /// and completion-cycle accounting).
    fn complete_and_advance(&mut self) {
        let now = self.cycles;
        let mask = self.lat_ring.len() as u64 - 1;
        for g in 0..self.groups.len() {
            let group = &mut self.groups[g];
            for c in group.channels.tick() {
                let t = (c.tag >> TAG_TENANT_SHIFT) as usize;
                let issued = self.lat_ring[((c.tag & TAG_SEQ_MASK) & mask) as usize];
                let lane = &mut self.lanes[t];
                lane.note_completion((now + 1).saturating_sub(issued));
                lane.outstanding -= 1;
                self.inflight -= 1;
            }
            for a in 0..group.ags.len() {
                for r in group.ags[a].tick() {
                    let t = (r.tag >> TAG_TENANT_SHIFT) as usize;
                    let issued = self.lat_ring[((r.tag & TAG_SEQ_MASK) & mask) as usize];
                    let lane = &mut self.lanes[t];
                    lane.note_completion((now + 1).saturating_sub(issued));
                    lane.outstanding -= 1;
                }
            }
        }
        self.cycles += 1;
        let cycle_now = self.cycles;
        for lane in &mut self.lanes {
            lane.stats.occupancy_cycles += lane.outstanding;
            if lane.stats.completion_cycle == 0
                && lane.queued_total() > 0
                && lane.pending_total() == 0
                && lane.outstanding == 0
            {
                lane.stats.completion_cycle = cycle_now;
            }
        }
    }

    /// Drains every queued burst and atomic (and the AGs' dirty flush),
    /// publishes the batch's cycle accounting (the ticks simulated since
    /// the last publication go to the process-wide simulated-cycle
    /// counter, exactly once per drained batch), and returns the
    /// statistics. This is the whole driver surface in one call.
    ///
    /// # Panics
    ///
    /// Panics if the memory system stops making forward progress (a
    /// model bug, not a workload property).
    pub fn run(&mut self) -> MemStats {
        let mut watch = (self.cycles, self.watermark());
        loop {
            if self.drained() {
                // Flush rounds repeat until a flush finds nothing dirty:
                // `AddressGenerator::flush` can drop writebacks on
                // channel backpressure (they stay `Open { dirty }`), so
                // a single round is not guaranteed to drain a dirty set
                // larger than the channel queue.
                for group in &mut self.groups {
                    for ag in &mut group.ags {
                        ag.flush();
                    }
                }
                if self
                    .groups
                    .iter()
                    .all(|g| g.ags.iter().all(AddressGenerator::is_idle))
                {
                    break;
                }
                continue;
            }
            self.tick();
            if self.cycles - watch.0 >= 1 << 22 {
                let mark = self.watermark();
                assert!(
                    mark != watch.1,
                    "memory system deadlocked at cycle {} ({mark:?})",
                    self.cycles
                );
                watch = (self.cycles, mark);
            }
        }
        self.flushed = true;
        capstan_sim::stats::record_simulated_cycles(self.cycles - self.cycles_recorded);
        self.cycles_recorded = self.cycles;
        self.stats()
    }

    /// Forward-progress fingerprint for the deadlock check.
    fn watermark(&self) -> (u64, u64, u64) {
        (
            self.groups.iter().map(|g| g.channels.served()).sum(),
            self.groups
                .iter()
                .flat_map(|g| g.ags.iter().map(AddressGenerator::completed))
                .sum(),
            self.lanes.iter().map(TenantLane::pending_total).sum(),
        )
    }

    /// Statistics so far, rolled up across every region channel and AG
    /// of every partition group (complete after [`MemSysSim::run`]
    /// returns).
    pub fn stats(&self) -> MemStats {
        let mut b = BankedStats::default();
        for group in &self.groups {
            let s = group.channels.stats();
            b.served += s.served;
            b.row_hits += s.row_hits;
            b.row_conflicts += s.row_conflicts;
            b.row_opens += s.row_opens;
            b.contention_cycles += s.contention_cycles;
            b.bank_busy_cycles += s.bank_busy_cycles;
            b.peak_bank_queue = b.peak_bank_queue.max(s.peak_bank_queue);
        }
        MemStats {
            cycles: self.cycles,
            channels: self.cfg.channels as u64,
            stream_bursts: self
                .lanes
                .iter()
                .map(|l| l.stats.queued_stream_bursts)
                .sum(),
            random_bursts: self
                .lanes
                .iter()
                .map(|l| l.stats.queued_random_bursts)
                .sum(),
            atomic_words: self.lanes.iter().map(|l| l.stats.queued_atomic_words).sum(),
            row_hits: b.row_hits,
            row_conflicts: b.row_conflicts,
            contention_cycles: b.contention_cycles,
            bank_busy_cycles: b.bank_busy_cycles,
            peak_bank_queue: b.peak_bank_queue as u64,
            ag_bursts_fetched: self
                .groups
                .iter()
                .flat_map(|g| g.ags.iter().map(AddressGenerator::bursts_fetched))
                .sum(),
            ag_bursts_written: self
                .groups
                .iter()
                .flat_map(|g| g.ags.iter().map(AddressGenerator::bursts_written))
                .sum(),
        }
    }

    /// Number of tenants the driver was configured with.
    pub fn tenants(&self) -> usize {
        self.cfg.tenants
    }

    /// Statistics of one tenant (complete after [`MemSysSim::run`]
    /// returns).
    ///
    /// # Panics
    ///
    /// Panics if `tenant.0 >= self.config().tenants`.
    pub fn tenant_stats(&self, tenant: TenantId) -> TenantStats {
        self.lanes[tenant.0].stats
    }

    /// Statistics of one region channel (the un-rolled-up view; `i` is
    /// the global channel index: under the dedicated partition, tenant
    /// `t`'s channels occupy indices `t * (channels / tenants) ..`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.config().channels`.
    pub fn channel_stats(&self, i: usize) -> BankedStats {
        let per_group = self.groups[0].channels.channels();
        self.groups[i / per_group]
            .channels
            .channel_stats(i % per_group)
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycles
    }

    /// Atomic accesses submitted to the per-region AGs so far (the
    /// conservation counterpart of [`MemStats::atomic_words`]: after
    /// [`MemSysSim::run`] the two must agree).
    pub fn ag_submitted(&self) -> u64 {
        self.groups
            .iter()
            .flat_map(|g| g.ags.iter().map(AddressGenerator::submitted))
            .sum()
    }

    /// Atomic accesses whose results the per-region AGs have released.
    pub fn ag_completed(&self) -> u64 {
        self.groups
            .iter()
            .flat_map(|g| g.ags.iter().map(AddressGenerator::completed))
            .sum()
    }

    /// Returns the driver to its as-constructed state — empty channels,
    /// reset AGs, rewound address streams, zeroed counters — without
    /// releasing any buffer capacity.
    ///
    /// A reset driver is behaviorally indistinguishable from a freshly
    /// constructed one: the same tiles replay to the same cycle count
    /// and the same statistics. This is the contract the persistent
    /// driver pool in `capstan_core::perf` relies on to reuse one
    /// `MemSysSim` across `simulate` calls (construction dominates
    /// sweep-style experiments otherwise), and it keeps the reuse path
    /// allocation-free — both proven in
    /// `crates/arch/tests/alloc_free.rs`.
    pub fn reset(&mut self) {
        for group in &mut self.groups {
            group.channels.reset();
            for ag in &mut group.ags {
                ag.reset();
            }
        }
        for lane in &mut self.lanes {
            lane.reset();
        }
        self.lat_ring.fill(0);
        self.next_tag = 0;
        self.inflight = 0;
        self.cycles = 0;
        self.flushed = false;
        self.cycles_recorded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capstan_sim::dram::{AccessPattern, MemoryKind};

    fn run(model: DramModel, traffic: TileTraffic) -> MemStats {
        let mut sim = MemSysSim::new(model);
        sim.add_tile(traffic);
        sim.run()
    }

    fn run_channels(model: DramModel, channels: usize, traffic: TileTraffic) -> MemStats {
        let mut sim = MemSysSim::with_config(model, MemSysConfig::with_channels(&model, channels));
        sim.add_tile(traffic);
        sim.run()
    }

    #[test]
    fn empty_traffic_is_free() {
        let stats = run(DramModel::new(MemoryKind::Hbm2e), TileTraffic::default());
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn streaming_matches_analytic_within_band() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let stats = run(
            model,
            TileTraffic {
                stream_bursts: 4000,
                ..Default::default()
            },
        );
        let analytic = model.transfer_cycles(4000 * BURST_BYTES, AccessPattern::Streaming);
        assert!(stats.cycles >= analytic, "{} < {analytic}", stats.cycles);
        assert!(
            stats.cycles < analytic * 2,
            "{} vs {analytic}",
            stats.cycles
        );
        assert!(stats.row_hits > stats.row_conflicts);
    }

    #[test]
    fn random_never_beats_analytic_random() {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let stats = run(
            model,
            TileTraffic {
                random_bursts: 4000,
                ..Default::default()
            },
        );
        let analytic = model.transfer_cycles(4000 * BURST_BYTES, AccessPattern::Random);
        assert!(stats.cycles >= analytic, "{} < {analytic}", stats.cycles);
        assert!(stats.contention_cycles > 0);
    }

    #[test]
    fn atomics_fetch_execute_and_write_back() {
        let stats = run(
            DramModel::new(MemoryKind::Hbm2e),
            TileTraffic {
                atomic_words: 2000,
                ..Default::default()
            },
        );
        assert!(stats.ag_bursts_fetched > 0);
        assert!(
            stats.ag_bursts_written > 0,
            "AddF updates must dirty bursts and flush them"
        );
        assert!(stats.cycles > 0);
    }

    #[test]
    fn atomic_cycles_are_monotone_in_words() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let mut last = 0u64;
        for words in [256u64, 1024, 4096] {
            let stats = run(
                model,
                TileTraffic {
                    stream_bursts: 64,
                    atomic_words: words,
                    ..Default::default()
                },
            );
            assert!(
                stats.cycles > last,
                "{words} atomic words: {} !> {last}",
                stats.cycles
            );
            last = stats.cycles;
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let traffic = TileTraffic {
            stream_bursts: 500,
            random_bursts: 300,
            atomic_words: 200,
        };
        let a = run(DramModel::new(MemoryKind::Hbm2e), traffic);
        let b = run(DramModel::new(MemoryKind::Hbm2e), traffic);
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_traffic_overlaps_but_not_below_the_floor() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let stream_only = run(
            model,
            TileTraffic {
                stream_bursts: 2000,
                ..Default::default()
            },
        );
        let mixed = run(
            model,
            TileTraffic {
                stream_bursts: 2000,
                random_bursts: 500,
                ..Default::default()
            },
        );
        // Adding traffic can only slow the drain.
        assert!(mixed.cycles > stream_only.cycles);
    }

    #[test]
    fn explicit_single_channel_config_matches_the_default() {
        // `channels: 1` through the explicit-config path must be
        // bit-identical to the default constructor (the golden pins are
        // captured under the default).
        let model = DramModel::new(MemoryKind::Ddr4);
        let traffic = TileTraffic {
            stream_bursts: 1500,
            random_bursts: 700,
            atomic_words: 900,
        };
        assert_eq!(run(model, traffic), run_channels(model, 1, traffic));
    }

    #[test]
    fn more_channels_never_slow_the_drain() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let traffic = TileTraffic {
            stream_bursts: 3000,
            random_bursts: 1500,
            atomic_words: 2000,
        };
        let mut last = u64::MAX;
        for channels in [1usize, 2, 4, 8] {
            let stats = run_channels(model, channels, traffic);
            assert_eq!(stats.channels, channels as u64);
            assert!(
                stats.cycles <= last,
                "{channels} channels drained in {} cycles, slower than {last}",
                stats.cycles
            );
            last = stats.cycles;
        }
    }

    #[test]
    fn atomic_heavy_traffic_scales_with_channels() {
        // Atomic serialization is a per-region effect: four AG regions
        // drain an atomic-heavy batch strictly faster than one.
        let model = DramModel::new(MemoryKind::Hbm2e);
        let traffic = TileTraffic {
            stream_bursts: 256,
            atomic_words: 16_384,
            ..Default::default()
        };
        let one = run_channels(model, 1, traffic);
        let four = run_channels(model, 4, traffic);
        assert!(
            four.cycles < one.cycles,
            "4 channels ({}) must beat 1 ({})",
            four.cycles,
            one.cycles
        );
        assert_eq!(one.atomic_words, four.atomic_words);
        assert!(four.ag_bursts_fetched > 0);
    }

    #[test]
    fn per_channel_stats_roll_up_to_the_total() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let mut sim = MemSysSim::with_config(model, MemSysConfig::with_channels(&model, 4));
        sim.add_tile(TileTraffic {
            stream_bursts: 2000,
            random_bursts: 1000,
            ..Default::default()
        });
        let total = sim.run();
        let mut served = 0u64;
        let mut hits = 0u64;
        let mut conflicts = 0u64;
        let mut active_channels = 0;
        for i in 0..4 {
            let s = sim.channel_stats(i);
            served += s.served;
            hits += s.row_hits;
            conflicts += s.row_conflicts;
            active_channels += usize::from(s.served > 0);
        }
        assert_eq!(served, total.stream_bursts + total.random_bursts);
        assert_eq!(hits, total.row_hits);
        assert_eq!(conflicts, total.row_conflicts);
        assert!(active_channels > 1, "traffic must spread across channels");
    }

    #[test]
    fn empty_recordings_fall_back_to_the_synthetic_streams_exactly() {
        // `add_tile_recorded` with empty samples must be bit-identical
        // to `add_tile` — the fallback contract every committed golden
        // pin depends on.
        let model = DramModel::new(MemoryKind::Ddr4);
        let traffic = TileTraffic {
            stream_bursts: 1000,
            random_bursts: 600,
            atomic_words: 800,
        };
        let synthetic = run(model, traffic);
        let mut sim = MemSysSim::new(model);
        sim.add_tile_recorded(traffic, &[], &[]);
        assert_eq!(synthetic, sim.run());
    }

    #[test]
    fn recorded_hub_atomics_coalesce_and_beat_uniform_synthetic() {
        // A hub-heavy recorded sample revisits the same bursts, so the
        // AG's open-burst cache coalesces: fewer fetches, faster drain
        // than the uniform synthetic spray of the same word count.
        let model = DramModel::new(MemoryKind::Hbm2e);
        let traffic = TileTraffic {
            stream_bursts: 64,
            atomic_words: 8192,
            ..Default::default()
        };
        let synthetic = run(model, traffic);
        let hubs: Vec<u64> = (0..64u64).collect(); // 4 bursts total
        let mut sim = MemSysSim::new(model);
        sim.add_tile_recorded(traffic, &[], &hubs);
        let recorded = sim.run();
        assert_eq!(recorded.atomic_words, synthetic.atomic_words);
        assert!(
            recorded.ag_bursts_fetched < synthetic.ag_bursts_fetched,
            "hub replay fetched {} bursts, uniform {}",
            recorded.ag_bursts_fetched,
            synthetic.ag_bursts_fetched
        );
        assert!(
            recorded.cycles < synthetic.cycles,
            "hub replay ({}) must beat uniform synthetic ({})",
            recorded.cycles,
            synthetic.cycles
        );
    }

    #[test]
    fn recorded_replay_conserves_word_counts() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let traffic = TileTraffic {
            stream_bursts: 500,
            random_bursts: 700,
            atomic_words: 900,
        };
        let mut sim = MemSysSim::with_config(model, MemSysConfig::with_channels(&model, 2));
        let random: Vec<u64> = (0..40u64).map(|i| i * 37).collect();
        let atomic: Vec<u64> = (0..40u64).map(|i| i * 91).collect();
        sim.add_tile_recorded(traffic, &random, &atomic);
        let stats = sim.run();
        assert!(sim.is_done());
        assert_eq!(stats.atomic_words, 900);
        assert_eq!(sim.ag_submitted(), 900);
        assert_eq!(sim.ag_completed(), 900);
        let served: u64 = (0..2).map(|i| sim.channel_stats(i).served).sum();
        assert_eq!(served, stats.stream_bursts + stats.random_bursts);
    }

    #[test]
    fn recorded_reset_reproduces_a_fresh_recorded_run() {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let traffic = TileTraffic {
            stream_bursts: 300,
            random_bursts: 400,
            atomic_words: 2000,
        };
        let addrs: Vec<u64> = (0..96u64).map(|i| (i * 7919) % 5000).collect();
        let mut sim = MemSysSim::new(model);
        sim.add_tile_recorded(traffic, &addrs, &addrs);
        let first = sim.run();
        sim.reset();
        // After reset the recorded buffers are empty again: queueing the
        // same recorded tile must reproduce the first run exactly.
        sim.add_tile_recorded(traffic, &addrs, &addrs);
        assert_eq!(first, sim.run(), "recorded reset run diverged");
        // And a reset back to synthetic is the plain synthetic run.
        sim.reset();
        sim.add_tile(traffic);
        assert_eq!(sim.run(), run(model, traffic));
    }

    #[test]
    fn reset_reproduces_a_fresh_run() {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let traffic = TileTraffic {
            stream_bursts: 800,
            random_bursts: 400,
            atomic_words: 600,
        };
        for channels in [1usize, 4] {
            let cfg = MemSysConfig::with_channels(&model, channels);
            let mut sim = MemSysSim::with_config(model, cfg);
            sim.add_tile(traffic);
            let first = sim.run();
            sim.reset();
            assert!(sim.cycle() == 0 && sim.groups.iter().all(|g| g.channels.is_idle()));
            sim.add_tile(traffic);
            let second = sim.run();
            assert_eq!(
                first, second,
                "{channels}-channel reset run diverged from fresh run"
            );
        }
    }

    // --- Multi-tenant ---------------------------------------------------

    #[test]
    fn an_empty_co_tenant_changes_nothing() {
        // A second tenant with no traffic must leave the first tenant's
        // replay bit-identical to a single-tenant run: tenant 1's lane
        // is skipped by every issue attempt, so the attempt sequence —
        // and therefore every issued address and cycle — is unchanged.
        let model = DramModel::new(MemoryKind::Hbm2e);
        let traffic = TileTraffic {
            stream_bursts: 600,
            random_bursts: 400,
            atomic_words: 300,
        };
        let alone = run(model, traffic);
        let mut sim = MemSysSim::with_config(
            model,
            MemSysConfig::with_tenants(&model, 1, 2, TenantPartition::Shared),
        );
        sim.add_tile_for(TenantId(0), traffic);
        let with_ghost = sim.run();
        assert_eq!(with_ghost, alone);
        let t0 = sim.tenant_stats(TenantId(0));
        let t1 = sim.tenant_stats(TenantId(1));
        assert_eq!(t0.submitted, t0.completed);
        assert_eq!(t1, TenantStats::default());
    }

    #[test]
    fn per_tenant_words_are_conserved() {
        let model = DramModel::new(MemoryKind::Ddr4);
        let mut sim = MemSysSim::with_config(
            model,
            MemSysConfig::with_tenants(&model, 2, 2, TenantPartition::Shared),
        );
        let a = TileTraffic {
            stream_bursts: 300,
            random_bursts: 200,
            atomic_words: 500,
        };
        let b = TileTraffic {
            stream_bursts: 900,
            random_bursts: 10,
            atomic_words: 0,
        };
        sim.add_tile_for(TenantId(0), a);
        sim.add_tile_for(TenantId(1), b);
        sim.run();
        for (t, traffic) in [(0usize, a), (1, b)] {
            let s = sim.tenant_stats(TenantId(t));
            assert_eq!(
                s.submitted,
                traffic.stream_bursts + traffic.random_bursts + traffic.atomic_words,
                "tenant {t} submitted"
            );
            assert_eq!(s.submitted, s.completed, "tenant {t} conservation");
            assert_eq!(
                s.latency_hist.iter().sum::<u64>(),
                s.completed,
                "tenant {t} histogram mass"
            );
            assert!(s.completion_cycle > 0);
            assert!(s.occupancy_cycles > 0);
        }
    }

    #[test]
    fn weights_shift_completion_toward_the_heavy_tenant() {
        // Two tenants with identical traffic on shared channels: giving
        // tenant 0 a much larger issue weight must finish it no later
        // than under equal weights.
        let model = DramModel::new(MemoryKind::Hbm2e);
        let traffic = TileTraffic {
            random_bursts: 3000,
            ..Default::default()
        };
        let done_with = |w0: u8, w1: u8| {
            let mut cfg = MemSysConfig::with_tenants(&model, 1, 2, TenantPartition::Shared);
            cfg.tenant_weights[0] = w0;
            cfg.tenant_weights[1] = w1;
            let mut sim = MemSysSim::with_config(model, cfg);
            sim.add_tile_for(TenantId(0), traffic);
            sim.add_tile_for(TenantId(1), traffic);
            sim.run();
            (
                sim.tenant_stats(TenantId(0)).completion_cycle,
                sim.tenant_stats(TenantId(1)).completion_cycle,
            )
        };
        let (eq0, _) = done_with(1, 1);
        let (heavy0, heavy1) = done_with(6, 1);
        assert!(
            heavy0 <= eq0,
            "weighted tenant finished later: {heavy0} > {eq0}"
        );
        assert!(
            heavy0 <= heavy1,
            "the 6:1 tenant must not finish after the 1:6 one"
        );
    }

    #[test]
    fn dedicated_partitions_isolate_a_tenant_from_co_tenant_load() {
        // Under `Dedicated`, each tenant owns a private channel group,
        // so tenant 0's entire per-tenant stat block is independent of
        // what tenant 1 runs.
        let model = DramModel::new(MemoryKind::Hbm2e);
        let mine = TileTraffic {
            stream_bursts: 400,
            random_bursts: 300,
            atomic_words: 200,
        };
        let run_against = |other: TileTraffic| {
            let mut sim = MemSysSim::with_config(
                model,
                MemSysConfig::with_tenants(&model, 2, 2, TenantPartition::Dedicated),
            );
            sim.add_tile_for(TenantId(0), mine);
            sim.add_tile_for(TenantId(1), other);
            sim.run();
            sim.tenant_stats(TenantId(0))
        };
        let vs_idle = run_against(TileTraffic::default());
        let vs_flood = run_against(TileTraffic {
            stream_bursts: 5000,
            random_bursts: 5000,
            atomic_words: 5000,
        });
        assert_eq!(vs_idle, vs_flood);
    }

    #[test]
    #[should_panic(expected = "tenants must be in")]
    fn zero_tenants_is_rejected() {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let mut cfg = MemSysConfig::for_model(&model);
        cfg.tenants = 0;
        let _ = MemSysSim::with_config(model, cfg);
    }

    #[test]
    #[should_panic(expected = "tenants must be in")]
    fn too_many_tenants_is_rejected() {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let mut cfg = MemSysConfig::for_model(&model);
        cfg.tenants = MAX_TENANTS + 1;
        let _ = MemSysSim::with_config(model, cfg);
    }

    #[test]
    #[should_panic(expected = "dedicated partition needs")]
    fn dedicated_partitioning_requires_divisible_channels() {
        let model = DramModel::new(MemoryKind::Hbm2e);
        let cfg = MemSysConfig::with_tenants(&model, 3, 2, TenantPartition::Dedicated);
        let _ = MemSysSim::with_config(model, cfg);
    }
}
