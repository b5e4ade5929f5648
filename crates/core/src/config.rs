//! System-level Capstan configuration.

use capstan_arch::grid::GridConfig;
pub use capstan_arch::memdrv::{TenantPartition, MAX_TENANTS};
use capstan_arch::scanner::{BitVecScanner, DataScanner};
use capstan_arch::shuffle::ShuffleConfig;
use capstan_arch::spmu::SpmuConfig;
pub use capstan_sim::dram::MemoryKind;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// How the performance engine prices DRAM time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MemTiming {
    /// Closed-form bandwidth/latency model (`DramModel::transfer_cycles`)
    /// — fast, and the mode every committed golden value was captured
    /// under.
    #[default]
    Analytic,
    /// Cycle-level: each tile's DRAM traffic is replayed through
    /// [`CapstanConfig::mem_channels`] region channels — banked DRAM
    /// channels behind a deterministic crossbar — and per-region
    /// `AddressGenerator`s ([`capstan_arch::memdrv::MemSysSim`]),
    /// capturing bank contention, row conflicts, atomics serialization,
    /// and multi-channel parallelism. Simulated cycles stay
    /// machine-independent and report text stays byte-identical across
    /// `CAPSTAN_THREADS` settings, but cycle counts differ from the
    /// analytic mode by design — golden baselines are pinned per mode
    /// (and per channel count).
    CycleLevel,
}

/// How the cycle-level memory mode picks scattered (random-read and
/// atomic) DRAM addresses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MemAddressing {
    /// Synthetic uniform SplitMix streams (`AddressStream` in
    /// `capstan_arch::memdrv`) — the mode every committed golden value
    /// was captured under. Cheap and distribution-free: every scattered
    /// access is an independent uniform draw, so hub-heavy workloads
    /// cannot show the open-burst coalescing the paper's AGs exploit.
    #[default]
    Synthetic,
    /// Replay the *real* sampled address vectors the workload recorder
    /// captured (`TileWork::dram_random_addrs` /
    /// `TileWork::dram_atomic_addrs` / `RemoteWork::addr_sampled` in
    /// `capstan_core::program`): the bounded deterministic sample is
    /// cycled to cover the full traffic total, so power-law destination
    /// skew reaches the per-region `AddressGenerator`s and coalesces in
    /// their open-burst caches. Tiles with **no** recorded addresses
    /// fall back to the synthetic streams bit-for-bit, so this mode is
    /// a strict refinement: it only changes results for workloads that
    /// actually record addresses. Ignored by the analytic timing mode.
    Recorded,
}

/// Where a run's format/memory configuration comes from: fixed by hand
/// (flags and hardcoded experiment choices — the historical default) or
/// derived per-dataset by the planning layer (`capstan-plan`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PlanMode {
    /// Configurations are taken verbatim from flags and experiment code
    /// — the mode every committed golden value was captured under.
    #[default]
    Fixed,
    /// The planner derives the sparse format (and, in the serving layer,
    /// the memory configuration) from per-dataset statistics
    /// (`capstan_tensor::stats`). Planned runs form their own bench
    /// record group (`+plan`): the planner may legitimately pick a
    /// different format than the hardcoded one, so cycle counts can
    /// differ by design.
    Auto,
}

impl PlanMode {
    /// Canonical one-word name (see [`MemTiming::tag`]).
    pub fn tag(self) -> &'static str {
        match self {
            PlanMode::Fixed => "fixed",
            PlanMode::Auto => "auto",
        }
    }

    /// Parses [`tag`](Self::tag)'s spelling; `None` for anything else.
    pub fn parse(s: &str) -> Option<PlanMode> {
        match s {
            "fixed" => Some(PlanMode::Fixed),
            "auto" => Some(PlanMode::Auto),
            _ => None,
        }
    }
}

impl MemTiming {
    /// Canonical one-word name — the `--mem` CLI value, the wire-protocol
    /// field value, and the token hashed into content-addressed cache
    /// keys. One spelling everywhere, so a config can never round-trip
    /// into a different one.
    pub fn tag(self) -> &'static str {
        match self {
            MemTiming::Analytic => "analytic",
            MemTiming::CycleLevel => "cycle",
        }
    }

    /// Parses [`tag`](Self::tag)'s spelling; `None` for anything else.
    pub fn parse(s: &str) -> Option<MemTiming> {
        match s {
            "analytic" => Some(MemTiming::Analytic),
            "cycle" => Some(MemTiming::CycleLevel),
            _ => None,
        }
    }
}

impl MemAddressing {
    /// Canonical one-word name (see [`MemTiming::tag`]).
    pub fn tag(self) -> &'static str {
        match self {
            MemAddressing::Synthetic => "synthetic",
            MemAddressing::Recorded => "recorded",
        }
    }

    /// Parses [`tag`](Self::tag)'s spelling; `None` for anything else.
    pub fn parse(s: &str) -> Option<MemAddressing> {
        match s {
            "synthetic" => Some(MemAddressing::Synthetic),
            "recorded" => Some(MemAddressing::Recorded),
            _ => None,
        }
    }
}

/// The bench-row suffix a memory configuration runs under: `+cycle` for
/// the cycle-level timing mode, `+rec` for recorded addressing, `+chN`
/// for N > 1 region channels, `+mtN` for N > 1 memory tenants, `+plan`
/// for planner-derived configurations, concatenated in that fixed
/// order. Rows with different suffixes form separate record groups
/// (their simulated cycles intentionally differ), so every place that
/// names a row — the `experiments` CLI, its resume journal, and the
/// serving layer's batch groups and served rows — must derive the suffix
/// identically; this is the one definition they all share.
pub fn mem_record_suffix(
    timing: MemTiming,
    addressing: MemAddressing,
    channels: usize,
    tenants: usize,
    plan: PlanMode,
) -> String {
    let mut suffix = String::new();
    if timing == MemTiming::CycleLevel {
        suffix.push_str("+cycle");
    }
    if addressing == MemAddressing::Recorded {
        suffix.push_str("+rec");
    }
    if channels > 1 {
        suffix.push_str(&format!("+ch{channels}"));
    }
    if tenants > 1 {
        suffix.push_str(&format!("+mt{tenants}"));
    }
    if plan == PlanMode::Auto {
        suffix.push_str("+plan");
    }
    suffix
}

/// Process-wide default for [`CapstanConfig::new`]'s `mem_timing` field
/// (0 = analytic, 1 = cycle-level).
static DEFAULT_MEM_TIMING: AtomicU8 = AtomicU8::new(0);

/// Process-wide default for [`CapstanConfig::new`]'s `mem_addresses`
/// field (0 = synthetic, 1 = recorded).
static DEFAULT_MEM_ADDRESSING: AtomicU8 = AtomicU8::new(0);

/// Sets the scattered-address mode newly constructed configurations
/// default to (the `experiments --mem-addresses recorded` flag). Like
/// [`set_default_mem_timing`], intended to be called **once, at process
/// start**; flipping it mid-run would break the determinism contract
/// between concurrently recorded experiments.
pub fn set_default_mem_addressing(mode: MemAddressing) {
    DEFAULT_MEM_ADDRESSING.store(
        match mode {
            MemAddressing::Synthetic => 0,
            MemAddressing::Recorded => 1,
        },
        Ordering::Relaxed,
    );
}

/// The scattered-address mode newly constructed configurations default
/// to.
fn default_mem_addressing() -> MemAddressing {
    match DEFAULT_MEM_ADDRESSING.load(Ordering::Relaxed) {
        0 => MemAddressing::Synthetic,
        _ => MemAddressing::Recorded,
    }
}

/// Sets the memory-timing mode newly constructed configurations default
/// to. Intended to be called **once, at process start** (the
/// `experiments --mem cycle` flag); flipping it mid-run would break the
/// determinism contract between concurrently recorded experiments.
pub fn set_default_mem_timing(timing: MemTiming) {
    DEFAULT_MEM_TIMING.store(
        match timing {
            MemTiming::Analytic => 0,
            MemTiming::CycleLevel => 1,
        },
        Ordering::Relaxed,
    );
}

/// The memory-timing mode newly constructed configurations default to.
fn default_mem_timing() -> MemTiming {
    match DEFAULT_MEM_TIMING.load(Ordering::Relaxed) {
        0 => MemTiming::Analytic,
        _ => MemTiming::CycleLevel,
    }
}

/// Process-wide default for [`CapstanConfig::new`]'s `mem_channels`
/// field.
static DEFAULT_MEM_CHANNELS: AtomicUsize = AtomicUsize::new(1);

/// Sets the cycle-level region-channel count newly constructed
/// configurations default to (the `experiments --mem-channels N` flag).
/// Like [`set_default_mem_timing`], intended to be called **once, at
/// process start**; zero is clamped to one channel.
pub fn set_default_mem_channels(channels: usize) {
    DEFAULT_MEM_CHANNELS.store(channels.max(1), Ordering::Relaxed);
}

/// The cycle-level region-channel count newly constructed
/// configurations default to.
fn default_mem_channels() -> usize {
    DEFAULT_MEM_CHANNELS.load(Ordering::Relaxed)
}

/// Process-wide default for [`CapstanConfig::new`]'s `mem_tenants`
/// field.
static DEFAULT_MEM_TENANTS: AtomicUsize = AtomicUsize::new(1);

/// Sets the cycle-level memory-tenant count newly constructed
/// configurations default to (the `experiments --mem-tenants N` flag).
/// Like [`set_default_mem_timing`], intended to be called **once, at
/// process start**; the value is clamped to `1..=MAX_TENANTS`.
pub fn set_default_mem_tenants(tenants: usize) {
    DEFAULT_MEM_TENANTS.store(tenants.clamp(1, MAX_TENANTS), Ordering::Relaxed);
}

/// The cycle-level memory-tenant count newly constructed configurations
/// default to.
fn default_mem_tenants() -> usize {
    DEFAULT_MEM_TENANTS.load(Ordering::Relaxed)
}

/// Process-wide default plan mode (0 = fixed, 1 = auto).
static DEFAULT_PLAN_MODE: AtomicU8 = AtomicU8::new(0);

/// Sets the plan mode the process runs under (the `experiments --plan`
/// flag). Like [`set_default_mem_timing`], intended to be called
/// **once, at process start**; flipping it mid-run would let one sweep
/// mix planned and hand-fixed configurations under a single record
/// suffix.
pub fn set_default_plan_mode(mode: PlanMode) {
    DEFAULT_PLAN_MODE.store(
        match mode {
            PlanMode::Fixed => 0,
            PlanMode::Auto => 1,
        },
        Ordering::Relaxed,
    );
}

/// The plan mode the process runs under.
pub fn default_plan_mode() -> PlanMode {
    match DEFAULT_PLAN_MODE.load(Ordering::Relaxed) {
        0 => PlanMode::Fixed,
        _ => PlanMode::Auto,
    }
}

/// Full configuration of a simulated Capstan system.
///
/// The default values are the paper's design point (Table 7): a 20x20
/// CU/MU checkerboard with 80 AGs, 16-lane vectors, 16-bank SpMUs with a
/// 16-deep allocated issue queue, a 256-bit/16-output scanner, and Mrg-1
/// shuffle networks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapstanConfig {
    /// Attached memory system.
    pub memory: MemoryKind,
    /// Chip grid (unit counts, lanes, SRAM geometry).
    pub(crate) grid: GridConfig,
    /// Sparse memory unit configuration.
    pub spmu: SpmuConfig,
    /// Bit-vector scanner configuration.
    pub scanner: BitVecScanner,
    /// Data scanner configuration.
    pub data_scanner: DataScanner,
    /// Shuffle network (`None` models a machine without one — Table 11's
    /// "None" column, where cross-tile updates fall back to DRAM).
    pub shuffle: Option<ShuffleConfig>,
    /// Read-only DRAM compression for pointer tiles (§3.4, Fig. 5c).
    pub compression: bool,
    /// Outer-parallel pipelines used by applications (bounded by the
    /// grid's resources; Fig. 5b sweeps this).
    pub outer_par: usize,
    /// Model an ideal network and memory ("Capstan (Ideal Net & Mem)",
    /// Table 12).
    pub ideal_net_and_mem: bool,
    /// Model sparse loop headers as *scalar stream-joins* (one
    /// compare-dequeue decision per cycle) instead of the vectorized
    /// scanner. This is how Plasticine — which has no scanner — must
    /// iterate sparse data (paper §5 "Plasticine & Spatial").
    pub scalar_stream_join: bool,
    /// Extra bubble cycles per read-modify-write request, for fabrics
    /// without an RMW pipeline where "each read must block on the
    /// preceding write" (paper §5). Zero on Capstan.
    pub rmw_bubble_cycles: u64,
    /// Statically banked SRAM that serves only one random access per
    /// cycle per memory (Plasticine, paper §5). Replaces the allocated
    /// SpMU replay with full serialization.
    pub serialized_sram: bool,
    /// How DRAM time is priced: the closed-form analytic model or the
    /// cycle-level AG-backed replay (see [`MemTiming`]).
    pub mem_timing: MemTiming,
    /// Region channels of the cycle-level memory mode: each pairs one
    /// banked DRAM channel with one AG region behind a deterministic
    /// crossbar (`capstan_arch::memdrv`). 1 — the default — reproduces
    /// the single-channel topology every committed golden value was
    /// captured under bit-for-bit; the paper's grid has one channel per
    /// AG (80, Table 7). Ignored by the analytic mode.
    pub mem_channels: usize,
    /// How the cycle-level mode picks scattered DRAM addresses:
    /// synthetic uniform streams (the default every committed golden
    /// value was captured under) or replay of the recorder's real
    /// sampled address vectors (see [`MemAddressing`]). Ignored by the
    /// analytic mode.
    pub mem_addresses: MemAddressing,
    /// Memory tenants of the cycle-level mode: each tile's DRAM traffic
    /// is attributed to one of `mem_tenants` tenants (round-robin over
    /// tile index in `perf`), and the driver interleaves the tenants'
    /// traffic in a deterministic round-robin over tenants
    /// (`capstan_arch::memdrv::TenantId`). 1 — the default — reproduces
    /// the single-tenant driver every committed golden value was
    /// captured under bit-for-bit. Ignored by the analytic mode.
    pub mem_tenants: usize,
    /// Channel partitioning policy across memory tenants: `Shared` (all
    /// tenants contend on every region channel — the default) or
    /// `Dedicated` (channels split into one private group per tenant;
    /// requires `mem_channels % mem_tenants == 0`). Ignored when
    /// `mem_tenants` is 1 and by the analytic mode.
    pub mem_tenant_partition: TenantPartition,
    /// Has no effect; kept only so external code that still reads it compiles.
    pub mem_fast_forward: bool,
}

impl CapstanConfig {
    /// The paper's design point attached to the given memory system.
    pub fn new(memory: MemoryKind) -> Self {
        CapstanConfig {
            memory,
            grid: GridConfig::default(),
            spmu: SpmuConfig::default(),
            scanner: BitVecScanner::default(),
            data_scanner: DataScanner::default(),
            shuffle: Some(ShuffleConfig::default()),
            compression: true,
            outer_par: 32,
            ideal_net_and_mem: false,
            scalar_stream_join: false,
            rmw_bubble_cycles: 0,
            serialized_sram: false,
            mem_timing: default_mem_timing(),
            mem_channels: default_mem_channels(),
            mem_tenants: default_mem_tenants(),
            mem_tenant_partition: TenantPartition::default(),
            mem_addresses: default_mem_addressing(),
            mem_fast_forward: false,
        }
    }

    /// The primary configuration evaluated in the paper (HBM2E).
    pub fn paper_default() -> Self {
        CapstanConfig::new(MemoryKind::Hbm2e)
    }

    /// The "Ideal Net & Mem" configuration (Table 12 row 1).
    pub fn ideal() -> Self {
        let mut cfg = CapstanConfig::new(MemoryKind::Ideal);
        cfg.ideal_net_and_mem = true;
        cfg.spmu.ideal_conflict_free = false; // SRAM conflicts still modeled
        cfg
    }

    /// Number of outer-parallel pipelines actually usable, given that a
    /// pipeline needs `cus_per_pipeline` CUs.
    pub fn effective_outer_par(&self, cus_per_pipeline: usize) -> usize {
        self.outer_par
            .min(self.grid.max_outer_parallel(cus_per_pipeline))
            .max(1)
    }
}

impl Default for CapstanConfig {
    fn default() -> Self {
        CapstanConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_hbm2e() {
        let cfg = CapstanConfig::paper_default();
        assert_eq!(cfg.memory, MemoryKind::Hbm2e);
        assert_eq!(cfg.grid.compute_units(), 200);
        assert_eq!(cfg.spmu.queue_depth, 16);
        assert_eq!(cfg.scanner.width, 256);
        assert!(cfg.shuffle.is_some());
    }

    #[test]
    fn ideal_config_disables_memory_costs() {
        let cfg = CapstanConfig::ideal();
        assert!(cfg.ideal_net_and_mem);
        assert_eq!(cfg.memory, MemoryKind::Ideal);
    }

    #[test]
    fn mem_timing_defaults_to_analytic() {
        // Every golden value in the repo was captured under the analytic
        // mode; the process-wide default must not drift. (No test may
        // call `set_default_mem_timing` — tests run concurrently in one
        // process; explicit per-config overrides are the test-safe way.)
        assert_eq!(MemTiming::default(), MemTiming::Analytic);
        assert_eq!(
            CapstanConfig::paper_default().mem_timing,
            MemTiming::Analytic
        );
    }

    #[test]
    fn mem_channels_defaults_to_the_bit_compatible_single_channel() {
        // The golden pins were captured under one region channel; the
        // process-wide default must not drift. (As with the timing mode,
        // no test may call `set_default_mem_channels` — tests share one
        // process; explicit per-config overrides are the test-safe way.)
        assert_eq!(CapstanConfig::paper_default().mem_channels, 1);
        assert_eq!(default_mem_channels(), 1);
    }

    #[test]
    fn mem_addressing_defaults_to_synthetic() {
        // Every golden value was captured under synthetic scattered
        // addressing; the process-wide default must not drift. (As with
        // the timing mode, no test may call `set_default_mem_addressing`
        // — tests share one process; explicit per-config overrides are
        // the test-safe way.)
        assert_eq!(MemAddressing::default(), MemAddressing::Synthetic);
        assert_eq!(
            CapstanConfig::paper_default().mem_addresses,
            MemAddressing::Synthetic
        );
        assert_eq!(default_mem_addressing(), MemAddressing::Synthetic);
    }

    #[test]
    fn mem_mode_tags_round_trip_and_reject_garbage() {
        for timing in [MemTiming::Analytic, MemTiming::CycleLevel] {
            assert_eq!(MemTiming::parse(timing.tag()), Some(timing));
        }
        for addressing in [MemAddressing::Synthetic, MemAddressing::Recorded] {
            assert_eq!(MemAddressing::parse(addressing.tag()), Some(addressing));
        }
        for plan in [PlanMode::Fixed, PlanMode::Auto] {
            assert_eq!(PlanMode::parse(plan.tag()), Some(plan));
        }
        assert_eq!(MemTiming::parse("psychic"), None);
        assert_eq!(MemTiming::parse("Analytic"), None);
        assert_eq!(MemAddressing::parse("vibes"), None);
        assert_eq!(PlanMode::parse("Auto"), None);
        assert_eq!(PlanMode::parse("manual"), None);
    }

    #[test]
    fn plan_mode_defaults_to_fixed() {
        // Every golden value was captured with hand-fixed configurations;
        // the process-wide default must not drift. (As with the timing
        // mode, no test may call `set_default_plan_mode` — tests share
        // one process.)
        assert_eq!(PlanMode::default(), PlanMode::Fixed);
        assert_eq!(default_plan_mode(), PlanMode::Fixed);
    }

    #[test]
    fn record_suffixes_match_the_committed_baseline_spellings() {
        // The committed BENCH_core.json carries rows named with exactly
        // these suffixes; a drifted spelling would silently open a new,
        // ungated record group.
        use MemAddressing::*;
        use MemTiming::*;
        use PlanMode::*;
        assert_eq!(mem_record_suffix(Analytic, Synthetic, 1, 1, Fixed), "");
        assert_eq!(
            mem_record_suffix(CycleLevel, Synthetic, 1, 1, Fixed),
            "+cycle"
        );
        assert_eq!(
            mem_record_suffix(CycleLevel, Recorded, 1, 1, Fixed),
            "+cycle+rec"
        );
        assert_eq!(
            mem_record_suffix(CycleLevel, Synthetic, 4, 1, Fixed),
            "+cycle+ch4"
        );
        assert_eq!(mem_record_suffix(Analytic, Synthetic, 4, 1, Fixed), "+ch4");
        assert_eq!(
            mem_record_suffix(CycleLevel, Recorded, 2, 1, Fixed),
            "+cycle+rec+ch2"
        );
        assert_eq!(
            mem_record_suffix(CycleLevel, Synthetic, 1, 2, Fixed),
            "+cycle+mt2"
        );
        assert_eq!(
            mem_record_suffix(CycleLevel, Recorded, 4, 3, Fixed),
            "+cycle+rec+ch4+mt3"
        );
        assert_eq!(mem_record_suffix(Analytic, Synthetic, 1, 1, Auto), "+plan");
        assert_eq!(
            mem_record_suffix(CycleLevel, Recorded, 4, 3, Auto),
            "+cycle+rec+ch4+mt3+plan"
        );
    }

    #[test]
    fn mem_tenants_defaults_to_the_bit_compatible_single_tenant() {
        // The golden pins were captured under the single-tenant driver;
        // the process-wide default must not drift. (As with the timing
        // mode, no test may call `set_default_mem_tenants` — tests share
        // one process; explicit per-config overrides are the test-safe
        // way.)
        assert_eq!(CapstanConfig::paper_default().mem_tenants, 1);
        assert_eq!(default_mem_tenants(), 1);
        assert_eq!(
            CapstanConfig::paper_default().mem_tenant_partition,
            TenantPartition::Shared
        );
    }

    #[test]
    fn effective_outer_par_is_resource_bounded() {
        let mut cfg = CapstanConfig::paper_default();
        cfg.outer_par = 1000;
        assert_eq!(cfg.effective_outer_par(1), 200);
        assert_eq!(cfg.effective_outer_par(2), 100);
        cfg.outer_par = 8;
        assert_eq!(cfg.effective_outer_par(1), 8);
    }
}
