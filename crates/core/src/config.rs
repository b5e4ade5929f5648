//! System-level Capstan configuration.

use capstan_arch::grid;
pub use capstan_arch::memdrv::{TenantPartition, MAX_TENANTS};
use capstan_arch::scanner::{BitVecScanner, DataScanner};
use capstan_arch::shuffle::ShuffleConfig;
use capstan_arch::spmu::SpmuConfig;
pub use capstan_sim::dram::MemoryKind;
use std::sync::{PoisonError, RwLock};

/// How the performance engine prices DRAM time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
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
    /// Canonical one-word name — the `--mem` CLI value and the
    /// wire-protocol field value. One spelling everywhere, so a config
    /// can never round-trip into a different one.
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

/// The run mode: which memory model and which plan mode a process runs
/// under. Set once at process start ([`set_run_mode`], the `experiments`
/// run flags); [`CapstanConfig::new`] copies its memory fields into every
/// configuration, and the bench suite builds apps under its plan mode.
/// Flipping it mid-run would break the determinism contract between
/// concurrently recorded experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunMode {
    /// How DRAM time is priced (`--mem`).
    pub timing: MemTiming,
    /// How the cycle-level mode picks scattered addresses
    /// (`--mem-addresses`).
    pub addresses: MemAddressing,
    /// Cycle-level region channels (`--mem-channels`).
    pub channels: usize,
    /// Cycle-level memory tenants (`--mem-tenants`).
    pub tenants: usize,
    /// Where format and memory configurations come from (`--plan`).
    pub plan: PlanMode,
}

impl RunMode {
    /// The bench-row suffix this mode runs under: `+cycle` for the
    /// cycle-level timing mode, `+rec` for recorded addressing, `+chN`
    /// for N > 1 region channels, `+mtN` for N > 1 memory tenants,
    /// `+plan` for planner-derived configurations, concatenated in that
    /// fixed order. Rows with different suffixes form separate record
    /// groups (their simulated cycles intentionally differ), so every
    /// place that names a row — the `experiments` CLI, its resume
    /// journal, and the serving layer's batch groups and served rows —
    /// derives it here.
    pub fn suffix(&self) -> String {
        let mut suffix = String::new();
        if self.timing == MemTiming::CycleLevel {
            suffix.push_str("+cycle");
        }
        if self.addresses == MemAddressing::Recorded {
            suffix.push_str("+rec");
        }
        if self.channels > 1 {
            suffix.push_str(&format!("+ch{}", self.channels));
        }
        if self.tenants > 1 {
            suffix.push_str(&format!("+mt{}", self.tenants));
        }
        if self.plan == PlanMode::Auto {
            suffix.push_str("+plan");
        }
        suffix
    }
}

/// The process-wide run mode, starting at the mode every committed
/// golden value was captured under. Every write stores a whole `Copy`
/// value, so a poisoned lock still holds a valid mode and is read
/// through.
static RUN_MODE: RwLock<RunMode> = RwLock::new(RunMode {
    timing: MemTiming::Analytic,
    addresses: MemAddressing::Synthetic,
    channels: 1,
    tenants: 1,
    plan: PlanMode::Fixed,
});

/// Sets the process-wide run mode. Intended to be called **once, at
/// process start**. Zero channels are clamped to one, and the tenant
/// count to `1..=MAX_TENANTS`.
pub fn set_run_mode(mode: RunMode) {
    *RUN_MODE.write().unwrap_or_else(PoisonError::into_inner) = RunMode {
        channels: mode.channels.max(1),
        tenants: mode.tenants.clamp(1, MAX_TENANTS),
        ..mode
    };
}

/// The process-wide run mode.
pub fn run_mode() -> RunMode {
    *RUN_MODE.read().unwrap_or_else(PoisonError::into_inner)
}

/// Sets only the run mode's timing field (see [`set_run_mode`]).
pub fn set_default_mem_timing(timing: MemTiming) {
    RUN_MODE
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .timing = timing;
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
        let mode = run_mode();
        CapstanConfig {
            memory,
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
            mem_timing: mode.timing,
            mem_channels: mode.channels,
            mem_tenants: mode.tenants,
            mem_tenant_partition: TenantPartition::default(),
            mem_addresses: mode.addresses,
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
            .min(grid::max_outer_parallel(cus_per_pipeline))
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
    fn run_mode_defaults_to_the_golden_capture_mode() {
        // Every golden value in the repo was captured under analytic
        // timing, synthetic addressing, one region channel, the
        // single-tenant driver and hand-fixed configurations; the
        // process-wide default must not drift. (No test may call
        // `set_run_mode` — tests run concurrently in one process;
        // explicit per-config overrides are the test-safe way.)
        assert_eq!(MemTiming::default(), MemTiming::Analytic);
        assert_eq!(MemAddressing::default(), MemAddressing::Synthetic);
        assert_eq!(PlanMode::default(), PlanMode::Fixed);
        assert_eq!(
            run_mode(),
            RunMode {
                timing: MemTiming::Analytic,
                addresses: MemAddressing::Synthetic,
                channels: 1,
                tenants: 1,
                plan: PlanMode::Fixed,
            }
        );
        let cfg = CapstanConfig::paper_default();
        assert_eq!(cfg.mem_timing, MemTiming::Analytic);
        assert_eq!(cfg.mem_addresses, MemAddressing::Synthetic);
        assert_eq!(cfg.mem_channels, 1);
        assert_eq!(cfg.mem_tenants, 1);
        assert_eq!(cfg.mem_tenant_partition, TenantPartition::Shared);
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
    fn record_suffixes_match_the_committed_baseline_spellings() {
        // The committed BENCH_core.json carries rows named with exactly
        // these suffixes; a drifted spelling would silently open a new,
        // ungated record group.
        use MemAddressing::*;
        use MemTiming::*;
        use PlanMode::*;
        let suffix = |timing, addresses, channels, tenants, plan| {
            RunMode {
                timing,
                addresses,
                channels,
                tenants,
                plan,
            }
            .suffix()
        };
        assert_eq!(suffix(Analytic, Synthetic, 1, 1, Fixed), "");
        assert_eq!(suffix(CycleLevel, Synthetic, 1, 1, Fixed), "+cycle");
        assert_eq!(suffix(CycleLevel, Recorded, 1, 1, Fixed), "+cycle+rec");
        assert_eq!(suffix(CycleLevel, Synthetic, 4, 1, Fixed), "+cycle+ch4");
        assert_eq!(suffix(Analytic, Synthetic, 4, 1, Fixed), "+ch4");
        assert_eq!(suffix(CycleLevel, Recorded, 2, 1, Fixed), "+cycle+rec+ch2");
        assert_eq!(suffix(CycleLevel, Synthetic, 1, 2, Fixed), "+cycle+mt2");
        assert_eq!(
            suffix(CycleLevel, Recorded, 4, 3, Fixed),
            "+cycle+rec+ch4+mt3"
        );
        assert_eq!(suffix(Analytic, Synthetic, 1, 1, Auto), "+plan");
        assert_eq!(
            suffix(CycleLevel, Recorded, 4, 3, Auto),
            "+cycle+rec+ch4+mt3+plan"
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
