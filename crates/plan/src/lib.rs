#![deny(missing_docs)]

//! # capstan-plan
//!
//! The density-driven planning layer: turns per-dataset statistics
//! ([`TensorStats`]) into a ranked [`Plan`] over candidate
//! (format, memory) configurations, so experiments and serve requests
//! can arrive with *data* instead of a hand-tuned configuration.
//!
//! The planner has two tiers:
//!
//! 1. **Static suggestion** — [`TensorStats::suggest`] picks a format
//!    from the statistics alone (HANA-style density rules, CSR as the
//!    safe fallback). Free, used where a probe would be too expensive
//!    (e.g. inside suite construction).
//! 2. **Analytic probes** — [`plan_spmv`] records one workload per
//!    buildable candidate format, prices it under each candidate channel
//!    count through the existing analytic `PerfReport` path, and returns
//!    every candidate ranked by simulated cycles with a deterministic
//!    tie-break.
//!
//! Everything here is deterministic: the candidate order is fixed, the
//! tie-break is total, and no statistic or ranking depends on thread
//! count — the planner's output is part of byte-diffed reports and of
//! the serving layer's job keys.

use capstan_apps::spmv::{BcsrSpmv, CscSpmv, CsrSpmv, DcsrSpmv};
use capstan_apps::App;
use capstan_core::config::{CapstanConfig, MemAddressing, MemTiming};
use capstan_core::perf::simulate;
pub use capstan_tensor::stats::{FormatClass, TensorStats};
use capstan_tensor::Coo;

/// BCSR block edge used by planner probes (matches
/// `capstan_tensor::stats::STATS_BLOCK`, the block-fill statistic's
/// tile).
const PLAN_BCSR_BLOCK: usize = 16;

/// nnz at which the serving planner provisions multiple region channels
/// for cycle-level runs (see [`plan_request`]).
const MULTI_CHANNEL_NNZ: u64 = 1_000_000;

/// One point in the planner's search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Sparse format class.
    pub format: FormatClass,
    /// Cycle-level region-channel count (the analytic probe cannot
    /// distinguish channel counts, so ties always resolve to the
    /// fewest).
    channels: usize,
}

/// A probed candidate with its analytic cycle count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedChoice {
    /// The configuration probed.
    pub candidate: Candidate,
    /// Simulated cycles under the analytic memory model.
    pub cycles: u64,
}

/// The planner's output: the dataset's statistics plus every probed
/// candidate, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Statistics of the planned dataset.
    pub stats: TensorStats,
    /// Probed candidates sorted by (cycles, format order, channels).
    pub ranked: Vec<RankedChoice>,
}

impl Plan {
    /// The winning candidate (the ranking is never empty: CSR always
    /// builds).
    pub fn chosen(&self) -> RankedChoice {
        self.ranked[0]
    }
}

/// The deterministic candidate grid the SpMV planner probes: every
/// buildable format crossed with {1, 4} region channels. Channel counts
/// beyond 1 are carried for the cycle-level verify tier; the analytic
/// probe prices them identically and the tie-break keeps the fewest.
fn spmv_candidates() -> Vec<Candidate> {
    let mut out = Vec::new();
    for format in [
        FormatClass::Csr,
        FormatClass::Csc,
        FormatClass::Dcsr,
        FormatClass::Bcsr,
    ] {
        for channels in [1usize, 4] {
            out.push(Candidate { format, channels });
        }
    }
    out
}

/// Builds the SpMV app that stores `m` in the given format class, or
/// `None` for classes without an SpMV kernel (banded, bit-tree — they
/// remain static-suggestion targets only).
pub fn build_spmv(m: &Coo, format: FormatClass) -> Option<Box<dyn App>> {
    match format {
        FormatClass::Csr => Some(Box::new(CsrSpmv::new(m))),
        FormatClass::Csc => Some(Box::new(CscSpmv::new(m))),
        FormatClass::Dcsr => Some(Box::new(DcsrSpmv::new(m))),
        FormatClass::Bcsr => Some(Box::new(BcsrSpmv::new(m, PLAN_BCSR_BLOCK))),
        FormatClass::Banded | FormatClass::BitTree => None,
    }
}

/// The probe configuration: analytic timing, synthetic addressing,
/// single tenant — explicit, never the process run mode, so a planned
/// run's probes are identical no matter what `--mem` flags the process
/// started with.
fn probe_config(channels: usize) -> CapstanConfig {
    let mut cfg = CapstanConfig::paper_default();
    cfg.mem_timing = MemTiming::Analytic;
    cfg.mem_addresses = MemAddressing::Synthetic;
    cfg.mem_channels = channels;
    cfg.mem_tenants = 1;
    cfg
}

/// Position in [`FormatClass::ALL`] — the second key of the total
/// tie-break order.
fn format_rank(f: FormatClass) -> usize {
    FormatClass::ALL
        .iter()
        .position(|&g| g == f)
        .unwrap_or(usize::MAX)
}

/// Plans an SpMV over `m`: probes every candidate in
/// `spmv_candidates` through the analytic `PerfReport` path, recording
/// each format once, and returns the full ranking. Ties break
/// deterministically by (format order, channel count) — in particular,
/// since the analytic model prices every channel count identically, the
/// winner always carries the fewest channels.
pub fn plan_spmv(m: &Coo) -> Plan {
    let stats = TensorStats::compute(m);
    let mut ranked: Vec<RankedChoice> = Vec::new();
    let candidates = spmv_candidates();
    for group in candidates.chunk_by(|a, b| a.format == b.format) {
        let Some(app) = build_spmv(m, group[0].format) else {
            continue;
        };
        // One workload per format, simulated under each channel count:
        // recording reads no memory field of the config (only the
        // scanner, lanes and shuffle ports), so every probe config
        // records the same workload. The app is dropped before
        // simulating, and the workload before the next format is
        // built, so two probes' matrices never live at once. Each is
        // O(nnz) on the host: BCSR keeps only its blocks' non-zeros.
        let workload = app.build(&probe_config(group[0].channels));
        drop(app);
        for &candidate in group {
            let report = simulate(&workload, &probe_config(candidate.channels));
            ranked.push(RankedChoice {
                candidate,
                cycles: report.cycles,
            });
        }
    }
    ranked.sort_by_key(|c| {
        (
            c.cycles,
            format_rank(c.candidate.format),
            c.candidate.channels,
        )
    });
    Plan { stats, ranked }
}

/// The memory configuration the server derives for a planned
/// submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedConfig {
    /// Memory-timing mode.
    pub mem: MemTiming,
    /// Scattered-address mode.
    pub addresses: MemAddressing,
    /// Region-channel count.
    pub channels: usize,
}

/// Derives a full run configuration from dataset statistics alone —
/// the closed-form rule the serving layer applies when a SUBMIT
/// arrives with `stats=` instead of a hand-picked configuration.
/// Deterministic by construction: equal stats always produce equal
/// plans, so identical data keys to the same served result.
pub fn plan_request(stats: &TensorStats) -> PlannedConfig {
    PlannedConfig {
        mem: MemTiming::Analytic,
        addresses: MemAddressing::Synthetic,
        // Large datasets get the multi-channel topology so a cycle-level
        // run sees the parallelism; the analytic tier prices both
        // identically.
        channels: if stats.nnz >= MULTI_CHANNEL_NNZ { 4 } else { 1 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band_matrix(n: u32) -> Coo {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Coo::from_triplets(n as usize, n as usize, t).unwrap()
    }

    #[test]
    fn spmv_candidate_grid_is_fixed_and_ordered() {
        let c = spmv_candidates();
        assert_eq!(c.len(), 8);
        assert_eq!(c[0].format, FormatClass::Csr);
        assert_eq!(c[0].channels, 1);
        assert_eq!(c[1].channels, 4);
        // Determinism: two calls, same grid.
        assert_eq!(c, spmv_candidates());
    }

    #[test]
    fn build_spmv_covers_the_kernel_formats_only() {
        let m = band_matrix(32);
        for f in [
            FormatClass::Csr,
            FormatClass::Csc,
            FormatClass::Dcsr,
            FormatClass::Bcsr,
        ] {
            assert!(build_spmv(&m, f).is_some(), "{f:?}");
        }
        assert!(build_spmv(&m, FormatClass::Banded).is_none());
        assert!(build_spmv(&m, FormatClass::BitTree).is_none());
    }

    #[test]
    fn plans_are_ranked_deterministic_and_prefer_fewest_channels() {
        let m = band_matrix(64);
        let plan = plan_spmv(&m);
        assert_eq!(plan.ranked.len(), 8);
        // Sorted by cycles, total tie-break.
        for pair in plan.ranked.windows(2) {
            assert!(pair[0].cycles <= pair[1].cycles);
        }
        // The analytic model prices channel counts identically, so the
        // winner must carry the minimum.
        assert_eq!(plan.chosen().candidate.channels, 1);
        // Byte-for-byte repeatability.
        let again = plan_spmv(&m);
        assert_eq!(plan, again);
        // Four formats are probed, each at two channel counts.
        let mut formats: Vec<&str> = plan
            .ranked
            .iter()
            .map(|c| c.candidate.format.tag())
            .collect();
        formats.sort_unstable();
        formats.dedup();
        assert_eq!(formats.len(), 4);
    }

    #[test]
    fn plan_request_is_a_closed_form_of_the_stats() {
        let small = TensorStats::compute(&band_matrix(32));
        let planned = plan_request(&small);
        assert_eq!(planned.mem, MemTiming::Analytic);
        assert_eq!(planned.addresses, MemAddressing::Synthetic);
        assert_eq!(planned.channels, 1);
        let mut big = small;
        big.nnz = MULTI_CHANNEL_NNZ;
        assert_eq!(plan_request(&big).channels, 4);
        // Equal stats, equal plan — the property the server's job table
        // relies on.
        assert_eq!(plan_request(&small), plan_request(&small));
    }
}
