//! Sampling-reservoir determinism across worker-thread counts.
//!
//! The workload recorder's bounded samples — SpMU access vectors,
//! shuffle vectors, and the recorded scattered-address vectors
//! (random/atomic/remote) — are deterministic decimations of each
//! tile's own stream, so recording the same workload must produce
//! **identical** samples no matter how many `capstan_par` workers build
//! tiles concurrently. This is the contract the CI
//! `CAPSTAN_THREADS=1`-vs-`4` byte-diff enforces end to end; here it is
//! pinned at the source, using `par_map_threads` so the thread count is
//! explicit instead of an environment game.

use capstan_bench::{AppId, Suite};
use capstan_core::config::{CapstanConfig, MemAddressing, MemTiming, MemoryKind, TenantPartition};
use capstan_core::perf::simulate;
use capstan_core::program::Workload;
use capstan_tensor::gen::Dataset;

/// Records one workload per dataset with an explicit worker count (as
/// `record_and_simulate` in `capstan_bench::experiments` does, one
/// `par_map` item per (app, dataset)).
fn record_with_threads(threads: usize) -> Vec<Workload> {
    let suite = Suite::small();
    let cfg = CapstanConfig::paper_default();
    let datasets = [Dataset::WebStanford, Dataset::UsRoads, Dataset::Flickr];
    capstan_par::par_map_threads(&datasets, threads, |&d| {
        suite.build(AppId::PrEdge, d).build(&cfg)
    })
}

fn assert_workloads_identical(a: &[Workload], b: &[Workload]) {
    assert_eq!(a.len(), b.len());
    for (wa, wb) in a.iter().zip(b) {
        assert_eq!(wa.tiles.len(), wb.tiles.len(), "{}: tile counts", wa.name);
        for (ta, tb) in wa.tiles.iter().zip(&wb.tiles) {
            assert_eq!(ta.sram.sampled.len(), tb.sram.sampled.len());
            for (va, vb) in ta.sram.sampled.iter().zip(&tb.sram.sampled) {
                assert_eq!(va.lanes, vb.lanes, "{}: SpMU sample drifted", wa.name);
            }
            assert_eq!(
                ta.remote.sampled, tb.remote.sampled,
                "{}: shuffle sample drifted",
                wa.name
            );
            assert_eq!(
                ta.remote.addr_sampled, tb.remote.addr_sampled,
                "{}: remote address sample drifted",
                wa.name
            );
            assert_eq!(
                ta.dram_random_addrs, tb.dram_random_addrs,
                "{}: random address sample drifted",
                wa.name
            );
            assert_eq!(
                ta.dram_atomic_addrs, tb.dram_atomic_addrs,
                "{}: atomic address sample drifted",
                wa.name
            );
        }
    }
}

#[test]
fn sampled_reservoirs_are_identical_across_thread_counts() {
    let serial = record_with_threads(1);
    for threads in [2usize, 4] {
        assert_workloads_identical(&serial, &record_with_threads(threads));
    }
    // The samples must be non-trivial for the comparison to mean much:
    // PR-Edge records remote destination addresses on every dataset.
    assert!(serial
        .iter()
        .any(|w| w.tiles.iter().any(|t| !t.remote.addr_sampled.is_empty())));
}

#[test]
fn recorded_replay_reports_are_identical_across_thread_counts() {
    // End-to-end: simulate the recorded workloads under the cycle-level
    // recorded-address mode on 1 vs 4 workers and require
    // bit-identical reports.
    let workloads = record_with_threads(1);
    let mut cfg = CapstanConfig::new(MemoryKind::Hbm2e);
    cfg.mem_timing = MemTiming::CycleLevel;
    cfg.mem_addresses = MemAddressing::Recorded;
    cfg.shuffle = None; // fallback atomics: the recorded remote addresses flow
    let serial = capstan_par::par_map_threads(&workloads, 1, |w| simulate(w, &cfg));
    let parallel = capstan_par::par_map_threads(&workloads, 4, |w| simulate(w, &cfg));
    assert_eq!(serial, parallel);
    assert!(serial.iter().all(|r| r.mem.is_some()));
}

#[test]
fn planner_reports_are_identical_across_thread_counts_and_runs() {
    // The planner experiment — per-dataset stats, quarter-scale probe
    // plans, full-scale rankings, and the regret table — is part of
    // byte-diffed reports and of the serving layer's job keys, so its
    // output must be byte-identical across worker counts and across
    // repeated runs in one process.
    let suite = Suite::small();
    let serial = capstan_bench::experiments::planner_report(&suite, 1);
    assert!(serial.contains("median regret:"), "report has the summary");
    for threads in [2usize, 4] {
        let parallel = capstan_bench::experiments::planner_report(&suite, threads);
        assert_eq!(serial, parallel, "planner drifted on {threads} workers");
    }
    let rerun = capstan_bench::experiments::planner_report(&suite, 1);
    assert_eq!(serial, rerun, "planner drifted across repeated runs");
}

#[test]
fn multi_tenant_reports_are_identical_across_thread_counts() {
    // Tenant interleaving adds per-tenant cursors, a round-robin issue
    // order, and per-tenant stat attribution on top of the
    // single-tenant path; none of it may depend on which worker thread
    // runs the simulation. 2 and 3 tenants, shared and dedicated.
    let workloads = record_with_threads(1);
    for (tenants, channels, partition) in [
        (2usize, 1usize, TenantPartition::Shared),
        (2, 2, TenantPartition::Dedicated),
        (3, 3, TenantPartition::Dedicated),
    ] {
        let mut cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        cfg.mem_timing = MemTiming::CycleLevel;
        cfg.mem_channels = channels;
        cfg.mem_tenants = tenants;
        cfg.mem_tenant_partition = partition;
        let serial = capstan_par::par_map_threads(&workloads, 1, |w| simulate(w, &cfg));
        for threads in [2usize, 4] {
            let parallel = capstan_par::par_map_threads(&workloads, threads, |w| simulate(w, &cfg));
            assert_eq!(
                serial, parallel,
                "{partition:?}/{tenants} tenants drifted on {threads} workers"
            );
        }
        assert!(serial.iter().all(|r| r.mem_tenants.len() == tenants
            && r.mem_tenants.iter().all(|t| t.submitted == t.completed)));
    }
}
