//! Costing a recording whose samples were dropped.
//!
//! `try_simulate` on a sample-free workload must return exactly what
//! `simulate` returns on the full one wherever the replay and route
//! memos hold what it needs, and must credit the same simulated cycles.
//! Where it would need a sample (a cold SpMU replay, a cold route, or
//! recorded DRAM addressing under the cycle-level memory mode) it must
//! return `None` and credit nothing, also when other replays hit first.
//!
//! This file holds a single test on purpose: the simulated-cycle counter
//! is process-wide, so no other test may run concurrently in this
//! process.

use capstan_arch::spmu::RmwOp;
use capstan_bench::experiments::{table12_configs, table9_configs};
use capstan_bench::{AppId, Suite};
use capstan_core::config::{CapstanConfig, MemAddressing, MemTiming};
use capstan_core::perf::{simulate, try_simulate};
use capstan_core::program::{Workload, WorkloadBuilder};
use capstan_core::report::PerfReport;
use capstan_sim::stats::simulated_cycles;

/// `f`'s result and the simulated cycles it credited.
fn credited<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = simulated_cycles();
    let out = f();
    (out, simulated_cycles() - before)
}

/// `try_simulate` of a sample-free workload under `cfg`, asserted to
/// decline without crediting cycles.
fn assert_declines(free: &Workload, cfg: &CapstanConfig, what: &str) {
    let (report, cycles): (Option<PerfReport>, u64) = credited(|| try_simulate(free, cfg));
    assert!(report.is_none(), "{}: {what} did not decline", free.name);
    assert_eq!(
        cycles, 0,
        "{}: declining on {what} credited cycles",
        free.name
    );
}

#[test]
fn sample_free_workloads_cost_like_full_ones_or_decline() {
    let suite = Suite::parse("la=0.01,graph=0.004,spmspm=0.1,conv=0.03").unwrap();
    let record_cfg = CapstanConfig::paper_default();
    let configs: Vec<CapstanConfig> = table9_configs()
        .into_iter()
        .chain(table12_configs())
        .map(|(_, cfg)| cfg)
        .collect();
    // An SpMU and a shuffle network nothing else in this process uses.
    let mut cold_spmu = record_cfg;
    cold_spmu.spmu.queue_depth = 13;
    let mut cold_route = record_cfg;
    cold_route.shuffle.as_mut().unwrap().lanes = 8;
    let mut recorded = record_cfg;
    recorded.mem_timing = MemTiming::CycleLevel;
    recorded.mem_addresses = MemAddressing::Recorded;

    let (mut replaying, mut routing) = (0, 0);
    for app in AppId::ALL {
        for &dataset in app.datasets() {
            let full = suite.build(app, dataset).build(&record_cfg);
            let mut free = full.clone();
            free.drop_samples();

            for cfg in &configs {
                // The first call warms the memos; the second hits them.
                let (want, _) = credited(|| simulate(&full, cfg));
                let (again, want_cycles) = credited(|| simulate(&full, cfg));
                let (got, got_cycles) = credited(|| try_simulate(&free, cfg));
                assert_eq!(again, want);
                assert_eq!(got.as_ref(), Some(&want), "{} under {cfg:?}", full.name);
                assert_eq!(
                    got_cycles, want_cycles,
                    "{} credit under {cfg:?}",
                    full.name
                );
            }

            if full
                .tiles
                .iter()
                .any(|t| t.sram.total_vectors > 0 && t.sram.digest().vectors > 0)
            {
                replaying += 1;
                assert_declines(&free, &cold_spmu, "a cold replay");
            }
            if full.tiles.iter().any(|t| t.remote.digest().lanes > 0) {
                routing += 1;
                assert_declines(&free, &cold_route, "a cold route");
            }
            assert_declines(&free, &recorded, "recorded addressing");
        }
    }
    assert!(
        replaying > 0 && routing > 0,
        "{replaying} replaying, {routing} routing"
    );

    // A decline after a hit credits nothing: tile 0's replay is warm,
    // tile 1's is cold.
    let scatter_tile = |wl: &mut WorkloadBuilder, seed: u32| {
        let mut t = wl.tile();
        t.foreach_vec(1024, |t, i| {
            t.sram_rmw((i as u32 * 7919 + seed) % 65_536, RmwOp::AddF);
        });
        wl.commit(t);
    };
    let mut warm = WorkloadBuilder::new("warm");
    scatter_tile(&mut warm, 0x5EED);
    simulate(&warm.finish(), &record_cfg);
    let mut mixed = WorkloadBuilder::new("warm then cold");
    scatter_tile(&mut mixed, 0x5EED);
    scatter_tile(&mut mixed, 0xC01D);
    let mut mixed = mixed.finish();
    mixed.drop_samples();
    assert_declines(&mixed, &record_cfg, "a cold replay after a warm one");
}
