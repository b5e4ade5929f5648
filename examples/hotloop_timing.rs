//! Wall-clock timing of the SpMU hot loop (used for before/after numbers
//! in perf work; see also `crates/bench/benches/spmu.rs`).

use capstan::arch::spmu::driver::{measure_random_throughput, run_vectors};
use capstan::arch::spmu::{AccessVector, OrderingMode, RmwOp, SpmuConfig};
use capstan::core::config::{CapstanConfig, MemoryKind};
use capstan::core::perf::simulate;
use capstan::core::program::WorkloadBuilder;
use std::time::Instant;

fn main() {
    for (name, ordering) in [
        ("unordered", OrderingMode::Unordered),
        ("addr-ordered", OrderingMode::AddressOrdered),
        ("arbitrated", OrderingMode::Arbitrated),
    ] {
        let cfg = SpmuConfig {
            ordering,
            ..Default::default()
        };
        let start = Instant::now();
        let r = measure_random_throughput(cfg, 42, 1_000, 200_000);
        let elapsed = start.elapsed().as_secs_f64();
        println!(
            "measure_random_throughput {name:<14} 201k cycles in {elapsed:.3}s  ({:.1} Mcycles/s, util {:.3})",
            0.201 / elapsed,
            r.bank_utilization
        );
    }
    let vectors: Vec<AccessVector> = (0..50_000)
        .map(|i| {
            AccessVector::reads(
                &(0..16u32)
                    .map(|l| (i * 97 + l * 13) % 65_536)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let start = Instant::now();
    let r = run_vectors(SpmuConfig::default(), &vectors);
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "run_vectors 50k vectors: {} cycles in {elapsed:.3}s ({:.1} Mcycles/s)",
        r.cycles,
        r.cycles as f64 / 1e6 / elapsed
    );

    // `simulate` on an SRAM-heavy workload, twice: the first call replays
    // every tile's trace through the SpMU, the second hits the replay memo.
    let mut wl = WorkloadBuilder::new("sram-heavy");
    for tile in 0..32usize {
        let mut t = wl.tile();
        t.foreach_vec(8192, |t, i| {
            t.sram_rmw(((i * 7919 + tile * 104_729) % 65_536) as u32, RmwOp::AddF);
        });
        wl.commit(t);
    }
    let workload = wl.finish();
    let cfg = CapstanConfig::new(MemoryKind::Hbm2e);
    for pass in ["cold", "memo hit"] {
        let start = Instant::now();
        let report = simulate(&workload, &cfg);
        let elapsed = start.elapsed().as_secs_f64();
        println!(
            "simulate sram-heavy ({pass:<8}): {} cycles (sram {}) in {elapsed:.4}s",
            report.cycles, report.breakdown.sram
        );
    }
}
