//! Wall-clock timing of the simulator's hot loops, for before/after
//! numbers in perf work.
//!
//! Run with `cargo run --release --example hotloop_timing`. The SpMU rows
//! saturate one unit with uniformly random reads, one row per SpMU shape
//! `table9` replays (Ideal is never replayed) plus address ordering, and
//! report host nanoseconds per simulated cycle (best of three runs).

use capstan::arch::spmu::driver::{measure_random_throughput, run_vectors};
use capstan::arch::spmu::{AccessVector, BankHash, OrderingMode, RmwOp, SpmuConfig};
use capstan::core::config::{CapstanConfig, MemoryKind};
use capstan::core::perf::simulate;
use capstan::core::program::WorkloadBuilder;
use std::time::Instant;

fn main() {
    let hash = SpmuConfig::default();
    let weak = SpmuConfig {
        priorities: 1,
        alloc_iterations: 1,
        ..hash
    };
    let arb = SpmuConfig {
        ordering: OrderingMode::Arbitrated,
        ..hash
    };
    let linear = |cfg: SpmuConfig| SpmuConfig {
        hash: BankHash::Linear,
        ..cfg
    };
    let rows = [
        ("unordered (Hash)", hash),
        ("Lin", linear(hash)),
        ("WA-Hash", weak),
        ("WA-Lin", linear(weak)),
        ("Arb-Hash", arb),
        ("Arb-Lin", linear(arb)),
        (
            "addr-ordered",
            SpmuConfig {
                ordering: OrderingMode::AddressOrdered,
                ..hash
            },
        ),
    ];
    const CYCLES: u64 = 201_000;
    for (name, cfg) in rows {
        let mut best = f64::INFINITY;
        let mut util = 0.0;
        for _ in 0..3 {
            let start = Instant::now();
            util = measure_random_throughput(cfg, 42, 1_000, CYCLES - 1_000).bank_utilization;
            best = best.min(start.elapsed().as_secs_f64());
        }
        println!(
            "spmu {name:<16} {:>6.0} ns/cycle ({:.2} Mcycles/s, util {util:.3})",
            best * 1e9 / CYCLES as f64,
            CYCLES as f64 / 1e6 / best
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
