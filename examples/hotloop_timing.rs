//! Wall-clock timing of the simulator's hot loops, for before/after
//! numbers in perf work. It is the workspace's one microbenchmark tool;
//! its times gate nothing.
//!
//! Run with `cargo run --release --example hotloop_timing`. The `spmu`,
//! `memdrv new`, memo-hit, `eie`, `bcsr`, `scanner` and `record` rows
//! are the best of three runs, the `memdrv` drain rows the best of
//! 15; a cold row is one call, since every later call in the process
//! hits the memo. The rows, in order:
//!
//! - `spmu`: one unit saturated with uniformly random reads, one row per
//!   SpMU shape `table9` replays (Ideal is never replayed) plus address
//!   ordering, in host nanoseconds per simulated cycle;
//! - `run_vectors`: 50k strided read vectors through the default SpMU;
//! - `memdrv`: the cycle-level memory drain (`MemSysSim`: region
//!   channels and AGs) of an atomic-heavy scatter kernel on HBM2E at 1
//!   and 8 region channels, in host nanoseconds per drained memory
//!   cycle, with the drain cycles; then `MemSysSim::with_config` (and
//!   the drop of the previous `MemSysSim`) at 1, 8 and 80 region
//!   channels, the cost every cycle-level `simulate` pays once, in
//!   microseconds;
//! - `simulate`: an SRAM-heavy workload, cold and then on a replay-memo
//!   hit;
//! - `simulate pr-edge`: PR-Edge on web-Stanford at the `small` graph
//!   scale, cold and then on a route-memo (and replay-memo) hit;
//! - `eie layer`: Table 13's fixed-size EIE layer, `gen::uniform(4096,
//!   9216, 3_700_000, 0xE1E)` plus its in-place `Csc::from`;
//! - `bcsr flickr`: the planner's largest BCSR probe, `BcsrSpmv::new`
//!   with 16×16 blocks plus `record` on Flickr at the `small` graph
//!   scale, in milliseconds per call, with its block and non-zero
//!   counts;
//! - `scanner`: bit-vector union at window widths 1/64/256/512 (1 is
//!   Fig. 6's narrowest window), intersect scans at set-bit strides
//!   2/16/256, a data scan of 64k values and a bit-tree union (the models
//!   behind Table 5 and Fig. 6);
//! - `record`: the recording layer alone (`App::build`, dataset already
//!   generated) for SpMSpM on mbeacxc and BFS on p2p-Gnutella31 at the
//!   `small` suite scales with Fig. 6's 1-bit scanner, in milliseconds
//!   per recording.

use capstan::apps::bfs::Bfs;
use capstan::apps::pagerank::PrEdge;
use capstan::apps::spmspm::SpMSpM;
use capstan::apps::spmv::BcsrSpmv;
use capstan::apps::App;
use capstan::arch::memdrv::{MemSysConfig, MemSysSim, TileTraffic};
use capstan::arch::scanner::{scan_bittree, BitVecScanner, DataScanner, ScanMode, ScanStats};
use capstan::arch::spmu::driver::{measure_random_throughput, run_vectors};
use capstan::arch::spmu::{AccessVector, BankHash, OrderingMode, RmwOp, SpmuConfig};
use capstan::core::config::{CapstanConfig, MemoryKind};
use capstan::core::perf::simulate;
use capstan::core::program::WorkloadBuilder;
use capstan::sim::dram::{DramModel, MemoryKind as DramKind};
use capstan::tensor::bittree::BitTree;
use capstan::tensor::bitvec::BitVec;
use capstan::tensor::gen::{self, Dataset};
use capstan::tensor::Csc;
use std::hint::black_box;
use std::time::Instant;

/// Best of three runs of `reps` back-to-back calls of `f`, in seconds
/// per call, with the last call's result.
fn best_of_3<T>(reps: u32, f: impl FnMut() -> T) -> (f64, T) {
    best_of(3, reps, f)
}

/// `best_of_3` over `runs` runs.
fn best_of<T>(runs: u32, reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let start = Instant::now();
        for _ in 0..reps {
            last = Some(black_box(f()));
        }
        best = best.min(start.elapsed().as_secs_f64() / reps as f64);
    }
    (best, last.expect("reps > 0"))
}

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
        let (best, r) = best_of_3(1, || {
            measure_random_throughput(cfg, 42, 1_000, CYCLES - 1_000)
        });
        println!(
            "spmu {name:<16} {:>6.0} ns/cycle ({:.2} Mcycles/s, util {:.3})",
            best * 1e9 / CYCLES as f64,
            CYCLES as f64 / 1e6 / best,
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
    memdrv_rows();

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
    // PR-Edge routes every tile's cross-tile updates through the shuffle
    // network; the first call routes, the later ones hit the route memo.
    let app = PrEdge::new(&Dataset::WebStanford.generate_scaled(0.015));
    let cfg = CapstanConfig::paper_default();
    let workload = app.build(&cfg);
    let start = Instant::now();
    let cold = simulate(&workload, &cfg);
    let cold_s = start.elapsed().as_secs_f64();
    let (hit_s, hit) = best_of_3(1, || simulate(&workload, &cfg));
    for (pass, secs, report) in [("cold", cold_s, cold), ("memo hit", hit_s, hit)] {
        println!(
            "simulate pr-edge web-stanford ({pass:<8}): {} cycles (network {}) in {secs:.4}s",
            report.cycles, report.breakdown.network
        );
    }
    let (secs, csc) = best_of_3(1, || Csc::from(gen::uniform(4096, 9216, 3_700_000, 0xE1E)));
    println!(
        "eie layer 4096x9216 uniform + csc: {} nnz in {secs:.3}s",
        csc.nnz()
    );
    let flickr = Dataset::Flickr.generate_scaled(0.015);
    let cfg = CapstanConfig::paper_default();
    let (secs, blocks) = best_of_3(1, || {
        let app = BcsrSpmv::new(&flickr, 16);
        black_box(app.record(&cfg));
        app.matrix().blocks()
    });
    println!(
        "bcsr flickr new + record {:>8.2} ms/call ({blocks} 16x16 blocks, {} nnz)",
        secs * 1e3,
        flickr.nnz()
    );
    scanner_rows();
    record_rows();
}

/// The cycle-level drain of one atomic-heavy scatter batch (mostly AG
/// read-modify-writes, some random and streaming bursts) through a
/// reused driver: `reset`, queue, `run`. A drain row is the best of
/// `DRAIN_RUNS` single drains: on a shared host the best of three
/// moved by ±20% between batches of runs of one binary.
fn memdrv_rows() {
    const DRAIN_RUNS: u32 = 15;
    let model = DramModel::new(DramKind::Hbm2e);
    let traffic = TileTraffic {
        stream_bursts: 2_000,
        random_bursts: 8_000,
        atomic_words: 60_000,
    };
    for channels in [1, 8] {
        let mut sim = MemSysSim::with_config(model, MemSysConfig::with_channels(&model, channels));
        let (secs, stats) = best_of(DRAIN_RUNS, 1, || {
            sim.reset();
            sim.add_tile(traffic);
            sim.run()
        });
        println!(
            "memdrv atomic scatter {channels} ch {:>6.0} ns/cycle ({} drain cycles, {} AG fetches)",
            secs * 1e9 / stats.cycles as f64,
            stats.cycles,
            stats.ag_bursts_fetched
        );
    }
    for (channels, reps) in [(1, 2_000), (8, 500), (80, 50)] {
        let (secs, _) = best_of_3(reps, || {
            MemSysSim::with_config(model, MemSysConfig::with_channels(&model, channels))
        });
        println!("memdrv new {channels:>2} ch {:>10.1} us/call", secs * 1e6);
    }
}

fn sparse_bitvec(len: usize, stride: usize) -> BitVec {
    let idx: Vec<u32> = (0..len as u32).step_by(stride).collect();
    BitVec::from_indices(len, &idx).unwrap()
}

fn scanner_rows() {
    const REPS: u32 = 100;
    let row = |name: &str, (secs, stats): (f64, ScanStats)| {
        println!(
            "scanner {name:<20} {:>8.1} us/call ({} scanner cycles)",
            secs * 1e6,
            stats.cycles
        );
    };
    let a = sparse_bitvec(1 << 16, 37);
    let b = sparse_bitvec(1 << 16, 23);
    for width in [1usize, 64, 256, 512] {
        let scanner = BitVecScanner::new(width, 16.min(width));
        row(
            &format!("union width {width}"),
            best_of_3(REPS, || scanner.scan_cycles(ScanMode::Union, &a, Some(&b))),
        );
    }
    let scanner = BitVecScanner::default();
    for stride in [2usize, 16, 256] {
        let a = sparse_bitvec(1 << 16, stride);
        row(
            &format!("intersect stride {stride}"),
            best_of_3(REPS, || scanner.scan_cycles(ScanMode::Intersect, &a, None)),
        );
    }
    let data: Vec<f32> = (0..65_536)
        .map(|i| if i % 13 == 0 { 1.0 } else { 0.0 })
        .collect();
    let ds = DataScanner::default();
    row("data 64k", best_of_3(REPS, || ds.scan(&data).1));
    let tree = |offset: u32| {
        let idx: Vec<u32> = (0..2000u32).map(|i| i * 100 + offset).collect();
        BitTree::from_indices(262_144, &idx).unwrap()
    };
    let (ta, tb) = (tree(0), tree(50));
    row(
        "bittree union",
        best_of_3(REPS, || scan_bittree(&scanner, ScanMode::Union, &ta, &tb).1),
    );
}

fn record_rows() {
    let mut cfg = CapstanConfig::paper_default();
    cfg.scanner = BitVecScanner::new(1, 1);
    // `Suite::small`'s SpMSpM and graph scales.
    let apps: [(&str, Box<dyn App>); 2] = [
        (
            "spmspm mbeacxc",
            Box::new(SpMSpM::squared(&Dataset::Mbeacxc.generate_scaled(0.5))),
        ),
        (
            "bfs gnutella31",
            Box::new(Bfs::new(&Dataset::Gnutella31.generate_scaled(0.015))),
        ),
    ];
    for (name, app) in apps {
        let (secs, workload) = best_of_3(1, || app.build(&cfg));
        println!(
            "record {name:<20} {:>8.2} ms/call ({} tiles, scanner width 1)",
            secs * 1e3,
            workload.tiles.len()
        );
    }
}
