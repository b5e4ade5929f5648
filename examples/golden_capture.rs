//! One-off capture of golden determinism values (used to pin the
//! scratch-buffer refactor and the bit-parallel SpMU tick; see
//! `tests/determinism_golden.rs`).

use capstan::apps::App;
use capstan::arch::spmu::driver::{measure_random_throughput, run_vectors, TraceRng};
use capstan::arch::spmu::{
    AccessVector, BankHash, LaneRequest, OrderingMode, RmwOp, Spmu, SpmuConfig,
};
use capstan::core::config::{CapstanConfig, MemoryKind};
use capstan::core::perf::simulate;
use capstan::tensor::gen::Dataset;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// The SpMU shapes the grant-log golden covers: every ordering mode, the
/// ideal unit, all 18 Table 4 points and Table 9's Lin / WA / Arb-Lin.
fn grant_log_configs() -> Vec<(String, SpmuConfig)> {
    let base = SpmuConfig::default();
    let mut out = Vec::new();
    for ordering in [
        OrderingMode::Unordered,
        OrderingMode::AddressOrdered,
        OrderingMode::FullyOrdered,
        OrderingMode::Arbitrated,
    ] {
        out.push((format!("{ordering:?}"), SpmuConfig { ordering, ..base }));
    }
    let ideal = SpmuConfig {
        ideal_conflict_free: true,
        ..base
    };
    out.push(("Ideal".into(), ideal));
    for depth in [8, 16, 32] {
        for speedup in [1, 2] {
            for priorities in 1..=3 {
                let cfg = SpmuConfig {
                    queue_depth: depth,
                    input_speedup: speedup,
                    priorities,
                    ..base
                };
                out.push((format!("t4 d{depth} s{speedup} p{priorities}"), cfg));
            }
        }
    }
    let weak = SpmuConfig {
        priorities: 1,
        alloc_iterations: 1,
        ..base
    };
    for (name, cfg) in [
        (
            "Lin",
            SpmuConfig {
                hash: BankHash::Linear,
                ..base
            },
        ),
        ("WA-Hash", weak),
        (
            "WA-Lin",
            SpmuConfig {
                hash: BankHash::Linear,
                ..weak
            },
        ),
        (
            "Arb-Lin",
            SpmuConfig {
                ordering: OrderingMode::Arbitrated,
                hash: BankHash::Linear,
                ..base
            },
        ),
    ] {
        out.push((name.into(), cfg));
    }
    out
}

/// Drives `cfg` with a seeded stream of mixed vectors (empty lanes,
/// repeated hot reads, RMW updates) and digests every grant
/// `(cycle, lane, bank, vector_id)`, every completion and the final bank
/// utilization.
fn grant_log_digest(cfg: SpmuConfig, seed: u64, cycles: u64) -> u64 {
    let mut spmu = Spmu::new(cfg);
    spmu.enable_grant_log();
    let mut rng = TraceRng::new(seed);
    let span = cfg.capacity_words() as u64;
    let mut vector = AccessVector::default();
    let mut pending = false;
    let mut hash = FNV_OFFSET;
    for _ in 0..cycles {
        if !pending {
            vector.lanes.clear();
            vector.lanes.extend((0..cfg.lanes).map(|_| {
                let addr = match rng.below(8) {
                    0 => return None,
                    1 => rng.below(24) as u32,
                    _ => rng.below(span) as u32,
                };
                Some(if addr.is_multiple_of(3) {
                    LaneRequest::rmw(addr, RmwOp::AddF, 1.0)
                } else {
                    LaneRequest::read(addr)
                })
            }));
        }
        pending = !spmu.try_enqueue(&vector);
        if let Some(done) = spmu.tick() {
            fnv(&mut hash, done.id);
            fnv(&mut hash, done.dequeue_cycle);
            for r in &done.results {
                fnv(&mut hash, r.map_or(u64::MAX, |v| v.to_bits() as u64));
            }
        }
    }
    for g in spmu.grant_log().expect("log enabled") {
        fnv(&mut hash, g.cycle);
        fnv(&mut hash, g.lane as u64);
        fnv(&mut hash, g.bank as u64);
        fnv(&mut hash, g.vector_id);
    }
    fnv(&mut hash, spmu.bank_utilization().to_bits());
    hash
}

fn main() {
    for (name, cfg) in grant_log_configs() {
        println!(
            "grant_log {name}: 0x{:016X}",
            grant_log_digest(cfg, 0x6A47, 3_000)
        );
    }
    for (name, ordering) in [
        ("unordered", OrderingMode::Unordered),
        ("addr", OrderingMode::AddressOrdered),
        ("full", OrderingMode::FullyOrdered),
        ("arb", OrderingMode::Arbitrated),
    ] {
        let cfg = SpmuConfig {
            ordering,
            ..Default::default()
        };
        let r = measure_random_throughput(cfg, 42, 500, 2000);
        println!(
            "throughput {name}: util_bits=0x{:016X} requests={} cycles={}",
            r.bank_utilization.to_bits(),
            r.requests,
            r.cycles
        );
    }
    let vectors: Vec<AccessVector> = (0..64)
        .map(|i| {
            AccessVector::reads(
                &(0..16u32)
                    .map(|l| (i * 97 + l * 13) % 4096)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let rv = run_vectors(SpmuConfig::default(), &vectors);
    println!(
        "run_vectors: util_bits=0x{:016X} requests={} cycles={}",
        rv.bank_utilization.to_bits(),
        rv.requests,
        rv.cycles
    );
    for (name, app) in [
        (
            "csr_ckt",
            capstan::apps::spmv::CsrSpmv::new(&Dataset::Ckt11752.generate_scaled(0.04)),
        ),
        (
            "csr_tref",
            capstan::apps::spmv::CsrSpmv::new(&Dataset::Trefethen20000.generate_scaled(0.04)),
        ),
    ] {
        let wl = app.build(&CapstanConfig::paper_default());
        for (mem, cfg) in [
            ("hbm2e", CapstanConfig::new(MemoryKind::Hbm2e)),
            ("ddr4", CapstanConfig::new(MemoryKind::Ddr4)),
        ] {
            let r = simulate(&wl, &cfg);
            println!(
                "simulate {name}/{mem}: cycles={} active={} scan={} ls={} vl={} imb={} net={} sram={} dram={} util_bits=0x{:016X}",
                r.cycles,
                r.breakdown.active,
                r.breakdown.scan,
                r.breakdown.load_store,
                r.breakdown.vector_length,
                r.breakdown.imbalance,
                r.breakdown.network,
                r.breakdown.sram,
                r.breakdown.dram,
                r.sram_bank_utilization.to_bits()
            );
        }
    }
}
