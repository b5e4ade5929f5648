//! Golden determinism regression tests.
//!
//! Each pin holds values captured from an earlier build of the
//! simulator, and a pure performance change must leave every one
//! **bit-identical**: utilizations are compared by `f64::to_bits`, not
//! tolerance, and long streams by an FNV digest.
//!
//! This file is also the capture tool. Each pin computes its whole
//! observed table first and compares it with the golden table in one
//! [`assert_golden`]. On drift the message prints the observed table in
//! the golden table's shape, integers in hex, so one failing run of
//! `cargo test --release --test determinism_golden` yields every value
//! of a drifted (or placeholder) table to paste.

use capstan::apps::App;
use capstan::arch::spmu::driver::{measure_random_throughput, run_vectors, TraceRng};
use capstan::arch::spmu::{
    split_same_address, AccessVector, BankHash, CompletedVector, GrantRecord, LaneRequest,
    OrderingMode, RmwOp, Spmu, SpmuConfig,
};
use capstan::core::config::{CapstanConfig, MemoryKind};
use capstan::core::perf::simulate;
use capstan::core::report::Breakdown;
use capstan::tensor::gen::Dataset;
use std::fmt::Debug;

/// Compares a pin's whole observed table with its golden table. The
/// failure message prints every observed row (`{:#X?}`), ready to paste.
fn assert_golden<T: PartialEq + Debug>(pin: &str, observed: &[T], golden: &[T]) {
    assert!(
        observed == golden,
        "{pin} drifted from its golden table; observed:\n{observed:#X?}"
    );
}

/// The eight Fig. 7 components, in report order.
fn components(b: &Breakdown) -> [u64; 8] {
    [
        b.active,
        b.scan,
        b.load_store,
        b.vector_length,
        b.imbalance,
        b.network,
        b.sram,
        b.dram,
    ]
}

#[test]
fn random_throughput_is_bit_identical_to_golden() {
    let golden: &[(OrderingMode, u64, u64)] = &[
        (OrderingMode::Unordered, 0x3FE9AE5604189375, 25_680),
        (OrderingMode::AddressOrdered, 0x3FD3E9FBE76C8B44, 9_936),
        (OrderingMode::FullyOrdered, 0x3FD030A3D70A3D71, 8_080),
        (OrderingMode::Arbitrated, 0x3FD4C395810624DD, 10_384),
    ];
    let observed: Vec<_> = golden
        .iter()
        .map(|&(ordering, ..)| {
            let cfg = SpmuConfig {
                ordering,
                ..Default::default()
            };
            let r = measure_random_throughput(cfg, 42, 500, 2000);
            assert_eq!(r.cycles, 2000);
            (ordering, r.bank_utilization.to_bits(), r.requests)
        })
        .collect();
    assert_golden("random throughput", &observed, golden);
}

#[test]
fn run_vectors_is_bit_identical_to_golden() {
    let vectors: Vec<AccessVector> = (0..64)
        .map(|i| {
            AccessVector::reads(
                &(0..16u32)
                    .map(|l| (i * 97 + l * 13) % 4096)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let r = run_vectors(SpmuConfig::default(), &vectors);
    assert_golden(
        "run_vectors",
        &[(r.bank_utilization.to_bits(), r.requests, r.cycles)],
        &[(0x3FE745D1745D1746, 1024, 88)],
    );
}

#[test]
fn perf_simulate_is_bit_identical_to_golden() {
    // (dataset, memory, cycles, [active, scan, ls, vl, imb, net, sram, dram], util bits)
    #[derive(Debug, PartialEq)]
    struct Golden {
        dataset: Dataset,
        memory: MemoryKind,
        cycles: u64,
        breakdown: [u64; 8],
        util_bits: u64,
    }
    let golden = [
        Golden {
            dataset: Dataset::Ckt11752,
            memory: MemoryKind::Hbm2e,
            cycles: 122,
            breakdown: [26, 0, 38, 0, 5, 0, 4, 49],
            util_bits: 0x3FD7267E366968C1,
        },
        Golden {
            dataset: Dataset::Ckt11752,
            memory: MemoryKind::Ddr4,
            cycles: 3226,
            breakdown: [26, 0, 38, 0, 5, 0, 4, 3153],
            util_bits: 0x3FD7267E366968C1,
        },
        Golden {
            dataset: Dataset::Trefethen20000,
            memory: MemoryKind::Hbm2e,
            cycles: 120,
            breakdown: [29, 0, 34, 0, 0, 0, 3, 54],
            util_bits: 0x3FE030A8C81C123F,
        },
        Golden {
            dataset: Dataset::Trefethen20000,
            memory: MemoryKind::Ddr4,
            cycles: 3162,
            breakdown: [29, 0, 34, 0, 0, 0, 3, 3096],
            util_bits: 0x3FE030A8C81C123F,
        },
    ];
    let observed: Vec<_> = golden
        .iter()
        .map(|g| {
            let app = capstan::apps::spmv::CsrSpmv::new(&g.dataset.generate_scaled(0.04));
            let wl = app.build(&CapstanConfig::paper_default());
            let r = simulate(&wl, &CapstanConfig::new(g.memory));
            Golden {
                dataset: g.dataset,
                memory: g.memory,
                cycles: r.cycles,
                breakdown: components(&r.breakdown),
                util_bits: r.sram_bank_utilization.to_bits(),
            }
        })
        .collect();
    assert_golden("CSR SpMV simulate", &observed, &golden);
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// The value semantics of the paper's RMW pipeline (§3.1):
/// `(old, operand) -> (new_memory, returned)`, per the result muxes
/// that [`RmwOp`]'s variant docs describe. The SpMU and the AGs model
/// timing only; the two pins below that were captured with value-carrying
/// units rebuild those values with this function, applied in the units'
/// own grant and release order.
fn apply(op: RmwOp, old: f32, operand: f32) -> (f32, f32) {
    let bits = |f: fn(u32, u32) -> u32| {
        let new = f32::from_bits(f(old.to_bits(), operand.to_bits()));
        (new, new)
    };
    match op {
        RmwOp::Read => (old, old),
        RmwOp::Write | RmwOp::Swap => (operand, old),
        RmwOp::AddF => (old + operand, old + operand),
        RmwOp::SubF => (old - operand, old - operand),
        RmwOp::AddI => bits(|a, b| (a as i32).wrapping_add(b as i32) as u32),
        RmwOp::MinReportChanged if operand < old => (operand, 1.0),
        RmwOp::MaxReportChanged if operand > old => (operand, 1.0),
        RmwOp::MinReportChanged | RmwOp::MaxReportChanged => (old, 0.0),
        RmwOp::TestAndSet => (1.0, old),
        RmwOp::WriteIfZero if old == 0.0 => (operand, old),
        RmwOp::WriteIfZero => (old, old),
        RmwOp::Or => bits(|a, b| a | b),
        RmwOp::And => bits(|a, b| a & b),
        RmwOp::Xor => bits(|a, b| a ^ b),
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

/// The operand of every update in [`grant_log_digest`]'s stream.
const GRANT_LOG_OPERAND: f32 = 1.0;

/// The value each lane of each admitted vector returned, indexed by
/// vector id: every grant applies its request to a word-addressed memory
/// in grant-log order, and an elided read returns the value of the first
/// earlier lane of its vector that read the same address.
fn returned_values(
    cfg: &SpmuConfig,
    admitted: &[AccessVector],
    grants: &[GrantRecord],
) -> Vec<Vec<f32>> {
    let mut mem = vec![0.0f32; cfg.capacity_words()];
    let mut values: Vec<Vec<f32>> = admitted.iter().map(|v| vec![0.0; v.lanes.len()]).collect();
    for g in grants {
        let req = admitted[g.vector_id as usize].lanes[g.lane].expect("granted lane");
        let word = &mut mem[req.addr as usize];
        let (new, returned) = apply(req.op, *word, GRANT_LOG_OPERAND);
        *word = new;
        values[g.vector_id as usize][g.lane] = returned;
    }
    if cfg.elide_repeated_reads {
        for (v, vals) in admitted.iter().zip(&mut values) {
            for lane in 0..v.lanes.len() {
                let Some(req) = v.lanes[lane].filter(|r| r.op.is_read_only()) else {
                    continue;
                };
                if let Some(source) = v.lanes[..lane].iter().position(|l| *l == Some(req)) {
                    vals[lane] = vals[source];
                }
            }
        }
    }
    values
}

/// The lane mix [`grant_log_digest`] draws its vectors from.
#[derive(Debug, Clone, Copy)]
enum GrantStream {
    /// Updates (`AddF`) go only to multiples of 3 and reads only to the
    /// other words, so no read ever sees an update's result.
    Disjoint,
    /// Reads, repeated reads and `AddF` updates share a few hot words, so
    /// reads (elided ones included) return earlier updates' sums.
    HotWords,
}

/// Drives `cfg` with a seeded `stream` of mixed vectors (empty lanes,
/// repeated hot reads, RMW updates) and digests every grant
/// `(cycle, lane, bank, vector_id)`, every completion with its lanes'
/// returned values (from [`returned_values`]) and the final bank
/// utilization.
fn grant_log_digest(cfg: SpmuConfig, stream: GrantStream, seed: u64, cycles: u64) -> u64 {
    let mut spmu = Spmu::new(cfg);
    spmu.enable_grant_log();
    let mut rng = TraceRng::new(seed);
    let span = cfg.capacity_words() as u64;
    let mut vector = AccessVector::default();
    let mut pending = false;
    // Every admitted vector by vector id: the unit numbers the parts of
    // an address-ordered split one by one.
    let mut admitted: Vec<AccessVector> = Vec::new();
    let mut completions: Vec<CompletedVector> = Vec::new();
    for _ in 0..cycles {
        if !pending {
            vector.lanes.clear();
            vector.lanes.extend((0..cfg.lanes).map(|_| match stream {
                GrantStream::Disjoint => {
                    let addr = match rng.below(8) {
                        0 => return None,
                        1 => rng.below(24) as u32,
                        _ => rng.below(span) as u32,
                    };
                    Some(if addr.is_multiple_of(3) {
                        LaneRequest::rmw(addr, RmwOp::AddF)
                    } else {
                        LaneRequest::read(addr)
                    })
                }
                GrantStream::HotWords => {
                    let addr = match rng.below(8) {
                        0 => return None,
                        1..=5 => rng.below(6) as u32,
                        _ => rng.below(span) as u32,
                    };
                    Some(if rng.below(3) == 0 {
                        LaneRequest::rmw(addr, RmwOp::AddF)
                    } else {
                        LaneRequest::read(addr)
                    })
                }
            }));
        }
        pending = !spmu.try_enqueue(&vector);
        if !pending {
            if cfg.ordering == OrderingMode::AddressOrdered {
                admitted.extend(split_same_address(&vector));
            } else {
                admitted.push(vector.clone());
            }
        }
        completions.extend(spmu.tick());
    }
    let grants = spmu.grant_log().expect("log enabled");
    let values = returned_values(&cfg, &admitted, grants);
    let mut hash = FNV_OFFSET;
    for done in &completions {
        fnv(&mut hash, done.id);
        fnv(&mut hash, done.dequeue_cycle);
        // Every generated vector spans all `cfg.lanes` lanes.
        for (lane, value) in values[done.id as usize].iter().enumerate() {
            let present = done.lanes >> lane & 1 == 1;
            let word = if present {
                value.to_bits() as u64
            } else {
                u64::MAX
            };
            fnv(&mut hash, word);
        }
    }
    for g in grants {
        fnv(&mut hash, g.cycle);
        fnv(&mut hash, g.lane as u64);
        fnv(&mut hash, g.bank as u64);
        fnv(&mut hash, g.vector_id);
    }
    fnv(&mut hash, spmu.bank_utilization().to_bits());
    hash
}

/// Grant-for-grant pin of the SpMU's issue logic, captured before the
/// bit-parallel tick rewrite. `table4` and `fig4` simulate fixed
/// cycle horizons, so their simulated-cycle counts cannot see an
/// allocator change; this digest of every grant `(cycle, lane, bank,
/// vector_id)`, every completion and the bank utilization can.
#[test]
fn spmu_grant_log_is_bit_identical_to_golden() {
    let golden: &[(&str, u64)] = &[
        ("Unordered", 0x04F6036B26EAA2D4),
        ("AddressOrdered", 0xDA27C28D7DC35B39),
        ("FullyOrdered", 0x311D05B90361A457),
        ("Arbitrated", 0xAFAB9F237669292A),
        ("Ideal", 0xE98E41E54A4704C9),
        ("t4 d8 s1 p1", 0xA9F2652B1830604D),
        ("t4 d8 s1 p2", 0x8DD2E283C0C73375),
        ("t4 d8 s1 p3", 0x4E0EC1DE557F9F69),
        ("t4 d8 s2 p1", 0xA2EEB4C7DC2EE9B7),
        ("t4 d8 s2 p2", 0x200402D1B3F499EB),
        ("t4 d8 s2 p3", 0xD671F6CD5D2354E1),
        ("t4 d16 s1 p1", 0x0A08ED5E2D4B7035),
        ("t4 d16 s1 p2", 0x7A788876A4F4BC38),
        ("t4 d16 s1 p3", 0x04F6036B26EAA2D4),
        ("t4 d16 s2 p1", 0x65A250E2D094A16F),
        ("t4 d16 s2 p2", 0xE786C744B28AB034),
        ("t4 d16 s2 p3", 0xE5F71515E7673856),
        ("t4 d32 s1 p1", 0x4BCC042726777721),
        ("t4 d32 s1 p2", 0x555C336748B1BF43),
        ("t4 d32 s1 p3", 0x3D54BF5F25C52608),
        ("t4 d32 s2 p1", 0x0206A0828306A6AD),
        ("t4 d32 s2 p2", 0x03FD3B47F76892E9),
        ("t4 d32 s2 p3", 0xE048DB484A9D52FE),
        ("Lin", 0xE33C6761138D1D98),
        ("WA-Hash", 0xCE61D8E075121232),
        ("WA-Lin", 0x38ED8C204ECA1F36),
        ("Arb-Lin", 0x2E9FFF90063F2A4C),
    ];
    let configs = grant_log_configs();
    assert_eq!(configs.len(), golden.len());
    for ((name, _), &(golden_name, _)) in configs.iter().zip(golden) {
        assert_eq!(name, golden_name);
    }
    let observed: Vec<(&str, u64)> = configs
        .iter()
        .map(|(name, cfg)| {
            let digest = grant_log_digest(*cfg, GrantStream::Disjoint, 0x6A47, 3_000);
            (name.as_str(), digest)
        })
        .collect();
    assert_golden("SpMU grant log", &observed, golden);
}

/// The grant-log digest over [`GrantStream::HotWords`], where reads and
/// updates meet on the same words: every returned value depends on the
/// grant order, and an elided read must return its source lane's value.
/// Covers every ordering mode and the ideal unit.
#[test]
fn spmu_hot_word_grant_log_is_bit_identical_to_golden() {
    let golden: &[(&str, u64)] = &[
        ("Unordered", 0x0B91002F900C0344),
        ("AddressOrdered", 0x5723F7E0BF02565C),
        ("FullyOrdered", 0x163DC56DA08E27EE),
        ("Arbitrated", 0x507EFADF2DAF4EF7),
        ("Ideal", 0x9679C0BF16E03BF9),
    ];
    let configs = &grant_log_configs()[..golden.len()];
    let observed: Vec<(&str, u64)> = configs
        .iter()
        .map(|(name, cfg)| {
            let digest = grant_log_digest(*cfg, GrantStream::HotWords, 0x407, 3_000);
            (name.as_str(), digest)
        })
        .collect();
    assert_golden("SpMU hot-word grant log", &observed, golden);
}

/// Golden pins for the address generator's completion stream
/// (AG-heavy / DRAM-bound path). Captured from the pre-refactor,
/// `HashMap`-keyed AG; the slab-indexed implementation must reproduce
/// the exact completion sequence (tags, result values, and cycles,
/// hashed in order), final memory image, burst counts, and drain cycle.
/// The AG models timing only, so the values come from [`apply`]: each
/// released access, looked up by its tag, applies to a word-addressed
/// memory in release order, and the memory image is that memory's.
#[test]
fn ag_completion_stream_is_bit_identical_to_golden() {
    use capstan::arch::ag::{AddressGenerator, DramAccess};
    use capstan::arch::spmu::driver::TraceRng;
    use capstan::arch::spmu::RmwOp;
    use capstan::sim::dram::{DramModel, MemoryKind as SimMem};

    #[derive(Debug, PartialEq)]
    struct Golden {
        kind: SimMem,
        capacity: usize,
        seed: u64,
        completions: u64,
        stream_hash: u64,
        mem_hash: u64,
        fetched: u64,
        written: u64,
        cycle: u64,
    }
    let golden = [
        Golden {
            kind: SimMem::Ddr4,
            capacity: 4,
            seed: 0xA6_601D,
            completions: 1113,
            stream_hash: 0xD107D87A2BBA3AC2,
            mem_hash: 0x9A98384800462FF7,
            fetched: 878,
            written: 744,
            cycle: 6674,
        },
        Golden {
            kind: SimMem::Hbm2e,
            capacity: 2,
            seed: 0xBEEF,
            completions: 2997,
            stream_hash: 0xF2D353343DDBCF3A,
            mem_hash: 0x3B04FE3D455B8B6C,
            fetched: 2550,
            written: 2186,
            cycle: 6285,
        },
        Golden {
            kind: SimMem::Ddr4,
            capacity: 8,
            seed: 0x5EED,
            completions: 1109,
            stream_hash: 0xB4BF58B4B57C49B6,
            mem_hash: 0xF4938DC8AD84B48B,
            fetched: 867,
            written: 757,
            cycle: 6756,
        },
    ];
    let mut observed = Vec::new();
    for g in &golden {
        let words = 4096u64;
        let mut ag = AddressGenerator::new(DramModel::new(g.kind), words as usize, g.capacity);
        let mut rng = TraceRng::new(g.seed);
        let mut hash = FNV_OFFSET;
        let mut submitted = 0u64;
        let mut completed = 0u64;
        // Every submitted access's operand, by tag, and the memory the
        // released accesses apply to.
        let mut operands: Vec<f32> = Vec::new();
        let mut accesses: Vec<DramAccess> = Vec::new();
        let mut mem = vec![0.0f32; words as usize];
        let mut drain = |ag: &mut AddressGenerator,
                         accesses: &[DramAccess],
                         operands: &[f32],
                         hash: &mut u64,
                         completed: &mut u64| {
            for r in ag.tick().iter() {
                let access = accesses[r.tag as usize];
                let word = &mut mem[access.addr as usize];
                let (new, returned) = apply(access.op, *word, operands[r.tag as usize]);
                *word = new;
                fnv(hash, r.tag);
                fnv(hash, returned.to_bits() as u64);
                fnv(hash, r.cycle);
                *completed += 1;
            }
        };
        for _ in 0..6000u64 {
            if submitted - completed < 64 && rng.below(2) == 0 {
                let addr = rng.below(words);
                let op = match rng.below(6) {
                    0 => RmwOp::Read,
                    1 => RmwOp::AddF,
                    2 => RmwOp::Write,
                    3 => RmwOp::MinReportChanged,
                    4 => RmwOp::TestAndSet,
                    _ => RmwOp::SubF,
                };
                operands.push(rng.below(100) as f32 * 0.5);
                let access = DramAccess {
                    addr,
                    op,
                    tag: submitted,
                };
                accesses.push(access);
                ag.submit(access);
                submitted += 1;
            }
            drain(&mut ag, &accesses, &operands, &mut hash, &mut completed);
        }
        for _ in 0..200_000u64 {
            if ag.is_idle() && completed == submitted {
                break;
            }
            drain(&mut ag, &accesses, &operands, &mut hash, &mut completed);
        }
        ag.flush();
        for _ in 0..200_000u64 {
            if ag.is_idle() {
                break;
            }
            drain(&mut ag, &accesses, &operands, &mut hash, &mut completed);
        }
        let mut mem_hash = FNV_OFFSET;
        for w in mem {
            fnv(&mut mem_hash, w.to_bits() as u64);
        }
        observed.push(Golden {
            kind: g.kind,
            capacity: g.capacity,
            seed: g.seed,
            completions: completed,
            stream_hash: hash,
            mem_hash,
            fetched: ag.bursts_fetched(),
            written: ag.bursts_written(),
            cycle: ag.cycle(),
        });
    }
    assert_golden("AG completion stream", &observed, &golden);
}

/// Golden pins for the butterfly shuffle network, routed both through
/// the owning `route` wrapper and the borrow-based `route_ref` with a
/// single reused scratch across all three merge-shift modes. Captured
/// from the pre-refactor clone-per-stage implementation.
#[test]
fn butterfly_route_is_bit_identical_to_golden() {
    use capstan::arch::shuffle::{
        ButterflyNetwork, MergeShift, RouteScratch, ShuffleConfig, ShuffleEntry, ShuffleVector,
    };
    use capstan::arch::spmu::driver::TraceRng;

    // (shift, cycles, bypassed, total entries, per-port hash)
    let golden = [
        (MergeShift::None, 59u64, 117u64, 1869u64, 0x90356930C5EAA85B),
        (MergeShift::One, 31, 117, 1869, 0x30C240941486474B),
        (MergeShift::Full, 28, 117, 1869, 0xC9ED474EB83548CA),
    ];
    let mut scratch = RouteScratch::default();
    let mut observed = Vec::new();
    for &(shift, ..) in &golden {
        let cfg = ShuffleConfig {
            shift,
            ..Default::default()
        };
        let mut rng = TraceRng::new(0x0DD_BA11);
        let streams: Vec<Vec<ShuffleVector>> = (0..cfg.ports)
            .map(|_| {
                (0..24)
                    .map(|_| {
                        (0..cfg.lanes)
                            .map(|l| {
                                (rng.below(3) == 0).then(|| ShuffleEntry {
                                    dest: rng.below(cfg.ports as u64) as u32,
                                    lane: l,
                                })
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let net = ButterflyNetwork::new(cfg);
        let owned = net.route(&streams);
        let refs: Vec<Vec<&ShuffleVector>> = streams.iter().map(|s| s.iter().collect()).collect();
        let borrowed = net.route_ref(&refs, &mut scratch).clone();
        assert_eq!(owned, borrowed, "route and route_ref diverged");
        let mut hash = FNV_OFFSET;
        for (v, e) in owned.delivered_vectors.iter().zip(&owned.delivered_entries) {
            fnv(&mut hash, *v);
            fnv(&mut hash, *e);
        }
        observed.push((
            shift,
            owned.cycles,
            owned.bypassed,
            owned.delivered_entries.iter().sum::<u64>(),
            hash,
        ));
    }
    assert_golden("butterfly route", &observed, &golden);
}

/// Golden pins for a network-heavy (shuffle-routed) end-to-end
/// simulation: edge-centric PageRank on a power-law web graph pushes
/// remote updates through the butterfly model, so the Network component
/// is nonzero and exercises `route_ref` inside `network_excess`.
#[test]
fn network_heavy_simulate_is_bit_identical_to_golden() {
    let g = Dataset::WebStanford.generate_scaled(0.02);
    let app = capstan::apps::pagerank::PrEdge::new(&g);
    let wl = app.build(&CapstanConfig::paper_default());
    // (memory, cycles, [active, scan, ls, vl, imb, net, sram, dram], util bits)
    let golden = [
        (
            MemoryKind::Hbm2e,
            866u64,
            [102u64, 0, 90, 0, 221, 147, 306, 0],
            0x3FD8CA99ADD0B565u64,
        ),
        (
            MemoryKind::Ddr4,
            4406,
            [102, 0, 90, 0, 221, 147, 306, 3540],
            0x3FD8CA99ADD0B565,
        ),
    ];
    let observed: Vec<_> = golden
        .iter()
        .map(|&(mem, ..)| {
            let r = simulate(&wl, &CapstanConfig::new(mem));
            assert!(
                r.breakdown.network > 0,
                "workload must exercise the network path"
            );
            (
                mem,
                r.cycles,
                components(&r.breakdown),
                r.sram_bank_utilization.to_bits(),
            )
        })
        .collect();
    assert_golden("network-heavy PR-Edge simulate", &observed, &golden);
}

/// Golden pins for the banked cycle-level DRAM channel
/// (`MemTiming::CycleLevel`'s timing hook): a deterministic mixed
/// stream (sequential runs interrupted by scattered bursts) must
/// reproduce the exact completion sequence — `(tag, cycle)` hashed in
/// order — plus the row/contention counters, on two memory configs.
#[test]
fn banked_channel_completion_stream_is_bit_identical_to_golden() {
    use capstan::arch::spmu::driver::TraceRng;
    use capstan::sim::dram::{
        BankTiming, BankedDramChannel, BurstRequest, DramModel, MemoryKind as SimMem, BURST_BYTES,
    };

    #[derive(Debug, PartialEq)]
    struct Golden {
        kind: SimMem,
        seed: u64,
        stream_hash: u64,
        cycle: u64,
        row_hits: u64,
        row_conflicts: u64,
        contention: u64,
        busy: u64,
        peak_q: usize,
    }
    let golden = [
        Golden {
            kind: SimMem::Ddr4,
            seed: 0x00C1_C1E0,
            stream_hash: 0xF0F48A42E2CCAAF9,
            cycle: 8075,
            row_hits: 1180,
            row_conflicts: 1804,
            contention: 4_375_654,
            busy: 112_140,
            peak_q: 64,
        },
        Golden {
            kind: SimMem::Hbm2e,
            seed: 0x00C1_C1E1,
            stream_hash: 0xB6489EE1B418DD63,
            cycle: 4635,
            row_hits: 1206,
            row_conflicts: 1778,
            contention: 37,
            busy: 4794,
            peak_q: 9,
        },
    ];
    let mut observed = Vec::new();
    for g in &golden {
        let model = DramModel::new(g.kind);
        let mut ch = BankedDramChannel::new(model, BankTiming::for_model(&model));
        let mut rng = TraceRng::new(g.seed);
        let mut hash = FNV_OFFSET;
        let mut pushed = 0u64;
        let mut completed = 0u64;
        let mut seq = 0u64;
        let total = 3000u64;
        for _ in 0..2_000_000u64 {
            if pushed < total && rng.below(3) != 0 {
                let burst = if rng.below(4) == 0 {
                    rng.below(1 << 16)
                } else {
                    seq += 1;
                    seq
                };
                // This draw once chose the burst's direction; the channel
                // times reads and writes alike, and the pinned stream
                // depends on the whole draw sequence, so it stays.
                let _ = rng.below(4);
                let req = BurstRequest {
                    addr: burst * BURST_BYTES,
                    tag: pushed,
                };
                if ch.push(req).is_ok() {
                    pushed += 1;
                }
            }
            for c in ch.tick() {
                fnv(&mut hash, c.tag);
                fnv(&mut hash, c.cycle);
                completed += 1;
            }
            if pushed == total && ch.is_idle() {
                break;
            }
        }
        assert_eq!(completed, total, "{:?} lost completions", g.kind);
        let s = ch.stats();
        observed.push(Golden {
            kind: g.kind,
            seed: g.seed,
            stream_hash: hash,
            cycle: ch.cycle(),
            row_hits: s.row_hits,
            row_conflicts: s.row_conflicts,
            contention: s.contention_cycles,
            busy: s.bank_busy_cycles,
            peak_q: s.peak_bank_queue,
        });
    }
    assert_golden("banked channel completion stream", &observed, &golden);
}

/// Golden pins for an atomic-heavy end-to-end simulate under the
/// cycle-level memory mode: edge-centric PageRank with the shuffle
/// network removed (Table 11's "None" column) pushes every cross-tile
/// update through DRAM atomics, exercising the AG slab behind
/// `MemSysSim`.
#[test]
fn cycle_level_atomic_pagerank_is_bit_identical_to_golden() {
    use capstan::core::config::MemTiming;

    let g = Dataset::WebStanford.generate_scaled(0.02);
    let app = capstan::apps::pagerank::PrEdge::new(&g);
    let mk = |memory| {
        let mut cfg = CapstanConfig::new(memory);
        cfg.shuffle = None;
        cfg.mem_timing = MemTiming::CycleLevel;
        cfg
    };
    let wl = app.build(&mk(MemoryKind::Hbm2e));
    // (memory, cycles, [active, scan, ls, vl, imb, net, sram, dram],
    //  mem cycles, row conflicts, contention, ag fetched, ag written)
    #[derive(Debug, PartialEq)]
    struct Golden {
        memory: MemoryKind,
        cycles: u64,
        breakdown: [u64; 8],
        mem_cycles: u64,
        row_conflicts: u64,
        contention: u64,
        ag_fetched: u64,
        ag_written: u64,
    }
    let golden = [
        Golden {
            memory: MemoryKind::Hbm2e,
            cycles: 23_210,
            breakdown: [102, 0, 90, 0, 221, 0, 306, 22_491],
            mem_cycles: 23_210,
            row_conflicts: 688,
            contention: 8485,
            ag_fetched: 36_881,
            ag_written: 36_881,
        },
        Golden {
            memory: MemoryKind::Ddr4,
            cycles: 294_504,
            breakdown: [102, 0, 90, 0, 221, 0, 306, 293_785],
            mem_cycles: 294_504,
            row_conflicts: 688,
            contention: 3_922_515,
            ag_fetched: 36_790,
            ag_written: 36_790,
        },
    ];
    let observed: Vec<_> = golden
        .iter()
        .map(|g| {
            let r = simulate(&wl, &mk(g.memory));
            let m = r.mem.expect("cycle mode surfaces stats");
            assert!(m.atomic_words > 0, "workload must exercise the atomic path");
            Golden {
                memory: g.memory,
                cycles: r.cycles,
                breakdown: components(&r.breakdown),
                mem_cycles: m.cycles,
                row_conflicts: m.row_conflicts,
                contention: m.contention_cycles,
                ag_fetched: m.ag_bursts_fetched,
                ag_written: m.ag_bursts_written,
            }
        })
        .collect();
    assert_golden("cycle-level atomic PR-Edge simulate", &observed, &golden);
}

/// Golden pins for the *recorded-address* cycle-level mode
/// (`CapstanConfig::mem_addresses = Recorded`): the same shuffle-less
/// PR-Edge workload as the synthetic pins above, but the DRAM-atomic
/// fallback replays the recorder's real sampled destination vertices —
/// power-law hubs revisit open bursts, so the AGs fetch less than half
/// the bursts and the drain is 1.7–2.2x faster than the uniform
/// synthetic spray.
#[test]
fn recorded_address_pagerank_is_bit_identical_to_golden() {
    use capstan::core::config::{MemAddressing, MemTiming};

    let g = Dataset::WebStanford.generate_scaled(0.02);
    let app = capstan::apps::pagerank::PrEdge::new(&g);
    let mk = |memory| {
        let mut cfg = CapstanConfig::new(memory);
        cfg.shuffle = None;
        cfg.mem_timing = MemTiming::CycleLevel;
        cfg.mem_addresses = MemAddressing::Recorded;
        cfg
    };
    let wl = app.build(&mk(MemoryKind::Hbm2e));
    #[derive(Debug, PartialEq)]
    struct Golden {
        memory: MemoryKind,
        cycles: u64,
        dram: u64,
        mem_cycles: u64,
        row_conflicts: u64,
        contention: u64,
        ag_fetched: u64,
        ag_written: u64,
    }
    let golden = [
        Golden {
            memory: MemoryKind::Hbm2e,
            cycles: 13_263,
            dram: 12_544,
            mem_cycles: 13_263,
            row_conflicts: 688,
            contention: 9862,
            ag_fetched: 17_074,
            ag_written: 17_074,
        },
        Golden {
            memory: MemoryKind::Ddr4,
            cycles: 136_776,
            dram: 136_057,
            mem_cycles: 136_776,
            row_conflicts: 688,
            contention: 3_922_503,
            ag_fetched: 17_074,
            ag_written: 17_074,
        },
    ];
    let observed: Vec<_> = golden
        .iter()
        .map(|g| {
            let r = simulate(&wl, &mk(g.memory));
            // The non-DRAM components must match the synthetic-mode pins:
            // recorded addressing only changes where scattered words land.
            assert_eq!(
                components(&r.breakdown)[..7],
                [102, 0, 90, 0, 221, 0, 306],
                "pr_edge_recorded/{:?} non-DRAM components drifted",
                g.memory
            );
            let m = r.mem.expect("cycle mode surfaces stats");
            Golden {
                memory: g.memory,
                cycles: r.cycles,
                dram: r.breakdown.dram,
                mem_cycles: m.cycles,
                row_conflicts: m.row_conflicts,
                contention: m.contention_cycles,
                ag_fetched: m.ag_bursts_fetched,
                ag_written: m.ag_bursts_written,
            }
        })
        .collect();
    assert_golden("recorded-address PR-Edge simulate", &observed, &golden);
}

/// Golden pins for the cycle-level memory model's issue loop under
/// several tenants: every tenant queues streaming, random and atomic
/// traffic, drained through `MemSysSim` under both partitions. The
/// dedicated partition splits the issue width into private budgets that
/// run out mid-round, so the order in which a tenant tries its three
/// classes, and which budget each tenant draws from, both show in the
/// drain. Captured before the shared and dedicated issue loops were
/// merged into one.
#[test]
fn multi_tenant_memsys_drain_is_bit_identical_to_golden() {
    use capstan::arch::memdrv::{MemSysConfig, MemSysSim, TenantId, TenantPartition, TileTraffic};
    use capstan::sim::dram::DramModel;

    #[derive(Debug, PartialEq)]
    struct Golden {
        channels: usize,
        tenants: usize,
        partition: TenantPartition,
        cycles: u64,
        row_hits: u64,
        row_conflicts: u64,
        contention: u64,
        ag_fetched: u64,
        ag_written: u64,
        /// Per tenant: completion cycle, then occupancy cycles.
        per_tenant: [(u64, u64); 3],
    }
    let golden = [
        Golden {
            channels: 1,
            tenants: 1,
            partition: TenantPartition::Shared,
            cycles: 1068,
            row_hits: 207,
            row_conflicts: 1277,
            contention: 25_857,
            ag_fetched: 1392,
            ag_written: 1392,
            per_tenant: [(903, 341_133), (0, 0), (0, 0)],
        },
        Golden {
            channels: 2,
            tenants: 2,
            partition: TenantPartition::Shared,
            cycles: 1294,
            row_hits: 181,
            row_conflicts: 2887,
            contention: 8691,
            ag_fetched: 3480,
            ag_written: 3480,
            per_tenant: [(920, 305_070), (1129, 410_134), (0, 0)],
        },
        Golden {
            channels: 3,
            tenants: 3,
            partition: TenantPartition::Shared,
            cycles: 1553,
            row_hits: 1163,
            row_conflicts: 3589,
            contention: 1965,
            ag_fetched: 6178,
            ag_written: 6178,
            per_tenant: [(876, 279_580), (1182, 387_294), (1388, 509_217)],
        },
        Golden {
            channels: 2,
            tenants: 2,
            partition: TenantPartition::Dedicated,
            cycles: 1503,
            row_hits: 609,
            row_conflicts: 2459,
            contention: 3811,
            ag_fetched: 3463,
            ag_written: 3463,
            per_tenant: [(941, 310_496), (1338, 423_010), (0, 0)],
        },
        Golden {
            channels: 3,
            tenants: 3,
            partition: TenantPartition::Dedicated,
            cycles: 1996,
            row_hits: 1511,
            row_conflicts: 3241,
            contention: 1762,
            ag_fetched: 6169,
            ag_written: 6169,
            per_tenant: [(1062, 299_314), (1476, 409_469), (1831, 517_274)],
        },
        Golden {
            channels: 4,
            tenants: 2,
            partition: TenantPartition::Dedicated,
            cycles: 971,
            row_hits: 828,
            row_conflicts: 2208,
            contention: 914,
            ag_fetched: 3518,
            ag_written: 3518,
            per_tenant: [(606, 277_767), (806, 383_718), (0, 0)],
        },
    ];
    let model = DramModel::new(MemoryKind::Hbm2e);
    let traffic = |t: u64| TileTraffic {
        stream_bursts: 600 + 400 * t,
        random_bursts: 900 - 300 * t,
        atomic_words: 1500 + 700 * t,
    };
    let observed: Vec<_> = golden
        .iter()
        .map(|g| {
            let cfg = MemSysConfig::with_tenants(&model, g.channels, g.tenants, g.partition);
            let mut sim = MemSysSim::with_config(model, cfg);
            for t in 0..g.tenants {
                sim.add_tile_for(TenantId(t), traffic(t as u64));
            }
            let m = sim.run();
            let mut per_tenant = [(0, 0); 3];
            for (t, slot) in per_tenant.iter_mut().enumerate().take(g.tenants) {
                let s = sim.tenant_stats(TenantId(t));
                *slot = (s.completion_cycle, s.occupancy_cycles);
            }
            Golden {
                channels: g.channels,
                tenants: g.tenants,
                partition: g.partition,
                cycles: m.cycles,
                row_hits: m.row_hits,
                row_conflicts: m.row_conflicts,
                contention: m.contention_cycles,
                ag_fetched: m.ag_bursts_fetched,
                ag_written: m.ag_bursts_written,
                per_tenant,
            }
        })
        .collect();
    assert_golden("multi-tenant memory drain", &observed, &golden);
}

#[test]
fn repeated_runs_are_identical() {
    // Same seed, same everything: the engine must be a pure function.
    let a = measure_random_throughput(SpmuConfig::default(), 7, 300, 1200);
    let b = measure_random_throughput(SpmuConfig::default(), 7, 300, 1200);
    assert_eq!(a.bank_utilization.to_bits(), b.bank_utilization.to_bits());
    assert_eq!(a.requests, b.requests);
}

/// FNV digest of a COO matrix: its shape, then every `(row, col, value
/// bits)` triplet in storage order.
fn coo_digest(m: &capstan::tensor::Coo) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv(&mut hash, m.rows() as u64);
    fnv(&mut hash, m.cols() as u64);
    for (r, c, v) in m.iter() {
        fnv(&mut hash, r as u64);
        fnv(&mut hash, c as u64);
        fnv(&mut hash, v.to_bits() as u64);
    }
    hash
}

/// Golden pins for the dataset generators and the `rand` shim's draws
/// beneath them: every Table 6 dataset at a tiny scale, plus small
/// `gen::uniform` shapes dense enough to draw duplicate coordinates
/// (whose summed values depend on the draw order).
#[test]
fn dataset_generators_are_bit_identical_to_golden() {
    use capstan::tensor::gen::uniform;
    // (dataset, nnz, digest)
    let golden_datasets: [(Dataset, u64, u64); 13] = [
        (Dataset::Ckt11752, 0x27A, 0x7F72E41D3B66D52D),
        (Dataset::Trefethen20000, 0x18A, 0x77225AA3DFE933E9),
        (Dataset::Bcsstk30, 0x7E1, 0xC4CAA29F9E6A9855),
        (Dataset::UsRoads, 0x287, 0xCBB425F6731868E2),
        (Dataset::WebStanford, 0x1210, 0x97E4388BB1B09455),
        (Dataset::Flickr, 0x4CDA, 0x45FF11B789DAF90B),
        (Dataset::Gnutella31, 0x127, 0xEE03139CE108404E),
        (Dataset::SpaceStation4, 0x1C, 0x7766B8256EEEB225),
        (Dataset::Qc324, 0x36, 0x52AAB4A3ED205F88),
        (Dataset::Mbeacxc, 0x5F, 0xFD256FE9C09EBF63),
        (Dataset::ResNet50L1, 0xB1, 0x3CA9762018D68537),
        (Dataset::ResNet50L2, 0x5F, 0x2C4E923F3E004069),
        (Dataset::ResNet50L29, 0x53, 0xBC271252B9EF4D9B),
    ];
    let observed: Vec<_> = Dataset::ALL
        .iter()
        .map(|&d| {
            let m = d.generate_scaled(0.002);
            (d, m.nnz() as u64, coo_digest(&m))
        })
        .collect();
    assert_golden("Table 6 datasets", &observed, &golden_datasets);
    // (rows, cols, target nnz, seed, nnz, digest)
    let golden_uniform: [(usize, usize, usize, u64, u64, u64); 4] = [
        (8, 8, 60, 1, 0x2C, 0xB554CA1D2E2C9020),
        (16, 4, 64, 2, 0x2D, 0x4127B2593E9BE9B1),
        (40, 30, 900, 3, 0x2BF, 0x21A71C23E0662A91),
        (64, 96, 512, 0xE1E, 0x200, 0x27F687865F872CE6),
    ];
    let observed: Vec<_> = golden_uniform
        .iter()
        .map(|&(rows, cols, nnz, seed, ..)| {
            let m = uniform(rows, cols, nnz, seed);
            (rows, cols, nnz, seed, m.nnz() as u64, coo_digest(&m))
        })
        .collect();
    assert_golden("gen::uniform", &observed, &golden_uniform);
}
