//! The per-layer walk of the traced run.
//!
//! For every (app, dataset) pair a workload builds, the walk calls each
//! layer's public entry point once, in pipeline order, inside its own
//! span: `Suite::build` (dataset generation and format construction),
//! `App::build` (recording), `simulate` (the whole performance model),
//! then the three engines `simulate` drives internally, re-run from
//! outside on the same inputs: `run_vectors` on each tile's masked SRAM
//! sample, `ButterflyNetwork::route_ref` over the shuffle samples, and a
//! `MemSysSim` drain of the tile traffic. Synthetic scatter kernels
//! (the shapes the memory studies simulate) walk the same way, minus
//! the dataset.
//!
//! Because the engines are re-run rather than observed inside
//! `simulate`, `simulate`'s own share is reported as the remainder of
//! its span after the engines it contains (see `Layers::table`). A drain
//! under an analytic configuration is a probe: `simulate` prices that
//! traffic in closed form, so the probe is timed and counted but kept
//! out of the share denominator.

use crate::trace::{LayerTime, Tracer};
use capstan_apps::App;
use capstan_arch::memdrv::{MemSysConfig, MemSysSim, TenantId, TileTraffic, MAX_TENANTS};
use capstan_arch::shuffle::{ButterflyNetwork, RouteScratch, ShuffleVector};
use capstan_arch::spmu::driver::{run_vectors, TraceRng};
use capstan_arch::spmu::{AccessVector, LaneRequest};
use capstan_bench::{AppId, Suite};
use capstan_core::config::{CapstanConfig, MemAddressing, MemTiming, MemoryKind, TenantPartition};
use capstan_core::perf::simulate;
use capstan_core::program::{Workload, WorkloadBuilder};
use capstan_sim::dram::{DramModel, BURST_BYTES};
use capstan_tensor::gen::Dataset;
use std::collections::{BTreeMap, HashMap};

/// Deterministic work counts of one walk. Two walks of the same plan
/// must produce equal counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub tensor_calls: u64,
    pub tensor_nnz: u64,
    pub record_calls: u64,
    pub record_tiles: u64,
    pub record_sram_samples: u64,
    pub record_shuffle_samples: u64,
    pub simulate_calls: u64,
    pub simulated_model_cycles: u64,
    pub spmu_calls: u64,
    pub spmu_vectors: u64,
    pub route_vectors: u64,
    pub drain_cycles: u64,
    pub ag_fetches: u64,
}

/// A synthetic kernel and the configurations one study simulates it
/// under.
pub struct Shape {
    pub build: Box<dyn Fn() -> Workload>,
    pub cfgs: Vec<CapstanConfig>,
}

/// What one workload's walk visits.
pub struct Plan {
    pub suite: Suite,
    pub pairs: Vec<(AppId, Dataset)>,
    pub pair_cfg: CapstanConfig,
    pub shapes: Vec<Shape>,
}

/// An explicit configuration: the paper's design point with the given
/// timing and a single synthetic-address channel and tenant, so the
/// walk never depends on process-wide defaults.
pub fn config(timing: MemTiming) -> CapstanConfig {
    let mut cfg = CapstanConfig::new(MemoryKind::Hbm2e);
    cfg.mem_timing = timing;
    cfg.mem_channels = 1;
    cfg.mem_tenants = 1;
    cfg.mem_addresses = MemAddressing::Synthetic;
    cfg.mem_tenant_partition = TenantPartition::Shared;
    cfg
}

/// Every (app, dataset) pair of the paper's Table 6 matrix.
pub fn all_pairs() -> Vec<(AppId, Dataset)> {
    AppId::ALL
        .iter()
        .flat_map(|&a| a.datasets().iter().map(move |&d| (a, d)))
        .collect()
}

/// The shuffle-less PR-Edge anchor configuration of the memory studies.
pub fn anchor_config() -> CapstanConfig {
    let mut cfg = config(MemTiming::CycleLevel);
    cfg.shuffle = None;
    cfg
}

/// The scatter-traffic shapes of `table13-atomics` (`atomics`),
/// `table13-channels` (`channels`), `table13-recorded` (`recorded`) and
/// `table-multitenant` (`multitenant`) at linear-algebra scale `la`,
/// each under the cycle-level configurations its study sweeps.
pub fn memory_study_shapes(la: f64, studies: &[&str]) -> Vec<Shape> {
    let unit = (240_000.0 * la) as usize;
    let cycle = config(MemTiming::CycleLevel);
    let with = |f: &dyn Fn(&mut CapstanConfig)| {
        let mut c = cycle;
        f(&mut c);
        c
    };
    let mut shapes = Vec::new();
    for &study in studies {
        match study {
            "atomics" => {
                for m in [0u64, 1, 4, 16] {
                    let words = m * unit as u64 / 4;
                    shapes.push(Shape {
                        build: Box::new(move || scatter_update(unit, words)),
                        cfgs: vec![cycle],
                    });
                }
            }
            "channels" => shapes.push(Shape {
                build: Box::new(move || scatter_update(unit, 4 * unit as u64)),
                cfgs: [1usize, 2, 4, 8]
                    .iter()
                    .map(|&ch| with(&|c| c.mem_channels = ch))
                    .collect(),
            }),
            "recorded" => {
                for hub in [875u64, 500, 0] {
                    shapes.push(Shape {
                        build: Box::new(move || addressed_scatter(unit, 4 * unit as u64, hub)),
                        cfgs: vec![cycle, with(&|c| c.mem_addresses = MemAddressing::Recorded)],
                    });
                }
            }
            "multitenant" => {
                for hub in [1u64, 4, 16] {
                    shapes.push(Shape {
                        build: Box::new(move || multitenant_mix(unit, hub)),
                        cfgs: [TenantPartition::Shared, TenantPartition::Dedicated]
                            .iter()
                            .map(|&p| {
                                with(&|c| {
                                    c.mem_channels = 4;
                                    c.mem_tenants = 2;
                                    c.mem_tenant_partition = p;
                                })
                            })
                            .collect(),
                    });
                }
            }
            other => panic!("unknown memory study `{other}`"),
        }
    }
    shapes
}

/// `table13-atomics`' scatter-update kernel: 8 tiles of streaming
/// reads/writes, random reads and `atomic_words` DRAM atomics.
fn scatter_update(unit: usize, atomic_words: u64) -> Workload {
    let tiles = 8u64;
    let mut wl = WorkloadBuilder::new("scatter-update");
    for i in 0..tiles {
        let mut t = wl.tile();
        t.dram_stream_read(unit * 4);
        t.foreach_vec(unit, |_, _| {});
        t.dram_random_read(unit as u64 / 16);
        t.dram_atomic(atomic_words / tiles + u64::from(i < atomic_words % tiles));
        t.dram_stream_write(unit * 4);
        wl.commit(t);
    }
    wl.finish()
}

/// `table13-recorded`'s kernel: the scatter update with recorded atomic
/// addresses, `hub_permille` of them on a 64-word hot set.
fn addressed_scatter(unit: usize, atomic_words: u64, hub_permille: u64) -> Workload {
    let tiles = 8u64;
    let mut rng = TraceRng::new(0xADD2_0000 + hub_permille);
    let mut wl = WorkloadBuilder::new("addressed-scatter");
    for i in 0..tiles {
        let mut t = wl.tile();
        t.dram_stream_read(unit * 4);
        t.foreach_vec(unit, |_, _| {});
        let words = atomic_words / tiles + u64::from(i < atomic_words % tiles);
        for _ in 0..words {
            let addr = if rng.below(1000) < hub_permille {
                rng.below(64)
            } else {
                rng.below(1 << 22)
            };
            t.dram_atomic_at(addr);
        }
        t.dram_stream_write(unit * 4);
        wl.commit(t);
    }
    wl.finish()
}

/// `table-multitenant`'s two-tenant mix: hub scatter on even tiles,
/// streaming on odd ones.
fn multitenant_mix(unit: usize, hub_weight: u64) -> Workload {
    let mut wl = WorkloadBuilder::new("multitenant-mix");
    for i in 0..8u64 {
        let mut t = wl.tile();
        if i % 2 == 0 {
            t.dram_stream_read(unit);
            t.foreach_vec(unit, |_, _| {});
            t.dram_random_read(unit as u64 / 4);
            t.dram_atomic(hub_weight * unit as u64 / 4);
        } else {
            t.dram_stream_read(unit * 8);
            t.foreach_vec(unit, |_, _| {});
            t.dram_stream_write(unit * 8);
        }
        wl.commit(t);
    }
    wl.finish()
}

/// Persistent drivers reused across drains (reset before reuse), as
/// `simulate` does, so construction is paid once per geometry.
type DriverPool = Vec<(DramModel, MemSysConfig, MemSysSim)>;

/// Walks `plan` under `tracer`, returning the work counts.
pub fn run(plan: &Plan, tracer: &mut Tracer) -> Counts {
    let mut counts = Counts::default();
    let mut pool: DriverPool = Vec::new();
    let mut nnz_cache: HashMap<String, u64> = HashMap::new();
    let suite = &plan.suite;
    for &(app_id, dataset) in &plan.pairs {
        tracer.span("walk.pair", |t| {
            let app: Box<dyn App> = t.span("tensor.build", |_| suite.build(app_id, dataset));
            counts.tensor_calls += 1;
            if app_id != AppId::Conv {
                // Generated again outside the span, once per distinct
                // matrix, only to count it.
                let key = format!("{app_id:?}/{dataset:?}");
                counts.tensor_nnz += *nnz_cache
                    .entry(key)
                    .or_insert_with(|| suite.build_matrix_for(app_id, dataset).nnz() as u64);
            }
            let wl = t.span("record", |_| app.build(&plan.pair_cfg));
            count_recording(&wl, &mut counts);
            simulate_and_replay(&wl, &plan.pair_cfg, t, &mut counts, &mut pool);
        });
    }
    for shape in &plan.shapes {
        tracer.span("walk.shape", |t| {
            let wl = t.span("record", |_| (shape.build)());
            count_recording(&wl, &mut counts);
            for cfg in &shape.cfgs {
                simulate_and_replay(&wl, cfg, t, &mut counts, &mut pool);
            }
        });
    }
    counts
}

fn count_recording(wl: &Workload, counts: &mut Counts) {
    counts.record_calls += 1;
    counts.record_tiles += wl.tiles.len() as u64;
    for tile in &wl.tiles {
        counts.record_sram_samples += tile.sram.sampled.len() as u64;
        counts.record_shuffle_samples += tile.remote.sampled.len() as u64;
    }
}

fn simulate_and_replay(
    wl: &Workload,
    cfg: &CapstanConfig,
    t: &mut Tracer,
    counts: &mut Counts,
    pool: &mut DriverPool,
) {
    let report = t.span("perf.simulate", |_| simulate(wl, cfg));
    counts.simulate_calls += 1;
    counts.simulated_model_cycles += report.cycles;
    if cfg.ideal_net_and_mem {
        return;
    }
    replay_sram(wl, cfg, t, counts);
    route_shuffle(wl, cfg, t, counts);
    if !matches!(cfg.memory, MemoryKind::Ideal) {
        drain(wl, cfg, t, counts, pool);
    }
}

/// `run_vectors` on every tile's sampled SRAM trace, masked into the
/// SpMU's local address space, exactly as `simulate` replays it.
fn replay_sram(wl: &Workload, cfg: &CapstanConfig, t: &mut Tracer, counts: &mut Counts) {
    if cfg.serialized_sram || cfg.spmu.ideal_conflict_free {
        return;
    }
    let capacity = cfg.spmu.capacity_words() as u32;
    let mut masked: Vec<AccessVector> = Vec::new();
    t.span("spmu.replay", |_| {
        for tile in &wl.tiles {
            let sram = &tile.sram;
            if sram.total_vectors == 0 || sram.sampled.is_empty() {
                continue;
            }
            masked.clear();
            masked.extend(sram.sampled.iter().map(|v| {
                AccessVector {
                    lanes: v
                        .lanes
                        .iter()
                        .map(|l| {
                            l.map(|r| LaneRequest {
                                addr: r.addr % capacity,
                                ..r
                            })
                        })
                        .collect(),
                }
            }));
            std::hint::black_box(run_vectors(cfg.spmu, &masked));
            counts.spmu_calls += 1;
            counts.spmu_vectors += masked.len() as u64;
        }
    });
}

/// `route_ref` over the per-port shuffle sample streams (tile `i`
/// injects at port `i mod ports`), as `simulate` routes them.
fn route_shuffle(wl: &Workload, cfg: &CapstanConfig, t: &mut Tracer, counts: &mut Counts) {
    let Some(shuffle_cfg) = cfg.shuffle else {
        return;
    };
    let ports = shuffle_cfg.ports;
    let mut streams: Vec<Vec<&ShuffleVector>> = vec![Vec::new(); ports];
    let mut sample_entries = 0u64;
    for (i, tile) in wl.tiles.iter().enumerate() {
        for v in &tile.remote.sampled {
            sample_entries += v.iter().flatten().count() as u64;
            streams[i % ports].push(v);
        }
    }
    let total_entries: u64 = wl.tiles.iter().map(|t| t.remote.total_entries).sum();
    if total_entries == 0 || sample_entries == 0 {
        return;
    }
    let net = ButterflyNetwork::new(shuffle_cfg);
    let mut scratch = RouteScratch::default();
    t.span("shuffle.route", |_| {
        std::hint::black_box(net.route_ref(&streams, &mut scratch).cycles);
    });
    counts.route_vectors += streams.iter().map(|s| s.len() as u64).sum::<u64>();
}

/// A `MemSysSim` drain of the workload's DRAM traffic with the
/// configuration's channels, tenants and addressing, fed the way
/// `simulate`'s cycle-level mode feeds it (shuffle-less configurations
/// add the cross-tile fallback atomics).
fn drain(
    wl: &Workload,
    cfg: &CapstanConfig,
    t: &mut Tracer,
    counts: &mut Counts,
    pool: &mut DriverPool,
) {
    let model = DramModel::new(cfg.memory);
    let mut mcfg = MemSysConfig::with_channels(&model, cfg.mem_channels);
    mcfg.tenants = cfg.mem_tenants.clamp(1, MAX_TENANTS);
    mcfg.partition = cfg.mem_tenant_partition;
    mcfg.fast_forward = cfg.mem_fast_forward;
    let recorded = cfg.mem_addresses == MemAddressing::Recorded;
    let fallback: u64 = if cfg.shuffle.is_none() {
        wl.tiles.iter().map(|t| t.remote.total_entries).sum()
    } else {
        0
    };
    let stats = t.span("memdrv.drain", |_| {
        let mut sim = match pool.iter().position(|(m, c, _)| *m == model && *c == mcfg) {
            Some(i) => {
                let (_, _, mut sim) = pool.swap_remove(i);
                sim.reset();
                sim
            }
            None => MemSysSim::with_config(model, mcfg),
        };
        for (i, tile) in wl.tiles.iter().enumerate() {
            let stream_bytes = if cfg.compression {
                tile.dram_stream_bytes - tile.dram_compressible_bytes + tile.dram_compressed_bytes
            } else {
                tile.dram_stream_bytes
            };
            let traffic = TileTraffic {
                stream_bursts: stream_bytes.div_ceil(BURST_BYTES),
                random_bursts: tile.dram_random_words,
                atomic_words: tile.dram_atomic_words,
            };
            let tenant = TenantId(i % mcfg.tenants);
            if recorded {
                sim.add_tile_recorded_for(
                    tenant,
                    traffic,
                    &tile.dram_random_addrs,
                    &tile.dram_atomic_addrs,
                );
            } else {
                sim.add_tile_for(tenant, traffic);
            }
        }
        if fallback > 0 {
            if recorded {
                for tile in &wl.tiles {
                    sim.add_tile_recorded(TileTraffic::default(), &[], &tile.remote.addr_sampled);
                }
            }
            sim.add_tile(TileTraffic {
                atomic_words: fallback,
                ..Default::default()
            });
        }
        let stats = sim.run();
        pool.push((model, mcfg, sim));
        stats
    });
    counts.drain_cycles += stats.cycles;
    counts.ag_fetches += stats.ag_bursts_fetched;
}

/// The walk's layer times: self time per span name under the walk's
/// root span.
pub struct Layers {
    pub times: BTreeMap<String, LayerTime>,
    /// Whether the drains ran inside `simulate` (cycle-level pair
    /// configuration or memory-study shapes) rather than as probes.
    pub drain_in_simulate: bool,
}

impl Layers {
    pub fn self_s(&self, name: &str) -> f64 {
        self.times.get(name).map_or(0.0, |l| l.self_s)
    }

    /// `(layer, self seconds, share)` rows. `perf.simulate` is split
    /// into the engines it contains (re-run separately by the walk) and
    /// its remainder, `perf.model`; shares are of the walk's total
    /// without probe drains, whose share prints as `None`.
    pub fn table(&self) -> Vec<(&'static str, f64, Option<f64>)> {
        let tensor = self.self_s("tensor.build");
        let record = self.self_s("record");
        let simulate = self.self_s("perf.simulate");
        let spmu = self.self_s("spmu.replay");
        let route = self.self_s("shuffle.route");
        let drain = self.self_s("memdrv.drain");
        let glue = self.self_s("walk.pair") + self.self_s("walk.shape");
        let inside = spmu + route + if self.drain_in_simulate { drain } else { 0.0 };
        let model = (simulate - inside).max(0.0);
        let total = tensor + record + simulate.max(inside) + glue;
        let share = |x: f64| Some(if total > 0.0 { x / total } else { 0.0 });
        vec![
            ("tensor.build", tensor, share(tensor)),
            ("record", record, share(record)),
            ("perf.model", model, share(model)),
            ("spmu.replay", spmu, share(spmu)),
            ("shuffle.route", route, share(route)),
            (
                "memdrv.drain",
                drain,
                if self.drain_in_simulate {
                    share(drain)
                } else {
                    None
                },
            ),
            ("walk.glue", glue, share(glue)),
        ]
    }
}
