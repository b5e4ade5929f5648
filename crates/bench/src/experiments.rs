//! Experiment implementations: one function per table/figure.
//!
//! Every function returns its formatted report and prints nothing; the
//! `experiments` binary prints it, and integration tests assert on the
//! reproduced shapes.
//!
//! Every sweep hands its independent points to one
//! [`capstan_par::par_map`] call and formats the report afterwards.
//! `par_map` returns results in input order, so the report text is
//! byte-identical to a serial run (set `CAPSTAN_THREADS=1` to force
//! one). Each item records at most one workload at a time and drops it
//! before the next, so at most one recording per worker is live.
//!
//! Every Table 6 (app, dataset) recording goes through one process-wide
//! recording memo (`cost_rows`), keyed by the pair, the suite's scale,
//! the plan mode and the [`RecordConfig`] that recording reads. One item
//! is one point with its costing configs that record alike. A point
//! recorded alike earlier, whose replays and routes the
//! `capstan_core::perf` memos hold, is costed without generating its
//! dataset or recording it again, so after `table9`, `table12` and
//! `fig7` record nothing. The one exception is `extensions`' occupancy
//! probe, which reads the recorded workload itself. Table 4's design
//! points, Fig. 4's ordering modes, the synthetic kernels and the
//! extension studies are `par_map` items of their own.
//!
//! Experiments never run concurrently with each other: per-experiment
//! simulated cycles are deltas of one process-wide counter.

use crate::suite::{gmean, AppId, Suite};
use capstan_apps::App;
use capstan_arch::area;
use capstan_arch::grid;
use capstan_arch::scanner::{BitVecScanner, DataScanner};
use capstan_arch::shuffle::{MergeShift, ShuffleConfig};
use capstan_arch::spmu::driver::{measure_random_throughput, trace_one_vector};
use capstan_arch::spmu::{BankHash, OrderingMode, SpmuConfig};
use capstan_baselines::asic::{Eie, Graphicionado, MatRaptor, Scnn};
use capstan_baselines::{plasticine, published};
use capstan_core::config::{
    run_mode, CapstanConfig, MemAddressing, MemTiming, MemoryKind, PlanMode, RecordConfig,
    TenantPartition,
};
use capstan_core::perf::{simulate, try_simulate, Memo};
use capstan_core::program::{Workload, WorkloadBuilder};
use capstan_core::report::PerfReport;
use capstan_tensor::gen::{Dataset, Structure};
use std::fmt::Write as _;
use std::sync::Arc;

fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// Every (app, dataset) pair of `apps`, app-major.
fn app_datasets(apps: &[AppId]) -> Vec<(AppId, Dataset)> {
    apps.iter()
        .flat_map(|&app| app.datasets().iter().map(move |&d| (app, d)))
        .collect()
}

/// Identity of one recording: what [`Suite::build`] and
/// [`App::build`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RecordingKey {
    app: AppId,
    dataset: Dataset,
    /// The suite's four scale factors, as bit patterns.
    scales: [u64; 4],
    plan: PlanMode,
    record: RecordConfig,
}

impl RecordingKey {
    fn new(suite: &Suite, app: AppId, dataset: Dataset, record: RecordConfig) -> Self {
        RecordingKey {
            app,
            dataset,
            scales: suite.scale_bits(),
            plan: run_mode().plan,
            record,
        }
    }
}

/// Process-wide recordings with their samples dropped
/// ([`Workload::drop_samples`]): a few kilobytes each, against up to
/// megabytes with samples.
static RECORDINGS: Memo<RecordingKey, Arc<Workload>> = Memo::new();

/// Empties the process-wide recording memo. Results never depend on it:
/// the next request for each point records again.
pub fn clear_recordings() {
    RECORDINGS.clear();
}

/// Costs `app` on `dataset` under every configuration of `cfgs`, in
/// order, from one recording made under `cfgs[0]` (see [`cost_rows`]).
///
/// # Panics
///
/// Panics if `cfgs` is empty or its configurations differ in their
/// [`RecordConfig`].
fn cost_recording(
    suite: &Suite,
    app: AppId,
    dataset: Dataset,
    cfgs: &[CapstanConfig],
) -> Vec<PerfReport> {
    let record = cfgs[0].record_config();
    assert!(
        cfgs.iter().all(|cfg| cfg.record_config() == record),
        "one recording serves only configurations that record alike"
    );
    let key = RecordingKey::new(suite, app, dataset, record);
    let mut reports: Vec<Option<PerfReport>> = match RECORDINGS.get(&key) {
        Some(workload) => cfgs
            .iter()
            .map(|cfg| try_simulate(&workload, cfg))
            .collect(),
        None => vec![None; cfgs.len()],
    };
    if reports.iter().any(Option::is_none) {
        let mut workload = suite.build(app, dataset).build(&cfgs[0]);
        for (report, cfg) in reports.iter_mut().zip(cfgs) {
            report.get_or_insert_with(|| simulate(&workload, cfg));
        }
        workload.drop_samples();
        RECORDINGS.insert(key, Arc::new(workload));
    }
    reports.into_iter().flatten().collect()
}

/// Costs each row's (app, dataset) under every configuration of the row
/// and returns `reports[row][config]`.
///
/// One [`capstan_par::par_map`] item is one (row, [`RecordConfig`]): it
/// costs the row's configurations that record alike from one recording
/// ([`cost_recording`]). A recording in the memo is costed from its
/// sample-free workload ([`try_simulate`]) without generating the dataset
/// or recording. One that is not, or a config that needs a replay or
/// route the memos do not hold, records once: the full workload costs
/// every config still missing, then drops its samples and replaces the
/// memo entry, so at most one sampled recording per worker is live. Each
/// config is costed once either way, so reports and simulated-cycle
/// credit are those of recording directly, and results come back in
/// input order (`tests/parallel_equivalence.rs` pins both).
fn cost_rows(suite: &Suite, rows: &[(AppId, Dataset, &[CapstanConfig])]) -> Vec<Vec<PerfReport>> {
    let mut items: Vec<(usize, RecordConfig)> = Vec::new();
    for (row, (_, _, cfgs)) in rows.iter().enumerate() {
        for cfg in cfgs.iter() {
            let item = (row, cfg.record_config());
            if !items.contains(&item) {
                items.push(item);
            }
        }
    }
    let mut costed = capstan_par::par_map(&items, |&(row, record)| {
        let (app, dataset, cfgs) = rows[row];
        let group: Vec<CapstanConfig> = cfgs
            .iter()
            .filter(|cfg| cfg.record_config() == record)
            .copied()
            .collect();
        cost_recording(suite, app, dataset, &group).into_iter()
    });
    let mut next_report = |row, cfg: &CapstanConfig| {
        let item = items.iter().position(|&i| i == (row, cfg.record_config()));
        costed[item.expect("every config has an item")].next()
    };
    rows.iter()
        .enumerate()
        .map(|(row, (_, _, cfgs))| cfgs.iter().flat_map(|cfg| next_report(row, cfg)).collect())
        .collect()
}

/// [`cost_rows`] with the same configurations `cfgs` for every point.
fn cost_points(
    suite: &Suite,
    points: &[(AppId, Dataset)],
    cfgs: &[CapstanConfig],
) -> Vec<Vec<PerfReport>> {
    let rows: Vec<_> = points
        .iter()
        .map(|&(app, dataset)| (app, dataset, cfgs))
        .collect();
    cost_rows(suite, &rows)
}

/// Each app of `apps`' geometric-mean cycles over its datasets under
/// each configuration of `sim_cfgs` ([`cost_points`]), as
/// `cycles[app][config]`. The names only label the configs for the
/// reader.
fn gmean_cycles(
    suite: &Suite,
    apps: &[AppId],
    sim_cfgs: &[(&str, CapstanConfig)],
) -> Vec<Vec<f64>> {
    let cfgs: Vec<CapstanConfig> = sim_cfgs.iter().map(|&(_, cfg)| cfg).collect();
    let mut per_point = cost_points(suite, &app_datasets(apps), &cfgs).into_iter();
    apps.iter()
        .map(|app| {
            let points: Vec<_> = per_point.by_ref().take(app.datasets().len()).collect();
            let cycles =
                |c: usize| -> Vec<f64> { points.iter().map(|p| p[c].cycles as f64).collect() };
            (0..cfgs.len()).map(|c| gmean(&cycles(c))).collect()
        })
        .collect()
}

// --- Table 4 -----------------------------------------------------------------

/// Table 4: SpMU throughput vs queue depth, crossbar size, priorities.
pub fn table4() -> String {
    let mut out = header("Table 4: SpMU throughput (% banks active per cycle)");
    let paper: &[(usize, usize, [f64; 3])] = &[
        (8, 1, [51.5, 66.4, 67.9]),
        (8, 2, [55.3, 68.5, 72.5]),
        (16, 1, [63.9, 79.9, 79.9]),
        (16, 2, [67.8, 85.1, 85.4]),
        (32, 1, [72.7, 84.7, 84.7]),
        (32, 2, [77.0, 92.4, 92.5]),
    ];
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>12} | {:>15} {:>15} {:>15}",
        "Depth", "Crossbar", "Sched. um2", "1-Pri (paper)", "2-Pri (paper)", "3-Pri (paper)"
    );
    // All 18 design points measure concurrently; rows format in order.
    let points: Vec<(usize, usize, usize)> = paper
        .iter()
        .flat_map(|&(depth, speedup, _)| (1..=3).map(move |pri| (depth, speedup, pri)))
        .collect();
    let utils = capstan_par::par_map(&points, |&(depth, speedup, pri)| {
        let cfg = SpmuConfig {
            queue_depth: depth,
            input_speedup: speedup,
            priorities: pri,
            ..Default::default()
        };
        measure_random_throughput(cfg, 42, 1000, 4000).bank_utilization
    });
    for (row, &(depth, speedup, paper_vals)) in paper.iter().enumerate() {
        let sched = area::scheduler_area_um2(depth, speedup);
        let cells: Vec<String> = paper_vals
            .iter()
            .enumerate()
            .map(|(pi, &pv)| format!("{:5.1} ({:5.1})", utils[row * 3 + pi] * 100.0, pv))
            .collect();
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>12.0} | {:>15} {:>15} {:>15}",
            depth,
            if speedup == 1 { "16x16" } else { "32x16" },
            sched,
            cells[0],
            cells[1],
            cells[2]
        );
    }
    out
}

// --- Table 5 -----------------------------------------------------------------

/// Table 5: scanner area vs width and output vectorization.
pub fn table5() -> String {
    let mut out = header("Table 5: scanner area (um2)");
    let _ = writeln!(
        out,
        "{:>6} | {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Width", 1, 2, 4, 8, 16
    );
    for width in [128usize, 256, 512] {
        let cells: Vec<String> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&v| format!("{:8.0}", area::scanner_area_um2(width, v)))
            .collect();
        let _ = writeln!(out, "{width:>6} | {}", cells.join(" "));
    }
    let _ = writeln!(
        out,
        "(design point 256x16 = {:.0} um2, {:.0}% smaller than 512x16)",
        area::scanner_area_um2(256, 16),
        (1.0 - area::scanner_area_um2(256, 16) / area::scanner_area_um2(512, 16)) * 100.0
    );
    out
}

// --- Table 6 -----------------------------------------------------------------

/// Table 6: dataset inventory (paper spec vs generated equivalent).
fn table6(suite: &Suite) -> String {
    let mut out = header("Table 6: datasets (paper spec -> synthetic equivalent)");
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>10} {:>8} | {:>9} {:>10}",
        "Name", "Dim", "NNZ", "%Dense", "Gen. dim", "Gen. nnz"
    );
    for ds in matrix_datasets() {
        let spec = ds.spec();
        let gen = ds.generate_scaled(structure_scale(suite, spec.structure));
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>10} {:>8.3} | {:>9} {:>10}",
            spec.name,
            spec.dim,
            spec.nnz,
            spec.density_pct,
            gen.rows(),
            gen.nnz()
        );
    }
    out
}

// --- Table 7 -----------------------------------------------------------------

/// Table 7: design parameters.
pub fn table7() -> String {
    let mut out = header("Table 7: Capstan design parameters");
    for (k, v) in [
        ("HBM2E bandwidth (GB/s)", MemoryKind::Hbm2e.bandwidth_gbps()),
        ("HBM2 bandwidth (GB/s)", MemoryKind::Hbm2.bandwidth_gbps()),
        (
            "DDR4-2133 bandwidth (GB/s)",
            MemoryKind::Ddr4.bandwidth_gbps(),
        ),
        ("Compute units", grid::compute_units() as f64),
        ("Sparse memories (SpMU)", grid::memory_units() as f64),
        ("Address generators", grid::AGS as f64),
        ("SpMU banks", grid::BANKS as f64),
        (
            "SpMU capacity (KiB)",
            grid::sram_bytes_per_mu() as f64 / 1024.0,
        ),
        (
            "Total SRAM (MiB)",
            grid::total_sram_bytes() as f64 / (1024.0 * 1024.0),
        ),
        ("Vector lanes", grid::LANES as f64),
    ] {
        let _ = writeln!(out, "{k:<28} {v:>10.0}");
    }
    out
}

// --- Table 8 -----------------------------------------------------------------

/// Table 8: chip area and power vs Plasticine.
pub fn table8() -> String {
    let mut out = header("Table 8: area relative to Plasticine");
    let plasticine = area::chip_report(area::ChipConfig {
        sparse_fraction: 0.0,
        ..Default::default()
    });
    let capstan = area::chip_report(area::ChipConfig::default());
    let _ = writeln!(out, "{:<22} {:>12} {:>12}", "", "Plasticine", "Capstan");
    for (name, p, c) in [
        ("Compute units (mm2)", plasticine.cu_total, capstan.cu_total),
        ("Memory units (mm2)", plasticine.mu_total, capstan.mu_total),
        ("DRAM AGs (mm2)", plasticine.ag_total, capstan.ag_total),
        (
            "Shuffle networks (mm2)",
            plasticine.shuffle_total,
            capstan.shuffle_total,
        ),
        (
            "On-chip network (mm2)",
            plasticine.network_total,
            capstan.network_total,
        ),
        ("Total area (mm2)", plasticine.total, capstan.total),
        ("Design power (W)", plasticine.power_w, capstan.power_w),
    ] {
        let _ = writeln!(out, "{name:<22} {p:>12.1} {c:>12.1}");
    }
    let _ = writeln!(
        out,
        "overheads: area +{:.0}% (paper: +16%), power +{:.0}% (paper: +12%)",
        (capstan.total / plasticine.total - 1.0) * 100.0,
        (capstan.power_w / plasticine.power_w - 1.0) * 100.0
    );
    out
}

// --- Table 9 -----------------------------------------------------------------

/// Table 9: sensitivity to SpMU architecture (ideal / allocated / weak
/// allocator / arbitrated, with hashed or linear banking).
fn table9(suite: &Suite) -> String {
    let mut out = header("Table 9: SpMU architecture sensitivity (runtime / Capstan-Hash)");
    let configs = table9_configs();
    let _ = writeln!(
        out,
        "{:<9} {:>6} {:>6} {:>6} {:>8} {:>7} {:>9} {:>8}",
        "App", "Ideal", "Hash", "Lin", "WA-Hash", "WA-Lin", "Arb-Hash", "Arb-Lin"
    );
    let mut per_config_ratios: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let results = gmean_cycles(suite, &AppId::ALL, &configs);
    for (app, app_cycles) in AppId::ALL.iter().zip(&results) {
        let base_cycles = app_cycles[1]; // Hash column
        let mut cells = Vec::new();
        for (ci, cycles) in app_cycles.iter().enumerate() {
            let ratio = cycles / base_cycles.max(1.0);
            per_config_ratios[ci].push(ratio);
            cells.push(format!("{ratio:>6.2}"));
        }
        let _ = writeln!(out, "{:<9} {}", app.short(), cells.join(" "));
    }
    let gm: Vec<String> = per_config_ratios
        .iter()
        .map(|r| format!("{:>6.2}", gmean(r)))
        .collect();
    let _ = writeln!(out, "{:<9} {}", "gmean", gm.join(" "));
    let _ = writeln!(
        out,
        "(paper gmeans: Ideal 0.92, Hash 1.00, Lin 1.11, WA 1.15/1.26, Arb 1.27/1.44)"
    );
    out
}

/// Table 9's seven SpMU configurations, by column name. Each is the
/// paper's design point with a different SpMU, so every column costs
/// the same recordings.
pub fn table9_configs() -> Vec<(&'static str, CapstanConfig)> {
    let base = CapstanConfig::paper_default();
    let mk = |f: &dyn Fn(&mut CapstanConfig)| {
        let mut cfg = base;
        f(&mut cfg);
        cfg
    };
    vec![
        ("Ideal", mk(&|c| c.spmu.ideal_conflict_free = true)),
        ("Hash", base),
        ("Lin", mk(&|c| c.spmu.hash = BankHash::Linear)),
        (
            "WA-Hash",
            mk(&|c| {
                c.spmu.priorities = 1;
                c.spmu.alloc_iterations = 1;
            }),
        ),
        (
            "WA-Lin",
            mk(&|c| {
                c.spmu.priorities = 1;
                c.spmu.alloc_iterations = 1;
                c.spmu.hash = BankHash::Linear;
            }),
        ),
        (
            "Arb-Hash",
            mk(&|c| c.spmu.ordering = OrderingMode::Arbitrated),
        ),
        (
            "Arb-Lin",
            mk(&|c| {
                c.spmu.ordering = OrderingMode::Arbitrated;
                c.spmu.hash = BankHash::Linear;
            }),
        ),
    ]
}

// --- Table 10 ----------------------------------------------------------------

/// Table 10: impact of SpMU memory-ordering modes.
fn table10(suite: &Suite) -> String {
    let mut out = header("Table 10: ordering modes (runtime / unordered)");
    let base = CapstanConfig::paper_default();
    let configs: Vec<(&str, CapstanConfig)> = vec![
        ("Capstan", base),
        ("AddrOrd", {
            let mut c = base;
            c.spmu.ordering = OrderingMode::AddressOrdered;
            c
        }),
        ("Ordered", {
            let mut c = base;
            c.spmu.ordering = OrderingMode::FullyOrdered;
            c
        }),
    ];
    let apps = [
        AppId::CsrSpmv,
        AppId::CooSpmv,
        AppId::CscSpmv,
        AppId::Conv,
        AppId::BiCgStab,
    ];
    let paper = [
        [1.00, 1.27, 1.35],
        [1.00, 1.27, 4.18],
        [1.00, 1.11, 1.15],
        [1.00, 1.68, 2.07],
        [1.00, 1.48, 1.62],
    ];
    let _ = writeln!(
        out,
        "{:<9} {:>16} {:>16} {:>16}",
        "App", "Capstan", "AddrOrd", "Ordered"
    );
    let mut per_mode: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let results = gmean_cycles(suite, &apps, &configs);
    for (ai, (app, app_cycles)) in apps.iter().zip(&results).enumerate() {
        let base_cycles = app_cycles[0];
        let mut cells = Vec::new();
        for (ci, cycles) in app_cycles.iter().enumerate() {
            let ratio = cycles / base_cycles.max(1.0);
            per_mode[ci].push(ratio);
            cells.push(format!("{:>8.2} ({:>4.2})", ratio, paper[ai][ci]));
        }
        let _ = writeln!(out, "{:<9} {}", app.short(), cells.join(" "));
    }
    let _ = writeln!(
        out,
        "{:<9} {:>8.2} {:>16.2} {:>16.2}  (paper gmean: 1.00 / 1.35 / 1.85)",
        "gmean",
        gmean(&per_mode[0]),
        gmean(&per_mode[1]),
        gmean(&per_mode[2])
    );
    out
}

// --- Table 11 ----------------------------------------------------------------

/// Table 11: shuffle (merge) network sensitivity.
fn table11(suite: &Suite) -> String {
    let mut out = header("Table 11: merge network sensitivity (runtime / Mrg-1)");
    let shift_cfg = |shift: Option<MergeShift>, mem: MemoryKind| -> CapstanConfig {
        let mut cfg = CapstanConfig::new(mem);
        cfg.shuffle = shift.map(|s| ShuffleConfig {
            shift: s,
            ..Default::default()
        });
        cfg
    };
    let apps = [AppId::PrPull, AppId::PrEdge, AppId::Conv];
    let _ = writeln!(
        out,
        "{:<9} {:>10} | {:>10} {:>8} {:>8} {:>8}",
        "App", "DDR4-None", "HBM-None", "Mrg-0", "Mrg-1", "Mrg-16"
    );
    let configs: Vec<(&str, CapstanConfig)> = vec![
        ("ddr4-none", shift_cfg(None, MemoryKind::Ddr4)),
        (
            "ddr4-mrg1",
            shift_cfg(Some(MergeShift::One), MemoryKind::Ddr4),
        ),
        ("none", shift_cfg(None, MemoryKind::Hbm2e)),
        ("mrg0", shift_cfg(Some(MergeShift::None), MemoryKind::Hbm2e)),
        ("mrg1", shift_cfg(Some(MergeShift::One), MemoryKind::Hbm2e)),
        (
            "mrg16",
            shift_cfg(Some(MergeShift::Full), MemoryKind::Hbm2e),
        ),
    ];
    for (app, r) in apps.iter().zip(gmean_cycles(suite, &apps, &configs)) {
        let ddr4_base = r[1];
        let hbm_base = r[4];
        let _ = writeln!(
            out,
            "{:<9} {:>10.2} | {:>10.2} {:>8.2} {:>8.2} {:>8.2}",
            app.short(),
            r[0] / ddr4_base.max(1.0),
            r[2] / hbm_base.max(1.0),
            r[3] / hbm_base.max(1.0),
            1.00,
            r[5] / hbm_base.max(1.0),
        );
    }
    let _ = writeln!(
        out,
        "(paper: PR-Pull None 1.71/1.53, PR-Edge 1.30/1.21, Conv Mrg-0 1.07)"
    );
    out
}

// --- Table 12 ----------------------------------------------------------------

/// Table 12: runtimes normalized to the fastest Capstan-HBM2E variant of
/// each application, across memory systems and platforms.
fn table12(suite: &Suite) -> String {
    let mut out = header("Table 12: normalized runtimes (reproduced | paper)");
    let platform_cfgs = table12_configs();
    // Simulate every app on every platform.
    let mut cycles: Vec<Vec<f64>> = vec![Vec::new(); platform_cfgs.len()];
    for app_cycles in gmean_cycles(suite, &AppId::ALL, &platform_cfgs) {
        for (ci, c) in app_cycles.into_iter().enumerate() {
            cycles[ci].push(c);
        }
    }
    // Per-app normalizers: fastest HBM2E variant within each family.
    let hbm = &cycles[1];
    let norm_for = |app_idx: usize| -> f64 {
        let family = AppId::ALL[app_idx].family();
        AppId::ALL
            .iter()
            .enumerate()
            .filter(|(_, a)| a.family() == family)
            .map(|(i, _)| hbm[i])
            .fold(f64::INFINITY, f64::min)
    };
    let headers: Vec<String> = AppId::ALL
        .iter()
        .map(|a| format!("{:>7}", a.short()))
        .collect();
    let _ = writeln!(
        out,
        "{:<26} {} {:>7}",
        "Platform",
        headers.join(" "),
        "gmean"
    );
    for (ci, (name, _)) in platform_cfgs.iter().enumerate() {
        let mut cells = Vec::new();
        let mut vals = Vec::new();
        for (ai, app) in AppId::ALL.iter().enumerate() {
            if *name == "Plasticine (HBM2E)" && !plasticine::supports(app.name()) {
                cells.push(format!("{:>7}", "-"));
                continue;
            }
            let v = cycles[ci][ai] / norm_for(ai);
            vals.push(v);
            cells.push(format!("{v:>7.2}"));
        }
        let _ = writeln!(
            out,
            "{:<26} {} {:>7.2}",
            name,
            cells.join(" "),
            gmean(&vals)
        );
    }
    let _ = writeln!(out, "--- paper-reported rows for reference ---");
    for row in &published::TABLE12 {
        let cells: Vec<String> = row
            .values
            .iter()
            .map(|v| match v {
                Some(v) => format!("{v:>7.2}"),
                None => format!("{:>7}", "-"),
            })
            .collect();
        let _ = writeln!(
            out,
            "{:<26} {} {:>7.2}",
            row.platform,
            cells.join(" "),
            row.gmean
        );
    }
    out
}

/// Table 12's five platform configurations, by row name. All of them
/// cost recordings made under the paper's design point.
pub fn table12_configs() -> Vec<(&'static str, CapstanConfig)> {
    vec![
        ("Capstan (Ideal Net & Mem)", CapstanConfig::ideal()),
        ("Capstan (HBM2E)", CapstanConfig::new(MemoryKind::Hbm2e)),
        ("Capstan (HBM2)", CapstanConfig::new(MemoryKind::Hbm2)),
        ("Capstan (DDR4)", CapstanConfig::new(MemoryKind::Ddr4)),
        ("Plasticine (HBM2E)", plasticine::config(MemoryKind::Hbm2e)),
    ]
}

// --- Table 13 ----------------------------------------------------------------

/// Table 13: comparison against bespoke sparse accelerators.
///
/// The four baseline blocks are independent, so they run as four
/// [`capstan_par::par_map`] items and print in order.
fn table13(suite: &Suite) -> String {
    let mut out = header("Table 13: Capstan vs bespoke accelerators (speedup, reproduced | paper)");
    let blocks: [fn(&Suite) -> String; 4] = [
        table13_eie,
        table13_scnn,
        table13_graphicionado,
        table13_matraptor,
    ];
    out.push_str(&capstan_par::par_map(&blocks, |block| block(suite)).concat());
    out
}

/// Wall seconds of `report` at Capstan's clock.
fn capstan_seconds(report: &PerfReport) -> f64 {
    report.cycles as f64 / (capstan_sim::CLOCK_GHZ * 1e9)
}

/// Table 13's EIE row: CSC SpMV compute throughput on an EIE-class
/// fully-connected layer (9216x4096 at ~10% weight density — big enough
/// that EIE's on-chip weights beat Capstan's HBM streaming, the paper's
/// stated reason Capstan loses this one). Fixed size, independent of the
/// suite scale.
fn table13_eie(_suite: &Suite) -> String {
    let hbm = CapstanConfig::new(MemoryKind::Hbm2e);
    // The COO converts to the app's CSC in its own storage.
    let fc = capstan_tensor::gen::uniform(4096, 9216, 3_700_000, 0xE1E);
    let app = capstan_apps::spmv::CscSpmv::new(fc);
    // One recording serves both the simulation and the MAC count.
    let wl = app.build(&hbm);
    let capstan_s = capstan_seconds(&simulate(&wl, &hbm));
    // Effective MACs = recorded lane work.
    let macs: u64 = wl.tiles.iter().map(|t| t.lane_work).sum();
    let eie_s = Eie::default().spmv_seconds(macs);
    format!(
        "{:<15} {:<9} {:>6.2}x (paper 0.53x @1.6GHz, 0.40x @1GHz)\n",
        "EIE",
        "CSC",
        eie_s / capstan_s
    )
}

/// Table 13's SCNN row: manually mapped Conv.
fn table13_scnn(suite: &Suite) -> String {
    let layer = capstan_tensor::gen::ConvLayer::generate(Dataset::ResNet50L2, suite.conv_scale);
    let per_channel: Vec<(u64, u64)> = (0..layer.in_ch)
        .map(|ic| {
            let act: u64 = (0..layer.dim * layer.dim)
                .filter(|&i| layer.activation(ic, i / layer.dim, i % layer.dim) != 0.0)
                .count() as u64;
            let kern: u64 = (0..layer.kdim * layer.kdim * layer.out_ch)
                .filter(|&i| {
                    let rk = i / (layer.kdim * layer.out_ch);
                    let ck = (i / layer.out_ch) % layer.kdim;
                    let oc = i % layer.out_ch;
                    layer.kernel_at(ic, rk, ck, oc) != 0.0
                })
                .count() as u64;
            (act, kern)
        })
        .collect();
    let scnn_s = Scnn::default().conv_seconds(&per_channel);
    let hbm = CapstanConfig::new(MemoryKind::Hbm2e);
    let capstan_s =
        capstan_seconds(&cost_recording(suite, AppId::Conv, Dataset::ResNet50L2, &[hbm])[0]);
    format!(
        "{:<15} {:<9} {:>6.2}x (paper 1.40x @1.6GHz, 0.87x @1GHz)\n",
        "SCNN",
        "Conv",
        scnn_s / capstan_s
    )
}

/// Table 13's Graphicionado rows: published edge rates vs Capstan-DDR4
/// (load/store time included), back-pointer-free graph variants.
fn table13_graphicionado(suite: &Suite) -> String {
    let ddr = CapstanConfig::new(MemoryKind::Ddr4);
    let g = Graphicionado::default();
    let graph = Dataset::Flickr.generate_scaled(suite.graph_scale);
    let edges = graph.nnz() as u64;
    let pr = cost_recording(suite, AppId::PrPull, Dataset::Flickr, &[ddr]).remove(0);
    let mut bfs_app = capstan_apps::bfs::Bfs::new(&graph);
    bfs_app.write_backpointers = false;
    let bfs = bfs_app.simulate(&ddr);
    let mut sssp_app = capstan_apps::sssp::Sssp::new(&graph);
    sssp_app.write_backpointers = false;
    let sssp = sssp_app.simulate(&ddr);
    let mut out = String::new();
    for (name, asic_s, report, paper) in [
        ("PR", g.pr_seconds(edges), &pr, "1.08x/0.97x"),
        ("BFS", g.bfs_seconds(edges), &bfs, "2.10x/2.06x"),
        ("SSSP", g.sssp_seconds(edges), &sssp, "1.13x/1.03x"),
    ] {
        let _ = writeln!(
            out,
            "{:<15} {:<9} {:>6.2}x (paper {paper})",
            "Graphicionado",
            name,
            asic_s / capstan_seconds(report)
        );
    }
    out
}

/// Table 13's MatRaptor row: highest demonstrated throughput.
fn table13_matraptor(suite: &Suite) -> String {
    let ddr = CapstanConfig::new(MemoryKind::Ddr4);
    let capstan_s =
        capstan_seconds(&cost_recording(suite, AppId::SpMSpM, Dataset::Qc324, &[ddr])[0]);
    let m = Dataset::Qc324.generate_scaled(suite.spmspm_scale);
    let a = capstan_tensor::Csr::from_coo(&m);
    let multiplies: u64 = (0..a.rows())
        .map(|i| {
            a.row_cols(i)
                .iter()
                .map(|&j| a.row_len(j as usize) as u64)
                .sum::<u64>()
        })
        .sum();
    let mr_s = MatRaptor::default().spmspm_seconds(multiplies);
    format!(
        "{:<15} {:<9} {:>6.2}x (paper 17.96x @1.6GHz, 12.22x @1GHz)\n",
        "MatRaptor",
        "SpMSpM",
        mr_s / capstan_s
    )
}

// --- Table 13 atomics study --------------------------------------------------

/// The synthetic scatter-update kernel shared by the Table 13 memory
/// studies: fixed streaming and pointer traffic per tile, with the
/// atomic word count as the swept knob. `unit` is the per-tile element
/// count (pre-scaled with the suite).
fn scatter_update_workload(unit: usize, atomic_words: u64) -> Workload {
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

/// Table 13 (atomics study): DRAM atomic-RMW intensity swept under both
/// memory-timing modes. The analytic model prices an atomic as 128
/// random bytes; the cycle-level mode replays the same words through a
/// real `AddressGenerator` behind a banked channel, so open-burst
/// coalescing, locked read-after-writeback, and bank contention show up
/// — exactly the effects the paper's Graphicionado/SpArch comparisons
/// (Table 13) are sensitive to. A PR-Edge row with the shuffle network
/// removed (Table 11's "None" column, where cross-tile updates fall
/// back to DRAM atomics) grounds the sweep in a real workload.
pub fn table13_atomics(suite: &Suite) -> String {
    let mut out = header("Table 13 atomics: intensity sweep, analytic vs cycle-level DRAM");
    let mk = |timing: MemTiming| {
        let mut cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        cfg.mem_timing = timing;
        cfg
    };
    let analytic_cfg = mk(MemTiming::Analytic);
    let cycle_cfg = mk(MemTiming::CycleLevel);
    let unit = (240_000.0 * suite.la_scale) as usize;
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>10} {:>6} {:>9} {:>11} {:>10} {:>10}",
        "atomic-words", "analytic", "cycle", "ratio", "row-conf", "contention", "ag-fetch", "ag-wb"
    );
    let sweep: Vec<u64> = [0u64, 1, 4, 16]
        .iter()
        .map(|m| m * unit as u64 / 4)
        .collect();
    // The sweep points simulate concurrently; rows format in order, so
    // the report text stays byte-identical across thread counts.
    let rows = capstan_par::par_map(&sweep, |&words| {
        let w = scatter_update_workload(unit, words);
        (simulate(&w, &analytic_cfg), simulate(&w, &cycle_cfg))
    });
    for (words, (a, c)) in sweep.iter().zip(&rows) {
        let m = c.mem.unwrap_or_default();
        let _ = writeln!(
            out,
            "{words:>12} {:>10} {:>10} {:>6.2} {:>9} {:>11} {:>10} {:>10}",
            a.cycles,
            c.cycles,
            c.cycles as f64 / a.cycles.max(1) as f64,
            m.row_conflicts,
            m.contention_cycles,
            m.ag_bursts_fetched,
            m.ag_bursts_written,
        );
    }
    // Real-app anchor: shuffle-less PR-Edge routes cross-tile updates
    // through DRAM atomics.
    let mut none_analytic = analytic_cfg;
    none_analytic.shuffle = None;
    let mut none_cycle = cycle_cfg;
    none_cycle.shuffle = None;
    let cfgs = [none_analytic, none_cycle];
    let reports = cost_recording(suite, AppId::PrEdge, Dataset::WebStanford, &cfgs);
    let (a, c) = (&reports[0], &reports[1]);
    let m = c.mem.unwrap_or_default();
    let _ = writeln!(
        out,
        "PR-Edge/no-shuffle: analytic {} cycle {} (x{:.2}), row-conf {}, ag fetch/wb {}/{}",
        a.cycles,
        c.cycles,
        c.cycles as f64 / a.cycles.max(1) as f64,
        m.row_conflicts,
        m.ag_bursts_fetched,
        m.ag_bursts_written,
    );
    out
}

// --- Table 13 recorded-address study -----------------------------------------

/// A scatter-update kernel whose atomic addresses are *recorded* (via
/// `dram_atomic_at`): `hub_permille` out of every thousand updates hit
/// a 64-word hot set (the power-law hub pattern), the rest spread
/// uniformly over a 4 Mi-word region. Streaming and lane work match
/// [`scatter_update_workload`]'s shape, so the synthetic-vs-recorded
/// comparison isolates the addressing model.
fn addressed_scatter_workload(unit: usize, atomic_words: u64, hub_permille: u64) -> Workload {
    let tiles = 8u64;
    let mut rng = capstan_arch::spmu::driver::TraceRng::new(0xADD2_0000 + hub_permille);
    let mut wl = WorkloadBuilder::new("addressed-scatter");
    for i in 0..tiles {
        let mut t = wl.tile();
        t.dram_stream_read(unit * 4);
        t.foreach_vec(unit, |_, _| {});
        let words = atomic_words / tiles + u64::from(i < atomic_words % tiles);
        for _ in 0..words {
            let addr = if rng.below(1000) < hub_permille {
                rng.below(64) // 4 hot bursts: the hub set
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

/// Table 13 (recorded-address study): synthetic vs recorded scattered
/// addressing under the cycle-level memory mode (PAPER.md §3.4, Table
/// 13). The synthetic `AddressStream`s spray atomics uniformly, so a
/// power-law kernel looks exactly like a uniform one; replaying the
/// *recorded* address vectors lets hub updates coalesce in the AGs'
/// open-burst caches — the effect Capstan's atomic DRAM pipeline is
/// built around. Two synthetic kernels (hub-heavy vs uniform) quantify
/// the gap, and shuffle-less PR-Edge anchors it on real graphs: the
/// power-law web graph's hub sources coalesce heavily at large
/// absolute volume, while the road network's fallback traffic is tiny
/// (partition locality keeps almost every read on-tile) — its few
/// repeated boundary vertices still coalesce, but over two orders of
/// magnitude fewer cycles. Timing mode and addressing are set per
/// configuration, so the experiment is independent of the
/// `--mem`/`--mem-addresses` run mode.
fn table13_recorded(suite: &Suite) -> String {
    let mut out = header("Table 13 recorded: synthetic vs recorded scattered addressing");
    let mk = |addresses: MemAddressing| {
        let mut cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        cfg.mem_timing = MemTiming::CycleLevel;
        cfg.mem_addresses = addresses;
        cfg
    };
    let synth_cfg = mk(MemAddressing::Synthetic);
    let rec_cfg = mk(MemAddressing::Recorded);
    let unit = (240_000.0 * suite.la_scale) as usize;
    let kernels: [(&str, u64); 3] = [
        ("power-law (7/8 hub)", 875),
        ("skewed (1/2 hub)", 500),
        ("uniform", 0),
    ];
    let _ = writeln!(
        out,
        "{:<20} {:>10} {:>10} {:>7} {:>12} {:>12}",
        "kernel", "synthetic", "recorded", "rec/syn", "ag-fetch syn", "ag-fetch rec"
    );
    // Kernel points simulate concurrently; rows format in order, so the
    // report text stays byte-identical across thread counts.
    let rows = capstan_par::par_map(&kernels, |&(_, hub)| {
        let w = addressed_scatter_workload(unit, 4 * unit as u64, hub);
        (simulate(&w, &synth_cfg), simulate(&w, &rec_cfg))
    });
    for ((name, _), (s, r)) in kernels.iter().zip(&rows) {
        let _ = writeln!(
            out,
            "{name:<20} {:>10} {:>10} {:>7.2} {:>12} {:>12}",
            s.cycles,
            r.cycles,
            r.cycles as f64 / s.cycles.max(1) as f64,
            s.mem.unwrap_or_default().ag_bursts_fetched,
            r.mem.unwrap_or_default().ag_bursts_fetched,
        );
    }
    // Real-graph anchors: shuffle-less PR-Edge turns every cross-tile
    // rank read into a DRAM atomic whose *recorded* destination is the
    // real source vertex — power-law hubs coalesce, road junctions
    // mostly do not.
    let anchors = [
        ("PR-Edge web (power-law)", Dataset::WebStanford),
        ("PR-Edge roads (low-skew)", Dataset::UsRoads),
    ];
    let mut cfgs = [synth_cfg, rec_cfg];
    for cfg in &mut cfgs {
        cfg.shuffle = None;
    }
    let points = anchors.map(|(_, dataset)| (AppId::PrEdge, dataset));
    for ((name, _), reports) in anchors.iter().zip(cost_points(suite, &points, &cfgs)) {
        let (s, r) = (&reports[0], &reports[1]);
        let m = r.mem.unwrap_or_default();
        let _ = writeln!(
            out,
            "{name}: synthetic {} recorded {} (x{:.2}), ag fetch syn/rec {}/{}",
            s.cycles,
            r.cycles,
            r.cycles as f64 / s.cycles.max(1) as f64,
            s.mem.unwrap_or_default().ag_bursts_fetched,
            m.ag_bursts_fetched,
        );
    }
    out
}

// --- Table 13 channel study --------------------------------------------------

/// Table 13 (channel study): the cycle-level mode's region-channel
/// count swept on the atomic-heavy scatter-update kernel. Capstan's
/// grid attaches its 80 AGs to mutually-exclusive memory regions, so
/// atomic serialization and DRAM bandwidth are per-region effects; the
/// sweep shows the drain time shrinking as the crossbar spreads traffic
/// over more `(banked channel, AG region)` pairs — the multi-channel
/// parallelism a single shared channel hides. A PR-Edge/no-shuffle
/// anchor (every cross-tile update a DRAM atomic) grounds the sweep in
/// a real workload. Channel counts are set per configuration here, so
/// the experiment is independent of the `--mem`/`--mem-channels`
/// run mode.
fn table13_channels(suite: &Suite) -> String {
    let mut out = header("Table 13 channels: region-channel sweep, cycle-level DRAM");
    let mk = |channels: usize| {
        let mut cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        cfg.mem_timing = MemTiming::CycleLevel;
        cfg.mem_channels = channels;
        cfg
    };
    // Atomic-heavy point of the table13-atomics sweep (the regime the
    // channel count matters most in).
    let unit = (240_000.0 * suite.la_scale) as usize;
    let w = scatter_update_workload(unit, 4 * unit as u64);
    let sweep = [1usize, 2, 4, 8];
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>8} {:>9} {:>11} {:>8} {:>10}",
        "channels", "cycle", "speedup", "row-conf", "contention", "peak-q", "ag-fetch"
    );
    // The sweep points simulate concurrently; rows format in order, so
    // the report text stays byte-identical across thread counts.
    let rows = capstan_par::par_map(&sweep, |&channels| simulate(&w, &mk(channels)));
    let base = rows[0].cycles;
    for (channels, r) in sweep.iter().zip(&rows) {
        let m = r.mem.unwrap_or_default();
        let _ = writeln!(
            out,
            "{channels:>8} {:>10} {:>8.2} {:>9} {:>11} {:>8} {:>10}",
            r.cycles,
            base as f64 / r.cycles.max(1) as f64,
            m.row_conflicts,
            m.contention_cycles,
            m.peak_bank_queue,
            m.ag_bursts_fetched,
        );
    }
    // Real-app anchor: shuffle-less PR-Edge routes cross-tile updates
    // through DRAM atomics — the per-region AG split is the whole story.
    let cfgs = [1usize, 4].map(|channels| {
        let mut cfg = mk(channels);
        cfg.shuffle = None;
        cfg
    });
    let anchors = cost_recording(suite, AppId::PrEdge, Dataset::WebStanford, &cfgs);
    let _ = writeln!(
        out,
        "PR-Edge/no-shuffle: 1ch {} cycles, 4ch {} cycles (x{:.2})",
        anchors[0].cycles,
        anchors[1].cycles,
        anchors[0].cycles as f64 / anchors[1].cycles.max(1) as f64,
    );
    out
}

// --- Multi-tenant memory study -----------------------------------------------

/// A two-tenant traffic mix: even tiles (tenant 0 under the perf
/// engine's round-robin attribution) carry hub-heavy scatter traffic —
/// the PageRank-style atomic/random pattern — while odd tiles (tenant 1)
/// carry streaming SpMV-style traffic. `hub_weight` scales tenant 0's
/// atomic volume so the mix can sweep from balanced to hub-dominated.
fn multitenant_mix_workload(unit: usize, hub_weight: u64) -> Workload {
    let tiles = 8u64;
    let mut wl = WorkloadBuilder::new("multitenant-mix");
    for i in 0..tiles {
        let mut t = wl.tile();
        if i % 2 == 0 {
            // Tenant 0: hub traffic — scattered reads and atomic RMWs
            // dominate, streaming is minimal.
            t.dram_stream_read(unit);
            t.foreach_vec(unit, |_, _| {});
            t.dram_random_read(unit as u64 / 4);
            t.dram_atomic(hub_weight * unit as u64 / 4);
        } else {
            // Tenant 1: streaming traffic — bulk sequential reads and
            // writes, no scattered words.
            t.dram_stream_read(unit * 8);
            t.foreach_vec(unit, |_, _| {});
            t.dram_stream_write(unit * 8);
        }
        wl.commit(t);
    }
    wl.finish()
}

/// Multi-tenant memory study: two tenants' traffic — PageRank-style hub
/// scatter vs streaming SpMV — interleaved through one cycle-level
/// memory system, under both channel-partitioning policies. Shared
/// channels let the hub tenant's atomic serialization steal bandwidth
/// from the streaming tenant; dedicated partitions give each tenant a
/// private channel group, trading peak bandwidth for isolation (the
/// streaming tenant's completion cycle becomes independent of the hub
/// tenant's load — pinned as an invariant in
/// `tests/mem_multitenant_differential.rs`). Timing mode, channel
/// count, tenant count, and partition policy are all set per
/// configuration, so the experiment is independent of the
/// `--mem`/`--mem-channels`/`--mem-tenants` run mode.
fn table_multitenant(suite: &Suite) -> String {
    let mut out = header("Multi-tenant: hub vs streaming tenants, shared vs dedicated channels");
    let mk = |partition: TenantPartition| {
        let mut cfg = CapstanConfig::new(MemoryKind::Hbm2e);
        cfg.mem_timing = MemTiming::CycleLevel;
        cfg.mem_channels = 4;
        cfg.mem_tenants = 2;
        cfg.mem_tenant_partition = partition;
        cfg
    };
    let unit = (240_000.0 * suite.la_scale) as usize;
    let mixes: [(&str, u64); 3] = [("balanced", 1), ("hub-heavy", 4), ("hub-flood", 16)];
    let policies = [
        ("shared", TenantPartition::Shared),
        ("dedicated", TenantPartition::Dedicated),
    ];
    let points: Vec<(usize, usize)> = (0..mixes.len())
        .flat_map(|m| (0..policies.len()).map(move |p| (m, p)))
        .collect();
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "mix", "partition", "cycles", "t0-done", "t1-done", "t0-words", "t1-words", "t0-occ%"
    );
    // The (mix, policy) points simulate concurrently; rows format in
    // order, so the report text stays byte-identical across thread
    // counts.
    let rows = capstan_par::par_map(&points, |&(m, p)| {
        let w = multitenant_mix_workload(unit, mixes[m].1);
        simulate(&w, &mk(policies[p].1))
    });
    for (&(m, p), r) in points.iter().zip(&rows) {
        let t = &r.mem_tenants;
        let occ_total: u64 = t.iter().map(|s| s.occupancy_cycles).sum();
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7.1}%",
            mixes[m].0,
            policies[p].0,
            r.mem.unwrap_or_default().cycles,
            t[0].completion_cycle,
            t[1].completion_cycle,
            t[0].completed,
            t[1].completed,
            100.0 * t[0].occupancy_cycles as f64 / occ_total.max(1) as f64,
        );
    }
    out
}

// --- Figure 4 ----------------------------------------------------------------

/// Figure 4: a traced request vector in a random stream, per ordering
/// mode, with sustained utilizations.
pub fn fig4() -> String {
    let mut out = header("Figure 4: traced request vector (bank per lane per cycle)");
    let paper = [
        (OrderingMode::Unordered, 79.9),
        (OrderingMode::AddressOrdered, 34.2),
        (OrderingMode::FullyOrdered, 25.5),
        (OrderingMode::Arbitrated, 32.4),
    ];
    // The four ordering modes trace and measure concurrently.
    let measured = capstan_par::par_map(&paper, |&(mode, _)| {
        let cfg = SpmuConfig {
            ordering: mode,
            ..Default::default()
        };
        let run = trace_one_vector(cfg, 42, 40);
        let util = measure_random_throughput(cfg, 42, 1000, 4000).bank_utilization * 100.0;
        (run, util)
    });
    for ((mode, paper_util), (run, util)) in paper.into_iter().zip(measured) {
        let _ = writeln!(
            out,
            "{} — util {:.1}% (paper {:.1}%)",
            mode.name(),
            util,
            paper_util
        );
        // Group grants by cycle; traced vector in brackets.
        let mut cycles: Vec<u64> = run.grants.iter().map(|g| g.cycle).collect();
        cycles.sort_unstable();
        cycles.dedup();
        for &cyc in cycles.iter().take(16) {
            let mut row = vec![String::from("  ."); 16];
            for g in run.grants.iter().filter(|g| g.cycle == cyc) {
                row[g.lane] = if g.vector_id == run.traced_id {
                    format!("[{:X}]", g.bank)
                } else {
                    format!(" {:X} ", g.bank)
                };
            }
            let _ = writeln!(out, "  cyc {:>4}: {}", cyc, row.join(""));
        }
    }
    out
}

// --- Figure 5 ----------------------------------------------------------------

/// The dataset Figs. 5a and 5c run `app` on: its second paper dataset,
/// except that the paper substitutes p2p-Gnutella31 for flickr.
fn fig5_dataset(app: AppId) -> Dataset {
    if app.datasets().contains(&Dataset::Flickr) {
        Dataset::Gnutella31
    } else {
        app.datasets()[1]
    }
}

/// The DRAM bandwidths (GB/s) Figs. 5a and 5c sweep.
const FIG5_BANDWIDTHS: [f64; 7] = [20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0];

/// `title`'s header and a column line of [`FIG5_BANDWIDTHS`].
fn bandwidth_header(title: &str) -> String {
    let mut out = header(title);
    let _ = write!(out, "{:<9}", "App");
    for bw in FIG5_BANDWIDTHS {
        let _ = write!(out, "{bw:>8.0}");
    }
    let _ = writeln!(out);
    out
}

/// Writes `app`'s row of `ratios`.
fn ratio_row(out: &mut String, app: AppId, ratios: impl Iterator<Item = f64>) {
    let _ = write!(out, "{:<9}", app.short());
    for ratio in ratios {
        let _ = write!(out, "{ratio:>8.2}");
    }
    let _ = writeln!(out);
}

/// Figure 5a: DRAM bandwidth sensitivity (speedup vs 20 GB/s baseline).
fn fig5a(suite: &Suite) -> String {
    let mut out = bandwidth_header("Figure 5a: DRAM bandwidth sensitivity (speedup vs 20 GB/s)");
    let apps: Vec<AppId> = AppId::ALL
        .into_iter()
        .filter(|&a| a != AppId::BiCgStab)
        .collect();
    // Each app records once and simulates the 20 GB/s baseline plus
    // every bandwidth point as one item.
    let cfgs: Vec<CapstanConfig> = std::iter::once(20.0)
        .chain(FIG5_BANDWIDTHS)
        .map(|bw| CapstanConfig::new(MemoryKind::Custom(bw)))
        .collect();
    let points: Vec<(AppId, Dataset)> = apps.iter().map(|&a| (a, fig5_dataset(a))).collect();
    for (&app, reports) in apps.iter().zip(cost_points(suite, &points, &cfgs)) {
        let base = reports[0].cycles as f64;
        let speedups = reports[1..].iter().map(|r| base / r.cycles as f64);
        ratio_row(&mut out, app, speedups);
    }
    out
}

/// Figure 5b: area sensitivity (speedup and weighted area vs outer-par).
fn fig5b(suite: &Suite) -> String {
    let mut out = header("Figure 5b: area sensitivity (outer-parallelization sweep)");
    let pars = [4usize, 8, 16, 32, 64, 128, 200];
    let _ = writeln!(
        out,
        "{:<9} {}",
        "App",
        pars.map(|p| format!("{p:>8}")).join("")
    );
    let full_area = area::chip_report(area::ChipConfig::default()).total;
    let _ = write!(out, "{:<9}", "area%");
    for par in pars {
        let cfg = area::ChipConfig {
            cus: par,
            mus: par,
            ags: (par * 80 / 200).max(4),
            ..Default::default()
        };
        let _ = write!(
            out,
            "{:>8.1}",
            area::chip_report(cfg).total / full_area * 100.0
        );
    }
    let _ = writeln!(out);
    let apps = [
        AppId::CsrSpmv,
        AppId::PrPull,
        AppId::Bfs,
        AppId::SpMSpM,
        AppId::Conv,
    ];
    // Outer-par sets the tiling, so every (app, outer-par) point is its
    // own recording and its own item.
    let cfgs = pars.map(|par| {
        let mut cfg = CapstanConfig::paper_default();
        cfg.outer_par = par;
        cfg
    });
    let points: Vec<(AppId, Dataset)> = apps.iter().map(|&a| (a, a.datasets()[1])).collect();
    for (&app, reports) in apps.iter().zip(cost_points(suite, &points, &cfgs)) {
        let base = reports[0].cycles as f64;
        let speedups = reports.iter().map(|r| base / r.cycles as f64);
        ratio_row(&mut out, app, speedups);
    }
    out
}

/// Figure 5c: DRAM compression sensitivity (speedup from compression).
fn fig5c(suite: &Suite) -> String {
    let mut out = bandwidth_header("Figure 5c: compression speedup vs bandwidth");
    let apps = [AppId::CooSpmv, AppId::PrEdge, AppId::PrPull, AppId::CsrSpmv];
    // Each app records once and simulates every (bandwidth, compression
    // off/on) pair as one item.
    let cfgs: Vec<CapstanConfig> = FIG5_BANDWIDTHS
        .iter()
        .flat_map(|&bw| {
            let mut on = CapstanConfig::new(MemoryKind::Custom(bw));
            on.compression = true;
            let mut off = on;
            off.compression = false;
            [off, on]
        })
        .collect();
    let points: Vec<(AppId, Dataset)> = apps.iter().map(|&a| (a, fig5_dataset(a))).collect();
    for (&app, reports) in apps.iter().zip(cost_points(suite, &points, &cfgs)) {
        let speedups = reports
            .chunks(2)
            .map(|p| p[0].cycles as f64 / p[1].cycles as f64);
        ratio_row(&mut out, app, speedups);
    }
    let _ = writeln!(
        out,
        "(paper: PREdge and COO see the best compression speedups)"
    );
    out
}

// --- Figure 6 ----------------------------------------------------------------

/// One Fig. 6 section: each app runs on its dataset under the section's
/// maximal-scanner `base` config, then under `config(v)` for every swept
/// value `v`.
struct ScannerSweep<'a> {
    title: &'a str,
    values: &'a [usize],
    apps: &'a [AppId],
    dataset: fn(AppId) -> Dataset,
    base: CapstanConfig,
    config: fn(usize) -> CapstanConfig,
}

/// The paper-default config with a `width`-bit scanner emitting
/// `outputs` indices per cycle.
fn bit_scanner_config(width: usize, outputs: usize) -> CapstanConfig {
    let mut cfg = CapstanConfig::paper_default();
    cfg.scanner = BitVecScanner::new(width, outputs);
    cfg
}

/// The paper-default config with a `width`-wide data scanner.
fn data_scanner_config(width: usize) -> CapstanConfig {
    let mut cfg = CapstanConfig::paper_default();
    cfg.data_scanner = DataScanner::new(width);
    cfg
}

/// Figure 6: scanner sensitivity (width, data width, output vectorization).
///
/// Every (row, scanner) point of every section records as one
/// [`capstan_par::par_map`] item ([`cost_rows`]); a section's base
/// config shares its item with the swept value that records alike.
fn fig6(suite: &Suite) -> String {
    let mut out = header("Figure 6: scanner sensitivity (slowdown vs maximal 512x16 scanner)");
    let sections = [
        // (a) Bits scanned per cycle.
        ScannerSweep {
            title: "(a) bit-scanner width:",
            values: &[1, 4, 16, 64, 128, 256, 512],
            apps: &[AppId::Bfs, AppId::Sssp, AppId::MpM, AppId::SpMSpM],
            dataset: |app| {
                if app.datasets().contains(&Dataset::Flickr) {
                    Dataset::Gnutella31
                } else {
                    app.datasets()[0]
                }
            },
            base: bit_scanner_config(512, 16),
            config: |w| bit_scanner_config(w, 16.min(w.max(1))),
        },
        // (b) Data scanned per cycle.
        ScannerSweep {
            title: "(b) data-scanner width:",
            values: &[1, 2, 4, 8, 16],
            apps: &[AppId::CscSpmv, AppId::Conv],
            dataset: |app| app.datasets()[1],
            base: data_scanner_config(16),
            config: data_scanner_config,
        },
        // (c) Scan output vectorization.
        ScannerSweep {
            title: "(c) scan output vectorization:",
            values: &[1, 2, 4, 8, 16],
            apps: &[AppId::MpM, AppId::SpMSpM],
            dataset: |app| app.datasets()[1],
            base: bit_scanner_config(256, 16),
            config: |v| bit_scanner_config(256, v),
        },
    ];
    let section_cfgs: Vec<Vec<CapstanConfig>> = sections
        .iter()
        .map(|s| {
            std::iter::once(s.base)
                .chain(s.values.iter().map(|&v| (s.config)(v)))
                .collect()
        })
        .collect();
    let rows: Vec<(AppId, Dataset, &[CapstanConfig])> = sections
        .iter()
        .zip(&section_cfgs)
        .flat_map(|(s, cfgs)| {
            s.apps
                .iter()
                .map(move |&app| (app, (s.dataset)(app), cfgs.as_slice()))
        })
        .collect();
    let mut rows = cost_rows(suite, &rows).into_iter();
    for s in &sections {
        let _ = writeln!(out, "{}", s.title);
        let _ = writeln!(
            out,
            "{:<9} {}",
            "App",
            s.values
                .iter()
                .map(|v| format!("{v:>8}"))
                .collect::<String>()
        );
        for (&app, reports) in s.apps.iter().zip(rows.by_ref()) {
            let base = reports[0].cycles as f64;
            let slowdowns = reports[1..].iter().map(|r| r.cycles as f64 / base);
            ratio_row(&mut out, app, slowdowns);
        }
    }
    out
}

// --- Figure 7 ----------------------------------------------------------------

/// Figure 7: execution-time breakdown per app and dataset.
fn fig7(suite: &Suite) -> String {
    let mut out = header("Figure 7: execution time breakdown (%)");
    let cfg = CapstanConfig::paper_default();
    let _ = writeln!(
        out,
        "{:<9} {:<17} {:>7} {:>6} {:>6} {:>7} {:>7} {:>7} {:>6} {:>6}",
        "App", "Dataset", "Active", "Scan", "L/S", "VecLen", "Imbal", "Net", "SRAM", "DRAM"
    );
    let pairs = app_datasets(&AppId::ALL);
    // Every (app, dataset) pair records and simulates as one item.
    let reports = cost_points(suite, &pairs, &[cfg]);
    for ((app, dataset), report) in pairs.iter().zip(reports.iter().flatten()) {
        let f = report.breakdown.fractions();
        let _ = writeln!(
            out,
            "{:<9} {:<17} {:>6.1}% {:>5.1}% {:>5.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>5.1}% {:>5.1}%",
            app.short(),
            dataset.spec().name,
            f[0].1 * 100.0,
            f[1].1 * 100.0,
            f[2].1 * 100.0,
            f[3].1 * 100.0,
            f[4].1 * 100.0,
            f[5].1 * 100.0,
            f[6].1 * 100.0,
            f[7].1 * 100.0,
        );
    }
    out
}

// --- Ablations ---------------------------------------------------------------

/// Design-choice ablations beyond the paper's printed tables: Bloom-filter
/// sizing for address ordering (§3.1.2 picks 128 entries), allocator
/// iteration count (§3.1.1 picks 3), and the Conv halo mapping
/// (shuffle network vs a memory exchange pass, §4).
fn ablations(suite: &Suite) -> String {
    let mut out = header("Ablations: design choices called out in the paper");

    // (a) Bloom-filter entries vs address-ordered throughput.
    let _ = writeln!(
        out,
        "(a) address-ordered SpMU throughput vs Bloom entries (paper: 128):"
    );
    let entry_counts = [32usize, 64, 128, 256, 512];
    let bloom_utils = capstan_par::par_map(&entry_counts, |&entries| {
        let cfg = SpmuConfig {
            ordering: OrderingMode::AddressOrdered,
            bloom_entries: entries,
            ..Default::default()
        };
        measure_random_throughput(cfg, 42, 1000, 4000).bank_utilization
    });
    for (entries, util) in entry_counts.into_iter().zip(bloom_utils) {
        let _ = writeln!(
            out,
            "  {entries:>4} entries: {:>5.1}% banks busy",
            util * 100.0
        );
    }

    // (b) Allocator iterations vs unordered throughput.
    let _ = writeln!(
        out,
        "(b) unordered throughput vs allocator iterations (paper: 3):"
    );
    let iteration_counts = [1usize, 2, 3, 4];
    let iter_utils = capstan_par::par_map(&iteration_counts, |&iters| {
        let cfg = SpmuConfig {
            alloc_iterations: iters,
            ..Default::default()
        };
        measure_random_throughput(cfg, 42, 1000, 4000).bank_utilization
    });
    for (iters, util) in iteration_counts.into_iter().zip(iter_utils) {
        let _ = writeln!(
            out,
            "  {iters} iterations: {:>5.1}% banks busy",
            util * 100.0
        );
    }

    // (c) Conv halo mapping: shuffle network vs memory exchange.
    let _ = writeln!(out, "(c) Conv halo mapping (runtime / shuffle-mapped):");
    let cfg = CapstanConfig::paper_default();
    let fast = cost_recording(suite, AppId::Conv, Dataset::ResNet50L2, &[cfg])[0].cycles as f64;
    let mut app =
        capstan_apps::conv::SparseConv::from_dataset(Dataset::ResNet50L2, suite.conv_scale);
    app.halo_via_memory = true;
    let slow = app.simulate(&cfg).cycles as f64;
    let _ = writeln!(out, "  shuffle network: 1.00");
    let _ = writeln!(
        out,
        "  memory exchange: {:.2} (paper: the non-shuffle mapping is several times slower)",
        slow / fast
    );

    // (d) Repeated-read elision (paper §3.1.2): duplicate read-only
    // accesses squash at enqueue and fill from the one performed read.
    // A skewed trace (half the lanes hit an 8-word hot set, the way
    // power-law PR-Edge reads repeat source nodes) shows the win; the
    // uniform-random trace shows it is no loss when duplicates are rare.
    let _ = writeln!(
        out,
        "(d) repeated-read elision (SpMU cycles, elision-off / elision-on):"
    );
    for (name, hot_fraction) in [("uniform trace", 0.0f64), ("skewed trace (50% hot)", 0.5)] {
        let mut rng = capstan_arch::spmu::driver::TraceRng::new(0xE11);
        let base = SpmuConfig::default();
        let span = base.capacity_words() as u64;
        let vectors: Vec<capstan_arch::spmu::AccessVector> = (0..2000)
            .map(|_| capstan_arch::spmu::AccessVector {
                lanes: (0..base.lanes)
                    .map(|_| {
                        let addr = if (rng.below(1000) as f64) < hot_fraction * 1000.0 {
                            rng.below(8) as u32
                        } else {
                            rng.below(span) as u32
                        };
                        Some(capstan_arch::spmu::LaneRequest::read(addr))
                    })
                    .collect(),
            })
            .collect();
        let mut on = base;
        on.elide_repeated_reads = true;
        let mut off = base;
        off.elide_repeated_reads = false;
        let cy_on = capstan_arch::spmu::driver::run_vectors(on, &vectors).cycles as f64;
        let cy_off = capstan_arch::spmu::driver::run_vectors(off, &vectors).cycles as f64;
        let _ = writeln!(out, "  {name:<24} {:.2}x", cy_off / cy_on);
    }
    out
}

// --- Extensions ---------------------------------------------------------------

/// One independent point of the [`extensions`] studies.
#[derive(Clone, Copy)]
enum ExtensionPoint {
    /// (a) SpMM vs PR-Pull vector-slot occupancy.
    Occupancy,
    /// (b) GCN layer, unfused vs fused, under one memory.
    GcnFusion(&'static str, MemoryKind),
    /// (c) CG solver, unfused vs fused, under one memory.
    CgFusion(&'static str, MemoryKind),
    /// (d) CSR vs BCSR on a banded matrix with this percentage of its
    /// non-zeros scattered uniformly.
    Bcsr(usize),
    /// (e) CSR vs DCSR with about this many occupied rows.
    Dcsr(usize),
}

impl ExtensionPoint {
    /// The heading of the study this point belongs to.
    fn heading(self) -> &'static str {
        match self {
            ExtensionPoint::Occupancy => {
                "(a) GNN: vector-slot occupancy, SpMM vs PR-Pull (same power-law graph):\n"
            }
            ExtensionPoint::GcnFusion(..) => "(b) GCN layer, unfused/fused runtime:\n",
            ExtensionPoint::CgFusion(..) => "(c) CG solver, unfused/fused runtime:\n",
            ExtensionPoint::Bcsr(_) => {
                "(d) CSR-vs-BCSR crossover (16x16 blocks; ratio > 1 means BCSR wins):\n  \
                 scatter%  fill-ratio  csr/bcsr-cycles\n"
            }
            ExtensionPoint::Dcsr(_) => {
                "(e) CSR-vs-DCSR on 8192x8192 (ratio > 1 means DCSR wins):\n  \
                 occupied-rows  prefers-dcsr  csr/dcsr-cycles\n"
            }
        }
    }
}

/// Extension studies: the applications the paper motivates but does not
/// evaluate (GNNs via SpMM, Krylov CG, block-sparse BCSR).
///
/// Every study point runs as one [`capstan_par::par_map`] item that
/// returns its report line; each study's heading prints before its
/// first line.
pub fn extensions(suite: &Suite) -> String {
    use ExtensionPoint::*;
    let mut out = header("Extensions: GCN layer, CG solver, BCSR format study");
    let cfg = CapstanConfig::paper_default();
    let graph = Dataset::WebStanford.generate_scaled(suite.graph_scale);
    let features = 32usize;
    let layer = capstan_apps::gnn::GcnLayer::with_synthetic(&graph, features, features);
    let system = Dataset::Trefethen20000.generate_scaled(suite.la_scale);
    let mut cg = capstan_apps::cg::ConjugateGradient::new(&system);
    cg.iterations = 6;
    let mems = [("DDR4 ", MemoryKind::Ddr4), ("HBM2E", MemoryKind::Hbm2e)];
    let points: Vec<ExtensionPoint> = std::iter::once(Occupancy)
        .chain(mems.map(|(name, mem)| GcnFusion(name, mem)))
        .chain(mems.map(|(name, mem)| CgFusion(name, mem)))
        .chain([0usize, 10, 25, 50, 75, 100].map(Bcsr))
        .chain([64usize, 512, 2048, 8192].map(Dcsr))
        .collect();
    let lines = capstan_par::par_map(&points, |&point| match point {
        // (a) GCN layer: lane efficiency of SpMM vs PR-Pull on the same
        // power-law structure. The paper's Fig. 7 shows PR-Pull starved
        // by short in-edge lists; mapping the feature dimension onto the
        // lanes removes that loss.
        Occupancy => {
            let spmm = capstan_apps::gnn::Spmm::new(
                &graph,
                capstan_tensor::dense::DenseMatrix::from_fn(graph.cols(), features, |r, c| {
                    ((r + c) % 3) as f32 - 1.0
                }),
            );
            // Recorded occupancy (useful lane work / issued vector
            // slots) isolates the vector-length story from memory
            // stalls: PR-Pull starves on short in-edge lists (paper Fig.
            // 7), while SpMM's lanes ride the dense feature dimension.
            let occupancy = |wl: &Workload| {
                let work: u64 = wl.tiles.iter().map(|t| t.lane_work).sum();
                let slots: u64 = wl.tiles.iter().map(|t| t.vectors).sum::<u64>() * 16;
                work as f64 / slots.max(1) as f64
            };
            let spmm_occupancy = occupancy(&spmm.build(&cfg));
            let pr_occupancy =
                occupancy(&suite.build(AppId::PrPull, Dataset::WebStanford).build(&cfg));
            format!(
                "  SpMM ({features} features): {:>5.1}%   PR-Pull: {:>5.1}%\n",
                spmm_occupancy * 100.0,
                pr_occupancy * 100.0
            )
        }
        // (b) GCN fusion: the X*W round trip saved by fusing GEMM into
        // SpMM.
        GcnFusion(name, mem) => {
            let mem_cfg = CapstanConfig::new(mem);
            let fused = simulate(&layer.record(&mem_cfg).0, &mem_cfg).cycles as f64;
            let unfused = simulate(&layer.record_unfused(&mem_cfg).0, &mem_cfg).cycles as f64;
            format!("  {name}: {:.2}x\n", unfused / fused)
        }
        // (c) CG fusion: same study for the Krylov solver (paper §1:
        // Krylov methods "must be fused for efficient execution").
        CgFusion(name, mem) => {
            let mem_cfg = CapstanConfig::new(mem);
            let fused = simulate(&cg.record(&mem_cfg).0, &mem_cfg).cycles as f64;
            let unfused = simulate(&cg.record_unfused(&mem_cfg).0, &mem_cfg).cycles as f64;
            format!("  {name}: {:.2}x\n", unfused / fused)
        }
        // (d) BCSR crossover: blend a banded (clustered) matrix with
        // uniform scatter and watch the block format's win turn into a
        // loss as the block fill ratio decays.
        Bcsr(scatter_pct) => {
            let n = 2048usize;
            let nnz = 120_000usize;
            let scattered_nnz = nnz * scatter_pct / 100;
            let banded_part = capstan_tensor::gen::banded(n, nnz - scattered_nnz, 11);
            let uniform_part = capstan_tensor::gen::uniform(n, n, scattered_nnz, 13);
            let mut entries: Vec<(u32, u32, f32)> = banded_part.entries().to_vec();
            entries.extend_from_slice(uniform_part.entries());
            let blend = capstan_tensor::Coo::from_triplets(n, n, entries).expect("valid blend");
            let bcsr = capstan_apps::spmv::BcsrSpmv::new(&blend, 16);
            let fill = bcsr.matrix().fill_ratio();
            let bcsr_cycles = bcsr.simulate(&cfg).cycles as f64;
            let csr_cycles = capstan_apps::spmv::CsrSpmv::new(&blend)
                .simulate(&cfg)
                .cycles as f64;
            format!(
                "  {scatter_pct:>7}%  {fill:>10.3}  {:>15.2}\n",
                csr_cycles / bcsr_cycles
            )
        }
        // (e) CSR-vs-DCSR: sparse row iteration pays off once most rows
        // are empty (paper §2.1's doubly-compressed motivation; the
        // pointer-cost heuristic is the per-dimension format decision
        // TACO makes).
        Dcsr(occupied) => {
            let ddr = CapstanConfig::new(MemoryKind::Ddr4);
            // ~`occupied` rows, a few non-zeros each.
            let m = capstan_tensor::gen::uniform(8192, 8192, occupied * 3 / 2, 21);
            let dcsr = capstan_apps::spmv::DcsrSpmv::new(&m);
            let prefers = capstan_tensor::dcsr::prefers_dcsr(&m);
            let dcsr_cycles = dcsr.simulate(&ddr).cycles as f64;
            let csr_cycles = capstan_apps::spmv::CsrSpmv::new(&m).simulate(&ddr).cycles as f64;
            format!(
                "  {:>13}  {:>12}  {:>15.2}\n",
                dcsr.matrix().occupied_rows(),
                prefers,
                csr_cycles / dcsr_cycles
            )
        }
    });
    let mut heading = "";
    for (point, line) in points.iter().zip(lines) {
        if point.heading() != heading {
            heading = point.heading();
            out.push_str(heading);
        }
        out.push_str(&line);
    }
    out
}

// --- Planner -----------------------------------------------------------------

/// Every Table 6 matrix dataset: all but the CNN layers, which Conv
/// builds from layer descriptors (the planner experiment sweeps these,
/// and Table 6 lists them).
fn matrix_datasets() -> Vec<Dataset> {
    Dataset::ALL
        .iter()
        .copied()
        .filter(|d| d.spec().structure != Structure::Cnn)
        .collect()
}

/// The suite scale factor a dataset's structure class runs under,
/// mirroring the app-family grouping of `Suite::scale_for`.
fn structure_scale(suite: &Suite, structure: Structure) -> f64 {
    match structure {
        Structure::Circuit | Structure::MultiDiagonal | Structure::Banded => suite.la_scale,
        Structure::Road | Structure::PowerLaw => suite.graph_scale,
        Structure::DenseRandom | Structure::Cnn => suite.spmspm_scale,
    }
}

/// One planner-experiment row: the probe-tier choice, the full-scale
/// ranking, and the regret between them.
struct PlannerRow {
    name: &'static str,
    nnz: u64,
    density: f64,
    suggested: capstan_tensor::FormatClass,
    chosen: capstan_tensor::FormatClass,
    best: capstan_tensor::FormatClass,
    best_cycles: u64,
    regret: u64,
}

/// The `planner` experiment on `threads` workers: for every matrix
/// dataset, plan from a quarter-scale probe, then measure the regret of
/// the chosen format against the true analytic winner at full scale.
/// Median regret 0 is the acceptance bar — the planner picks the true
/// winner on at least half the datasets — and the worst case is
/// reported by name.
pub fn planner_report(suite: &Suite, threads: usize) -> String {
    let datasets = matrix_datasets();
    let probe_one = |&d: &Dataset| -> PlannerRow {
        let spec = d.spec();
        let scale = structure_scale(suite, spec.structure);
        // Probe tier: the planner only sees a quarter-scale sample of
        // the dataset — the serving scenario, where planning must cost
        // far less than the run it configures.
        let probe = d.generate_scaled(scale * 0.25);
        let probe_plan = capstan_plan::plan_spmv(&probe);
        let chosen = probe_plan.chosen().candidate.format;
        // Ground truth: price every candidate at full scale.
        let full = d.generate_scaled(scale);
        let full_plan = capstan_plan::plan_spmv(&full);
        let best = full_plan.chosen();
        let chosen_cycles = full_plan
            .ranked
            .iter()
            .find(|c| c.candidate.format == chosen)
            .expect("probed formats are a subset of full-scale candidates")
            .cycles;
        PlannerRow {
            name: spec.name,
            nnz: full_plan.stats.nnz,
            density: full_plan.stats.density(),
            suggested: full_plan.stats.suggest(),
            chosen,
            best: best.candidate.format,
            best_cycles: best.cycles,
            regret: chosen_cycles - best.cycles,
        }
    };
    let rows = capstan_par::par_map_threads(&datasets, threads, probe_one);
    let mut out = header("Planner: chosen-vs-best analytic regret per dataset");
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>9}  {:>8} {:>8} {:>8} {:>12} {:>10}",
        "Dataset", "nnz", "density", "suggest", "chosen", "best", "best-cycles", "regret"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>9.5}  {:>8} {:>8} {:>8} {:>12} {:>10}",
            r.name,
            r.nnz,
            r.density,
            r.suggested.tag(),
            r.chosen.tag(),
            r.best.tag(),
            r.best_cycles,
            r.regret
        );
    }
    let mut regrets: Vec<u64> = rows.iter().map(|r| r.regret).collect();
    regrets.sort_unstable();
    let median = regrets[regrets.len() / 2];
    let worst = rows
        .iter()
        .max_by_key(|r| r.regret)
        .expect("planner sweeps at least one dataset");
    let _ = writeln!(out, "median regret: {median} cycles");
    let _ = writeln!(
        out,
        "worst regret:  {} cycles ({}, chosen {} vs best {})",
        worst.regret,
        worst.name,
        worst.chosen.tag(),
        worst.best.tag()
    );
    out
}

/// One experiment: its name and the function that runs it.
type Experiment = (&'static str, fn(&Suite) -> String);

/// Every experiment, in canonical order.
const EXPERIMENTS: [Experiment; 23] = [
    ("table4", |_| table4()),
    ("table5", |_| table5()),
    ("table6", table6),
    ("table7", |_| table7()),
    ("table8", |_| table8()),
    ("fig4", |_| fig4()),
    ("table9", table9),
    ("table10", table10),
    ("table11", table11),
    ("table12", table12),
    ("table13", table13),
    ("table13-atomics", table13_atomics),
    ("table13-channels", table13_channels),
    ("table13-recorded", table13_recorded),
    ("table-multitenant", table_multitenant),
    ("fig5a", fig5a),
    ("fig5b", fig5b),
    ("fig5c", fig5c),
    ("fig6", fig6),
    ("fig7", fig7),
    ("ablations", ablations),
    ("extensions", extensions),
    ("planner", |suite| {
        planner_report(suite, capstan_par::thread_count(usize::MAX))
    }),
];

/// Every experiment name, in canonical order (the `experiments` binary's
/// `all`), read off the table [`run_by_name`] looks names up in.
pub const ALL_NAMES: &[&str] = &{
    let mut names = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    names
};

/// Runs one experiment by name, returning its report text (`None` for
/// an unknown name).
pub fn run_by_name(name: &str, suite: &Suite) -> Option<String> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, run)| run(suite))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_recording_memo_keeps_counters_and_digests_but_no_samples() {
        let suite = Suite::parse("la=0.01,graph=0.004,spmspm=0.1,conv=0.03").unwrap();
        let cfg = CapstanConfig::paper_default();
        let (app, dataset) = (AppId::PrEdge, Dataset::WebStanford);
        let reports = cost_points(&suite, &[(app, dataset)], &[cfg]);
        let full = suite.build(app, dataset).build(&cfg);
        assert_eq!(reports, vec![vec![simulate(&full, &cfg)]]);
        let kept = RECORDINGS
            .get(&RecordingKey::new(
                &suite,
                app,
                dataset,
                cfg.record_config(),
            ))
            .expect("a costed point is memoized");
        assert!(kept.samples_dropped());
        assert_eq!(kept.tiles.len(), full.tiles.len());
        let samples = |t: &capstan_core::program::TileWork| {
            t.sram.sampled.len()
                + t.remote.sampled.len()
                + t.remote.addr_sampled.len()
                + t.dram_random_addrs.len()
                + t.dram_atomic_addrs.len()
        };
        assert!(full.tiles.iter().map(samples).sum::<usize>() > 0);
        for (kept, full) in kept.tiles.iter().zip(&full.tiles) {
            assert_eq!(samples(kept), 0, "the memo holds a sample vector");
            assert_eq!(kept.sram.digest(), full.sram.digest());
            assert_eq!(kept.remote.digest(), full.remote.digest());
            assert_eq!(kept.sram.total_vectors, full.sram.total_vectors);
            assert_eq!(kept.remote.total_entries, full.remote.total_entries);
        }
    }
}
