//! The `paper-suite` and `mem-cycle` workloads: experiments run in
//! canonical order in this process through `run_by_name`.

use crate::expected::{self, Expected};
use crate::trace::Tracer;
use crate::util::{cpu_seconds, digest, median, percentile, secs, Value};
use crate::walk::{self, Plan};
use crate::{Args, Report};
use capstan_bench::experiments::{run_by_name, ALL_NAMES};
use capstan_bench::Suite;
use capstan_core::config::{set_default_mem_timing, MemTiming};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The experiments `mem-cycle` runs.
pub const MEM_CYCLE: [&str; 4] = [
    "table13-atomics",
    "table13-channels",
    "table13-recorded",
    "table-multitenant",
];

/// Seed-0 scale factors `(la, graph, spmspm, conv)`.
const PAPER_SCALE: [f64; 4] = [0.04, 0.015, 0.5, 0.1];
const MEM_CYCLE_SCALE: [f64; 4] = [1.0, 0.08, 1.0, 0.5];

/// Largest share by which a non-zero seed lowers a scale factor. Small,
/// so that seeds change the inputs but hardly the amount of work: a
/// wider spread shows up as seed-to-seed spread in every time metric.
pub const SEED_SPREAD: f64 = 0.02;

/// Seeded scale factors: seed 0 keeps `base`; any other seed lowers
/// each factor independently by up to [`SEED_SPREAD`]. Factors never
/// rise, so none passes 1 (`Dataset::generate_scaled`'s limit).
pub fn seeded_factors(base: [f64; 4], seed: u64, stream: u64) -> [f64; 4] {
    if seed == 0 {
        return base;
    }
    let mut rng = crate::util::Rng::new(seed.wrapping_mul(31).wrapping_add(stream));
    base.map(|f| (f * (1.0 - SEED_SPREAD * rng.unit())).min(1.0))
}

pub fn suite_of(f: [f64; 4]) -> Suite {
    Suite {
        la_scale: f[0],
        graph_scale: f[1],
        spmspm_scale: f[2],
        conv_scale: f[3],
    }
}

/// One suite workload after set-up.
pub struct Workload {
    pub name: &'static str,
    pub experiments: Vec<&'static str>,
    pub suite: Suite,
    pub cycle: bool,
}

/// The program-side set-up: scale factors and process-wide memory
/// defaults. Everything `setup_s` times for the suites happens here.
pub fn setup(name: &str, seed: u64) -> Option<Workload> {
    let (name, experiments, base, cycle) = match name {
        "paper-suite" => ("paper-suite", ALL_NAMES.to_vec(), PAPER_SCALE, false),
        "mem-cycle" => ("mem-cycle", MEM_CYCLE.to_vec(), MEM_CYCLE_SCALE, true),
        _ => return None,
    };
    if cycle {
        set_default_mem_timing(MemTiming::CycleLevel);
    }
    Some(Workload {
        name,
        experiments,
        suite: suite_of(seeded_factors(base, seed, 0)),
        cycle,
    })
}

/// One experiment of one pass. `digest` is `None` when the experiment
/// panicked or was unknown.
pub struct ExpRun {
    pub name: &'static str,
    pub wall_s: f64,
    pub cycles: u64,
    pub digest: Option<u64>,
}

pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak resident set of the process that ran the pass, in MiB.
    pub peak_rss_mib: f64,
    pub runs: Vec<ExpRun>,
}

impl Pass {
    pub fn cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }
}

/// Runs every experiment once, in order, each inside a
/// `bench.<experiment>` span when traced.
pub fn run_pass(w: &Workload, mut tracer: Option<&mut Tracer>) -> Pass {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut runs = Vec::with_capacity(w.experiments.len());
    for &name in &w.experiments {
        let span = tracer
            .as_deref_mut()
            .map(|t| t.enter(&format!("bench.{name}")));
        let c0 = capstan_sim::stats::simulated_cycles();
        let t = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| run_by_name(name, &w.suite)));
        let wall_s = secs(t);
        let cycles = capstan_sim::stats::simulated_cycles() - c0;
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
            tr.exit(id);
        }
        runs.push(ExpRun {
            name,
            wall_s,
            cycles,
            digest: report.ok().flatten().map(|r| digest(&r)),
        });
    }
    Pass {
        wall_s: secs(t0),
        cpu_s: cpu_seconds() - cpu0,
        peak_rss_mib: crate::util::peak_rss_mib(),
        runs,
    }
}

/// Checks every experiment run: it must not panic, must repeat the
/// first pass's digest and cycles exactly, and at seed 0 must match the
/// stored table (and, on `paper-suite`, `BENCH_core.json`). Every run is
/// one attempted operation.
fn check(w: &Workload, args: &Args, passes: &[&Pass], report: &mut Report) {
    let first: BTreeMap<&str, (Option<u64>, u64)> = passes[0]
        .runs
        .iter()
        .map(|r| (r.name, (r.digest, r.cycles)))
        .collect();
    let stored = if args.seed == 0 {
        Some(load_expectations(w, report))
    } else {
        None
    };
    for pass in passes {
        for r in &pass.runs {
            report.attempted += 1;
            let Some(d) = r.digest else {
                report.fail(format!("{}: panicked or unknown", r.name));
                continue;
            };
            if first[r.name] != (Some(d), r.cycles) {
                report.fail(format!("{}: output differs between passes", r.name));
                continue;
            }
            if let Some((table, bench_core)) = &stored {
                let verdict = table.check(w.name, r.name, d, r.cycles).and_then(|()| {
                    match bench_core.as_ref().map(|b| b.get(r.name)) {
                        Some(Some(&c)) if c != r.cycles => Err(format!(
                            "{}: {} cycles, BENCH_core.json has {c}",
                            r.name, r.cycles
                        )),
                        Some(None) => Err(format!("{}: no row in BENCH_core.json", r.name)),
                        _ => Ok(()),
                    }
                });
                if let Err(e) = verdict {
                    report.fail(e);
                }
            }
        }
    }
    if args.seed == 0 {
        let observed: String = passes[0]
            .runs
            .iter()
            .map(|r| expected::line(w.name, r.name, r.digest.unwrap_or(0), r.cycles))
            .collect();
        let path = Path::new(crate::OUT_DIR).join(format!("observed-{}.txt", w.name));
        if let Err(e) = std::fs::write(&path, observed) {
            report.problem(format!("cannot write {}: {e}", path.display()));
        }
    }
}

type Expectations = (Expected, Option<BTreeMap<String, u64>>);

fn load_expectations(w: &Workload, report: &mut Report) -> Expectations {
    let table = Expected::load(Path::new("perfbench/expected.txt")).unwrap_or_else(|e| {
        report.problem(e);
        Expected::default()
    });
    let bench_core = (w.name == "paper-suite").then(|| {
        expected::bench_core_rows(Path::new("BENCH_core.json")).unwrap_or_else(|e| {
            report.problem(e);
            BTreeMap::new()
        })
    });
    (table, bench_core)
}

/// The untraced run: whole passes while another fits in `--seconds`, each
/// in a fresh child process, so every pass starts cold the way a user's
/// `experiments` invocation does and has its own peak memory.
pub fn run(w: &Workload, args: &Args, report: &mut Report) {
    let mut setup = crate::setup_seconds(args);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    loop {
        let pass = match child_pass(args, None) {
            Ok(p) => p,
            Err(e) => {
                report.attempted += w.experiments.len() as u64;
                report.fail(e);
                return;
            }
        };
        eprintln!(
            "perfbench: pass {}: wall {:.3} s, cpu {:.2} s, peak {:.1} MiB, {} simulated cycles",
            passes.len(),
            pass.wall_s,
            pass.cpu_s,
            pass.peak_rss_mib,
            pass.cycles()
        );
        passes.push(pass);
        if !crate::another_pass_fits(t0, passes.len(), args.seconds) {
            break;
        }
    }
    setup.extend(crate::setup_seconds(args));
    check(w, args, &passes.iter().collect::<Vec<_>>(), report);
    if args.seed == 0 && w.name == "paper-suite" && passes[0].cycles() != 8_401_902 {
        report.problem(format!(
            "paper-suite simulated {} cycles, expected 8401902",
            passes[0].cycles()
        ));
    }
    // A suite's request is one pass: what a user waits for when running
    // the workload's experiments. With a handful of passes per run, p99
    // is the slowest pass.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let latencies_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let of = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<f64>>());
    let wall_s = median(&walls);
    crate::report_setup(report, &setup);
    report.metric("wall_s", "s", Value::Real(wall_s));
    report.metric("cpu_s", "s", Value::Real(of(|p| p.cpu_s)));
    report.metric("peak_rss_mb", "MiB", Value::Real(of(|p| p.peak_rss_mib)));
    report.metric(
        "req_per_s",
        "1/s",
        Value::Real(w.experiments.len() as f64 / wall_s),
    );
    report.metric("p50_ms", "ms", Value::Real(percentile(&latencies_ms, 0.5)));
    report.metric("p99_ms", "ms", Value::Real(percentile(&latencies_ms, 0.99)));
}

/// Runs one pass in a child process of this binary (optionally with a
/// `CAPSTAN_THREADS` override) and parses what it reports.
fn child_pass(args: &Args, threads: Option<&str>) -> Result<Pass, String> {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable"));
    cmd.args(["--pass", "--workload", &args.workload, "--seed"])
        .arg(args.seed.to_string())
        .stderr(Stdio::inherit());
    if let Some(n) = threads {
        cmd.env("CAPSTAN_THREADS", n);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot spawn a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut runs = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        match f.as_slice() {
            ["perfbench-exp", name, wall, cycles, d] => {
                let name = ALL_NAMES
                    .iter()
                    .find(|n| *n == name)
                    .ok_or_else(|| format!("pass reported unknown experiment `{name}`"))?;
                runs.push(ExpRun {
                    name,
                    wall_s: wall.parse().map_err(|_| "bad pass line")?,
                    cycles: cycles.parse().map_err(|_| "bad pass line")?,
                    digest: u64::from_str_radix(d, 16).ok(),
                });
            }
            ["perfbench-pass", wall, cpu, rss] => {
                let num = |s: &str| s.parse::<f64>().map_err(|_| "bad pass line".to_string());
                return Ok(Pass {
                    wall_s: num(wall)?,
                    cpu_s: num(cpu)?,
                    peak_rss_mib: num(rss)?,
                    runs,
                });
            }
            _ => {}
        }
    }
    Err("pass printed no summary line".to_string())
}

/// Child-process half of [`child_pass`]: one pass, one line per
/// experiment, then a summary line.
pub fn print_pass(w: &Workload) {
    let pass = run_pass(w, None);
    for r in &pass.runs {
        let d = r.digest.map_or("none".to_string(), |d| format!("{d:016x}"));
        println!("perfbench-exp {} {:?} {} {d}", r.name, r.wall_s, r.cycles);
    }
    println!(
        "perfbench-pass {:?} {:?} {:?}",
        pass.wall_s, pass.cpu_s, pass.peak_rss_mib
    );
}

/// The traced run: one untraced and one traced pass, two walks, and a
/// single-thread pass in a child process, with every count compared.
pub fn run_traced(w: &Workload, args: &Args, report: &mut Report) {
    // Both passes run cold: the untraced one in a fresh child process,
    // the traced one first in this process.
    let untraced = match child_pass(args, None) {
        Ok(p) => p,
        Err(e) => return report.problem(e),
    };
    let mut tracer = Tracer::new();
    let pass_id = tracer.enter("pass");
    let traced = run_pass(w, Some(&mut tracer));
    tracer.exit(pass_id);
    check(w, args, &[&untraced, &traced], report);

    let plan = walk_plan(w);
    let walk_id = tracer.enter("walk");
    let counts = walk::run(&plan, &mut tracer);
    tracer.exit(walk_id);
    let again = walk::run(&plan, &mut Tracer::new());
    if again != counts {
        report.problem(format!(
            "walk counts differ between two walks: {counts:?} vs {again:?}"
        ));
    }
    check_single_thread(args, &untraced, report);

    for (name, layer) in tracer.layers_under(pass_id) {
        if name.starts_with("bench.") {
            report.layer(&format!("{name}.s"), Value::Real(layer.self_s));
        }
    }
    let layers = walk::Layers {
        times: tracer.layers_under(walk_id),
        drain_in_simulate: w.cycle,
    };
    crate::report_walk(report, &layers, &counts);
    let threads = capstan_par::thread_count(usize::MAX) as f64;
    report.layer(
        "par.cpu_util",
        Value::Real(untraced.cpu_s / (untraced.wall_s * threads)),
    );
    report.layer("sim.cycles", Value::Count(untraced.cycles()));
    report.layer(
        "trace.overhead_s",
        Value::Real(traced.wall_s - untraced.wall_s),
    );
    crate::finish_trace(report, args, &tracer, &layers);
}

/// The walk for a suite workload: every Table 6 pair under the analytic
/// design point on `paper-suite`; on `mem-cycle`, the PR-Edge anchors
/// the memory studies build plus their four scatter-traffic shapes.
fn walk_plan(w: &Workload) -> Plan {
    if w.cycle {
        use capstan_bench::AppId;
        use capstan_tensor::gen::Dataset;
        Plan {
            suite: w.suite,
            pairs: vec![
                (AppId::PrEdge, Dataset::WebStanford),
                (AppId::PrEdge, Dataset::UsRoads),
            ],
            pair_cfg: walk::anchor_config(),
            shapes: walk::memory_study_shapes(
                w.suite.la_scale,
                &["atomics", "channels", "recorded", "multitenant"],
            ),
        }
    } else {
        Plan {
            suite: w.suite,
            pairs: walk::all_pairs(),
            pair_cfg: walk::config(MemTiming::Analytic),
            shapes: Vec::new(),
        }
    }
}

/// Runs one pass at `CAPSTAN_THREADS=1` in a child process and compares
/// every experiment's digest and cycles with the multi-thread pass.
fn check_single_thread(args: &Args, multi: &Pass, report: &mut Report) {
    let single = match child_pass(args, Some("1")) {
        Ok(p) => p,
        Err(e) => return report.problem(format!("single-thread pass: {e}")),
    };
    let key = |p: &Pass| -> Vec<(&str, u64, Option<u64>)> {
        p.runs
            .iter()
            .map(|r| (r.name, r.cycles, r.digest))
            .collect()
    };
    if key(&single) != key(multi) {
        report.problem(format!(
            "CAPSTAN_THREADS=1 and {} threads disagree on cycles or reports",
            capstan_par::thread_count(usize::MAX)
        ));
    }
}
