//! Host-time benchmark of the Capstan simulator: one named workload per
//! process, end-to-end metrics from an untraced run, per-layer metrics
//! from a traced one. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload paper-suite|mem-cycle|serve-zipf --seed N --seconds S
//!           --trace 0|1 [--worker-exe PATH]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `perfbench/run.py` builds the
//! program and this benchmark from source and runs it.

mod expected;
mod serve;
mod suites;
mod trace;
mod util;
mod walk;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::Tracer;
use util::{json_str, Value};

const USAGE: &str = "usage: perfbench --workload paper-suite|mem-cycle|serve-zipf --seed N \
--seconds S --trace 0|1 [--worker-exe PATH]";

/// Where runs write their span files, seed-0 observations and serve
/// scratch directories (relative to the repository root).
pub const OUT_DIR: &str = "perfbench/out";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Run,
    /// Child process: do the workload's program-side set-up (scale and
    /// process defaults on the suites; a server answering `PING` on
    /// `serve-zipf`), print a ready line.
    ProbeSetup,
    /// Child process: one suite pass, printing each experiment's wall
    /// time, cycles and digest, then the pass's wall, CPU and peak RSS.
    Pass,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub worker_exe: Option<PathBuf>,
    mode: Mode,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        worker_exe: None,
        mode: Mode::Run,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("bad --seconds")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--worker-exe" => args.worker_exe = Some(PathBuf::from(value()?)),
            "--probe-setup" => args.mode = Mode::ProbeSetup,
            "--pass" => args.mode = Mode::Pass,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !["paper-suite", "mem-cycle", "serve-zipf"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// What one run found: operations attempted and failed, problems that
/// make the run incorrect, and the metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    end_to_end: Vec<(String, &'static str, Value)>,
    layers: BTreeMap<String, Value>,
}

impl Report {
    /// A failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// A check that failed outside any one operation.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, value: Value) {
        self.end_to_end.push((name.to_string(), unit, value));
    }

    pub fn layer(&mut self, name: &str, value: Value) {
        self.layers.insert(name.to_string(), value);
    }
}

/// Every end-to-end metric name, in output order.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "wall_s",
    "cpu_s",
    "peak_rss_mb",
    "req_per_s",
    "p50_ms",
    "p99_ms",
];

/// Every per-layer metric with its unit, in output order. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = capstan_bench::experiments::ALL_NAMES
        .iter()
        .map(|e| (format!("bench.{e}.s"), "s"))
        .collect();
    let fixed: &[(&str, &'static str)] = &[
        ("tensor.build.s", "s"),
        ("tensor.build.calls", "count"),
        ("tensor.nnz", "count"),
        ("tensor.build.share", "ratio"),
        ("record.s", "s"),
        ("record.calls", "count"),
        ("record.tiles", "count"),
        ("record.sram_samples", "count"),
        ("record.shuffle_samples", "count"),
        ("record.share", "ratio"),
        ("perf.simulate.s", "s"),
        ("perf.simulate.calls", "count"),
        ("perf.model.share", "ratio"),
        ("spmu.replay.s", "s"),
        ("spmu.replay.calls", "count"),
        ("spmu.replay.vectors", "count"),
        ("spmu.ns_per_vector", "ns"),
        ("spmu.replay.share", "ratio"),
        ("shuffle.route.s", "s"),
        ("shuffle.route.vectors", "count"),
        ("shuffle.route.share", "ratio"),
        ("memdrv.drain.s", "s"),
        ("memdrv.drain.cycles", "count"),
        ("memdrv.ag_fetches", "count"),
        ("memdrv.ns_per_cycle", "ns"),
        ("memdrv.drain.share", "ratio"),
        ("par.cpu_util", "ratio"),
        ("serve.hit.p50_ms", "ms"),
        ("serve.miss.p50_ms", "ms"),
        ("serve.misses", "count"),
        ("serve.cache_hits", "count"),
        ("serve.coalesced", "count"),
        ("serve.batches", "count"),
        ("serve.worker_spawns", "count"),
        ("serve.errors", "count"),
        ("serve.hit_ratio", "ratio"),
        ("serve.plans_computed", "count"),
        ("serve.plan_cache_hits", "count"),
        ("sim.cycles", "count"),
        ("trace.overhead_s", "s"),
        ("walk.s", "s"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// Whether one more pass, as long as the average so far, would end at
/// most half a pass after `seconds` from `t0`. So a run measures within
/// half a pass of `--seconds`, and the number of passes does not flip
/// when the pass time sits near a whole fraction of `--seconds`.
pub fn another_pass_fits(t0: Instant, passes: usize, seconds: f64) -> bool {
    pass_fits(util::secs(t0), passes, seconds)
}

fn pass_fits(elapsed: f64, passes: usize, seconds: f64) -> bool {
    elapsed + 0.5 * elapsed / passes.max(1) as f64 <= seconds
}

/// Set-ups timed before a run's passes and again after them; `setup_s`
/// is the median of both groups, so it spans the run's drift in host
/// speed rather than one instant.
const SETUP_PROBES: usize = 21;

/// Times `SETUP_PROBES` set-ups: each from spawning this binary in probe
/// mode until it reports that work can begin (see [`Mode::ProbeSetup`]).
/// A failed probe reads NaN, which makes the run incorrect.
pub fn setup_seconds(args: &Args) -> Vec<f64> {
    let probe = || -> Option<f64> {
        let t = Instant::now();
        let mut child = Command::new(std::env::current_exe().ok()?)
            .args(["--probe-setup", "--workload", &args.workload, "--seed"])
            .arg(args.seed.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .ok()?;
        let mut line = String::new();
        let _ = BufReader::new(child.stdout.take()?).read_line(&mut line);
        let elapsed = util::secs(t);
        let ok = child.wait().ok()?.success() && line.trim() == "perfbench-ready";
        ok.then_some(elapsed)
    };
    (0..SETUP_PROBES)
        .map(|_| probe().unwrap_or(f64::NAN))
        .collect()
}

/// Reports `setup_s`, the median of every probe of the run.
pub fn report_setup(report: &mut Report, times: &[f64]) {
    if times.iter().any(|t| !t.is_finite()) {
        report.problem("a set-up probe failed".to_string());
    }
    report.metric("setup_s", "s", Value::Real(util::median(times)));
}

/// Per-layer metrics from one walk.
pub fn report_walk(report: &mut Report, layers: &walk::Layers, c: &walk::Counts) {
    let real = |x: f64| Value::Real(x);
    let spmu_s = layers.self_s("spmu.replay");
    let drain_s = layers.self_s("memdrv.drain");
    report.layer("tensor.build.s", real(layers.self_s("tensor.build")));
    report.layer("tensor.build.calls", Value::Count(c.tensor_calls));
    report.layer("tensor.nnz", Value::Count(c.tensor_nnz));
    report.layer("record.s", real(layers.self_s("record")));
    report.layer("record.calls", Value::Count(c.record_calls));
    report.layer("record.tiles", Value::Count(c.record_tiles));
    report.layer("record.sram_samples", Value::Count(c.record_sram_samples));
    report.layer(
        "record.shuffle_samples",
        Value::Count(c.record_shuffle_samples),
    );
    report.layer("perf.simulate.s", real(layers.self_s("perf.simulate")));
    report.layer("perf.simulate.calls", Value::Count(c.simulate_calls));
    report.layer("spmu.replay.s", real(spmu_s));
    report.layer("spmu.replay.calls", Value::Count(c.spmu_calls));
    report.layer("spmu.replay.vectors", Value::Count(c.spmu_vectors));
    report.layer(
        "spmu.ns_per_vector",
        real(spmu_s * 1e9 / c.spmu_vectors.max(1) as f64),
    );
    report.layer("shuffle.route.s", real(layers.self_s("shuffle.route")));
    report.layer("shuffle.route.vectors", Value::Count(c.route_vectors));
    report.layer("memdrv.drain.s", real(drain_s));
    report.layer("memdrv.drain.cycles", Value::Count(c.drain_cycles));
    report.layer("memdrv.ag_fetches", Value::Count(c.ag_fetches));
    report.layer(
        "memdrv.ns_per_cycle",
        real(drain_s * 1e9 / c.drain_cycles.max(1) as f64),
    );
    for (name, _, share) in layers.table() {
        if let Some(s) = share {
            report.layer(&format!("{name}.share"), real(s));
        }
    }
    report.layer(
        "walk.s",
        real(layers.table().iter().map(|(_, s, _)| s).sum()),
    );
}

/// Writes the spans and prints the per-layer table to standard error.
pub fn finish_trace(report: &mut Report, args: &Args, tracer: &Tracer, layers: &walk::Layers) {
    let path = Path::new(OUT_DIR).join(format!("trace-{}-s{}.jsonl", args.workload, args.seed));
    if let Err(e) = tracer.write(&path) {
        report.problem(format!("cannot write {}: {e}", path.display()));
    }
    eprintln!(
        "perfbench: {} layer walk (spans in {})",
        args.workload,
        path.display()
    );
    eprintln!(
        "{:<16} {:>10} {:>7} {:>8}",
        "layer", "self s", "share", "spans"
    );
    for (name, self_s, share) in layers.table() {
        let spans = layers.times.get(name).map_or(0, |l| l.spans);
        let share = share.map_or("probe".to_string(), |s| format!("{:.1}%", s * 100.0));
        eprintln!("{name:<16} {self_s:>10.4} {share:>7} {spans:>8}");
    }
}

fn print_result(report: &Report, trace: bool) {
    let mut metrics = Vec::new();
    let mut correct = report.problems.is_empty() && report.attempted > 0;
    if trace {
        for (name, unit) in per_layer_metrics() {
            let zero = if unit == "count" {
                Value::Count(0)
            } else {
                Value::Real(0.0)
            };
            let v = report.layers.get(&name).copied().unwrap_or(zero);
            metrics.push((name, unit, v));
        }
    } else {
        for name in END_TO_END {
            match report.end_to_end.iter().find(|(n, _, _)| n == name) {
                Some((n, u, v)) => {
                    if let Value::Real(x) = v {
                        correct &= x.is_finite() && *x > 0.0;
                    }
                    metrics.push((n.clone(), *u, *v));
                }
                None => correct = false,
            }
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                v.json(),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    match args.mode {
        Mode::ProbeSetup => {
            if args.workload == "serve-zipf" {
                if let Err(e) = serve::probe_setup() {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            } else {
                std::hint::black_box(suites::setup(&args.workload, args.seed));
                println!("perfbench-ready");
            }
            return;
        }
        Mode::Pass => {
            let w = suites::setup(&args.workload, args.seed).expect("suite workload");
            suites::print_pass(&w);
            return;
        }
        Mode::Run => {}
    }
    let mut report = Report::default();
    if args.workload == "serve-zipf" {
        let w = serve::generate(args.seed, &args).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        });
        if args.trace {
            serve::run_traced(&w, &args, &mut report);
        } else {
            serve::run(&w, &args, &mut report);
        }
    } else {
        let w = suites::setup(&args.workload, args.seed).expect("suite workload");
        if args.trace {
            suites::run_traced(&w, &args, &mut report);
        } else {
            suites::run(&w, &args, &mut report);
        }
    }
    for p in &report.problems {
        eprintln!("perfbench: {p}");
    }
    print_result(&report, args.trace);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_naming_rules() {
        let names: Vec<String> = per_layer_metrics()
            .into_iter()
            .map(|(n, _)| n)
            .chain(END_TO_END.iter().map(|s| s.to_string()))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(seen.insert(n.clone()), "duplicate {n}");
        }
    }

    #[test]
    fn seeded_factors_stay_within_the_spread_and_at_most_one() {
        assert_eq!(
            suites::seeded_factors([1.0, 0.5, 0.2, 0.1], 0, 0),
            [1.0, 0.5, 0.2, 0.1]
        );
        let low = 1.0 - suites::SEED_SPREAD;
        for seed in 1..200 {
            let f = suites::seeded_factors([1.0, 0.5, 0.2, 0.1], seed, 0);
            assert_ne!(f, [1.0, 0.5, 0.2, 0.1], "seed {seed} changes no input");
            for (x, b) in f.iter().zip([1.0, 0.5, 0.2, 0.1]) {
                assert!(*x <= b && *x >= low * b && *x <= 1.0, "{seed}: {x} vs {b}");
            }
        }
    }

    #[test]
    fn passes_continue_while_the_next_would_end_within_half_a_pass() {
        // 24 s passes in a 50 s run: the second ends at 48 s, a third
        // would end at 72 s.
        assert!(pass_fits(24.0, 1, 50.0));
        assert!(!pass_fits(48.0, 2, 50.0));
        // 30 s passes: the second may end 10 s late.
        assert!(pass_fits(30.0, 1, 50.0));
        assert!(!pass_fits(40.0, 1, 50.0));
    }
}
