//! The `serve-zipf` workload: a closed loop of two client threads
//! submitting a seeded Zipf draw of cheap experiment requests to a fresh
//! in-process `capstan_serve` server (one shard) whose workers are the
//! `experiments` binary.

use crate::expected::{self, Expected};
use crate::suites::{seeded_factors, suite_of};
use crate::trace::Tracer;
use crate::util::{cpu_seconds, digest, median, percentile, secs, Rng, Value};
use crate::walk::{self, Plan};
use crate::{Args, Report};
use capstan_core::config::{MemAddressing, MemTiming, PlanMode};
use capstan_serve::client;
use capstan_serve::key::RunSpec;
use capstan_serve::server::{Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Cheap experiments (each well under a second of simulation at these
/// scales) the requests name.
const EXPERIMENTS: [&str; 8] = [
    "table5",
    "table6",
    "table7",
    "table8",
    "fig4",
    "table13-atomics",
    "table13-channels",
    "table-multitenant",
];

/// Seed-0 scale specs `(la, graph, spmspm, conv)`.
const SCALES: [[f64; 4]; 3] = [
    [0.04, 0.015, 0.5, 0.1],
    [0.02, 0.008, 0.25, 0.05],
    [0.06, 0.02, 0.5, 0.1],
];

const MEMS: [MemTiming; 2] = [MemTiming::Analytic, MemTiming::CycleLevel];

/// Requests per pass: at least ten latency samples lie beyond p99.
const REQUESTS: usize = 1000;
const CLIENTS: usize = 2;
/// Zipf exponent over the 48 fixed-configuration keys.
const ZIPF_S: f64 = 1.0;
/// Longest wait for one reply; a stalled server fails the request
/// instead of hanging the run.
const REPLY_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);
/// Share of requests sent as `plan=auto` with dataset statistics.
const AUTO_SHARE: f64 = 0.1;

/// One request: its spec and a stable label naming its logical key.
struct Request {
    label: String,
    spec: RunSpec,
}

pub struct Workload {
    requests: Vec<Request>,
    worker_exe: PathBuf,
    work_root: PathBuf,
    la_scale: f64,
}

/// The scale spec strings for this seed.
fn scale_specs(seed: u64) -> Vec<(String, f64)> {
    SCALES
        .iter()
        .enumerate()
        .map(|(i, &base)| {
            let f = seeded_factors(base, seed, 1 + i as u64);
            (
                format!("la={},graph={},spmspm={},conv={}", f[0], f[1], f[2], f[3]),
                f[0],
            )
        })
        .collect()
}

/// Generates the request sequence from the seed: a seeded permutation
/// ranks the 48 `(experiment, scale, memory mode)` keys, each request
/// draws a rank from a Zipf distribution, and about a tenth of requests
/// become `plan=auto` submissions carrying the statistics of the scale's
/// anchor matrix instead of a memory mode.
pub fn generate(seed: u64, args: &Args) -> Result<Workload, String> {
    let worker_exe = args
        .worker_exe
        .clone()
        .ok_or("serve-zipf needs --worker-exe (the experiments binary)")?;
    if !worker_exe.is_file() {
        return Err(format!("worker binary {} not found", worker_exe.display()));
    }
    let scales = scale_specs(seed);
    let stats: Vec<String> = scales
        .iter()
        .map(|(_, la)| {
            let m = capstan_tensor::gen::Dataset::Ckt11752.generate_scaled(*la);
            capstan_tensor::stats::TensorStats::compute(&m).encode()
        })
        .collect();
    let mut keys: Vec<(usize, usize, usize)> = Vec::new();
    for e in 0..EXPERIMENTS.len() {
        for s in 0..scales.len() {
            for m in 0..MEMS.len() {
                keys.push((e, s, m));
            }
        }
    }
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x21FF);
    for i in (1..keys.len()).rev() {
        keys.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let weights: Vec<f64> = (0..keys.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let requests = (0..REQUESTS)
        .map(|_| {
            let mut u = rng.unit() * total;
            let rank = weights
                .iter()
                .position(|&w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(keys.len() - 1);
            let (e, s, m) = keys[rank];
            let mut spec = RunSpec::new(EXPERIMENTS[e]);
            spec.scale = scales[s].0.clone();
            let auto = rng.unit() < AUTO_SHARE;
            let label = if auto {
                spec.plan = PlanMode::Auto;
                spec.stats = Some(stats[s].clone());
                format!("{}@s{s}:auto", EXPERIMENTS[e])
            } else {
                spec.mem = MEMS[m];
                spec.addresses = MemAddressing::Synthetic;
                format!("{}@s{s}:{}", EXPERIMENTS[e], MEMS[m].tag())
            };
            Request { label, spec }
        })
        .collect();
    Ok(Workload {
        requests,
        worker_exe,
        work_root: Path::new(crate::OUT_DIR).join(format!("serve-{}", std::process::id())),
        la_scale: scales[0].1,
    })
}

/// A running server plus its scratch directory.
struct Running {
    handle: ServerHandle,
    addr: String,
    dir: PathBuf,
}

/// The program-side set-up `setup_s` times: bind a fresh server, start
/// it, and wait until it answers `PING`.
fn start(worker_exe: &Path, dir: PathBuf) -> Result<Running, String> {
    let config = ServerConfig::new(worker_exe.to_path_buf(), dir.clone());
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.addr.to_string();
    let t = Instant::now();
    while client::ping(&addr).is_err() {
        if t.elapsed().as_secs() > 10 {
            return Err("server never answered PING".to_string());
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Ok(Running { handle, addr, dir })
}

/// Probe-mode child: start a server, report ready once it answers
/// `PING`, then stop it. It never receives work, so it never spawns a
/// worker.
pub fn probe_setup() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = Path::new(crate::OUT_DIR).join(format!("serve-probe-{}", std::process::id()));
    let server = start(&exe, dir)?;
    println!("perfbench-ready");
    stop(server, &mut Report::default());
    Ok(())
}

fn stop(r: Running, report: &mut Report) {
    if let Err(e) = client::shutdown(&r.addr) {
        report.problem(format!("shutdown: {e}"));
    }
    if let Err(e) = r.handle.join() {
        report.problem(format!("server exited with {e}"));
    }
    let _ = std::fs::remove_dir_all(&r.dir);
}

/// One reply as the client saw it.
struct Reply {
    request: usize,
    start: Instant,
    end: Instant,
    outcome: Result<(String, capstan_bench::gate::BenchEntry, String), String>,
}

struct Pass {
    wall_s: f64,
    cpu_s: f64,
    replies: Vec<Reply>,
    stats: BTreeMap<String, u64>,
}

/// Runs the request sequence against a fresh server with the closed
/// loop: each client thread sends its next request only after the
/// previous reply arrived.
fn run_pass(w: &Workload, n: usize, report: &mut Report) -> Option<Pass> {
    let server = match start(&w.worker_exe, w.work_root.join(format!("server{n}"))) {
        Ok(s) => s,
        Err(e) => {
            report.problem(format!("server set-up failed: {e}"));
            return None;
        }
    };
    let cursor = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::with_capacity(w.requests.len()));
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = w.requests.get(i) else { break };
                    let start = Instant::now();
                    let result = client::submit(&server.addr, &req.spec, Some(REPLY_TIMEOUT));
                    let end = Instant::now();
                    local.push(Reply {
                        request: i,
                        start,
                        end,
                        outcome: result
                            .map(|r| (r.cache, r.row, r.report))
                            .map_err(|e| e.to_string()),
                    });
                }
                replies.lock().expect("reply list").extend(local);
            });
        }
    });
    let wall_s = secs(t0);
    let stats = client::stats(&server.addr)
        .map(|v| v.into_iter().collect())
        .unwrap_or_else(|e| {
            report.problem(format!("STATS: {e}"));
            BTreeMap::new()
        });
    // After the join every worker process has been waited for, so its
    // CPU time is in this process's children total.
    stop(server, report);
    let cpu_s = cpu_seconds() - cpu0;
    let mut replies = replies.into_inner().expect("reply list");
    replies.sort_by_key(|r| r.request);
    Some(Pass {
        wall_s,
        cpu_s,
        replies,
        stats,
    })
}

/// Every reply for one key must carry identical report bytes, whether
/// it was a `miss`, `join` or `hit`, across every pass; at seed 0 each
/// key's report must match the stored digest. `ERR` replies fail.
fn check(w: &Workload, args: &Args, passes: &[&Pass], report: &mut Report) {
    let mut first: BTreeMap<&str, (&str, u64)> = BTreeMap::new();
    for pass in passes {
        for r in &pass.replies {
            report.attempted += 1;
            let label = w.requests[r.request].label.as_str();
            match &r.outcome {
                Err(e) => report.fail(format!("{label}: {e}")),
                Ok((_, row, text)) => match first.get(label) {
                    None => {
                        first.insert(label, (text.as_str(), row.simulated_cycles));
                    }
                    Some(&(t, c)) if t == text && c == row.simulated_cycles => {}
                    Some(_) => report.fail(format!("{label}: reply bytes differ")),
                },
            }
        }
    }
    if args.seed != 0 {
        return;
    }
    let table = Expected::load(Path::new("perfbench/expected.txt")).unwrap_or_else(|e| {
        report.problem(e);
        Expected::default()
    });
    let mut observed = String::new();
    for (label, (text, cycles)) in &first {
        let d = digest(text);
        observed.push_str(&expected::line("serve-zipf", label, d, *cycles));
        if let Err(e) = table.check("serve-zipf", label, d, *cycles) {
            report.fail(e);
        }
    }
    let path = Path::new(crate::OUT_DIR).join("observed-serve-zipf.txt");
    if let Err(e) = std::fs::write(&path, observed) {
        report.problem(format!("cannot write {}: {e}", path.display()));
    }
}

fn latencies_ms(pass: &Pass, tag: Option<&str>) -> Vec<f64> {
    pass.replies
        .iter()
        .filter(|r| match (&r.outcome, tag) {
            (Ok((cache, _, _)), Some(t)) => cache == t,
            (_, None) => true,
            _ => false,
        })
        .map(|r| (r.end - r.start).as_secs_f64() * 1e3)
        .collect()
}

/// The untraced run: set-up timed from process start several times
/// (see `setup_seconds`), then whole passes
/// (fresh server, the full request sequence) while another fits in
/// `--seconds`.
pub fn run(w: &Workload, args: &Args, report: &mut Report) {
    let mut setup = crate::setup_seconds(args);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || crate::another_pass_fits(t0, passes.len(), args.seconds) {
        match run_pass(w, passes.len(), report) {
            Some(p) => {
                eprintln!(
                    "perfbench: pass {}: wall {:.3} s, cpu {:.2} s, {:?}",
                    passes.len(),
                    p.wall_s,
                    p.cpu_s,
                    p.stats
                );
                passes.push(p)
            }
            None => break,
        }
    }
    setup.extend(crate::setup_seconds(args));
    let _ = std::fs::remove_dir_all(&w.work_root);
    if passes.is_empty() {
        return;
    }
    check(w, args, &passes.iter().collect::<Vec<_>>(), report);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let lat: Vec<f64> = passes.iter().flat_map(|p| latencies_ms(p, None)).collect();
    let wall_s = median(&walls);
    crate::report_setup(report, &setup);
    report.metric("wall_s", "s", Value::Real(wall_s));
    report.metric(
        "cpu_s",
        "s",
        Value::Real(median(&passes.iter().map(|p| p.cpu_s).collect::<Vec<_>>())),
    );
    report.metric(
        "peak_rss_mb",
        "MiB",
        Value::Real(crate::util::peak_rss_mib()),
    );
    report.metric("req_per_s", "1/s", Value::Real(REQUESTS as f64 / wall_s));
    report.metric("p50_ms", "ms", Value::Real(percentile(&lat, 0.5)));
    report.metric("p99_ms", "ms", Value::Real(percentile(&lat, 0.99)));
}

/// The traced run: an untraced and a traced pass (one `serve.submit`
/// span per request, tagged with the request id and cache outcome), the
/// walk twice, and the server's counters.
pub fn run_traced(w: &Workload, args: &Args, report: &mut Report) {
    let Some(untraced) = run_pass(w, 0, report) else {
        return;
    };
    let mut tracer = Tracer::new();
    let pass_id = tracer.enter("pass");
    let traced = run_pass(w, 1, report);
    if let Some(p) = &traced {
        for r in &p.replies {
            let tag = match &r.outcome {
                Ok((cache, _, _)) => cache.as_str(),
                Err(_) => "error",
            };
            tracer.record(
                &format!("serve.submit.{tag}"),
                tracer.ns_of(r.start),
                tracer.ns_of(r.end),
                Some(r.request as u64),
            );
        }
    }
    tracer.exit(pass_id);
    let _ = std::fs::remove_dir_all(&w.work_root);
    let Some(traced) = traced else { return };
    check(w, args, &[&untraced, &traced], report);
    let stat = |p: &Pass, k: &str| p.stats.get(k).copied().unwrap_or(0);
    if stat(&untraced, "misses") != stat(&traced, "misses") {
        report.problem("serve.misses differs between two passes".to_string());
    }

    let plan = Plan {
        suite: suite_of([w.la_scale, SCALES[0][1], SCALES[0][2], SCALES[0][3]]),
        pairs: vec![(
            capstan_bench::AppId::PrEdge,
            capstan_tensor::gen::Dataset::WebStanford,
        )],
        pair_cfg: walk::anchor_config(),
        shapes: walk::memory_study_shapes(w.la_scale, &["atomics", "channels", "multitenant"]),
    };
    let walk_id = tracer.enter("walk");
    let counts = walk::run(&plan, &mut tracer);
    tracer.exit(walk_id);
    if walk::run(&plan, &mut Tracer::new()) != counts {
        report.problem("walk counts differ between two walks".to_string());
    }

    // Per-experiment wall time as the workers measured it, once per
    // distinct key, and the simulated cycles those runs produced.
    let mut rows: BTreeMap<&str, (&str, f64, u64)> = BTreeMap::new();
    for r in &traced.replies {
        if let Ok((_, row, _)) = &r.outcome {
            let req = &w.requests[r.request];
            rows.insert(
                req.label.as_str(),
                (
                    req.spec.experiment.as_str(),
                    row.wall_seconds,
                    row.simulated_cycles,
                ),
            );
        }
    }
    let mut per_exp: BTreeMap<&str, f64> = BTreeMap::new();
    for (exp, wall, _) in rows.values() {
        *per_exp.entry(exp).or_default() += wall;
    }
    for (exp, wall) in per_exp {
        report.layer(&format!("bench.{exp}.s"), Value::Real(wall));
    }
    report.layer(
        "sim.cycles",
        Value::Count(rows.values().map(|(_, _, c)| c).sum()),
    );
    let layers = walk::Layers {
        times: tracer.layers_under(walk_id),
        drain_in_simulate: true,
    };
    crate::report_walk(report, &layers, &counts);

    let hits = latencies_ms(&traced, Some("hit"));
    let misses = latencies_ms(&traced, Some("miss"));
    report.layer("serve.hit.p50_ms", Value::Real(percentile(&hits, 0.5)));
    report.layer("serve.miss.p50_ms", Value::Real(percentile(&misses, 0.5)));
    for key in [
        "misses",
        "cache_hits",
        "coalesced",
        "batches",
        "worker_spawns",
        "errors",
        "plans_computed",
        "plan_cache_hits",
    ] {
        report.layer(&format!("serve.{key}"), Value::Count(stat(&traced, key)));
    }
    let submits = stat(&traced, "submits").max(1);
    report.layer(
        "serve.hit_ratio",
        Value::Real(stat(&traced, "cache_hits") as f64 / submits as f64),
    );
    let threads = capstan_par::thread_count(usize::MAX) as f64;
    report.layer(
        "par.cpu_util",
        Value::Real(untraced.cpu_s / (untraced.wall_s * threads)),
    );
    report.layer(
        "trace.overhead_s",
        Value::Real(traced.wall_s - untraced.wall_s),
    );
    crate::finish_trace(report, args, &tracer, &layers);
}
