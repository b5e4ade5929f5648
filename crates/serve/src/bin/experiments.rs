//! Experiment driver: regenerates every table and figure of the paper,
//! records a machine-readable performance trajectory, and fronts the
//! simulation service (`--serve` / `--submit`).
//!
//! ```text
//! experiments [NAMES...] [--scale small|medium|large|la=F,graph=F,spmspm=F,conv=F]
//!             [--mem analytic|cycle]
//!             [--mem-addresses synthetic|recorded] [--mem-channels N]
//!             [--mem-tenants N] [--plan fixed|auto]
//!             [--bench-out PATH] [--bench-base PATH] [--no-bench-out]
//!             [--resume DIR]
//! experiments --serve ADDR [--serve-workdir DIR]
//! experiments [NAMES...] --submit ADDR [--scale ...] [--mem ...]
//!             [--mem-addresses ...] [--mem-channels N] [--mem-tenants N]
//!             [--plan fixed|auto]
//! experiments --serve-stats ADDR | --serve-shutdown ADDR
//! ```
//!
//! `NAMES` are `table4..table13`, `table13-atomics`, `table13-channels`,
//! `table13-recorded`, `fig4..fig7`, `ablations`, `extensions`,
//! `planner`, or `all` (the default). Repeated names are deduplicated (first
//! occurrence wins), so `experiments fig7 fig7` cannot write duplicate
//! bench rows that would later confuse `bench-gate`'s record matching.
//! Unknown `--flags` and flags missing their value are rejected with a
//! usage message and exit code 2 — they are never misread as experiment
//! names. Full-suite (`all`) runs write `BENCH_core.json` — wall
//! seconds, simulated cycles, and simulated cycles per wall second for
//! every experiment — so successive PRs have a comparable perf
//! baseline. Subset runs do NOT write it by default (a partial file
//! would silently replace the committed full-suite baseline); pass
//! `--bench-out PATH` to record one anyway, or `--no-bench-out` to
//! suppress the full-suite write.
//!
//! `--scale` accepts the named presets or a custom
//! `la=F,graph=F,spmspm=F,conv=F` factor spec (see
//! `capstan_bench::Suite::parse`); non-finite factors and factors outside
//! `(0, 1]` are rejected up front.
//!
//! `--mem cycle` switches every constructed configuration to the
//! cycle-level AG-backed memory mode (`MemTiming::CycleLevel`) and tags
//! each bench-record row with a `+cycle` suffix: cycle-level simulated
//! cycles intentionally differ from analytic ones, so the two modes form
//! separate record groups in the baseline and the gate compares like
//! with like. `--mem-addresses recorded` switches the cycle-level
//! mode's scattered addresses from the synthetic uniform streams to the
//! recorder's real sampled address vectors
//! (`MemAddressing::Recorded`) and appends a `+rec` suffix.
//! `--mem-channels N` sets the cycle-level mode's region-channel count
//! (per-AG channels behind a crossbar; default 1, at most 1024) and,
//! when N > 1, appends a `+chN` suffix for the same reason — a
//! different topology simulates a different cycle count. `--mem-tenants N` sets the
//! cycle-level mode's memory-tenant count (tiles attributed round-robin
//! to N tenants whose traffic interleaves through the driver; the
//! default is 1) and, when N > 1, appends a `+mtN` suffix. The `+rec`,
//! `+chN`, and `+mtN` suffixes
//! apply regardless of `--mem`, because some experiments (e.g.
//! `table13-atomics`) exercise the cycle-level driver internally even
//! under the analytic default and therefore pick up the overrides too —
//! an unlabeled row would silently diverge from the committed baseline.
//! (`table13-channels`, `table13-recorded`, and `table-multitenant` are
//! the exceptions: they set their channel counts / addressing / tenant
//! mixes per configuration and ignore the process defaults.) The suffix rules live in one place,
//! `capstan_core::config::mem_record_suffix`, shared with the serving
//! layer, so the CLI, the server, and the journal headers can never
//! disagree on a row's record group. The run-configuration flags are
//! parsed by the serving layer's codec (`capstan_serve::key::RunSpec`),
//! so every value is checked against the same bounds, with the same
//! message, as a `SUBMIT` field. `--plan auto` routes the
//! format-generic experiment slots through the density-driven planner
//! (`capstan_plan`): each matrix's statistics pick its sparse format
//! via `TensorStats::suggest`, and every row gains a `+plan` suffix —
//! planned rows are their own record group because a re-planned format
//! legitimately simulates a different cycle count. In `--submit` mode
//! `--plan auto` instead sends dataset statistics to the server and
//! lets *it* plan the memory configuration (so `--mem`/
//! `--mem-addresses`/`--mem-channels` are rejected alongside it).
//! `--bench-base PATH` seeds the written record
//! with an existing baseline's rows (same-name rows replaced, via
//! `capstan_bench::gate::merge` — duplicate row names or a scale
//! conflict on either side are loud errors, never a silently shadowed
//! row), which is
//! how the committed `BENCH_core.json` carries the analytic full suite
//! plus the cycle-mode, multi-channel, and recorded-address smoke
//! groups (the full recipe is in `crates/bench/README.md`):
//!
//! ```text
//! experiments all --scale small
//! experiments table13-atomics table13-channels table13-recorded fig7 --mem cycle \
//!     --scale small --bench-base BENCH_core.json --bench-out BENCH_core.json
//! experiments table13-atomics fig7 --mem cycle --mem-channels 4 --scale small \
//!     --bench-base BENCH_core.json --bench-out BENCH_core.json
//! experiments table13-recorded fig7 --mem cycle --mem-addresses recorded \
//!     --scale small --bench-base BENCH_core.json --bench-out BENCH_core.json
//! ```
//!
//! `--resume DIR` makes the run crash-safe and resumable: every
//! completed experiment is journaled in `DIR` (report text plus exact
//! wall/cycle numbers, all written atomically — see
//! `capstan_bench::journal`), and a re-run with the same `--resume DIR`
//! replays the journaled experiments byte-for-byte from the journal
//! instead of re-running them, then continues with the rest. The
//! resumed invocation's stdout and its `--bench-out` record are
//! byte-identical to an uninterrupted run's (the kill-and-resume CI job
//! enforces this). A journal written under different `--scale` /
//! suffix flags is rejected loudly.
//!
//! `--serve ADDR` turns the binary into the simulation service
//! (`capstan_serve`): it binds `ADDR`, prints
//! `capstan-serve listening on <addr>` once ready, and answers
//! newline-framed requests — batching compatible submissions, caching
//! results content-addressed, and running each batch group in one
//! worker subprocess (a plain `--resume DIR --no-bench-out` invocation
//! of this same binary, whose journal carries the results back).
//! `--submit ADDR` is the matching client: it submits the named
//! experiments (with the usual `--scale`/`--mem`/...
//! flags describing the *request*, not this process) and prints the
//! returned reports in command-line order — byte-identical to running
//! the same experiments directly. `--serve-stats` prints the server's
//! counters as `k=v` lines; `--serve-shutdown` stops it. Besides the
//! request counters (`submits`, `cache_hits`, `coalesced`, `misses`,
//! `batches`, `worker_spawns`, `worker_retries`, `rows_resumed`,
//! `errors`, `plans_computed`, `plan_cache_hits`) the counters are:
//!
//! * `connections`: accepted connections, this one included;
//! * `handlers_live`: connection handler threads still held, this one
//!   included (finished ones are reaped at each accept);
//! * `hit_le_250us`, `hit_le_1ms`, `hit_le_4ms`, `hit_le_16ms`,
//!   `hit_gt_16ms`: served cache hits by server-side latency, from
//!   accept to reply written;
//! * `miss_le_250us` … `miss_le_16ms`, `miss_le_64ms`, `miss_le_256ms`,
//!   `miss_le_1s`, `miss_gt_1s`: the same for replies that waited for a
//!   simulation (misses and coalesced joins).

use capstan_bench::experiments as exp;
use capstan_bench::gate::{self, BenchEntry, BenchRecord};
use capstan_core::config::{
    set_default_mem_addressing, set_default_mem_channels, set_default_mem_tenants,
    set_default_mem_timing, set_default_plan_mode, PlanMode,
};
use capstan_serve::client;
use capstan_serve::key::{RunSpec, FIELDS};
use capstan_serve::server::{Server, ServerConfig};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

const USAGE: &str = "usage: experiments [NAMES...] \
[--scale small|medium|large|la=F,graph=F,spmspm=F,conv=F] \
[--mem analytic|cycle] [--mem-addresses synthetic|recorded] [--mem-channels N] \
[--mem-tenants N] [--plan fixed|auto] [--bench-out PATH] \
[--bench-base PATH] [--no-bench-out] [--resume DIR]
       experiments --serve ADDR [--serve-workdir DIR]
       experiments [NAMES...] --submit ADDR [--scale SPEC] [--mem MODE] \
[--mem-addresses MODE] [--mem-channels N] [--mem-tenants N] [--plan fixed|auto]
       experiments --serve-stats ADDR
       experiments --serve-shutdown ADDR";

/// Parsed command line (process-default setters are applied by `main`,
/// not here, so parsing stays a pure, unit-testable function).
#[derive(Debug, Default, PartialEq)]
struct Cli {
    /// Experiment names in command-line order, `all` not yet expanded.
    which: Vec<String>,
    /// The run configuration (`--scale`, `--mem`, ... `--plan`; the
    /// last occurrence of a flag wins). Its experiment name is unused.
    spec: RunSpec,
    /// The `SUBMIT` keys of the run-configuration flags given.
    given: BTreeSet<&'static str>,
    bench_out: Option<String>,
    bench_base: Option<String>,
    no_bench_out: bool,
    /// `--resume` journal directory (crash-safe resumable runs).
    resume: Option<String>,
    /// `--serve` listen address (server mode).
    serve: Option<String>,
    /// `--submit` server address (client mode).
    submit: Option<String>,
    /// `--serve-stats` server address (print the counters and exit).
    serve_stats: Option<String>,
    /// `--serve-shutdown` server address.
    serve_shutdown: Option<String>,
    /// `--serve-workdir` scratch-directory override.
    serve_workdir: Option<String>,
}

/// Parses the argument list. Unknown `--flags`, flags missing their
/// value, unparsable values, and contradictory mode combinations are
/// all errors (the caller prints the usage and exits 2) — they must
/// never fall through as experiment names, where they would only
/// surface later as a confusing "unknown experiment" failure or a
/// panicking `.expect`.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        // A following flag is not a value: `--bench-out --no-bench-out`
        // must exit 2, not write a record to a file named
        // `--no-bench-out` while silently dropping the second flag.
        match it.next() {
            Some(v) if !v.starts_with('-') => Ok(v.to_string()),
            _ => Err(format!("{flag} needs a value")),
        }
    };
    while let Some(arg) = it.next() {
        if let Some(&(key, flag, _)) = FIELDS.iter().find(|(_, flag, _)| flag == arg) {
            cli.spec.set(key, &value(flag, &mut it)?)?;
            cli.given.insert(key);
            continue;
        }
        match arg.as_str() {
            "--bench-out" => cli.bench_out = Some(value("--bench-out", &mut it)?),
            "--bench-base" => cli.bench_base = Some(value("--bench-base", &mut it)?),
            "--no-bench-out" => cli.no_bench_out = true,
            "--resume" => cli.resume = Some(value("--resume", &mut it)?),
            "--serve" => cli.serve = Some(value("--serve", &mut it)?),
            "--submit" => cli.submit = Some(value("--submit", &mut it)?),
            "--serve-stats" => cli.serve_stats = Some(value("--serve-stats", &mut it)?),
            "--serve-shutdown" => cli.serve_shutdown = Some(value("--serve-shutdown", &mut it)?),
            "--serve-workdir" => cli.serve_workdir = Some(value("--serve-workdir", &mut it)?),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            name => cli.which.push(name.to_string()),
        }
    }
    check_modes(&cli)?;
    Ok(cli)
}

/// Rejects contradictory mode combinations: the four service verbs are
/// mutually exclusive, `--serve`/`--serve-stats`/`--serve-shutdown`
/// take no experiment selection at all (submissions carry their own
/// configuration), and `--submit` cannot combine with the
/// local-run-only recording/resume flags — the server owns journals
/// and records, and silently ignoring the flags would look like they
/// worked.
fn check_modes(cli: &Cli) -> Result<(), String> {
    let modes = [
        ("--serve", cli.serve.is_some()),
        ("--submit", cli.submit.is_some()),
        ("--serve-stats", cli.serve_stats.is_some()),
        ("--serve-shutdown", cli.serve_shutdown.is_some()),
    ];
    let picked: Vec<&str> = modes
        .iter()
        .filter(|(_, on)| *on)
        .map(|(n, _)| *n)
        .collect();
    if picked.len() > 1 {
        return Err(format!("{} are mutually exclusive", picked.join(" and ")));
    }
    if cli.serve_workdir.is_some() && cli.serve.is_none() {
        return Err("--serve-workdir only applies with --serve".to_string());
    }
    if cli.serve.is_some() || cli.serve_stats.is_some() || cli.serve_shutdown.is_some() {
        let mode = picked[0];
        if !cli.which.is_empty() {
            return Err(format!("{mode} takes no experiment names"));
        }
        if !cli.given.is_empty()
            || cli.bench_out.is_some()
            || cli.bench_base.is_some()
            || cli.no_bench_out
            || cli.resume.is_some()
        {
            return Err(format!(
                "{mode} takes no run flags (submissions carry their own configuration)"
            ));
        }
    }
    if cli.submit.is_some()
        && (cli.bench_out.is_some()
            || cli.bench_base.is_some()
            || cli.no_bench_out
            || cli.resume.is_some())
    {
        return Err(
            "--submit cannot combine with --bench-out/--bench-base/--no-bench-out/--resume \
             (the server owns recording and resume)"
                .to_string(),
        );
    }
    // A planned submission delegates the memory configuration to the
    // server, under the same rule the protocol enforces on the wire.
    // Direct (local) runs keep the combination: the server's own
    // workers are spawned with the materialized flags plus `--plan
    // auto` for the row suffix.
    if cli.submit.is_some() {
        cli.spec.check_planned(|key| cli.given.contains(key))?;
    }
    Ok(())
}

/// Expands `all` into the canonical experiment list and deduplicates,
/// keeping the first occurrence of each name — duplicate CLI names (or
/// `all` alongside an explicit member) would otherwise run twice and
/// write duplicate bench rows, which `bench-gate`'s name-keyed record
/// matching cannot disambiguate.
fn expand_and_dedup(which: &[String]) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    which
        .iter()
        .flat_map(|w| {
            if w == "all" {
                exp::ALL_NAMES.iter().map(|s| s.to_string()).collect()
            } else {
                vec![w.clone()]
            }
        })
        .filter(|name| seen.insert(name.clone()))
        .collect()
}

/// Exits 2 with a message — the shared fate of every harness-level
/// (non-experiment) failure: bad flags, a corrupt `--bench-base`, an
/// unusable `--resume` journal, an unbindable `--serve` address.
fn die(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
    std::process::exit(2);
}

fn bench_json(scale: &str, records: &[BenchEntry]) -> String {
    let mut json = String::new();
    let total_wall: f64 = records.iter().map(|r| r.wall_seconds).sum();
    let total_cycles: u64 = records.iter().map(|r| r.simulated_cycles).sum();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"{}\",", gate::SCHEMA);
    let _ = writeln!(json, "  \"scale\": \"{scale}\",");
    let _ = writeln!(
        json,
        "  \"threads\": {},",
        capstan_par::thread_count(usize::MAX)
    );
    let _ = writeln!(json, "  \"experiments\": [");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"wall_seconds\": {:.6}, \"simulated_cycles\": {}, \"cycles_per_second\": {:.1}}}{}",
            r.name,
            r.wall_seconds,
            r.simulated_cycles,
            r.cycles_per_second,
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"total_wall_seconds\": {total_wall:.6},");
    let _ = writeln!(json, "  \"total_simulated_cycles\": {total_cycles}");
    let _ = writeln!(json, "}}");
    json
}

/// `--serve`: bind, announce readiness on stdout, run until a shutdown
/// request.
fn run_server(cli: &Cli) -> ! {
    let addr = cli.serve.as_deref().expect("serve mode");
    // The server and its workers are the same binary — the service
    // needs no second executable, and a worker trivially agrees with
    // its server about report and record formats.
    let worker_exe = std::env::current_exe()
        .unwrap_or_else(|e| die(&format!("cannot locate the worker binary: {e}")));
    let work_dir = cli
        .serve_workdir
        .as_deref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("capstan-serve-{}", std::process::id()))
        });
    let config = ServerConfig::new(worker_exe, work_dir);
    let server =
        Server::bind(addr, config).unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
    let local = server
        .local_addr()
        .unwrap_or_else(|e| die(&format!("cannot read the bound address: {e}")));
    println!("capstan-serve listening on {local}");
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => std::process::exit(0),
        Err(e) => die(&format!("server failed: {e}")),
    }
}

/// `--submit`: send every named experiment to the server concurrently,
/// then print the returned reports in command-line order — the same
/// bytes a direct run of the same names would print.
fn run_submit(cli: &Cli) -> ! {
    let addr = cli.submit.as_deref().expect("submit mode");
    let mut which = cli.which.clone();
    if which.is_empty() {
        which.push("all".to_string());
    }
    // A planned submission ships dataset statistics instead of a memory
    // configuration (check_modes already rejected explicit --mem/...).
    // The suite's anchor linear-algebra dataset at the submitted scale
    // stands in for the sweep: its stats are a pure function of the
    // scale spec, so identical submissions plan — and content-address —
    // identically.
    let mut base = cli.spec.clone();
    if base.plan == PlanMode::Auto {
        let suite = base.suite().unwrap_or_else(|e| die(&e));
        let m = capstan_tensor::gen::Dataset::Ckt11752.generate_scaled(suite.la_scale);
        base.stats = Some(capstan_tensor::stats::TensorStats::compute(&m).encode());
    }
    let specs: Vec<RunSpec> = expand_and_dedup(&which)
        .into_iter()
        .map(|experiment| RunSpec {
            experiment,
            ..base.clone()
        })
        .collect();
    // Concurrent submissions land in the server's linger window and
    // batch into one sweep; reports still print in input order.
    let threads = specs.len().clamp(1, 16);
    let results =
        capstan_par::par_map_threads(&specs, threads, |spec| client::submit(addr, spec, None));
    let mut failed = false;
    for (spec, result) in specs.iter().zip(&results) {
        match result {
            Ok(reply) => print!("{}", reply.report),
            Err(e) => {
                eprintln!("experiments: submit {} failed: {e}", spec.experiment);
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("experiments: {err}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    // Service verbs run before any process-default setter is touched:
    // the serving process simulates nothing itself, and a submission's
    // configuration travels in the request.
    if cli.serve.is_some() {
        run_server(&cli);
    }
    if cli.submit.is_some() {
        run_submit(&cli);
    }
    if let Some(addr) = cli.serve_stats.as_deref() {
        match client::stats(addr) {
            Ok(counters) => {
                for (name, count) in counters {
                    println!("{name}={count}");
                }
                std::process::exit(0);
            }
            Err(e) => die(&format!("stats request to {addr} failed: {e}")),
        }
    }
    if let Some(addr) = cli.serve_shutdown.as_deref() {
        match client::shutdown(addr) {
            Ok(()) => std::process::exit(0),
            Err(e) => die(&format!("shutdown request to {addr} failed: {e}")),
        }
    }

    let spec = cli.spec;
    let suite = spec.suite().unwrap_or_else(|e| die(&e));
    set_default_mem_timing(spec.mem);
    set_default_mem_addressing(spec.addresses);
    set_default_mem_channels(spec.channels);
    set_default_mem_tenants(spec.tenants);
    set_default_plan_mode(spec.plan);
    let suffix = spec.suffix();
    let scale_name = spec.scale;

    let mut which = cli.which;
    if which.is_empty() {
        which.push("all".to_string());
    }
    // Only a full-suite *analytic, synthetic, single-channel* run
    // defaults to writing the baseline: a subset record — or a
    // cycle-mode, recorded-address, or multi-channel run, whose rows
    // are all renamed with a suffix — would silently replace the
    // committed full-suite file. Suffixed records must name their
    // output explicitly (and merge via --bench-base to keep every
    // group).
    let mut bench_out = cli.bench_out;
    if bench_out.is_none()
        && !cli.no_bench_out
        && suffix.is_empty()
        && which.iter().any(|w| w == "all")
    {
        bench_out = Some("BENCH_core.json".to_string());
    }
    if cli.no_bench_out {
        bench_out = None;
    }
    // Expand `all` so the perf record stays per-experiment, and drop
    // duplicate names so no two bench rows can share a name.
    let expanded = expand_and_dedup(&which);

    // Open the resume journal (if any) up front, before any experiment
    // runs: a corrupt or mismatched journal must fail the invocation
    // loudly, not after minutes of re-simulation.
    let mut journal = cli.resume.as_deref().map(|dir| {
        match capstan_bench::journal::Journal::open_or_create(
            std::path::Path::new(dir),
            &scale_name,
            &suffix,
        ) {
            Ok(j) => j,
            Err(e) => die(&e),
        }
    });

    let mut records: Vec<BenchEntry> = Vec::new();
    let mut failed = false;
    for name in &expanded {
        // A journaled experiment replays from the journal: its stored
        // report goes to stdout verbatim and its stored wall/cycle
        // numbers (exact f64 bits) become the bench row, so a resumed
        // sweep's output byte-diffs clean against an uninterrupted one.
        if let Some(entry) = journal.as_ref().and_then(|j| j.completed(name)) {
            let report = match journal.as_ref().expect("journal present").report_text(name) {
                Ok(text) => text,
                Err(e) => die(&e),
            };
            print!("{report}");
            records.push(BenchEntry::new(
                format!("{name}{suffix}"),
                entry.wall_seconds,
                entry.simulated_cycles,
            ));
            continue;
        }
        let cycles_before = capstan_sim::stats::simulated_cycles();
        let start = Instant::now();
        match exp::run_by_name(name, &suite) {
            Some(report) => {
                let wall_seconds = start.elapsed().as_secs_f64();
                let simulated_cycles = capstan_sim::stats::simulated_cycles() - cycles_before;
                if let Some(j) = journal.as_mut() {
                    let entry = capstan_bench::journal::JournalEntry {
                        wall_seconds,
                        simulated_cycles,
                    };
                    if let Err(e) = j.record(name, entry, &report) {
                        die(&e);
                    }
                }
                records.push(BenchEntry::new(
                    format!("{name}{suffix}"),
                    wall_seconds,
                    simulated_cycles,
                ));
            }
            None => {
                eprintln!("unknown experiment `{name}`");
                failed = true;
            }
        }
    }

    // Seed the record with an existing baseline's rows (same-name rows
    // replaced by this run), so one file can carry several record
    // groups — e.g. the analytic full suite plus the `+cycle` smoke.
    // A missing, truncated, or otherwise corrupt baseline — or one
    // whose rows collide with themselves (duplicate names) or with
    // this run's scale — is a loud harness error (exit 2): silently
    // merging against garbage would quietly discard or shadow
    // committed baseline groups.
    if let Some(base_path) = cli.bench_base {
        let text = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| die(&format!("could not read --bench-base {base_path}: {e}")));
        let base = gate::parse_record(&text)
            .unwrap_or_else(|e| die(&format!("malformed --bench-base {base_path}: {e}")));
        let fresh = BenchRecord {
            schema: gate::SCHEMA.to_string(),
            scale: scale_name.clone(),
            experiments: records,
        };
        records = gate::merge(&base, &fresh)
            .unwrap_or_else(|e| die(&format!("--bench-base {base_path}: {e}")))
            .experiments;
    }

    if let Some(path) = bench_out {
        let json = bench_json(&scale_name, &records);
        // Atomic write (temp file + rename): a crash mid-write must
        // never leave a truncated baseline for the gate to choke on.
        match capstan_sim::snapshot::atomic_write(std::path::Path::new(&path), json.as_bytes()) {
            Ok(()) => eprintln!("wrote {path} ({} experiments)", records.len()),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capstan_core::config::{MemAddressing, MemTiming};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn plain_names_and_flags_parse() {
        let cli = parse_args(&args(&[
            "fig7",
            "--scale",
            "small",
            "--mem",
            "cycle",
            "--mem-addresses",
            "recorded",
            "--mem-channels",
            "4",
            "--mem-tenants",
            "2",
            "--bench-out",
            "OUT.json",
        ]))
        .unwrap();
        assert_eq!(cli.which, vec!["fig7"]);
        assert_eq!(cli.spec.scale, "small");
        assert_eq!(cli.spec.mem, MemTiming::CycleLevel);
        assert_eq!(cli.spec.addresses, MemAddressing::Recorded);
        assert_eq!(cli.spec.channels, 4);
        assert_eq!(cli.spec.tenants, 2);
        assert_eq!(
            cli.given,
            BTreeSet::from(["scale", "mem", "addresses", "channels", "tenants"])
        );
        assert_eq!(cli.bench_out.as_deref(), Some("OUT.json"));
        assert!(!cli.no_bench_out);
    }

    #[test]
    fn custom_scale_specs_parse_and_bad_ones_are_rejected() {
        let cli = parse_args(&args(&[
            "fig7",
            "--scale",
            "la=0.04,graph=0.015,spmspm=0.5,conv=0.1",
        ]))
        .unwrap();
        assert_eq!(cli.spec.scale, "la=0.04,graph=0.015,spmspm=0.5,conv=0.1");
        assert!(parse_args(&args(&["--scale", "la=NaN,graph=1,spmspm=1,conv=1"])).is_err());
        assert!(parse_args(&args(&["--scale", "la=inf,graph=1,spmspm=1,conv=1"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_not_treated_as_experiments() {
        let err = parse_args(&args(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        // Single-dash typos are flags too, never experiment names.
        assert!(parse_args(&args(&["-mem", "cycle"])).is_err());
    }

    #[test]
    fn resume_flag_parses_and_needs_a_value() {
        let cli = parse_args(&args(&["fig7", "--resume", "jdir"])).unwrap();
        assert_eq!(cli.resume.as_deref(), Some("jdir"));
        let err = parse_args(&args(&["--resume", "--no-bench-out"])).unwrap_err();
        assert!(err.contains("--resume needs a value"), "{err}");
    }

    #[test]
    fn missing_flag_values_are_errors_not_panics() {
        for flag in [
            "--scale",
            "--mem",
            "--mem-addresses",
            "--mem-channels",
            "--mem-tenants",
            "--plan",
            "--bench-out",
            "--bench-base",
            "--resume",
            "--serve",
            "--submit",
            "--serve-stats",
            "--serve-shutdown",
            "--serve-workdir",
        ] {
            let err = parse_args(&args(&[flag])).unwrap_err();
            assert!(err.contains("needs a value"), "{flag}: {err}");
        }
    }

    #[test]
    fn a_following_flag_is_not_a_value() {
        // The classic silent misparse: the flag after a value-less flag
        // must not be swallowed as its value.
        let err = parse_args(&args(&["fig7", "--bench-out", "--no-bench-out"])).unwrap_err();
        assert!(err.contains("--bench-out needs a value"), "{err}");
        assert!(parse_args(&args(&["--mem", "--scale", "small"])).is_err());
    }

    #[test]
    fn bad_flag_values_are_errors() {
        assert!(parse_args(&args(&["--scale", "gigantic"])).is_err());
        assert!(parse_args(&args(&["--mem", "psychic"])).is_err());
        assert!(parse_args(&args(&["--mem-addresses", "vibes"])).is_err());
        assert!(parse_args(&args(&["--mem-channels", "0"])).is_err());
        assert!(parse_args(&args(&["--mem-channels", "many"])).is_err());
        assert!(parse_args(&args(&["--mem-tenants", "0"])).is_err());
        assert!(parse_args(&args(&["--mem-tenants", "99"])).is_err());
        // The channel bound is the wire's, with the wire's message: a
        // count past it is refused up front, not left to exhaust memory.
        let err = parse_args(&args(&["--mem-channels", "1025"])).unwrap_err();
        assert_eq!(err, "channels must be an integer in 1..=1024, got `1025`");
        let cli = parse_args(&args(&["--mem-channels", "1024"])).unwrap();
        assert_eq!(cli.spec.channels, 1024);
    }

    #[test]
    fn service_verbs_are_mutually_exclusive() {
        let err = parse_args(&args(&["--serve", "a:1", "--submit", "b:2"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err =
            parse_args(&args(&["--serve-stats", "a:1", "--serve-shutdown", "a:1"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn serve_takes_no_names_or_run_flags() {
        let err = parse_args(&args(&["fig7", "--serve", "a:1"])).unwrap_err();
        assert!(err.contains("takes no experiment names"), "{err}");
        let err = parse_args(&args(&["--serve", "a:1", "--mem", "cycle"])).unwrap_err();
        assert!(err.contains("takes no run flags"), "{err}");
        let err = parse_args(&args(&["--serve-stats", "a:1", "--scale", "small"])).unwrap_err();
        assert!(err.contains("takes no run flags"), "{err}");
        // The serve scratch directory only means something to a server.
        let err = parse_args(&args(&["fig7", "--serve-workdir", "w"])).unwrap_err();
        assert!(err.contains("only applies with --serve"), "{err}");
    }

    #[test]
    fn submit_rejects_local_recording_flags_but_keeps_run_config() {
        let cli = parse_args(&args(&[
            "fig7", "--submit", "a:1", "--scale", "small", "--mem", "cycle",
        ]))
        .unwrap();
        assert_eq!(cli.submit.as_deref(), Some("a:1"));
        assert_eq!(cli.spec.mem, MemTiming::CycleLevel);
        for bad in [
            vec!["--submit", "a:1", "--resume", "jdir"],
            vec!["--submit", "a:1", "--bench-out", "OUT.json"],
            vec!["--submit", "a:1", "--bench-base", "BENCH.json"],
            vec!["--submit", "a:1", "--no-bench-out"],
        ] {
            let err = parse_args(&args(&bad)).unwrap_err();
            assert!(err.contains("--submit cannot combine"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn repeated_flags_keep_last_one_wins() {
        let cli = parse_args(&args(&["--mem", "cycle", "--mem", "analytic"])).unwrap();
        assert_eq!(cli.spec.mem, MemTiming::Analytic);
    }

    #[test]
    fn plan_flag_parses_and_is_policed_per_mode() {
        let cli = parse_args(&args(&["planner", "--plan", "auto"])).unwrap();
        assert_eq!(cli.spec.plan, PlanMode::Auto);
        assert!(parse_args(&args(&["--plan", "maybe"])).is_err());
        assert!(parse_args(&args(&["--plan"])).is_err());
        // Direct runs may combine --plan auto with memory flags (the
        // server's own workers do exactly that); submissions may not.
        assert!(parse_args(&args(&["fig7", "--plan", "auto", "--mem-channels", "4"])).is_ok());
        for bad in [
            vec![
                "fig7", "--submit", "a:1", "--plan", "auto", "--mem", "cycle",
            ],
            vec![
                "fig7",
                "--submit",
                "a:1",
                "--plan",
                "auto",
                "--mem-addresses",
                "recorded",
            ],
            vec![
                "fig7",
                "--submit",
                "a:1",
                "--plan",
                "auto",
                "--mem-channels",
                "4",
            ],
        ] {
            let err = parse_args(&args(&bad)).unwrap_err();
            assert!(
                err.contains("plan=auto chooses the memory configuration"),
                "{bad:?}: {err}"
            );
        }
        // --plan fixed alongside memory flags stays fine in submit mode.
        assert!(parse_args(&args(&[
            "fig7", "--submit", "a:1", "--plan", "fixed", "--mem", "cycle"
        ]))
        .is_ok());
        // Serve verbs take no run flags; --plan is a run flag.
        let err = parse_args(&args(&["--serve", "a:1", "--plan", "auto"])).unwrap_err();
        assert!(err.contains("takes no run flags"), "{err}");
        let err = parse_args(&args(&["--serve-stats", "a:1", "--plan", "auto"])).unwrap_err();
        assert!(err.contains("takes no run flags"), "{err}");
    }

    #[test]
    fn worker_command_lines_parse_back_to_their_spec() {
        // Every combination of the configuration fields, as the server
        // materializes it (a planned spec carries its planned fields).
        let mut specs = vec![RunSpec::default()];
        for (key, values) in [
            (
                "scale",
                ["small", "la=0.04,graph=0.015,spmspm=0.5,conv=0.1"],
            ),
            ("mem", ["analytic", "cycle"]),
            ("addresses", ["synthetic", "recorded"]),
            ("channels", ["1", "4"]),
            ("tenants", ["1", "2"]),
            ("plan", ["fixed", "auto"]),
        ] {
            specs = specs
                .iter()
                .flat_map(|spec| {
                    values.map(|value| {
                        let mut spec = spec.clone();
                        spec.set(key, value).expect("an accepted value");
                        spec
                    })
                })
                .collect();
        }
        assert_eq!(specs.len(), 64);
        for spec in specs {
            let line: Vec<String> = capstan_serve::server::worker_args(
                &["table13-atomics", "fig7"],
                &spec,
                std::path::Path::new("journal"),
            )
            .into_iter()
            .map(|a| a.into_string().expect("utf-8 argument"))
            .collect();
            let cli = parse_args(&line).unwrap();
            assert_eq!(cli.spec, spec, "{line:?}");
            assert_eq!(cli.which, args(&["table13-atomics", "fig7"]));
            assert_eq!(cli.resume.as_deref(), Some("journal"));
            assert!(cli.no_bench_out && cli.bench_out.is_none());
        }
    }

    #[test]
    fn duplicate_experiment_names_are_deduplicated() {
        let out = expand_and_dedup(&args(&["fig7", "fig7", "table4", "fig7"]));
        assert_eq!(out, args(&["fig7", "table4"]));
    }

    #[test]
    fn all_expands_once_and_absorbs_duplicates() {
        let out = expand_and_dedup(&args(&["fig7", "all", "table4"]));
        // `fig7` keeps its first position; `all`'s expansion skips it;
        // `table4` (already expanded from `all`) is not repeated.
        assert_eq!(out.iter().filter(|n| *n == "fig7").count(), 1);
        assert_eq!(out.iter().filter(|n| *n == "table4").count(), 1);
        assert_eq!(out.len(), exp::ALL_NAMES.len());
        assert_eq!(out[0], "fig7");
        let mut sorted = out.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), out.len(), "no duplicates after dedup");
    }
}
