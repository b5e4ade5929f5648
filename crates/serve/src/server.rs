//! The experiment server: queue → cache → batch → shard.
//!
//! One scheduler thread drains a pending-job queue in batches; each
//! batch is grouped by *compatible configuration* — identical `(scale,
//! mem, addresses, channels, tenants, plan)`, i.e. jobs that one `experiments`
//! worker invocation can run together — and each group fans out across up to
//! [`ServerConfig::shards`] worker **processes** driven concurrently by
//! `capstan_par::par_map_threads`. Workers are plain `experiments`
//! subprocess invocations with `--resume <journal>` and `--bench-out
//! <record>`:
//!
//! * Per-request memory configuration needs no in-process plumbing —
//!   the process-default setters (set-once by design) are set by each
//!   worker's own command line.
//! * Crash safety is inherited from the resumable-harness layer: a
//!   worker that dies mid-sweep is respawned with the same journal
//!   directory and *resumes*, replaying completed rows byte-for-byte.
//! * Shard results are `BENCH`-schema record groups, merged with
//!   [`gate::merge`] — the same loud-on-conflict merge the CLI's
//!   `--bench-base` uses — so a duplicated or mis-suffixed row is a
//!   server error, never a silently shadowed result.
//!
//! Completed outcomes land in the content-addressed [`ResultCache`];
//! every waiter on the job's key (the submitter plus any coalesced
//! duplicates) receives the same `Arc`'d outcome.

use crate::cache::{JobOutcome, ResultCache};
use crate::key::RunSpec;
use crate::proto::{self, FrameReader, ProtoError, Request, MAGIC};
use capstan_bench::experiments as exp;
use capstan_bench::gate::{self, BenchRecord};
use capstan_bench::journal::Journal;
use capstan_core::config::{MemAddressing, MemTiming, PlanMode};
use capstan_plan::PlannedConfig;
use capstan_tensor::stats::TensorStats;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Server tuning and test knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The `experiments` binary workers run (usually
    /// `std::env::current_exe()` — the binary is both server and
    /// worker).
    pub worker_exe: PathBuf,
    /// Scratch directory for per-shard journals and bench records
    /// (created on bind).
    pub work_dir: PathBuf,
    /// Maximum worker processes per compatibility group.
    pub shards: usize,
    /// How long the scheduler lingers after the first pending job
    /// before draining the queue, so a burst of submissions lands in
    /// one batch.
    pub batch_linger: Duration,
    /// Per-connection socket read timeout (a stalled client gets
    /// [`ProtoError::Timeout`], never a hung handler thread).
    pub read_timeout: Duration,
    /// Request-frame length cap.
    pub max_frame: usize,
    /// Extra environment for every worker spawn (test hook; applied
    /// last, so it can override the server's own settings).
    pub worker_env: Vec<(String, String)>,
    /// Fault-injection test knob: arm exactly one worker spawn (the
    /// first) with `CAPSTAN_FAULT_AFTER_CYCLES=<n>`, so it kills itself
    /// mid-sweep and exercises the respawn-and-resume path.
    pub fault_first_worker: Option<u64>,
    /// Spawn attempts per shard before the jobs fail with
    /// [`ProtoError::WorkerFailed`].
    pub worker_attempts: u32,
}

impl ServerConfig {
    /// A config with production defaults for the given worker binary
    /// and scratch directory.
    pub fn new(worker_exe: PathBuf, work_dir: PathBuf) -> ServerConfig {
        ServerConfig {
            worker_exe,
            work_dir,
            shards: 1,
            batch_linger: Duration::from_millis(50),
            read_timeout: Duration::from_secs(10),
            max_frame: proto::MAX_FRAME,
            worker_env: Vec::new(),
            fault_first_worker: None,
            worker_attempts: 3,
        }
    }
}

/// Scheduler/worker counters reported by `STATS` (cache hits and
/// misses live in [`ResultCache`]).
#[derive(Debug, Default)]
struct Counters {
    submits: u64,
    coalesced: u64,
    batches: u64,
    worker_spawns: u64,
    worker_retries: u64,
    rows_resumed: u64,
    errors: u64,
    plans_computed: u64,
    plan_cache_hits: u64,
}

/// One queued job.
#[derive(Debug)]
struct Job {
    key: u64,
    spec: RunSpec,
}

type Delivery = Result<Arc<JobOutcome>, ProtoError>;

/// Mutable server state behind the one lock.
#[derive(Default)]
struct State {
    cache: ResultCache,
    pending: Vec<Job>,
    inflight: HashSet<u64>,
    waiters: HashMap<u64, Vec<mpsc::Sender<Delivery>>>,
    counters: Counters,
    /// Memoized planner decisions keyed by the raw stats blob: the
    /// planner is a pure function of the statistics, so a dataset
    /// resubmitted with identical stats reuses its plan (and, because
    /// the blob never joins the cache key, its cached result too).
    plan_cache: HashMap<String, PlannedConfig>,
}

/// Everything the scheduler, handlers, and shard runners share.
struct Shared {
    config: ServerConfig,
    state: Mutex<State>,
    cv: Condvar,
    stop: AtomicBool,
    group_seq: AtomicU64,
    fault_armed: AtomicBool,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A running server (see [`Server::spawn`]): the bound address plus the
/// accept-loop thread.
pub struct ServerHandle {
    /// The actually bound address (resolves port `0` to the kernel's
    /// pick).
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Waits for the server to exit (after a `SHUTDOWN` request).
    pub fn join(self) -> std::io::Result<()> {
        self.thread
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("server thread panicked")))
    }
}

impl Server {
    /// Binds `addr` and creates the scratch directory. `addr` may use
    /// port `0` to let the kernel pick (tests); query
    /// [`Server::local_addr`] for the result.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.work_dir)?;
        let listener = TcpListener::bind(addr)?;
        let fault_armed = AtomicBool::new(config.fault_first_worker.is_some());
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                state: Mutex::new(State::default()),
                cv: Condvar::new(),
                stop: AtomicBool::new(false),
                group_seq: AtomicU64::new(0),
                fault_armed,
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the current thread until a `SHUTDOWN`
    /// request arrives, then drains: the scheduler finishes or fails
    /// queued work, handler threads are joined, and the call returns.
    pub fn run(self) -> std::io::Result<()> {
        // Non-blocking accept so the loop can observe the stop flag; a
        // 5 ms poll is far below human-visible latency and costs
        // nothing next to a simulation.
        self.listener.set_nonblocking(true)?;
        let shared = self.shared;
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || scheduler_loop(&shared))
        };
        let mut handlers = Vec::new();
        while !shared.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&shared);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(&shared, stream)
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        shared.cv.notify_all();
        let _ = scheduler.join();
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }

    /// Spawns [`Server::run`] on a new thread and returns the handle
    /// (test harness convenience).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle { addr, thread })
    }
}

/// Serves one connection: one request frame, one reply, close. Every
/// failure becomes a best-effort `ERR` line — never a panic, never a
/// hung thread (the read timeout bounds stalled peers).
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(reader_stream);
    let request = reader
        .read_line(shared.config.max_frame)
        .and_then(|line| proto::parse_request(&line));
    let request_failed = request.is_err();
    let reply: Vec<u8> = match request {
        Err(e) => e.to_wire().into_bytes(),
        Ok(Request::Ping) => format!("{MAGIC} OK pong\n").into_bytes(),
        Ok(Request::Stats) => stats_line(shared).into_bytes(),
        Ok(Request::Shutdown) => {
            shared.stop.store(true, Ordering::SeqCst);
            shared.cv.notify_all();
            format!("{MAGIC} OK bye\n").into_bytes()
        }
        Ok(Request::Submit(spec)) => match submit(shared, spec) {
            Ok((cache_tag, key, outcome)) => {
                proto::format_submit_reply(cache_tag, key, &outcome.row, &outcome.report)
            }
            Err(e) => e.to_wire().into_bytes(),
        },
    };
    let mut stream = stream;
    let _ = stream.write_all(&reply);
    let _ = stream.flush();
    if request_failed {
        drain_bounded(&mut stream);
    }
}

/// Best-effort bounded drain of unread request bytes after an error
/// reply: closing a socket with unread data in its receive buffer
/// resets the connection, which can destroy the just-written `ERR`
/// line before the peer reads it (e.g. after an oversized flood). The
/// drain is bounded in both bytes and time (the socket's read timeout),
/// so a hostile peer cannot pin the handler.
fn drain_bounded(stream: &mut TcpStream) {
    use std::io::Read;
    let mut sink = [0u8; 1024];
    let mut budget = 64 * 1024;
    while budget > 0 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget -= n.min(budget),
        }
    }
}

/// The `STATS` reply line, straight from the counters.
fn stats_line(shared: &Arc<Shared>) -> String {
    let st = shared.state.lock().expect("state lock");
    let c = &st.counters;
    format!(
        "{MAGIC} STATS submits={} cache_hits={} coalesced={} misses={} batches={} \
         worker_spawns={} worker_retries={} rows_resumed={} errors={} \
         plans_computed={} plan_cache_hits={}\n",
        c.submits,
        st.cache.hits(),
        c.coalesced,
        st.cache.misses(),
        c.batches,
        c.worker_spawns,
        c.worker_retries,
        c.rows_resumed,
        c.errors,
        c.plans_computed,
        c.plan_cache_hits
    )
}

/// Routes one submission: cache hit → answer immediately; duplicate of
/// a queued/in-flight job → coalesce onto it; otherwise enqueue fresh
/// work. Blocks until the outcome is delivered.
fn submit(
    shared: &Arc<Shared>,
    mut spec: RunSpec,
) -> Result<(&'static str, u64, Arc<JobOutcome>), ProtoError> {
    // An `Auto` submission arrives with dataset statistics instead of a
    // memory configuration; materialize the planner's choice into the
    // spec *before* keying, so equal-planning data content-addresses
    // the same result. Plans are memoized by the raw stats blob.
    if spec.plan == PlanMode::Auto {
        let blob = spec
            .stats
            .clone()
            .ok_or_else(|| ProtoError::BadRequest("plan=auto needs a stats= field".to_string()))?;
        let stats = TensorStats::parse(&blob).ok_or_else(|| {
            ProtoError::BadRequest("stats blob is not a valid encoded TensorStats".to_string())
        })?;
        let planned = {
            let mut st = shared.state.lock().expect("state lock");
            match st.plan_cache.get(&blob).copied() {
                Some(p) => {
                    st.counters.plan_cache_hits += 1;
                    p
                }
                None => {
                    let p = capstan_plan::plan_request(&stats);
                    st.counters.plans_computed += 1;
                    st.plan_cache.insert(blob, p);
                    p
                }
            }
        };
        spec.mem = planned.mem;
        spec.addresses = planned.addresses;
        spec.channels = planned.channels;
    }
    // The protocol layer validated the scale spec, so keying cannot
    // fail on a wire request; belt-and-suspenders for direct callers.
    let key = spec.cache_key().map_err(ProtoError::BadRequest)?;
    if shared.stop.load(Ordering::SeqCst) {
        return Err(ProtoError::Internal("server is shutting down".to_string()));
    }
    let cache_tag;
    let rx;
    {
        let mut st = shared.state.lock().expect("state lock");
        st.counters.submits += 1;
        if let Some(outcome) = st.cache.lookup(key) {
            return Ok(("hit", key, outcome));
        }
        let (tx, receiver) = mpsc::channel();
        rx = receiver;
        if st.inflight.contains(&key) || st.pending.iter().any(|j| j.key == key) {
            st.counters.coalesced += 1;
            cache_tag = "join";
        } else {
            st.cache.record_miss();
            st.pending.push(Job { key, spec });
            cache_tag = "miss";
        }
        st.waiters.entry(key).or_default().push(tx);
        shared.cv.notify_all();
    }
    // Generous bound: `full`-scale cycle-level sweeps run for minutes,
    // not hours; an hour without a delivery means the scheduler died.
    match rx.recv_timeout(Duration::from_secs(3600)) {
        Ok(Ok(outcome)) => Ok((cache_tag, key, outcome)),
        Ok(Err(e)) => Err(e),
        Err(_) => Err(ProtoError::Internal(
            "timed out waiting for the job".to_string(),
        )),
    }
}

/// The scheduler thread: waits for pending jobs, lingers so a burst
/// coalesces into one batch, then drains and runs the batch. On stop,
/// fails whatever is still queued and exits.
fn scheduler_loop(shared: &Arc<Shared>) {
    loop {
        {
            let mut st = shared.state.lock().expect("state lock");
            while st.pending.is_empty() && !shared.stop.load(Ordering::SeqCst) {
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, Duration::from_millis(200))
                    .expect("state lock");
                st = guard;
            }
            if shared.stop.load(Ordering::SeqCst) {
                let pending = std::mem::take(&mut st.pending);
                for job in pending {
                    st.counters.errors += 1;
                    deliver(
                        &mut st,
                        job.key,
                        Err(ProtoError::Internal("server is shutting down".to_string())),
                    );
                }
                return;
            }
        }
        std::thread::sleep(shared.config.batch_linger);
        let batch = {
            let mut st = shared.state.lock().expect("state lock");
            let batch = std::mem::take(&mut st.pending);
            for job in &batch {
                st.inflight.insert(job.key);
            }
            if !batch.is_empty() {
                st.counters.batches += 1;
            }
            batch
        };
        if !batch.is_empty() {
            run_batch(shared, batch);
        }
    }
}

/// Removes a job's bookkeeping and sends the outcome to every waiter.
fn deliver(st: &mut State, key: u64, outcome: Delivery) {
    st.inflight.remove(&key);
    if let Some(waiters) = st.waiters.remove(&key) {
        for w in waiters {
            let _ = w.send(outcome.clone());
        }
    }
}

/// Groups a batch by compatible configuration and runs each group.
fn run_batch(shared: &Arc<Shared>, batch: Vec<Job>) {
    let mut groups: BTreeMap<String, Vec<Job>> = BTreeMap::new();
    for job in batch {
        let spec = &job.spec;
        let compat = format!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            spec.scale,
            spec.mem.tag(),
            spec.addresses.tag(),
            spec.channels,
            spec.tenants,
            spec.plan.tag()
        );
        groups.entry(compat).or_default().push(job);
    }
    for jobs in groups.into_values() {
        run_group(shared, jobs);
    }
}

/// Runs one compatibility group: shards its experiments across worker
/// processes, merges the shard records, and delivers per-job outcomes.
fn run_group(shared: &Arc<Shared>, jobs: Vec<Job>) {
    let group_id = shared.group_seq.fetch_add(1, Ordering::SeqCst);
    let spec0 = jobs[0].spec.clone();
    // Canonical experiment order (ALL_NAMES position) so a group's
    // shard assignment — and therefore its journals and records — is
    // deterministic regardless of submission order. Jobs in one group
    // always carry distinct experiments (identical specs coalesce
    // upstream), but dedup anyway: running a name twice in one worker
    // would write duplicate bench rows.
    let mut names: Vec<String> = jobs.iter().map(|j| j.spec.experiment.clone()).collect();
    names.sort_by_key(|n| exp::ALL_NAMES.iter().position(|a| a == n));
    names.dedup();
    let shard_count = shared.config.shards.clamp(1, names.len());
    let mut shards: Vec<(usize, Vec<String>)> = (0..shard_count).map(|i| (i, Vec::new())).collect();
    for (i, name) in names.iter().enumerate() {
        shards[i % shard_count].1.push(name.clone());
    }
    let results = capstan_par::par_map_threads(&shards, shard_count, |(sidx, shard_names)| {
        run_shard(shared, group_id, *sidx, shard_names, &spec0)
    });

    // Fold the shard records into one group record. gate::merge is the
    // loud merge: duplicate names or conflicting scale metadata across
    // shards fail the whole group rather than shadowing a row.
    let mut merged: Option<BenchRecord> = None;
    let mut reports: BTreeMap<String, String> = BTreeMap::new();
    let mut group_err: Option<String> = None;
    for result in results {
        match result {
            Ok((record, shard_reports)) => {
                merged = Some(match merged.take() {
                    None => record,
                    Some(base) => match gate::merge(&base, &record) {
                        Ok(m) => m,
                        Err(e) => {
                            group_err = Some(format!("shard records conflict: {e}"));
                            break;
                        }
                    },
                });
                reports.extend(shard_reports);
            }
            Err(e) => {
                group_err = Some(e);
                break;
            }
        }
    }

    let mut st = shared.state.lock().expect("state lock");
    match (group_err, merged) {
        (None, Some(record)) => {
            for job in &jobs {
                let row_name = job.spec.row_name();
                let row = record.experiments.iter().find(|r| r.name == row_name);
                let report = reports.get(&job.spec.experiment);
                let outcome = match (row, report) {
                    (Some(row), Some(report)) => Ok(Arc::new(JobOutcome {
                        row: row.clone(),
                        report: report.clone(),
                    })),
                    _ => Err(ProtoError::Internal(format!(
                        "row `{row_name}` missing from the merged shard record"
                    ))),
                };
                match &outcome {
                    Ok(out) => st.cache.insert(job.key, Arc::clone(out)),
                    Err(_) => st.counters.errors += 1,
                }
                deliver(&mut st, job.key, outcome);
            }
        }
        (err, _) => {
            let msg = err.unwrap_or_else(|| "no shard produced a record".to_string());
            for job in &jobs {
                st.counters.errors += 1;
                deliver(&mut st, job.key, Err(ProtoError::WorkerFailed(msg.clone())));
            }
        }
    }
}

/// Runs one shard: spawns the worker process (respawning on failure up
/// to the attempt cap — a worker killed mid-sweep resumes from its
/// journal), then reads back the bench record and the per-experiment
/// reports.
fn run_shard(
    shared: &Arc<Shared>,
    group_id: u64,
    sidx: usize,
    names: &[String],
    spec0: &RunSpec,
) -> Result<(BenchRecord, Vec<(String, String)>), String> {
    let cfg = &shared.config;
    let dir = cfg.work_dir.join(format!("group{group_id}-s{sidx}"));
    let journal_dir = dir.join("journal");
    let bench_path = dir.join("BENCH.json");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let suffix = spec0.suffix();
    let attempts = cfg.worker_attempts.max(1);
    let mut last_err = String::new();
    for attempt in 0..attempts {
        let mut cmd = std::process::Command::new(&cfg.worker_exe);
        cmd.args(names.iter()).arg("--scale").arg(&spec0.scale);
        if spec0.mem == MemTiming::CycleLevel {
            cmd.args(["--mem", "cycle"]);
        }
        if spec0.addresses == MemAddressing::Recorded {
            cmd.args(["--mem-addresses", "recorded"]);
        }
        if spec0.channels > 1 {
            cmd.arg("--mem-channels").arg(spec0.channels.to_string());
        }
        if spec0.tenants > 1 {
            cmd.arg("--mem-tenants").arg(spec0.tenants.to_string());
        }
        if spec0.plan == PlanMode::Auto {
            // The server already materialized the planned configuration
            // into the flags above; the worker still needs the mode so
            // its rows land in the `+plan` record group.
            cmd.args(["--plan", "auto"]);
        }
        cmd.arg("--resume")
            .arg(&journal_dir)
            .arg("--bench-out")
            .arg(&bench_path)
            .stdin(std::process::Stdio::null())
            // The worker's stdout replays journaled reports — the
            // server reads them from the journal instead, so the
            // stream is discarded.
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped());
        // Workers inherit the server's environment (CAPSTAN_THREADS
        // etc.) except the fault knob, which must only ever arm the one
        // spawn the test asked for.
        cmd.env_remove("CAPSTAN_FAULT_AFTER_CYCLES");
        if attempt == 0 {
            if let Some(n) = cfg.fault_first_worker {
                if shared.fault_armed.swap(false, Ordering::SeqCst) {
                    cmd.env("CAPSTAN_FAULT_AFTER_CYCLES", n.to_string());
                }
            }
        }
        for (k, v) in &cfg.worker_env {
            cmd.env(k, v);
        }
        shared
            .state
            .lock()
            .expect("state lock")
            .counters
            .worker_spawns += 1;
        let out = cmd
            .output()
            .map_err(|e| format!("cannot spawn {}: {e}", cfg.worker_exe.display()))?;
        if out.status.success() {
            let text = std::fs::read_to_string(&bench_path)
                .map_err(|e| format!("worker wrote no record at {}: {e}", bench_path.display()))?;
            let record = gate::parse_record(&text)
                .map_err(|e| format!("worker wrote a malformed record: {e}"))?;
            let journal = Journal::open_or_create(&journal_dir, &spec0.scale, &suffix)?;
            let mut shard_reports = Vec::new();
            for name in names {
                shard_reports.push((name.clone(), journal.report_text(name)?));
            }
            return Ok((record, shard_reports));
        }
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: String = stderr
            .lines()
            .rev()
            .take(3)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect::<Vec<_>>()
            .join("; ");
        last_err = format!("worker exited with {} ({tail})", out.status);
        if attempt + 1 < attempts {
            // Rows already journaled before the crash will replay, not
            // re-run, on the respawn — that is the resumed work.
            let resumed = std::fs::read_to_string(journal_dir.join("journal"))
                .map(|t| t.lines().count().saturating_sub(1) as u64)
                .unwrap_or(0);
            let mut st = shared.state.lock().expect("state lock");
            st.counters.worker_retries += 1;
            st.counters.rows_resumed += resumed;
        }
    }
    Err(last_err)
}
