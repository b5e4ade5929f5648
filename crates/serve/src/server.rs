//! The experiment server: job table → queue → batch → worker.
//!
//! One scheduler thread drains a pending-job queue in batches; each
//! batch is grouped by *compatible configuration* — equal scale and
//! record suffix ([`RunSpec::suffix`], injective over the memory
//! fields), i.e. jobs one `experiments` invocation can run together —
//! and each group runs in one worker **process**: a plain `experiments`
//! invocation with the group's `RunSpec::flags`, `--resume <journal>`
//! and `--no-bench-out`.
//!
//! * Per-request memory configuration needs no in-process plumbing —
//!   each worker's own command line sets its process-wide run mode
//!   (`capstan_core::config::RunMode`, set once by design).
//! * Crash safety is inherited from the resumable-harness layer: a
//!   worker that dies mid-sweep is respawned with the same journal
//!   directory and *resumes*, replaying completed rows byte-for-byte.
//! * The journal is also the one way back: each served row and report
//!   is read from its entry (exact wall-time bits), so a fresh and a
//!   resumed worker report the same way. A group's journal directory
//!   lives from its first spawn until its outcomes are delivered.
//!
//! One table, keyed by the normalized request ([`JobKey`]), tracks
//! every job: `Waiting` while it is queued or running, with the senders
//! of every request on it (the submitter plus any coalesced
//! duplicates), and `Done` once it has succeeded, holding the outcome
//! each later duplicate is served from. A failed job leaves the table,
//! so a resubmission runs it again.

use crate::key::{JobKey, RunSpec};
use crate::proto::{self, FrameReader, ProtoError, Request, MAGIC};
use capstan_bench::experiments as exp;
use capstan_bench::gate::BenchEntry;
use capstan_bench::journal::Journal;
use capstan_core::config::PlanMode;
use capstan_plan::PlannedConfig;
use capstan_tensor::stats::TensorStats;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ffi::OsString;
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server tuning and test knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The `experiments` binary workers run (usually
    /// `std::env::current_exe()` — the binary is both server and
    /// worker).
    worker_exe: PathBuf,
    /// Scratch directory for per-group journals (created on bind).
    work_dir: PathBuf,
    /// How long the scheduler lingers after the first pending job
    /// before draining the queue, so a burst of submissions lands in
    /// one batch.
    pub batch_linger: Duration,
    /// Per-connection socket read timeout (a stalled client gets
    /// `ProtoError::Timeout`, never a hung handler thread).
    pub read_timeout: Duration,
    /// Fault-injection test knob: arm exactly one worker spawn (the
    /// first) with `CAPSTAN_FAULT_AFTER_CYCLES=<n>`, so it kills itself
    /// mid-sweep and exercises the respawn-and-resume path.
    pub fault_first_worker: Option<u64>,
}

impl ServerConfig {
    /// A config with production defaults for the given worker binary
    /// and scratch directory.
    pub fn new(worker_exe: PathBuf, work_dir: PathBuf) -> ServerConfig {
        ServerConfig {
            worker_exe,
            work_dir,
            batch_linger: Duration::from_millis(50),
            read_timeout: Duration::from_secs(10),
            fault_first_worker: None,
        }
    }
}

/// Spawn attempts per batch group before its jobs fail with
/// [`ProtoError::WorkerFailed`].
const WORKER_ATTEMPTS: u32 = 3;

/// Upper bounds of the server-side latency buckets reported by `STATS`
/// (accept to reply written), 4× apart, with their wire labels. Hits use
/// the first [`HIT_BUCKETS`]; misses use all of them.
const LATENCY_BOUNDS: [(Duration, &str); 7] = [
    (Duration::from_micros(250), "250us"),
    (Duration::from_millis(1), "1ms"),
    (Duration::from_millis(4), "4ms"),
    (Duration::from_millis(16), "16ms"),
    (Duration::from_millis(64), "64ms"),
    (Duration::from_millis(256), "256ms"),
    (Duration::from_secs(1), "1s"),
];

/// How many of [`LATENCY_BOUNDS`] the hit histogram uses.
const HIT_BUCKETS: usize = 4;

/// Counters reported by `STATS`.
#[derive(Debug, Default)]
struct Counters {
    submits: u64,
    /// Requests served from a `Done` job.
    cache_hits: u64,
    /// Requests that joined a `Waiting` job.
    coalesced: u64,
    /// Requests that started a job: work actually reaching a core.
    misses: u64,
    batches: u64,
    worker_spawns: u64,
    worker_retries: u64,
    rows_resumed: u64,
    errors: u64,
    plans_computed: u64,
    plan_cache_hits: u64,
    /// Accepted connections (the shutdown wake connection excluded).
    connections: u64,
    /// Handler threads held after the last reap, the newest included.
    handlers_live: u64,
    /// Served hits per latency bucket; the last slot is the overflow.
    hit_latency: [u64; HIT_BUCKETS + 1],
    /// Served misses and coalesced joins (every reply that waited for a
    /// simulation) per latency bucket; the last slot is the overflow.
    miss_latency: [u64; LATENCY_BOUNDS.len() + 1],
}

/// A completed job: what the job table keeps and clients receive.
#[derive(Debug)]
struct JobOutcome {
    /// The bench-record row (name includes the record-group suffix).
    row: BenchEntry,
    /// The experiment's exact report text — byte-identical to a direct
    /// `experiments` invocation's stdout for this experiment.
    report: String,
}

type Delivery = Result<Arc<JobOutcome>, ProtoError>;

/// A job in the table.
enum Job {
    /// Queued or running: the requests to deliver its outcome to.
    Waiting(Vec<mpsc::Sender<Delivery>>),
    /// Succeeded. Outcomes are a few kilobytes of text and the working
    /// set is the finite experiment matrix, so nothing is evicted.
    Done(Arc<JobOutcome>),
}

/// One queued run.
struct Queued {
    key: JobKey,
    spec: RunSpec,
}

/// Mutable server state behind the one lock.
#[derive(Default)]
struct State {
    /// Set by `SHUTDOWN`. It lives under the lock so the scheduler can
    /// wait on the condvar without a timeout (no wakeup is lost between
    /// its check and its wait) and a submission can never queue a job
    /// after the scheduler has drained and exited.
    stop: bool,
    jobs: HashMap<JobKey, Job>,
    /// The batch queue: every `Waiting` job the scheduler has not yet
    /// taken.
    queue: Vec<Queued>,
    counters: Counters,
    /// Memoized planner decisions keyed by the raw stats blob: the
    /// planner is a pure function of the statistics, so a dataset
    /// resubmitted with identical stats reuses its plan (and, because
    /// the blob never joins the [`JobKey`], its result too).
    plan_cache: HashMap<String, PlannedConfig>,
}

/// Everything the scheduler and the handlers share.
struct Shared {
    config: ServerConfig,
    /// The bound address: `SHUTDOWN` connects to it to wake `accept`.
    addr: SocketAddr,
    state: Mutex<State>,
    cv: Condvar,
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
        let addr = listener.local_addr()?;
        let fault_armed = AtomicBool::new(config.fault_first_worker.is_some());
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                addr,
                state: Mutex::new(State::default()),
                cv: Condvar::new(),
                group_seq: AtomicU64::new(0),
                fault_armed,
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        Ok(self.shared.addr)
    }

    /// Runs the accept loop on the current thread until a `SHUTDOWN`
    /// request arrives, then drains: the scheduler finishes or fails
    /// queued work, handler threads are joined, and the call returns.
    ///
    /// The loop blocks in `accept`; nothing polls. `SHUTDOWN` sets the
    /// stop flag and then connects to the bound address once, which
    /// wakes `accept`; the loop sees the flag and exits without serving
    /// that connection. The listener closes before anything is joined,
    /// so a late client is refused at once instead of waiting in the
    /// backlog for in-flight jobs to drain. Finished handler threads are
    /// reaped before each new one is spawned, so the handles held are
    /// bounded by open connections, not by requests served.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, shared } = self;
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || scheduler_loop(&shared))
        };
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let accepted = Instant::now();
            handlers.retain(|h| !h.is_finished());
            {
                let mut st = shared.state.lock().expect("state lock");
                if st.stop {
                    break;
                }
                st.counters.connections += 1;
                st.counters.handlers_live = handlers.len() as u64 + 1;
            }
            let shared = Arc::clone(&shared);
            handlers.push(std::thread::spawn(move || {
                handle_connection(&shared, stream, accepted)
            }));
        }
        drop(listener);
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
/// hung thread (the read timeout bounds stalled peers). A served
/// submission's time from `accepted` to its reply written lands in the
/// hit or miss latency histogram.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, accepted: Instant) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(reader_stream);
    let request = reader
        .read_line(proto::MAX_FRAME)
        .and_then(|line| proto::parse_request(&line));
    let request_failed = request.is_err();
    let mut served = None;
    let reply: Vec<u8> = match request {
        Err(e) => e.to_wire().into_bytes(),
        Ok(Request::Ping) => format!("{MAGIC} OK pong\n").into_bytes(),
        Ok(Request::Stats) => stats_line(shared).into_bytes(),
        Ok(Request::Shutdown) => {
            shared.state.lock().expect("state lock").stop = true;
            shared.cv.notify_all();
            wake_accept(shared.addr);
            format!("{MAGIC} OK bye\n").into_bytes()
        }
        Ok(Request::Submit(spec)) => match submit(shared, spec) {
            Ok((cache_tag, outcome)) => {
                served = Some(cache_tag);
                proto::format_submit_reply(cache_tag, &outcome.row, &outcome.report)
            }
            Err(e) => e.to_wire().into_bytes(),
        },
    };
    let mut stream = stream;
    let written = stream.write_all(&reply).and_then(|()| stream.flush());
    if let (Ok(()), Some(cache_tag)) = (written, served) {
        let elapsed = accepted.elapsed();
        let mut st = shared.state.lock().expect("state lock");
        let c = &mut st.counters;
        if cache_tag == "hit" {
            c.hit_latency[latency_bucket(elapsed, HIT_BUCKETS)] += 1;
        } else {
            c.miss_latency[latency_bucket(elapsed, LATENCY_BOUNDS.len())] += 1;
        }
    }
    if request_failed {
        drain_bounded(&mut stream);
    }
}

/// Wakes the accept loop, blocked in `accept`, with one throwaway
/// connection to the bound address (loopback of the same family when
/// it is bound to the unspecified address). If the listener is already
/// closed the connect fails, which is fine: the loop has exited.
fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// The index of the first of the leading `buckets` latency bounds that
/// `elapsed` does not exceed, or `buckets` (the overflow slot).
fn latency_bucket(elapsed: Duration, buckets: usize) -> usize {
    LATENCY_BOUNDS[..buckets]
        .iter()
        .position(|&(bound, _)| elapsed <= bound)
        .unwrap_or(buckets)
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

/// The `STATS` reply line, straight from the counters. Each latency
/// histogram is one `<prefix>_le_<bound>` field per bucket plus a
/// `<prefix>_gt_<last bound>` overflow field.
fn stats_line(shared: &Arc<Shared>) -> String {
    let st = shared.state.lock().expect("state lock");
    let c = &st.counters;
    let mut line = format!(
        "{MAGIC} STATS submits={} cache_hits={} coalesced={} misses={} batches={} \
         worker_spawns={} worker_retries={} rows_resumed={} errors={} \
         plans_computed={} plan_cache_hits={} connections={} handlers_live={}",
        c.submits,
        c.cache_hits,
        c.coalesced,
        c.misses,
        c.batches,
        c.worker_spawns,
        c.worker_retries,
        c.rows_resumed,
        c.errors,
        c.plans_computed,
        c.plan_cache_hits,
        c.connections,
        c.handlers_live
    );
    for (prefix, counts) in [("hit", &c.hit_latency[..]), ("miss", &c.miss_latency[..])] {
        let last = counts.len() - 1;
        for (i, n) in counts.iter().enumerate() {
            let _ = if i < last {
                write!(line, " {prefix}_le_{}={n}", LATENCY_BOUNDS[i].1)
            } else {
                write!(line, " {prefix}_gt_{}={n}", LATENCY_BOUNDS[last - 1].1)
            };
        }
    }
    line.push('\n');
    line
}

/// Routes one submission: a `Done` job → answer immediately; a
/// `Waiting` job → coalesce onto it; otherwise enqueue fresh work.
/// Blocks until the outcome is delivered.
fn submit(
    shared: &Arc<Shared>,
    mut spec: RunSpec,
) -> Result<(&'static str, Arc<JobOutcome>), ProtoError> {
    // An `Auto` submission arrives with dataset statistics instead of a
    // memory configuration; materialize the planner's choice into the
    // spec *before* keying, so equal-planning data addresses the same
    // result. Plans are memoized by the raw stats blob.
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
    let key = spec.key().map_err(ProtoError::BadRequest)?;
    let (cache_tag, rx) = {
        let mut guard = shared.state.lock().expect("state lock");
        let st = &mut *guard;
        if st.stop {
            return Err(ProtoError::Internal("server is shutting down".to_string()));
        }
        st.counters.submits += 1;
        match st.jobs.entry(key) {
            Entry::Occupied(entry) => match entry.into_mut() {
                Job::Done(outcome) => {
                    st.counters.cache_hits += 1;
                    return Ok(("hit", Arc::clone(outcome)));
                }
                Job::Waiting(waiters) => {
                    let (tx, rx) = mpsc::channel();
                    waiters.push(tx);
                    st.counters.coalesced += 1;
                    ("join", rx)
                }
            },
            Entry::Vacant(entry) => {
                let (tx, rx) = mpsc::channel();
                st.queue.push(Queued {
                    key: entry.key().clone(),
                    spec,
                });
                entry.insert(Job::Waiting(vec![tx]));
                st.counters.misses += 1;
                shared.cv.notify_all();
                ("miss", rx)
            }
        }
    };
    // Generous bound: `full`-scale cycle-level sweeps run for minutes,
    // not hours; an hour without a delivery means the scheduler died.
    match rx.recv_timeout(Duration::from_secs(3600)) {
        Ok(Ok(outcome)) => Ok((cache_tag, outcome)),
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
            while st.queue.is_empty() && !st.stop {
                st = shared.cv.wait(st).expect("state lock");
            }
            if st.stop {
                for queued in std::mem::take(&mut st.queue) {
                    deliver(
                        &mut st,
                        queued.key,
                        Err(ProtoError::Internal("server is shutting down".to_string())),
                    );
                }
                return;
            }
        }
        std::thread::sleep(shared.config.batch_linger);
        let batch = {
            let mut st = shared.state.lock().expect("state lock");
            let batch = std::mem::take(&mut st.queue);
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

/// Sends a job's outcome to every waiter. A success stays in the table
/// as `Done`; a failure is counted and leaves it.
fn deliver(st: &mut State, key: JobKey, outcome: Delivery) {
    let waiting = match &outcome {
        Ok(out) => st.jobs.insert(key, Job::Done(Arc::clone(out))),
        Err(_) => {
            st.counters.errors += 1;
            st.jobs.remove(&key)
        }
    };
    if let Some(Job::Waiting(waiters)) = waiting {
        for w in waiters {
            let _ = w.send(outcome.clone());
        }
    }
}

/// Groups a batch by compatible configuration and runs each group.
fn run_batch(shared: &Arc<Shared>, batch: Vec<Queued>) {
    let mut groups: BTreeMap<(String, String), Vec<Queued>> = BTreeMap::new();
    for queued in batch {
        let compat = (queued.spec.scale.clone(), queued.spec.suffix());
        groups.entry(compat).or_default().push(queued);
    }
    for group in groups.into_values() {
        run_group(shared, group);
    }
}

/// Runs one compatibility group in one worker and delivers per-job
/// outcomes read from the worker's journal.
fn run_group(shared: &Arc<Shared>, group: Vec<Queued>) {
    let group_id = shared.group_seq.fetch_add(1, Ordering::SeqCst);
    let journal_dir = shared.config.work_dir.join(format!("group{group_id}"));
    // Canonical experiment order (ALL_NAMES position) so a group's
    // sweep — and therefore its journal — is deterministic regardless
    // of submission order. Jobs in one group always carry distinct
    // experiments (identical specs coalesce upstream), but dedup anyway:
    // a name given twice runs once.
    let mut names: Vec<&str> = group.iter().map(|q| q.spec.experiment.as_str()).collect();
    names.sort_by_key(|n| exp::ALL_NAMES.iter().position(|a| a == n));
    names.dedup();
    let journal = run_worker(shared, &journal_dir, &names, &group[0].spec);
    let outcomes: Vec<Delivery> = group
        .iter()
        .map(|queued| match &journal {
            Ok(journal) => served(journal, &queued.spec)
                .map(Arc::new)
                .map_err(ProtoError::Internal),
            Err(e) => Err(ProtoError::WorkerFailed(e.clone())),
        })
        .collect();
    {
        let mut st = shared.state.lock().expect("state lock");
        for (queued, outcome) in group.into_iter().zip(outcomes) {
            deliver(&mut st, queued.key, outcome);
        }
    }
    // Every outcome now lives in the job table; a journal left behind
    // would pin a later server on this workdir to this group's scale.
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// A job's outcome from its worker's journal entry: the bench row with
/// the entry's exact wall-time bits, and the stored report.
fn served(journal: &Journal, spec: &RunSpec) -> Result<JobOutcome, String> {
    let entry = journal.completed(&spec.experiment).ok_or_else(|| {
        format!(
            "experiment `{}` missing from the worker's journal",
            spec.experiment
        )
    })?;
    Ok(JobOutcome {
        row: BenchEntry::new(spec.row_name(), entry.wall_seconds, entry.simulated_cycles),
        report: journal.report_text(&spec.experiment)?,
    })
}

/// The worker command line for `names` under `spec`'s configuration,
/// journaled in `journal_dir`.
pub fn worker_args(names: &[&str], spec: &RunSpec, journal_dir: &Path) -> Vec<OsString> {
    let mut args: Vec<OsString> = names.iter().map(OsString::from).collect();
    args.extend(spec.flags().into_iter().map(OsString::from));
    args.push("--resume".into());
    args.push(journal_dir.into());
    args.push("--no-bench-out".into());
    args
}

/// Runs one group's worker process journaled in `journal_dir`
/// (respawning on failure up to [`WORKER_ATTEMPTS`] — a worker killed
/// mid-sweep resumes from its journal) and returns the finished
/// journal.
fn run_worker(
    shared: &Arc<Shared>,
    journal_dir: &Path,
    names: &[&str],
    spec: &RunSpec,
) -> Result<Journal, String> {
    let cfg = &shared.config;
    // Start from an empty directory: one left by an earlier server on
    // this workdir holds a journal of another group. Retries keep the
    // directory, since it is what they resume from.
    match std::fs::remove_dir_all(journal_dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("cannot clear {}: {e}", journal_dir.display()))
        }
        _ => {}
    }
    let open = || Journal::open_or_create(journal_dir, &spec.scale, &spec.suffix());
    let mut last_err = String::new();
    for attempt in 0..WORKER_ATTEMPTS {
        let mut cmd = std::process::Command::new(&cfg.worker_exe);
        cmd.args(worker_args(names, spec, journal_dir))
            .stdin(std::process::Stdio::null())
            // The worker's stdout repeats the reports the server reads
            // from the journal, so the stream is discarded.
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
            return open();
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
        if attempt + 1 < WORKER_ATTEMPTS {
            // Rows already journaled before the crash will replay, not
            // re-run, on the respawn — that is the resumed work.
            let resumed = open().map_or(0, |j| j.names().count() as u64);
            let mut st = shared.state.lock().expect("state lock");
            st.counters.worker_retries += 1;
            st.counters.rows_resumed += resumed;
        }
    }
    Err(last_err)
}
