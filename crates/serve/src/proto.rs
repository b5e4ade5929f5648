//! The wire protocol: newline-framed text over TCP.
//!
//! One request per connection. The client sends a single frame — one
//! `\n`-terminated line, at most [`MAX_FRAME`] bytes — and reads one
//! response. Requests:
//!
//! ```text
//! capstan-serve/v1 SUBMIT experiment=fig7 scale=small mem=cycle addresses=synthetic channels=1 tenants=1
//! capstan-serve/v1 STATS
//! capstan-serve/v1 PING
//! capstan-serve/v1 SHUTDOWN
//! ```
//!
//! `SUBMIT` fields may appear in **any order**; only `experiment` is
//! required (the rest default to the CLI defaults: `medium`, `analytic`,
//! `synthetic`, `1`, `1`). Unknown fields, duplicated fields, unparsable
//! values, and non-finite scale factors are all typed errors — a typo
//! must never silently fall back to a default and simulate the wrong
//! thing.
//!
//! A planned submission replaces the memory-configuration fields with
//! dataset statistics and lets the server choose:
//!
//! ```text
//! capstan-serve/v1 SUBMIT experiment=planner plan=auto stats=s1:4096:4096:163840:4096:40:1720320:81:4096:28561
//! ```
//!
//! `plan=auto` **requires** `stats=` (an encoded
//! [`capstan_tensor::stats::TensorStats`] blob) and **rejects** explicit
//! `mem=`/`addresses=`/`channels=` — the planner owns those choices —
//! while `stats=` without `plan=auto` is equally an error. Responses:
//!
//! ```text
//! capstan-serve/v1 OK cache=miss key=<16 hex> name=fig7+cycle cycles=365168 wall=<16 hex> cps=<16 hex> report=<len>
//! <len bytes of report text>
//! capstan-serve/v1 STATS submits=4 cache_hits=2 ...
//! capstan-serve/v1 ERR unknown-experiment no experiment named `fig99`
//! ```
//!
//! `wall`/`cps` travel as exact `f64` bit patterns (hex), the journal's
//! discipline, so a relayed bench row is bit-equal to the server's. The
//! report payload is length-delimited raw bytes — report text is
//! multi-line, so it cannot ride in a newline-framed field.
//!
//! Every failure mode an attacker-shaped client can produce — truncated
//! frames, oversized payloads, stalled sockets, binary garbage — maps
//! to a typed [`ProtoError`] that is written back (best-effort) as an
//! `ERR` line and closes the connection: never a panic, never a hung
//! handler thread.

use crate::key::{RunSpec, FIELDS, PLANNED};
use capstan_bench::experiments as exp;
use capstan_bench::gate::BenchEntry;
use capstan_core::config::PlanMode;
use capstan_tensor::stats::TensorStats;
use std::fmt::Write as _;
use std::io::Read;

/// Protocol magic + version token opening every frame; bump on any wire
/// change.
pub const MAGIC: &str = "capstan-serve/v1";

/// Hard cap on request-frame length. Generous: the longest legitimate
/// request (a custom scale spec plus every field) is under 200 bytes.
pub const MAX_FRAME: usize = 4096;

/// Cap on the length-delimited report payload a client will accept.
/// The largest real report (full `table12` at `large` scale) is tens of
/// kilobytes; 16 MiB is paranoia headroom, not a target.
pub const MAX_REPORT: usize = 16 << 20;

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or fetch the cached result of) one experiment.
    Submit(RunSpec),
    /// Report the server's counters.
    Stats,
    /// Liveness probe (readiness loops in CI).
    Ping,
    /// Stop accepting connections and exit once in-flight work drains.
    Shutdown,
}

/// Every way a request or a connection can fail, each with a stable
/// wire code. `WorkerFailed`/`Internal` are server-side job failures
/// relayed to the waiting client; the rest are request-side.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The frame is not this protocol: wrong magic, unknown verb, or
    /// non-UTF-8 bytes.
    BadFrame(String),
    /// The frame is well-formed but a field is invalid (unknown or
    /// duplicated field, bad value, non-finite scale factor, ...).
    BadRequest(String),
    /// `experiment=` names no known experiment.
    UnknownExperiment(String),
    /// The frame exceeded the length cap without a newline.
    Oversized(usize),
    /// The peer closed the connection mid-frame or mid-payload.
    Truncated,
    /// The peer stalled past the read timeout.
    Timeout,
    /// A worker process failed permanently (after retries).
    WorkerFailed(String),
    /// A server-side invariant broke (unreachable in healthy runs).
    Internal(String),
}

impl ProtoError {
    /// The stable wire code for this error.
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::BadFrame(_) => "bad-frame",
            ProtoError::BadRequest(_) => "bad-request",
            ProtoError::UnknownExperiment(_) => "unknown-experiment",
            ProtoError::Oversized(_) => "oversized",
            ProtoError::Truncated => "truncated",
            ProtoError::Timeout => "timeout",
            ProtoError::WorkerFailed(_) => "worker-failed",
            ProtoError::Internal(_) => "internal",
        }
    }

    /// Human-readable detail (no newlines — it rides in an `ERR` line).
    pub fn detail(&self) -> String {
        let raw = match self {
            ProtoError::BadFrame(m)
            | ProtoError::BadRequest(m)
            | ProtoError::WorkerFailed(m)
            | ProtoError::Internal(m) => m.clone(),
            ProtoError::UnknownExperiment(name) => format!("no experiment named `{name}`"),
            ProtoError::Oversized(limit) => {
                format!("frame exceeds the {limit}-byte limit")
            }
            ProtoError::Truncated => "connection closed mid-frame".to_string(),
            ProtoError::Timeout => "peer stalled past the read timeout".to_string(),
        };
        raw.replace(['\n', '\r'], " ")
    }

    /// The one-line wire form: `capstan-serve/v1 ERR <code> <detail>`.
    pub fn to_wire(&self) -> String {
        format!("{MAGIC} ERR {} {}\n", self.code(), self.detail())
    }

    /// Reconstructs a relayed error from its wire code and detail.
    pub fn from_wire(code: &str, detail: &str) -> ProtoError {
        let detail = detail.to_string();
        match code {
            "bad-frame" => ProtoError::BadFrame(detail),
            "bad-request" => ProtoError::BadRequest(detail),
            "unknown-experiment" => ProtoError::UnknownExperiment(detail),
            "oversized" => ProtoError::Oversized(MAX_FRAME),
            "truncated" => ProtoError::Truncated,
            "timeout" => ProtoError::Timeout,
            "worker-failed" => ProtoError::WorkerFailed(detail),
            _ => ProtoError::Internal(format!("{code}: {detail}")),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code(), self.detail())
    }
}

/// Parses one request line (without its trailing newline).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let mut tokens = line.split(' ').filter(|t| !t.is_empty());
    let magic = tokens.next().unwrap_or("");
    if magic != MAGIC {
        return Err(ProtoError::BadFrame(format!(
            "expected `{MAGIC}`, got `{}`",
            truncate_for_log(magic)
        )));
    }
    let verb = tokens.next().unwrap_or("");
    let fields: Vec<&str> = tokens.collect();
    match verb {
        "SUBMIT" => parse_submit(&fields).map(Request::Submit),
        "STATS" | "PING" | "SHUTDOWN" => {
            if let Some(extra) = fields.first() {
                return Err(ProtoError::BadRequest(format!(
                    "{verb} takes no fields, got `{}`",
                    truncate_for_log(extra)
                )));
            }
            Ok(match verb {
                "STATS" => Request::Stats,
                "PING" => Request::Ping,
                _ => Request::Shutdown,
            })
        }
        other => Err(ProtoError::BadFrame(format!(
            "unknown verb `{}`",
            truncate_for_log(other)
        ))),
    }
}

/// Parses `SUBMIT` fields (any order, each at most once) into a
/// [`RunSpec`]: the experiment name against the canonical list, the
/// stats blob through [`TensorStats::parse`], and every configuration
/// field through [`RunSpec::set`].
fn parse_submit(fields: &[&str]) -> Result<RunSpec, ProtoError> {
    let mut spec = RunSpec::default();
    let mut seen = std::collections::HashSet::new();
    for field in fields {
        let (key, value) = field.split_once('=').ok_or_else(|| {
            ProtoError::BadRequest(format!(
                "field `{}` is not key=value",
                truncate_for_log(field)
            ))
        })?;
        if !seen.insert(key) {
            return Err(ProtoError::BadRequest(format!(
                "field `{key}` given more than once"
            )));
        }
        match key {
            "experiment" => {
                if !exp::ALL_NAMES.contains(&value) {
                    return Err(ProtoError::UnknownExperiment(value.to_string()));
                }
                spec.experiment = value.to_string();
            }
            "stats" => {
                if TensorStats::parse(value).is_none() {
                    return Err(ProtoError::BadRequest(format!(
                        "stats blob `{}` is not a valid encoded TensorStats",
                        truncate_for_log(value)
                    )));
                }
                spec.stats = Some(value.to_string());
            }
            _ if FIELDS.iter().any(|(k, ..)| *k == key) => {
                spec.set(key, value).map_err(ProtoError::BadRequest)?;
            }
            other => {
                return Err(ProtoError::BadRequest(format!(
                    "unknown field `{}`",
                    truncate_for_log(other)
                )))
            }
        }
    }
    if !seen.contains("experiment") {
        return Err(ProtoError::BadRequest(
            "SUBMIT needs an experiment= field".to_string(),
        ));
    }
    // `plan=auto` delegates the memory configuration to the server, so
    // it must carry the statistics the planner needs; a stray `stats=`
    // on a fixed request would be silently ignored, which this protocol
    // never does.
    spec.check_planned(|key| seen.contains(key))
        .map_err(ProtoError::BadRequest)?;
    match (spec.plan, &spec.stats) {
        (PlanMode::Auto, None) => Err(ProtoError::BadRequest(
            "plan=auto needs a stats= field".to_string(),
        )),
        (PlanMode::Fixed, Some(_)) => Err(ProtoError::BadRequest(
            "stats= is only meaningful with plan=auto".to_string(),
        )),
        _ => Ok(spec),
    }
}

/// Formats a `SUBMIT` frame for `spec` (canonical field order; the
/// server accepts any order). Planned specs omit the [`PLANNED`] fields
/// and carry `stats=` instead — the frame satisfies the same rules
/// `parse_submit` enforces.
pub fn format_submit(spec: &RunSpec) -> String {
    let mut line = format!("{MAGIC} SUBMIT experiment={}", spec.experiment);
    for (key, _, spell) in &FIELDS {
        if spec.plan == PlanMode::Fixed || !PLANNED.contains(key) {
            let _ = write!(line, " {key}={}", spell(spec));
        }
    }
    if let Some(stats) = &spec.stats {
        let _ = write!(line, " stats={stats}");
    }
    line.push('\n');
    line
}

/// The parsed `OK` response to a `SUBMIT`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReply {
    /// How the request was satisfied: `miss` (this request started the
    /// simulation), `join` (coalesced onto an in-flight duplicate), or
    /// `hit` (served from the completed-result cache).
    pub cache: String,
    /// The request's content-addressed cache key.
    pub key: u64,
    /// The bench-record row (exact `f64` bits relayed for the timing
    /// fields).
    pub row: BenchEntry,
    /// The experiment's report text.
    pub report: String,
}

/// Formats the `OK` header line + report payload for a completed job.
pub fn format_submit_reply(cache: &str, key: u64, row: &BenchEntry, report: &str) -> Vec<u8> {
    let mut out = format!(
        "{MAGIC} OK cache={cache} key={key:016x} name={} cycles={} wall={:016x} cps={:016x} report={}\n",
        row.name,
        row.simulated_cycles,
        row.wall_seconds.to_bits(),
        row.cycles_per_second.to_bits(),
        report.len()
    )
    .into_bytes();
    out.extend_from_slice(report.as_bytes());
    out
}

/// Parses a response header line; for `OK cache=...` submit replies the
/// caller must then read the `report=<len>` payload bytes and attach
/// them. Returns the reply with an empty `report` plus the payload
/// length.
pub fn parse_submit_header(line: &str) -> Result<(SubmitReply, usize), ProtoError> {
    let rest = expect_ok(line)?;
    let mut cache = None;
    let mut key = None;
    let mut name = None;
    let mut cycles = None;
    let mut wall = None;
    let mut cps = None;
    let mut report_len = None;
    for field in rest.split(' ').filter(|t| !t.is_empty()) {
        let (k, v) = field
            .split_once('=')
            .ok_or_else(|| bad_reply("field is not key=value"))?;
        match k {
            "cache" => cache = Some(v.to_string()),
            "key" => key = Some(parse_hex64(v)?),
            "name" => name = Some(v.to_string()),
            "cycles" => {
                cycles = Some(v.parse::<u64>().map_err(|_| bad_reply("bad cycles"))?);
            }
            "wall" => wall = Some(f64::from_bits(parse_hex64(v)?)),
            "cps" => cps = Some(f64::from_bits(parse_hex64(v)?)),
            "report" => {
                let len = v
                    .parse::<usize>()
                    .map_err(|_| bad_reply("bad report length"))?;
                if len > MAX_REPORT {
                    return Err(bad_reply("report length exceeds the client cap"));
                }
                report_len = Some(len);
            }
            _ => return Err(bad_reply("unknown reply field")),
        }
    }
    match (cache, key, name, cycles, wall, cps, report_len) {
        (Some(cache), Some(key), Some(name), Some(cycles), Some(wall), Some(cps), Some(len)) => {
            Ok((
                SubmitReply {
                    cache,
                    key,
                    row: BenchEntry {
                        name,
                        wall_seconds: wall,
                        simulated_cycles: cycles,
                        cycles_per_second: cps,
                    },
                    report: String::new(),
                },
                len,
            ))
        }
        _ => Err(bad_reply("reply is missing fields")),
    }
}

/// Validates a response header line: relays `ERR` lines as their typed
/// error and returns the text after `OK ` otherwise.
pub fn expect_ok(line: &str) -> Result<&str, ProtoError> {
    let rest = line
        .strip_prefix(MAGIC)
        .ok_or_else(|| bad_reply("reply does not start with the protocol magic"))?
        .trim_start();
    if let Some(err) = rest.strip_prefix("ERR ") {
        let (code, detail) = err.split_once(' ').unwrap_or((err, ""));
        return Err(ProtoError::from_wire(code, detail));
    }
    rest.strip_prefix("OK")
        .map(str::trim_start)
        .or_else(|| rest.strip_prefix("STATS").map(str::trim_start))
        .ok_or_else(|| bad_reply("reply is neither OK, STATS, nor ERR"))
}

fn bad_reply(what: &str) -> ProtoError {
    ProtoError::BadFrame(format!("malformed reply: {what}"))
}

fn parse_hex64(v: &str) -> Result<u64, ProtoError> {
    u64::from_str_radix(v, 16).map_err(|_| bad_reply("bad hex field"))
}

/// Caps attacker-controlled text quoted into error messages.
fn truncate_for_log(s: &str) -> String {
    if s.len() <= 32 {
        return s.to_string();
    }
    let mut end = 32;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}...", &s[..end])
}

/// Buffered frame reader over a byte stream: reads newline-delimited
/// header lines without over-reading past a following length-delimited
/// payload, and maps every I/O failure mode to a typed [`ProtoError`]
/// (timeout, truncation, oversize) instead of a panic or a hang.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream (set a read timeout on it first — the reader
    /// turns `WouldBlock`/`TimedOut` into [`ProtoError::Timeout`]).
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            start: 0,
        }
    }

    /// Reads one `\n`-terminated line of at most `max` bytes, returning
    /// it without the terminator (a trailing `\r` is also stripped, for
    /// hand-typed netcat sessions). EOF mid-line is [`ProtoError::Truncated`];
    /// `max` bytes without a newline is [`ProtoError::Oversized`].
    pub fn read_line(&mut self, max: usize) -> Result<String, ProtoError> {
        loop {
            if let Some(pos) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let line = &self.buf[self.start..self.start + pos];
                let line = match line.last() {
                    Some(b'\r') => &line[..line.len() - 1],
                    _ => line,
                };
                let text = std::str::from_utf8(line)
                    .map_err(|_| ProtoError::BadFrame("frame is not UTF-8".to_string()))?
                    .to_string();
                self.start += pos + 1;
                return Ok(text);
            }
            if self.buf.len() - self.start >= max {
                return Err(ProtoError::Oversized(max));
            }
            self.fill()?;
        }
    }

    /// Reads exactly `n` payload bytes (after a header line announced
    /// them).
    pub fn read_exact_bytes(&mut self, n: usize) -> Result<Vec<u8>, ProtoError> {
        while self.buf.len() - self.start < n {
            self.fill()?;
        }
        let bytes = self.buf[self.start..self.start + n].to_vec();
        self.start += n;
        Ok(bytes)
    }

    fn fill(&mut self) -> Result<(), ProtoError> {
        // Compact consumed bytes so a long-lived reader cannot grow
        // without bound.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; 1024];
        match self.inner.read(&mut chunk) {
            Ok(0) => Err(ProtoError::Truncated),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(ProtoError::Timeout)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(ProtoError::Internal(format!("read failed: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capstan_core::config::{MemAddressing, MemTiming};

    #[test]
    fn submit_fields_parse_in_any_order_with_defaults() {
        let a = parse_request(&format!(
            "{MAGIC} SUBMIT experiment=fig7 scale=small mem=cycle channels=4"
        ))
        .unwrap();
        let b = parse_request(&format!(
            "{MAGIC} SUBMIT channels=4 mem=cycle scale=small experiment=fig7"
        ))
        .unwrap();
        assert_eq!(a, b);
        let Request::Submit(spec) = a else {
            panic!("not a submit")
        };
        assert_eq!(spec.experiment, "fig7");
        assert_eq!(spec.addresses, MemAddressing::Synthetic);
        // Defaults: a bare experiment submits at the CLI defaults.
        let Request::Submit(bare) =
            parse_request(&format!("{MAGIC} SUBMIT experiment=fig4")).unwrap()
        else {
            panic!("not a submit")
        };
        assert_eq!(bare.scale, "medium");
        assert_eq!(bare.channels, 1);
        assert_eq!(bare.tenants, 1);
        // Explicit tenants parse and land in the spec.
        let Request::Submit(mt) = parse_request(&format!(
            "{MAGIC} SUBMIT experiment=fig7 mem=cycle tenants=2"
        ))
        .unwrap() else {
            panic!("not a submit")
        };
        assert_eq!(mt.tenants, 2);
    }

    #[test]
    fn planned_submits_parse_validate_and_round_trip() {
        // A valid blob: 4x4, 4 nnz on the diagonal.
        let blob = "s1:4:4:4:4:1:4:1:1:4";
        let Request::Submit(spec) = parse_request(&format!(
            "{MAGIC} SUBMIT experiment=planner plan=auto stats={blob}"
        ))
        .unwrap() else {
            panic!("not a submit")
        };
        assert_eq!(spec.plan, PlanMode::Auto);
        assert_eq!(spec.stats.as_deref(), Some(blob));
        // format_submit emits the planned form and it re-parses equal.
        let line = format_submit(&spec);
        assert!(line.contains("plan=auto"), "{line}");
        assert!(!line.contains("mem="), "{line}");
        assert_eq!(
            parse_request(line.trim_end()).unwrap(),
            Request::Submit(spec)
        );
        // An explicit plan=fixed is accepted and is the default.
        let Request::Submit(fixed) =
            parse_request(&format!("{MAGIC} SUBMIT experiment=planner plan=fixed")).unwrap()
        else {
            panic!("not a submit")
        };
        assert_eq!(fixed, RunSpec::new("planner"));

        // Combination and value errors.
        let cases: &[&str] = &[
            // auto without stats
            &format!("{MAGIC} SUBMIT experiment=planner plan=auto"),
            // stats without auto
            &format!("{MAGIC} SUBMIT experiment=planner stats={blob}"),
            // auto with a hand-spelled memory configuration
            &format!("{MAGIC} SUBMIT experiment=planner plan=auto stats={blob} mem=cycle"),
            &format!("{MAGIC} SUBMIT experiment=planner plan=auto stats={blob} addresses=recorded"),
            &format!("{MAGIC} SUBMIT experiment=planner plan=auto stats={blob} channels=4"),
            // bad values
            &format!("{MAGIC} SUBMIT experiment=planner plan=maybe"),
            &format!("{MAGIC} SUBMIT experiment=planner plan=auto stats=s1:bogus"),
            &format!("{MAGIC} SUBMIT experiment=planner plan=auto stats=s0:4:4:4:4:1:4:1:1:4"),
        ];
        for line in cases {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code(), "bad-request", "{line} -> {err}");
        }
        // tenants stays a fixed-side knob: the planner does not own it.
        let Request::Submit(mt) = parse_request(&format!(
            "{MAGIC} SUBMIT experiment=planner plan=auto stats={blob} tenants=2"
        ))
        .unwrap() else {
            panic!("not a submit")
        };
        assert_eq!(mt.tenants, 2);
    }

    /// Every combination of scale × mem × addresses × channels ∈ {1, 4}
    /// × tenants ∈ {1, 2} × plan, each built through [`RunSpec::set`].
    fn every_spec() -> Vec<RunSpec> {
        let mut specs = vec![RunSpec::new("table13-atomics")];
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
        specs
    }

    #[test]
    fn every_spec_round_trips_through_format_submit() {
        for mut spec in every_spec() {
            // A planned frame carries stats and leaves the planned
            // fields to the server, so they arrive at their defaults.
            let mut sent = spec.clone();
            if spec.plan == PlanMode::Auto {
                spec.stats = Some("s1:4:4:4:4:1:4:1:1:4".to_string());
                sent = RunSpec {
                    mem: MemTiming::default(),
                    addresses: MemAddressing::default(),
                    channels: 1,
                    ..spec.clone()
                };
            }
            let line = format_submit(&spec);
            assert_eq!(
                parse_request(line.trim_end()),
                Ok(Request::Submit(sent)),
                "{line}"
            );
        }
        assert_eq!(every_spec().len(), 64);
    }

    #[test]
    fn malformed_requests_get_typed_errors() {
        let cases: &[(&str, &str)] = &[
            ("nonsense", "bad-frame"),
            ("capstan-serve/v0 SUBMIT experiment=fig7", "bad-frame"),
            (&format!("{MAGIC} FROBNICATE"), "bad-frame"),
            (&format!("{MAGIC} SUBMIT"), "bad-request"),
            (&format!("{MAGIC} SUBMIT fig7"), "bad-request"),
            (
                &format!("{MAGIC} SUBMIT experiment=fig99"),
                "unknown-experiment",
            ),
            (
                &format!("{MAGIC} SUBMIT experiment=all"),
                "unknown-experiment",
            ),
            (
                &format!("{MAGIC} SUBMIT experiment=fig7 experiment=fig7"),
                "bad-request",
            ),
            (
                &format!("{MAGIC} SUBMIT experiment=fig7 zoom=9"),
                "bad-request",
            ),
            (
                &format!("{MAGIC} SUBMIT experiment=fig7 channels=0"),
                "bad-request",
            ),
            (
                &format!("{MAGIC} SUBMIT experiment=fig7 channels=1000000"),
                "bad-request",
            ),
            (
                &format!("{MAGIC} SUBMIT experiment=fig7 mem=psychic"),
                "bad-request",
            ),
            (
                &format!("{MAGIC} SUBMIT experiment=fig7 tenants=0"),
                "bad-request",
            ),
            (
                &format!("{MAGIC} SUBMIT experiment=fig7 tenants=99"),
                "bad-request",
            ),
            (&format!("{MAGIC} STATS now"), "bad-request"),
        ];
        for (line, code) in cases {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code(), *code, "{line} -> {err}");
        }
    }

    #[test]
    fn nan_and_inf_scale_factors_are_bad_requests() {
        for bad in [
            "la=NaN,graph=0.015,spmspm=0.5,conv=0.1",
            "la=0.04,graph=inf,spmspm=0.5,conv=0.1",
            "la=0.04,graph=0.015,spmspm=-0.5,conv=0.1",
        ] {
            let err =
                parse_request(&format!("{MAGIC} SUBMIT experiment=fig7 scale={bad}")).unwrap_err();
            assert_eq!(err.code(), "bad-request", "{bad} -> {err}");
        }
    }

    #[test]
    fn submit_reply_round_trips_exact_bits() {
        let row = BenchEntry {
            name: "fig7+cycle".to_string(),
            wall_seconds: 0.1 + 0.2,
            simulated_cycles: 365168,
            cycles_per_second: 199729.83,
        };
        let wire = format_submit_reply("miss", 0xdead_beef_0123_4567, &row, "line one\nline two\n");
        let text = String::from_utf8(wire).unwrap();
        let (header, payload) = text.split_once('\n').unwrap();
        let (reply, len) = parse_submit_header(header).unwrap();
        assert_eq!(reply.cache, "miss");
        assert_eq!(reply.key, 0xdead_beef_0123_4567);
        assert_eq!(reply.row.name, row.name);
        assert_eq!(reply.row.wall_seconds.to_bits(), row.wall_seconds.to_bits());
        assert_eq!(
            reply.row.cycles_per_second.to_bits(),
            row.cycles_per_second.to_bits()
        );
        assert_eq!(&payload[..len], "line one\nline two\n");
    }

    #[test]
    fn err_lines_relay_as_typed_errors() {
        let err = ProtoError::UnknownExperiment("fig99".to_string());
        let wire = err.to_wire();
        let relayed = expect_ok(wire.trim_end()).unwrap_err();
        assert_eq!(relayed.code(), "unknown-experiment");
        assert!(relayed.detail().contains("fig99"));
    }

    #[test]
    fn frame_reader_lines_payloads_and_failure_modes() {
        use std::io::Cursor;
        let mut r = FrameReader::new(Cursor::new(b"hello world\r\nBODYrest".to_vec()));
        assert_eq!(r.read_line(64).unwrap(), "hello world");
        assert_eq!(r.read_exact_bytes(4).unwrap(), b"BODY");
        // EOF mid-line is truncation, not a partial line.
        assert_eq!(r.read_line(64).unwrap_err(), ProtoError::Truncated);

        let mut r = FrameReader::new(Cursor::new(vec![b'a'; 100]));
        assert_eq!(r.read_line(16).unwrap_err(), ProtoError::Oversized(16));

        let mut r = FrameReader::new(Cursor::new(vec![0xff, 0xfe, b'\n']));
        assert_eq!(
            r.read_line(16).unwrap_err().code(),
            ProtoError::BadFrame(String::new()).code()
        );
    }
}
