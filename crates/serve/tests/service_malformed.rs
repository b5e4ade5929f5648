//! Hostile-client hardening: truncated frames, oversized payloads,
//! unknown experiments, non-finite config floats, binary garbage, and
//! stalled sockets all get typed protocol errors — and the server keeps
//! serving afterwards. Never a panic, never a hung handler.

mod common;

use capstan_serve::client;
use capstan_serve::key::RunSpec;
use capstan_serve::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// Sends raw bytes as one connection's request and returns the raw
/// reply (optionally half-closing the write side to simulate a client
/// that hung up mid-frame).
fn raw_exchange(addr: &str, payload: &[u8], close_write: bool) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(payload).expect("send");
    if close_write {
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
    }
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    reply
}

#[test]
fn malformed_requests_get_typed_errors_and_the_server_survives() {
    let workdir = common::tmpdir("malformed");
    let mut config = ServerConfig::new(PathBuf::from(common::bin()), workdir.clone());
    // Short socket timeout so the stalled-client case resolves quickly.
    config.read_timeout = Duration::from_millis(300);
    let handle = Server::bind("127.0.0.1:0", config)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr.to_string();

    // (payload, close_write, expected error code)
    let cases: &[(&[u8], bool, &str)] = &[
        // Not the protocol at all.
        (b"GET / HTTP/1.1\r\n", false, "ERR bad-frame"),
        // Binary garbage (not UTF-8).
        (&[0xff, 0xfe, 0x00, b'\n'], false, "ERR bad-frame"),
        // Right magic, unknown verb.
        (b"capstan-serve/v1 FROBNICATE\n", false, "ERR bad-frame"),
        // Unknown experiment.
        (
            b"capstan-serve/v1 SUBMIT experiment=fig99\n",
            false,
            "ERR unknown-experiment",
        ),
        // Non-finite config floats.
        (
            b"capstan-serve/v1 SUBMIT experiment=fig7 scale=la=NaN,graph=0.1,spmspm=0.1,conv=0.1\n",
            false,
            "ERR bad-request",
        ),
        (
            b"capstan-serve/v1 SUBMIT experiment=fig7 scale=la=inf,graph=0.1,spmspm=0.1,conv=0.1\n",
            false,
            "ERR bad-request",
        ),
        // A factor past the full dataset is refused up front, not left
        // to panic a worker.
        (
            b"capstan-serve/v1 SUBMIT experiment=table6 scale=la=2,graph=0.015,spmspm=0.5,conv=0.1\n",
            false,
            "ERR bad-request",
        ),
        // Truncated frame: the peer hangs up mid-line.
        (b"capstan-serve/v1 SUB", true, "ERR truncated"),
        // Missing required field.
        (b"capstan-serve/v1 SUBMIT\n", false, "ERR bad-request"),
    ];
    for (payload, close_write, want) in cases {
        let reply = raw_exchange(&addr, payload, *close_write);
        assert!(
            reply.contains(want),
            "payload {:?}: expected {want}, got {reply:?}",
            String::from_utf8_lossy(payload)
        );
        assert!(
            reply.starts_with("capstan-serve/v1 "),
            "untagged reply: {reply:?}"
        );
    }

    // Oversized frame: a newline-less flood is cut off at the frame cap
    // (well before it could exhaust memory).
    let flood = vec![b'a'; 8 * 1024];
    let reply = raw_exchange(&addr, &flood, false);
    assert!(reply.contains("ERR oversized"), "got {reply:?}");

    // Stalled client: connect, send nothing, wait — the read timeout
    // answers, the handler thread is not wedged forever.
    let reply = raw_exchange(&addr, b"", true);
    assert!(reply.contains("ERR truncated"), "got {reply:?}");
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    assert!(reply.contains("ERR timeout"), "got {reply:?}");

    // The typed client maps relayed errors back to typed values.
    let mut bad = RunSpec::new("fig7");
    bad.scale = "small".to_string();
    bad.experiment = "not-an-experiment".to_string();
    let err = client::submit(&addr, &bad, None).expect_err("unknown experiment");
    assert_eq!(err.code(), "unknown-experiment");

    // After all of the abuse, the server still serves: liveness probe
    // plus a real (instant at small scale) submission.
    client::ping(&addr).expect("server still answers pings");
    let mut spec = RunSpec::new("table5");
    spec.scale = "small".to_string();
    let reply = client::submit(&addr, &spec, None).expect("server still simulates");
    assert!(!reply.report.is_empty());

    // The widest configuration the wire accepts runs: every input the
    // protocol takes either runs or is a typed request error, never a
    // failed worker.
    let mut widest = RunSpec::new("fig7");
    for (key, value) in [
        ("scale", "la=1e-9,graph=1e-9,spmspm=1e-9,conv=1e-9"),
        ("mem", "cycle"),
        ("addresses", "recorded"),
        ("channels", "1024"),
        ("tenants", "8"),
    ] {
        widest.set(key, value).expect("an accepted value");
    }
    let reply = client::submit(&addr, &widest, None).expect("the widest spec runs");
    assert_eq!(reply.row.name, "fig7+cycle+rec+ch1024+mt8");

    client::shutdown(&addr).expect("shutdown");
    handle.join().expect("server exit");
    let _ = std::fs::remove_dir_all(&workdir);
}
