//! Server lifecycle: finished handler threads are reaped as they end,
//! and `SHUTDOWN` wakes the blocking accept loop on its own, whether
//! the server is bound to loopback or to the unspecified address.

mod common;

use capstan_serve::client;
use capstan_serve::key::RunSpec;
use capstan_serve::server::{Server, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

fn start(bind: &str, tag: &str) -> (ServerHandle, PathBuf) {
    let workdir = common::tmpdir(tag);
    let config = ServerConfig::new(PathBuf::from(common::bin()), workdir.clone());
    let handle = Server::bind(bind, config)
        .expect("bind")
        .spawn()
        .expect("spawn");
    (handle, workdir)
}

/// Sends `SHUTDOWN` to `addr` and asserts the server thread exits within
/// 10 s. The join runs on its own thread, so a wedged accept loop fails
/// the test instead of hanging it.
fn shutdown_within_10s(addr: &str, handle: ServerHandle) {
    client::shutdown(addr).expect("shutdown");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(result) => result.expect("server exit"),
        Err(_) => panic!("server still running 10 s after SHUTDOWN"),
    }
}

#[test]
fn sequential_hits_keep_handler_count_bounded() {
    const HITS: u64 = 200;
    let (handle, workdir) = start("127.0.0.1:0", "reap");
    let addr = handle.addr.to_string();
    let mut spec = RunSpec::new("table5");
    spec.scale = "small".to_string();
    let first = client::submit(&addr, &spec, None).expect("first submit");
    assert_eq!(first.cache, "miss");
    for _ in 0..HITS {
        let reply = client::submit(&addr, &spec, None).expect("repeat submit");
        assert_eq!(reply.cache, "hit");
    }
    let stats: HashMap<String, u64> = client::stats(&addr).expect("stats").into_iter().collect();
    assert_eq!(stats["misses"], 1, "{stats:?}");
    assert_eq!(stats["cache_hits"], HITS, "{stats:?}");
    assert!(stats["connections"] > HITS, "{stats:?}");
    assert!(stats["handlers_live"] <= 2, "{stats:?}");
    let hit_total: u64 = stats
        .iter()
        .filter(|(k, _)| k.starts_with("hit_"))
        .map(|(_, v)| v)
        .sum();
    let miss_total: u64 = stats
        .iter()
        .filter(|(k, _)| k.starts_with("miss_"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(hit_total, HITS, "{stats:?}");
    assert_eq!(miss_total, 1, "{stats:?}");
    shutdown_within_10s(&addr, handle);
    let _ = std::fs::remove_dir_all(&workdir);
}

#[test]
fn shutdown_wakes_accept_on_loopback() {
    let (handle, workdir) = start("127.0.0.1:0", "wake-loopback");
    let addr = handle.addr.to_string();
    shutdown_within_10s(&addr, handle);
    let _ = std::fs::remove_dir_all(&workdir);
}

#[test]
fn shutdown_wakes_accept_on_unspecified_address() {
    let (handle, workdir) = start("0.0.0.0:0", "wake-any");
    assert!(handle.addr.ip().is_unspecified());
    let addr = format!("127.0.0.1:{}", handle.addr.port());
    shutdown_within_10s(&addr, handle);
    let _ = std::fs::remove_dir_all(&workdir);
}
