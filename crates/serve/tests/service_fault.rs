//! Fault injection: a worker killed mid-sweep (the simulator's
//! `CAPSTAN_FAULT_AFTER_CYCLES` exit-43 knob on its own, armed for
//! exactly one spawn by the server's test hook) is respawned and
//! *resumes* from its journal — and the batch's merged results are
//! byte-identical to an uninterrupted run.

mod common;

use capstan_core::config::MemTiming;
use capstan_serve::client;
use capstan_serve::key::RunSpec;
use capstan_serve::server::{Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

/// The two cycle-mode experiments submitted as one batch. At `small`
/// scale the first simulates ~73k cycles and the second ~163k more. The
/// fault is checked at the end of every cycle-level drain, so a
/// threshold of 100k lets the worker journal the first row and die at
/// the first drain end of the second past 100k — the respawn must
/// replay row one and only recompute row two.
const NAMES: [&str; 2] = ["table13-atomics", "table13-recorded"];
const FAULT_AFTER_CYCLES: u64 = 100_000;

fn spec_for(name: &str) -> RunSpec {
    let mut spec = RunSpec::new(name);
    spec.scale = "small".to_string();
    spec.mem = MemTiming::CycleLevel;
    spec
}

#[test]
fn killed_worker_resumes_and_results_match_an_uninterrupted_run() {
    let workdir = common::tmpdir("fault");
    let mut config = ServerConfig::new(PathBuf::from(common::bin()), workdir.clone());
    config.fault_first_worker = Some(FAULT_AFTER_CYCLES);
    // A longer linger makes the two submissions land in one batch (and
    // therefore one worker) deterministically.
    config.batch_linger = Duration::from_millis(500);
    let handle = Server::bind("127.0.0.1:0", config)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr.to_string();

    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = NAMES
            .iter()
            .map(|name| {
                let addr = &addr;
                scope.spawn(move || client::submit(addr, &spec_for(name), None).expect("submit"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    // The server really did lose a worker and resume it.
    let stats: std::collections::HashMap<String, u64> =
        client::stats(&addr).expect("stats").into_iter().collect();
    assert_eq!(
        stats["batches"], 1,
        "submissions split across batches: {stats:?}"
    );
    assert_eq!(stats["worker_spawns"], 2, "no respawn happened: {stats:?}");
    assert_eq!(stats["worker_retries"], 1, "{stats:?}");
    assert!(
        stats["rows_resumed"] >= 1,
        "the respawn replayed no journaled rows: {stats:?}"
    );
    assert_eq!(stats["errors"], 0, "{stats:?}");

    client::shutdown(&addr).expect("shutdown");
    handle.join().expect("server exit");

    // Byte-identity against an uninterrupted run: the direct invocation
    // of the same batch prints the same reports in the same order, and
    // the simulated-cycle counts (the machine-independent outputs; wall
    // time is timing, not content) agree row for row.
    let mut direct_args: Vec<&str> = NAMES.to_vec();
    direct_args.extend(["--scale", "small", "--mem", "cycle"]);
    let direct = common::run_ok(&direct_args, &[]);
    let served: Vec<u8> = replies
        .iter()
        .flat_map(|r| r.report.as_bytes().iter().copied())
        .collect();
    assert_eq!(
        served, direct,
        "resumed batch reports diverged from the uninterrupted run"
    );
    assert_eq!(replies[0].row.name, "table13-atomics+cycle");
    assert_eq!(replies[1].row.name, "table13-recorded+cycle");
    for reply in &replies {
        assert!(
            reply.row.simulated_cycles > 0,
            "{}: no cycles simulated",
            reply.row.name
        );
    }

    // Sanity on the fault geometry: the first experiment alone stays
    // under the threshold (so the armed worker survives long enough to
    // journal it) and the pair crosses it (so the worker does die).
    let total: u64 = replies.iter().map(|r| r.row.simulated_cycles).sum();
    assert!(replies[0].row.simulated_cycles < FAULT_AFTER_CYCLES);
    assert!(total > FAULT_AFTER_CYCLES);

    let _ = std::fs::remove_dir_all(&workdir);
}
