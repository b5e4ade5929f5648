//! Deduplication: N concurrent identical submissions run exactly one
//! simulation, proven from the server's own accounting — plus property
//! tests pinning the job key's normalization invariants.

mod common;

use capstan_serve::client;
use capstan_serve::key::{JobKey, RunSpec};
use capstan_serve::server::{Server, ServerConfig};
use proptest::prelude::*;
use std::path::PathBuf;

fn counters(addr: &str) -> std::collections::HashMap<String, u64> {
    client::stats(addr).expect("stats").into_iter().collect()
}

#[test]
fn concurrent_identical_submissions_simulate_once() {
    const N: usize = 8;
    let workdir = common::tmpdir("dedup");
    let config = ServerConfig::new(PathBuf::from(common::bin()), workdir.clone());
    let handle = Server::bind("127.0.0.1:0", config)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr.to_string();

    let mut spec = RunSpec::new("fig4");
    spec.scale = "small".to_string();
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let addr = &addr;
                let spec = &spec;
                scope.spawn(move || client::submit(addr, spec, None).expect("submit"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    // All N responses byte-identical.
    for reply in &replies[1..] {
        assert_eq!(reply.report, replies[0].report, "responses diverged");
        assert_eq!(reply.row, replies[0].row, "bench rows diverged");
    }
    assert_eq!(replies[0].row.name, "fig4");
    assert!(!replies[0].report.is_empty());

    // Exactly one simulation, by the server's own accounting: one miss
    // reached a core, one worker was spawned, and the other N-1
    // requests either coalesced onto the waiting job or hit the
    // finished one (the split depends on arrival timing).
    let stats = counters(&addr);
    assert_eq!(stats["submits"], N as u64);
    assert_eq!(
        stats["misses"], 1,
        "more than one simulation ran: {stats:?}"
    );
    assert_eq!(stats["worker_spawns"], 1, "{stats:?}");
    assert_eq!(
        stats["cache_hits"] + stats["coalesced"],
        (N - 1) as u64,
        "{stats:?}"
    );
    assert_eq!(stats["batches"], 1, "{stats:?}");
    assert_eq!(stats["errors"], 0, "{stats:?}");

    // A late duplicate is a pure cache hit.
    let late = client::submit(&addr, &spec, None).expect("late submit");
    assert_eq!(late.cache, "hit");
    assert_eq!(late.report, replies[0].report);
    let stats = counters(&addr);
    assert_eq!(stats["misses"], 1);
    assert_eq!(stats["worker_spawns"], 1);

    client::shutdown(&addr).expect("shutdown");
    handle.join().expect("server exit");
    let _ = std::fs::remove_dir_all(&workdir);
}

/// The job key with the given custom-scale factor spellings.
fn key_for(
    experiment: &str,
    la: &str,
    graph: &str,
    spmspm: &str,
    conv: &str,
    channels: usize,
) -> JobKey {
    let mut spec = RunSpec::new(experiment);
    spec.scale = format!("la={la},graph={graph},spmspm={spmspm},conv={conv}");
    spec.channels = channels;
    spec.key().expect("valid spec keys")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The key holds parsed values, not spellings: scientific
    /// notation, trailing zeros, and field order (exercised at the
    /// protocol layer; `RunSpec` holds parsed fields) all map to the
    /// same key.
    #[test]
    fn job_key_is_invariant_under_factor_spelling(
        (la, graph, spmspm, conv) in (1e-3..1.0f64, 1e-3..1.0f64, 1e-3..1.0f64, 1e-3..1.0f64),
    ) {
        let plain = key_for(
            "fig7",
            &format!("{la}"),
            &format!("{graph}"),
            &format!("{spmspm}"),
            &format!("{conv}"),
            1,
        );
        let scientific = key_for(
            "fig7",
            &format!("{la:e}"),
            &format!("{graph:e}"),
            &format!("{spmspm:e}"),
            &format!("{conv:e}"),
            1,
        );
        prop_assert_eq!(plain, scientific, "spelling moved the key");
    }

    /// Any single-field change moves the key: a different factor, a
    /// different experiment, a different channel count.
    #[test]
    fn job_key_separates_any_single_field_change(
        (la, graph, spmspm, conv) in (1e-3..1.0f64, 1e-3..1.0f64, 1e-3..1.0f64, 1e-3..1.0f64),
    ) {
        let la_s = format!("{la}");
        let graph_s = format!("{graph}");
        let spmspm_s = format!("{spmspm}");
        let conv_s = format!("{conv}");
        let base = key_for("fig7", &la_s, &graph_s, &spmspm_s, &conv_s, 1);
        // Perturb one scale factor (stays within Suite::parse's bounds).
        let bumped = format!("{}", la * 0.5);
        prop_assert_ne!(
            base,
            key_for("fig7", &bumped, &graph_s, &spmspm_s, &conv_s, 1),
            "a changed factor kept the key"
        );
        prop_assert_ne!(
            base,
            key_for("fig4", &la_s, &graph_s, &spmspm_s, &conv_s, 1),
            "a changed experiment kept the key"
        );
        prop_assert_ne!(
            base,
            key_for("fig7", &la_s, &graph_s, &spmspm_s, &conv_s, 4),
            "a changed channel count kept the key"
        );
    }
}
