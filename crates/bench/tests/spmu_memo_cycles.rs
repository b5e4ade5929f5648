//! Simulated-cycle credit of the replay memos, end to end.
//!
//! `capstan_core::perf` replays each distinct (SpMU configuration, masked
//! trace) once per process and credits the stored cycles on every later
//! hit. Per-experiment simulated-cycle deltas therefore must not depend
//! on whether a replay ran or hit: `table11` re-costs the tiles `table9`
//! already replayed, so its first run is mostly hits and its second run
//! is all hits, and both must print the same bytes and add the same
//! cycles. A hit that forgot to credit would make the second delta
//! smaller than the first (or both zero).
//!
//! It also routes each distinct (shuffle configuration, per-port streams)
//! once per process. `fig7` re-costs the tiles `table9` recorded under
//! the same network, so after `table9` every route in `fig7` is a memo
//! hit; its two runs must print the same bytes and add the same cycles
//! too.
//!
//! And it records each (app, dataset, `RecordConfig`) once per process.
//! `table12` and `fig7` record under `table9`'s configuration and need
//! only its replays and routes, so after `table9` they record nothing.
//! `table13`, `fig5a`, `fig5b` and `fig6` record only the points that
//! `table9` and each other have not: `fig5b`'s paper-default outer-par
//! and `fig6`'s paper-default scanners come from the memo, and `fig6`'s
//! section base shares a recording with the swept value that records
//! alike. The test pins how many recordings each experiment adds, warm
//! and with the recording memo cleared, and each must print the same
//! bytes and add the same cycles both ways.
//!
//! This file holds a single test on purpose: the simulated-cycle and
//! recording counters are process-wide, so no other test may run
//! concurrently in this process.

use capstan_bench::experiments::{clear_recordings, run_by_name};
use capstan_bench::Suite;
use capstan_core::program::recordings;
use capstan_sim::stats::simulated_cycles;

/// Runs one experiment and returns its report and simulated-cycle delta.
fn run(name: &str, suite: &Suite) -> (String, u64) {
    let before = simulated_cycles();
    let report = run_by_name(name, suite).expect("known experiment");
    (report, simulated_cycles() - before)
}

#[test]
fn memo_hits_credit_the_cycles_a_replay_would_have_added() {
    let suite = Suite::parse("la=0.01,graph=0.004,spmspm=0.1,conv=0.03").unwrap();
    // (experiment, recordings it adds in this order, recordings it adds
    // with the recording memo cleared).
    let pins = [
        ("table9", 33, 33),
        ("table12", 0, 33),
        ("fig7", 0, 33),
        ("table13", 3, 6),
        ("fig5a", 4, 10),
        ("fig5b", 30, 35),
        ("fig6", 40, 48),
    ];
    let recorded_by = |name: &str| {
        let before = recordings();
        let run = run(name, &suite);
        (run, recordings() - before)
    };
    let from_memo: Vec<(String, u64)> = pins
        .iter()
        .map(|&(name, warm, _)| {
            let (run, added) = recorded_by(name);
            assert_eq!(
                added, warm,
                "{name} recordings after the experiments before it"
            );
            assert!(run.1 > 0, "{name} added no simulated cycles");
            run
        })
        .collect();
    for (&(name, _, cold), memoized) in pins.iter().zip(&from_memo) {
        clear_recordings();
        let (recorded, added) = recorded_by(name);
        assert_eq!(added, cold, "{name} recordings with the memo cleared");
        assert_eq!(
            recorded.0, memoized.0,
            "{name} report bytes changed with a recording"
        );
        assert_eq!(
            recorded.1, memoized.1,
            "{name} simulated-cycle delta changed with a recording"
        );
    }

    let (first, first_cycles) = run("table11", &suite);
    let (second, second_cycles) = run("table11", &suite);
    assert_eq!(first, second, "table11 report bytes changed on a memo hit");
    assert!(first_cycles > 0, "table11 added no simulated cycles");
    assert_eq!(
        first_cycles, second_cycles,
        "table11 simulated-cycle delta changed on a memo hit"
    );
    let (first, first_cycles) = run("fig7", &suite);
    let (second, second_cycles) = run("fig7", &suite);
    assert_eq!(first, second, "fig7 report bytes changed on a memo hit");
    assert!(first_cycles > 0, "fig7 added no simulated cycles");
    assert_eq!(
        first_cycles, second_cycles,
        "fig7 simulated-cycle delta changed on a memo hit"
    );
}
