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
//! And it records each (app, dataset, recording configuration) once per
//! process. `table12` and `fig7` record under `table9`'s configuration
//! and need only its replays and routes, so after `table9` they record
//! nothing. With the recording memo cleared they record again, and must
//! print the same bytes and add the same cycles as when they did not.
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
    let (_, table9_cycles) = run("table9", &suite);
    assert!(table9_cycles > 0);

    let before = recordings();
    let from_memo = ["table12", "fig7"].map(|name| run(name, &suite));
    assert_eq!(
        recordings(),
        before,
        "table12 and fig7 recorded what table9 already had"
    );
    for (name, memoized) in ["table12", "fig7"].iter().zip(&from_memo) {
        clear_recordings();
        let before = recordings();
        let recorded = run(name, &suite);
        assert!(recordings() > before, "{name} did not record after a clear");
        assert_eq!(
            recorded.0, memoized.0,
            "{name} report bytes changed with a recording"
        );
        assert!(memoized.1 > 0, "{name} added no simulated cycles");
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
