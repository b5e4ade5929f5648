//! The parallel experiment harness must produce byte-identical report
//! text, and add the same simulated cycles, as the serial path, whatever
//! the worker count.
//!
//! All thread-count variations live in ONE test, and it is the file's
//! only test, because `CAPSTAN_THREADS` and the simulated-cycle counter
//! are process-global state.

use capstan_bench::experiments::{clear_recordings, run_by_name};
use capstan_bench::Suite;
use capstan_sim::stats::simulated_cycles;

/// Every experiment whose sweep runs through `par_map`, with the suite
/// it runs on. `table13` is left out: its EIE block is fixed-size, so
/// even a tiny suite would make this test slow.
fn runs() -> Vec<(&'static str, Suite)> {
    let small = Suite::small();
    // The tiny suite of `spmu_memo_cycles.rs`.
    let tiny = Suite::parse("la=0.01,graph=0.004,spmspm=0.1,conv=0.03").unwrap();
    let mut runs = vec![("table4", small), ("table10", small), ("fig4", small)];
    for name in [
        "table9",
        "table11",
        "table12",
        "fig5b",
        "fig6",
        "fig7",
        "extensions",
    ] {
        runs.push((name, tiny));
    }
    runs
}

/// Runs every experiment once, returning each one's report and
/// simulated-cycle delta. The recording memo starts empty, so every
/// thread count records in parallel rather than reusing the last one's
/// recordings.
fn run_all(runs: &[(&'static str, Suite)]) -> Vec<(&'static str, String, u64)> {
    clear_recordings();
    runs.iter()
        .map(|(name, suite)| {
            let before = simulated_cycles();
            let report = run_by_name(name, suite).expect("known experiment");
            (*name, report, simulated_cycles() - before)
        })
        .collect()
}

#[test]
fn parallel_harness_matches_serial_report_text_and_cycles() {
    let runs = runs();
    std::env::set_var("CAPSTAN_THREADS", "1");
    let serial = run_all(&runs);
    for threads in ["2", "5", "13"] {
        std::env::set_var("CAPSTAN_THREADS", threads);
        for ((name, report, cycles), (_, serial_report, serial_cycles)) in
            run_all(&runs).iter().zip(&serial)
        {
            assert_eq!(
                report, serial_report,
                "{name} report text diverged with CAPSTAN_THREADS={threads}"
            );
            assert_eq!(
                cycles, serial_cycles,
                "{name} simulated-cycle delta diverged with CAPSTAN_THREADS={threads}"
            );
        }
    }
    std::env::remove_var("CAPSTAN_THREADS");
}
