//! Black-box conformance: a served run's output is byte-identical to a
//! direct `experiments` invocation — across worker thread counts and
//! across the analytic/cycle memory modes. Both sides run as
//! subprocesses with an explicit environment; the test process itself
//! never simulates (the process-wide run mode is set once) and never
//! mutates its own env.

mod common;

use common::{run_ok, ServerProc};

/// One conformance scenario: experiment names plus the memory-mode
/// flags that describe the request on both sides.
struct Scenario {
    tag: &'static str,
    names: &'static [&'static str],
    mode_flags: &'static [&'static str],
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        tag: "analytic",
        names: &["table5", "fig4"],
        mode_flags: &[],
    },
    Scenario {
        tag: "cycle",
        names: &["table13-atomics"],
        mode_flags: &["--mem", "cycle"],
    },
];

#[test]
fn served_output_is_byte_identical_to_direct_runs() {
    for scenario in SCENARIOS {
        // The reference bytes: a plain direct invocation at one thread.
        let mut direct_args: Vec<&str> = scenario.names.to_vec();
        direct_args.extend(["--scale", "small"]);
        direct_args.extend(scenario.mode_flags);
        let direct = run_ok(&direct_args, &[("CAPSTAN_THREADS", "1")]);
        assert!(
            !direct.is_empty(),
            "{}: direct run printed nothing",
            scenario.tag
        );

        for threads in ["1", "2", "4"] {
            let server = ServerProc::start(
                &format!("equiv-{}-t{threads}", scenario.tag),
                &[("CAPSTAN_THREADS", threads)],
            );
            let mut submit_args: Vec<&str> = scenario.names.to_vec();
            submit_args.extend(["--submit", &server.addr, "--scale", "small"]);
            submit_args.extend(scenario.mode_flags);

            // First submission simulates; the repeat must come from the
            // cache — and both must match the direct bytes exactly.
            let served = run_ok(&submit_args, &[("CAPSTAN_THREADS", threads)]);
            assert_eq!(
                served, direct,
                "{} at {threads} threads: served output diverged from the direct run",
                scenario.tag
            );
            let repeat = run_ok(&submit_args, &[("CAPSTAN_THREADS", threads)]);
            assert_eq!(
                repeat, direct,
                "{} at {threads} threads: cached replay diverged",
                scenario.tag
            );
            server.shutdown();
        }
    }
}
