//! End-to-end input handling of the `capstan-cli` binary: every accepted
//! input runs, and every rejected one exits 1 with an `error:` line
//! instead of a panic.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_capstan-cli"))
        .args(args)
        .output()
        .expect("capstan-cli starts")
}

#[test]
fn list_and_a_small_run_exit_zero() {
    let list = cli(&["--list"]);
    assert!(list.status.success(), "{list:?}");
    assert!(String::from_utf8_lossy(&list.stdout).contains("csr-spmv"));

    // 1e-300 GB/s is finite and positive, so it is accepted: its DRAM
    // time is past `u64::MAX`, and the cycle count saturates near it.
    let base = [
        "--app",
        "csr-spmv",
        "--dataset",
        "ckt11752",
        "--scale",
        "0.02",
    ];
    for extra in [&[][..], &["--memory", "1e-300"][..]] {
        let run = cli(&[&base[..], extra].concat());
        assert!(run.status.success(), "{extra:?}: {run:?}");
        assert!(String::from_utf8_lossy(&run.stdout).contains("cycles"));
    }
}

#[test]
fn bad_scales_and_bandwidths_exit_one_without_panicking() {
    let base = ["--app", "csr-spmv", "--dataset", "ckt11752"];
    let bad: [[&str; 2]; 8] = [
        ["--scale", "2"],
        ["--scale", "0"],
        ["--scale", "nan"],
        ["--scale", "-0.5"],
        ["--memory", "0"],
        ["--memory", "-5"],
        ["--memory", "inf"],
        ["--memory", "nan"],
    ];
    for flag in bad {
        let out = cli(&[&base[..], &flag[..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{flag:?}: {stderr}");
    }
}
