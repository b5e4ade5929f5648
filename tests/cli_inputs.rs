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

/// Runs `args` and asserts a clean rejection: exit 1, an `error:` line
/// naming `needle`, no panic.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn non_square_matrices_and_non_resnet_conv_inputs_exit_one() {
    // A 3x5 matrix: fine for the SpMV formats, but the graph apps, the
    // solvers, SpMSpM (A x A) and GCN index it as a square operator.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_inputs_3x5.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n3 5 4\n1 1 1.0\n2 3 2.0\n3 5 3.0\n1 4 4.0\n",
    )
    .expect("temp matrix written");
    let matrix = path.to_str().expect("utf-8 temp path");
    for app in [
        "pr-pull", "pr-edge", "bfs", "sssp", "spmspm", "bicgstab", "cg", "gcn",
    ] {
        assert_rejected(
            &["--app", app, "--matrix", matrix],
            "needs a square matrix, got 3x5",
        );
    }
    let run = cli(&["--app", "csr-spmv", "--matrix", matrix]);
    assert!(run.status.success(), "{run:?}");

    // Conv always runs a ResNet-50 layer, so any other input is refused
    // rather than silently replaced by layer 2.
    assert_rejected(&["--app", "conv", "--matrix", matrix], "not --matrix");
    assert_rejected(
        &["--app", "conv", "--dataset", "ckt11752", "--scale", "0.02"],
        "got `ckt11752`",
    );
}

#[test]
fn matrix_market_headers_and_coordinates_past_the_index_range_exit_one() {
    // A coordinate past the `u32` index range must not truncate to a
    // valid row, and neither a declared entry count nor an extent may
    // size a host allocation before it is validated (an allocation
    // failure aborts with exit 134).
    let cases = [
        (
            "row",
            "2 2 1\n4294967297 1 5.0\n",
            "index 4294967296 out of bounds",
        ),
        ("nnz", "2 2 1000000000000000\n1 1 5.0\n", "length mismatch"),
        (
            "rows",
            "100000000000 2 1\n1 1 5.0\n",
            "exceeds format maximum",
        ),
        // Every `u32` row fits, but 2^32 + 1 CSR row pointers do not.
        (
            "rows_2_32",
            "4294967296 2 1\n1 1 5.0\n",
            "exceeds format maximum",
        ),
    ];
    for (name, body, needle) in cases {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("cli_inputs_huge_{name}.mtx"));
        std::fs::write(
            &path,
            format!("%%MatrixMarket matrix coordinate real general\n{body}"),
        )
        .expect("temp matrix written");
        let matrix = path.to_str().expect("utf-8 temp path");
        assert_rejected(&["--app", "csr-spmv", "--matrix", matrix], needle);
    }
}
