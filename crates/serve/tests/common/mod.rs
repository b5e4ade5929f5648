//! Shared harness for the black-box service tests: locating the
//! `experiments` binary, running it as a subprocess with a controlled
//! environment (the tests never mutate the test process's own env —
//! the process-wide run mode is set once and shared across test threads),
//! and driving a server subprocess through its readiness line.

#![allow(dead_code)] // each test file uses a different helper subset

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// The `experiments` binary under test (built by cargo for this
/// package).
pub fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_experiments")
}

/// A fresh scratch directory under the target-adjacent temp dir.
pub fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("capstan-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the binary with `args` and `envs`, asserting success, and
/// returns its exact stdout bytes.
pub fn run_ok(args: &[&str], envs: &[(&str, &str)]) -> Vec<u8> {
    let mut cmd = Command::new(bin());
    cmd.args(args).stdin(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("run experiments");
    assert!(
        out.status.success(),
        "experiments {args:?} failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// A server subprocess, killed on drop. `envs` apply to the server and
/// are inherited by its workers.
pub struct ServerProc {
    child: Option<Child>,
    /// The bound address parsed from the readiness line.
    pub addr: String,
    workdir: PathBuf,
}

impl ServerProc {
    /// Starts `experiments --serve 127.0.0.1:0` and waits for the
    /// readiness line on stdout.
    pub fn start(tag: &str, envs: &[(&str, &str)]) -> ServerProc {
        use std::io::BufRead;
        let workdir = tmpdir(tag);
        let mut cmd = Command::new(bin());
        cmd.args([
            "--serve",
            "127.0.0.1:0",
            "--serve-workdir",
            workdir.to_str().expect("utf-8 path"),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn server");
        let stdout = child.stdout.take().expect("server stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("server readiness line");
        let addr = line
            .trim()
            .strip_prefix("capstan-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected readiness line: {line:?}"))
            .to_string();
        ServerProc {
            child: Some(child),
            addr,
            workdir,
        }
    }

    /// Asks the server to shut down and waits for a clean exit.
    pub fn shutdown(mut self) {
        let status = Command::new(bin())
            .args(["--serve-shutdown", &self.addr])
            .status()
            .expect("run serve-shutdown");
        assert!(status.success(), "serve-shutdown failed: {status}");
        let status = self
            .child
            .take()
            .expect("server child")
            .wait()
            .expect("server exit");
        assert!(status.success(), "server exited with {status}");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.workdir);
    }
}
