#!/usr/bin/env python3
"""Build the Capstan simulator and its benchmark from source, then run one
workload.

    python3 perfbench/run.py --workload paper-suite|mem-cycle|serve-zipf \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`). The benchmark binary's full output is kept in
`perfbench/out/<workload>-s<seed>-t<trace>.log`; its last line, one JSON
object, is printed as this script's last line. Any build or run failure
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

THREADS = "2"


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    env["CAPSTAN_THREADS"] = THREADS
    builds = [
        # The program: the `experiments` binary the serve workers run.
        ["cargo", "build", "--release", "--offline", "-p", "capstan-serve", "--bin", "experiments"],
        # The benchmark: its own package, linking the workspace crates.
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        # Cargo's output goes to stderr so stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    args = sys.argv[1:]
    out_dir = os.path.join("perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(target, "release", "perfbench")] + args + [
        "--worker-exe", os.path.join(target, "release", "experiments"),
    ]
    tag = "-".join(args[i + 1] for i, a in enumerate(args[:-1]) if a in ("--workload", "--seed", "--trace"))
    log_path = os.path.join(out_dir, (tag or "run") + ".log")
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=None, text=True)
        log.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"perfbench: run failed with exit code {proc.returncode}; see {log_path}", file=sys.stderr)
        return proc.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
