#!/usr/bin/env python3
"""Runs one workload of the DSA reproduction's benchmark.

    python3 dlpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `dlpbench` binary from
source (release profile, into $CARGO_TARGET_DIR, default `.bench_build`),
then runs the workload in its own process and prints one JSON object as
the last line of stdout: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (`setup_s`,
`peak_rss_mb`, `ops_per_s`, `p50_ms`, `p99_ms`). `setup_s` is the median
over the measured process and SETUP_RUNS more processes that only set
up, each from a cold start. With `--trace 1` they are the per-layer
ones from the traced run. Exits non-zero, printing no result, if the
build or any run fails. Seeds: see `seeds.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["scalar-grid", "dsa-grid", "forge-campaign", "serve-steady"]
# Extra set-up-only processes per measured run.
SETUP_RUNS = 3
# Per-process limit, seconds; the whole run must end within 180 s.
PROCESS_TIMEOUT = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "dlpbench")
    if not os.path.isfile(binary):
        fail(f"no binary at {binary}")
    return binary


def run(cmd):
    """Runs one benchmark process; returns its last stdout line as JSON."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=PROCESS_TIMEOUT, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd[1:])}: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{' '.join(cmd[1:])}: exit code {done.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(HERE, "seeds.json")) as f:
        seeds = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=seeds["default"])
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        print(json.dumps(run(cmd)))
        return
    setups = [run(cmd + ["--setup-only"])["setup_s"] for _ in range(SETUP_RUNS)]
    result = run(cmd)
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
