#!/usr/bin/env python3
"""Service benchmark: one command, run from the repository root.

    python3 perfbench/run.py --workload stream --seed 2018 --seconds 20 --trace 0

Builds `perfbench/` (a cargo workspace of its own that depends on the
repository's crates by path), then:

* `--trace 0`: times `setup_s` in several fresh processes and reports
  their median, then runs the workload's untraced `run_service`
  repetitions in one more process for `--seconds` and reports the median
  throughput, peak RSS and accepted share.
* `--trace 1`: runs the traced replay next to untraced runs for
  `--seconds` and reports the per-layer metrics.

Every run checks its outputs; a failed check exits non-zero without a
result. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Cargo builds into `$CARGO_TARGET_DIR` (default `.bench_build`). Processes
run with `ULP_PAR_THREADS=1` and every other `ULP_*` variable removed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("stream", "census", "hostile")
# Fresh processes timed for `setup_s`; their median is reported.
SETUP_PROCESSES = 7
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ULP_")}
    env["ULP_PAR_THREADS"] = "1"
    return env


def build(root):
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with status {done.returncode}")
    return os.path.join(target, "release", "ulp-perfbench")


def run_child(binary, root, args, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            [binary, *args], cwd=root, env=child_env(), stdout=subprocess.PIPE,
            stderr=sys.stderr, text=True, timeout=timeout,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(args[:3])}: {e}")
    if done.returncode != 0:
        fail(f"{' '.join(args[:3])} exited with status {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(args[:3])} printed no result")
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    binary = build(root)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", a.workload, "--seed", str(a.seed)]

    if a.trace:
        out = run_child(binary, root, ["trace", *common, "--seconds", str(a.seconds)], deadline)
        result = {"correct": True, "attempted": out["runs"], "failed": 0,
                  "metrics": out["metrics"]}
    else:
        setups = [
            run_child(binary, root, ["setup", *common], deadline)["setup_s"]
            for _ in range(SETUP_PROCESSES)
        ]
        out = run_child(binary, root, ["run", *common, "--seconds", str(a.seconds)], deadline)
        result = {
            "correct": True,
            "attempted": out["runs"] + SETUP_PROCESSES,
            "failed": 0,
            "metrics": {
                "reports_per_sec": metric(statistics.median(out["reports_per_sec"]), "1/s"),
                "setup_s": metric(statistics.median(setups), "s"),
                "peak_rss_mb": metric(out["peak_rss_mb"], "MiB"),
                "accepted_share": metric(out["accepted_share"], "ratio"),
            },
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
