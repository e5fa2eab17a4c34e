#!/usr/bin/env python3
"""Print the per-layer tables the traced replays wrote.

    python3 perfbench/summary.py [.bench_out/<workload>-seed<n>.layers.json ...]

With no arguments it reads every `.bench_out/*.layers.json` (written by
`python3 perfbench/run.py ... --trace 1`). For each workload it prints the
self time of every traced call, its share of the replay's wall time, the
work units it handled and the nanoseconds per unit, then the replay's
counts and ratios.
"""

import glob
import json
import sys


def show(path):
    with open(path) as f:
        d = json.load(f)
    m = {k: v["value"] for k, v in d["metrics"].items()}
    wall = d["wall_s"]
    print(f"== {d['workload']} (seed {d['seed']}, {d['replays']} traced replay(s), last shown)")
    print(f"{'layer':<16} {'call':<30} {'self s':>9} {'share':>7} {'spans':>7} {'units':>12} {'ns/unit':>10}")
    rows = sorted(d["layers"], key=lambda r: -r["self_s"])
    for r in rows:
        per = r["self_s"] * 1e9 / r["units"] if r["units"] else float("nan")
        print(f"{r['layer']:<16} {r['op']:<30} {r['self_s']:>9.4f} {r['self_s'] / wall:>7.1%} "
              f"{r['spans']:>7} {r['units']:>12} {per:>10.1f}")
    covered = sum(r["self_s"] for r in rows)
    print(f"{'(no span)':<47} {wall - covered:>9.4f} {(wall - covered) / wall:>7.1%}")
    print(f"{'wall':<47} {wall:>9.4f}")
    print("metrics (medians over the replays):")
    for k, v in d["metrics"].items():
        if not k.endswith("_s"):
            print(f"  {k:<40} {v['value']:>14.6g} {v['unit']}")
    for k in ("trace.overhead_s", "trace.simulate_wall_s", "trace.simulate_worker_s",
              "ldp.ledger.audit_s", "fleet.estimator.model_s"):
        print(f"  {k:<40} {m[k]:>14.6g} s")
    print()


def main():
    paths = sys.argv[1:] or sorted(glob.glob(".bench_out/*.layers.json"))
    if not paths:
        sys.exit("no .bench_out/*.layers.json; run perfbench/run.py with --trace 1 first")
    for p in paths:
        show(p)


if __name__ == "__main__":
    main()
