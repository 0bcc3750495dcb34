#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each metric's
run-to-run spread next to its bound in BENCHMARK.json.

    python3 servebench/steadiness.py [--runs 10] [--seed 100] [workload ...]

Run from the repository root. Run i of a workload uses seed `--seed` + i
and `--trace 0`, which reports the end-to-end metrics. The spread is the
distance between the first and third quartiles of the runs' values
(statistics.quantiles, n=4) as a share of their median.
Exits 1 if any run fails or reports `"correct": false`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("workloads", nargs="*")
    args = p.parse_args()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in names:
        rows, walls = [], []
        for i in range(args.runs):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(args.seed + i),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            t0 = time.time()
            run = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - t0)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{name} seed {args.seed + i}: exit {run.returncode}\n{run.stderr}")
                ok = False
                continue
            row = json.loads(lines[-1])
            ok &= row["correct"]
            rows.append(row)
        if len(rows) < 2:
            continue
        print(f"{name}: {len(rows)} runs, {statistics.median(walls):.0f} s each (median)")
        for metric in rows[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {metric:28s} median {med:12.4f}  spread {spread:6.3f}  "
                  f"bound {bounds[metric]:.2f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
