#!/usr/bin/env python3
"""Steadiness helper: runs perfbench workloads repeatedly, one seed per run,
and prints every metric's median and quartile spread next to its bound.

Run from the repository root:

    python3 perfbench/steady.py --workloads gateway --seeds 5
    python3 perfbench/steady.py --seeds 10

Each run is untraced and uses the next seed from 1. The spread is the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric is
steady enough when its spread stays below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    info = json.loads(lines[-2]) if len(lines) > 1 else {}
    result["warnings"] = info.get("warnings", [])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated workloads (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    ap.add_argument("--seconds", type=int, help="measured seconds per run (default: run_seconds)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in range(1, args.seeds + 1):
            result, elapsed = run_once(w, seed, seconds)
            runs[w].append(result)
            print(f"{w} seed {seed}: {elapsed:.1f}s, attempted {result['attempted']}, failed {result['failed']}, "
                  f"warnings {len(result['warnings'])}", file=sys.stderr)

    steady = True
    for w in workloads:
        print(f"\n{w} ({len(runs[w])} runs, {seconds}s each)")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  ok")
        names = sorted(runs[w][0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            unit = runs[w][0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            if bound is None:
                ok = "-"
            else:
                ok = "yes" if spread < bound / 3 else "NO"
                steady = steady and ok == "yes"
            label = f"{name} [{unit}]"
            bound_s = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {label:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound_s:>6}  {ok}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
