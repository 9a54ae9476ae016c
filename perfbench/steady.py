#!/usr/bin/env python3
"""Steadiness check: runs one workload N times, on seeds 1..N, for
BENCHMARK.json's run_seconds each, and prints every metric's median,
quartiles, minimum, maximum and quartile spread (Q3 - Q1) / median.

The spread over different seeds mixes timing noise with differences in the
work itself, as the gate's own acceptance runs do. An end-to-end spread
wider than the metric's bound (setup_s excepted) or a failed share that
differs between runs makes the check exit 1. A spread wider than a third
of the bound is marked "tight" but passes.

    python3 perfbench/steady.py --workload metro-solve --runs 10
    python3 perfbench/steady.py --workload durable-ingest --runs 5 --trace 1

Run it from the repository root. The bounds in BENCHMARK.json are set from
its output; rerun it after changing the benchmark or the box it runs on.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = 1 + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        started = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        wall = time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            print(proc.stdout, file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {wall:.1f} s wall, correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}: {values}", flush=True)
        if not result["correct"]:
            sys.exit(1)
        results.append(result)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, failed share {sorted(shares)}")
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} {'spread':>8}")
    steady = len(shares) == 1
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / med if med else 0.0
        note = ""
        if args.trace == "0" and name in bounds and name != "setup_s":
            ok = spread <= bounds[name]
            steady = steady and ok
            verdict = "WIDE" if not ok else "tight" if spread > bounds[name] / 3 else "ok"
            note = f"  bound {bounds[name]} {verdict}"
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {min(values):>14.6g} "
              f"{max(values):>14.6g} {spread:>8.4f}{note}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
