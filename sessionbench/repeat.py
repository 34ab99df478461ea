#!/usr/bin/env python3
"""Repeatability check of the session benchmark.

    python3 sessionbench/repeat.py [--workloads a,b]

Run from the repository root. Makes two sets of ten `--trace 0` runs of
`run.py` per workload, seeds 1-10 and 11-20, at the run length in
BENCHMARK.json. Prints per workload and end-to-end metric each set's
median and quartiles, the spread (interquartile distance over the
median), and whether the sets agree within the bounds in BENCHMARK.json:

- each set's spread is within the metric's bound;
- the two sets' medians differ by at most the bound, in either
  direction;
- both sets fail exactly the same share of their attempted operations.

Exits 0 when they agree, 1 when they do not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2
FIRST_SEED = 1


def one_run(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    metrics = bench["end_to_end"]
    agree = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = FIRST_SEED + s * RUNS + i
                out = one_run(workload, seed, bench["run_seconds"])
                if not out["correct"]:
                    print(f"{workload} seed {seed}: outputs are not correct")
                    agree = False
                runs.append(out)
                values = " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.6g}"
                                  for m in metrics)
                print(f"{workload} set {s + 1} seed {seed}: {values}", flush=True)
            sets.append(runs)
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets}
        print(f"\n== {workload}: {SETS} sets of {RUNS} runs, failed share {sorted(shares)} ==")
        if len(shares) > 1:
            agree = False
        print(f"{'metric':24} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'change':>7}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for k, runs in enumerate(sets):
                q1, med, q3 = statistics.quantiles(
                    [r["metrics"][name]["value"] for r in runs], n=4)
                spread = (q3 - q1) / med
                change = ""
                if first is None:
                    first = med
                else:
                    # Signed, worse is positive; either direction beyond
                    # the bound fails.
                    sign = 1 if m["better"] == "lower" else -1
                    change = f"{sign * (med - first) / first:+.3f}"
                    if abs(med - first) / first > bound:
                        agree = False
                if spread > bound:
                    agree = False
                print(f"{name:24} {k + 1:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {bound:>6} {change:>7}")
    print("\nagree within bounds:", "yes" if agree else "NO")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
