#!/usr/bin/env python3
"""Steadiness check: run every workload k times and summarize each metric.

    python3 perfbench/steady.py [--k 10] [--seconds S]

Run from the repository root. Run i (from 1) of every workload uses seed i,
as a check of the bounds varies the seed from run to run, so the spreads
hold the seeds' variance as well as the host's. The workload order
alternates between runs (forward, then reversed) so slow drift of the host
does not land on one workload. For each workload and metric it prints
the median, the quartiles (Python's statistics.quantiles, n=4), the
inter-quartile spread as a share of the median next to the metric's bound
in BENCHMARK.json, and min-max; then the failed share of each workload.
The bounds in BENCHMARK.json are set from this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    for i in range(a.k):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            r = run(w, i + 1, a.seconds)
            results[w].append(r)
            print(f"run {i + 1}/{a.k} {w} seed {i + 1}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)
    for w in workloads:
        rs = results[w]
        print(f"\n{w} ({len(rs)} runs, seconds={a.seconds})")
        print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} "
              f"{'bound':>6} {'min':>14} {'max':>14}")
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            print(f"  {name:24} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '-':>6} {min(vals):14.6g} {max(vals):14.6g}")
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        correct = all(r["correct"] for r in rs)
        print(f"  failed share per run: {shares}  all correct: {correct}")


if __name__ == "__main__":
    main()
