"""Run one workload over several seeds and report the spread of each metric.

    python3 bench/spread.py --workload evidence --runs 10

Runs ``bench/run.py`` once per seed (1, 2, ...), one run at a time, for
``run_seconds`` of BENCHMARK.json each, and prints for every metric the
median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the spread, the distance between the quartiles as a share of
the median; then the share of failed operations.  Every end-to-end metric
whose spread is a third of its bound or more is flagged.

Raw results go to ``.bench_work/spread/<workload>.json``.  When that file
already holds an earlier set of runs, each metric's median is also compared
with the earlier set's, and a change for the worse beyond the metric's bound
is flagged, as is a different share of failed operations: run the same
command twice to check that two sets of runs of one commit agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    results = []
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        res = json.loads(p.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr, flush=True)

    out_dir = os.path.join(ROOT, ".bench_work", "spread")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}{'-trace' if args.trace else ''}.json")
    previous = None
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    def medians(runs):
        return {name: statistics.median(r["metrics"][name]["value"] for r in runs)
                for name in runs[0]["metrics"]}

    def shares(runs):
        return sorted({r["failed"] / r["attempted"] for r in runs})

    spec = {m["name"]: m for m in bench["end_to_end"]}
    now = medians(results)
    before = medians(previous) if previous else {}
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'vs prev':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        change, flags = "", []
        if name in before and before[name]:
            shift = now[name] / before[name] - 1
            change = f"{shift:+8.4f}"
            worse = shift if spec.get(name, {}).get("better") == "lower" else -shift
            if name in spec and worse > spec[name]["bound"]:
                flags.append(f"worse than the previous set beyond its bound ({spec[name]['bound']})")
        if name in spec and spread >= spec[name]["bound"] / 3:
            flags.append(f"spread >= bound/3 ({spec[name]['bound'] / 3:.3f})")
        print(f"{name:40s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {change:>8s}"
              + "".join(f"  {f}" for f in flags))
    print(f"failed share: {shares(results)}   correct: {all(r['correct'] for r in results)}")
    if previous:
        same = shares(previous) == shares(results)
        print(f"failed share of the previous set: {shares(previous)}"
              + ("" if same else "  differs"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
