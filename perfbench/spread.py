#!/usr/bin/env python3
"""Runs a workload on several seeds and reports each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workloads ssb_druid_mv acid_mixed --seeds 10

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json. A metric is steady when its spread stays below its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{w} seed {seed}: wall {wall:.1f} s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)
        if len(runs) < 2:
            continue
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"{w} {name}: median {med:.4g} spread {spread:.3f}"
                  + (f" bound {bound}" if bound is not None else ""), flush=True)


if __name__ == "__main__":
    main()
