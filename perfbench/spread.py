#!/usr/bin/env python3
"""Run the benchmark on one workload with several seeds and print, per
metric, the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound.

    python3 perfbench/spread.py --workload paper_t4 --seeds 1-10 [--trace 0]

Run it from the root of the repository after a release build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    first, last = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(first, last + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, env=os.environ)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of the bound"
        print(f"{name:45s} median {q2:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
        print("    " + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main()
