#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

For every workload and metric: the median over the runs, the first and
third quartile (statistics.quantiles, n=4) and the quartile distance as a
share of the median, next to the bound BENCHMARK.json fixes for it.

    python3 e2ebench/spread.py [--workloads a,b] [--seeds 1-10]
                               [--seconds N] [--trace 0|1]

Run it from the repository root. It runs BENCHMARK.json's command with the
given seeds, the way the bounds in BENCHMARK.json are meant to be checked.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    failed = False
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                print(f"{workload} seed {seed}: no result (exit {out.returncode})\n{out.stderr}")
                failed = True
                continue
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT\n{out.stdout}{out.stderr}")
                failed = True
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in list(values)[:6]),
                flush=True)
        for metric in metrics:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            share = (q3 - q1) / med if med else 0.0
            bound = metric.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if share < bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            print(f"  {workload:<20} {metric['name']:<28} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} n {len(vals):<3} spread {share:6.3f} "
                  f"bound {bound if bound is not None else '-'} {flag}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
