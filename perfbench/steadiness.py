#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workloads audit_small,serve_mixed \\
        --seeds 1-10 [--seconds N] [--trace 0] [--out perfbench/steadiness.json]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (Python's statistics.quantiles(values, n=4)), and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. Runs go
one at a time through perfbench/run.py; --seconds defaults to run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("run failed (%d): %s" % (done.returncode, done.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print("%s seed %d correct=%s %s" % (
                workload, seed, result["correct"],
                " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("inf")
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name)}
            print("  %-16s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f bound %s" % (
                name, median, q1, q3, spread, bounds.get(name)), flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
