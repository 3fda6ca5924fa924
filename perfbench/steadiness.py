#!/usr/bin/env python3
"""Measures how steady the benchmark is.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--sets 1]

Runs every listed workload once per seed (untraced, with the run_seconds of
BENCHMARK.json), in the order seed by seed and workload by workload, so
slow host drift lands on every workload alike. For each end-to-end metric it
prints the median and the spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound. With --sets 2 the runs alternate between two sets and the
second median is compared with the first, as a later change's parent and
child would be. Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    elapsed = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect run: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}, elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    values = {}  # (set, workload, metric) -> [values]
    for seed in seeds:
        for s in range(args.sets):
            for w in workloads:
                metrics, elapsed = run_once(bench, w, seed)
                print("set %d %-16s seed %3d %5.1f s  %s" % (
                    s, w, seed, elapsed,
                    " ".join("%s=%.6g" % kv for kv in sorted(metrics.items()))),
                    flush=True)
                for name, value in metrics.items():
                    values.setdefault((s, w, name), []).append(value)
    worst = 0.0
    for w in workloads:
        for name in sorted(bounds):
            for s in range(args.sets):
                sp, med = spread(values[(s, w, name)])
                line = "%-16s %-16s set %d median %12.6g spread %6.3f bound %.2f" % (
                    w, name, s, med, sp, bounds[name])
                if name != "setup_s":
                    worst = max(worst, sp / bounds[name])
                if s == 1:
                    first = statistics.median(values[(0, w, name)])
                    worse = (med - first) / first if better[name] == "lower" \
                        else (first - med) / first
                    line += "  second vs first %+.3f" % worse
                print(line)
    print("largest spread as a share of its bound (setup_s excluded): %.2f"
          % worst)


if __name__ == "__main__":
    main()
