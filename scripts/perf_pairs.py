#!/usr/bin/env python3
"""Compares two checkouts on the repository benchmark in alternating pairs.

    python3 scripts/perf_pairs.py --parent DIR --change DIR \\
        --workload service_durable [--workload paper_k179] \\
        [--pairs 10] [--first-seed 1] [--seconds S] [--trace 0|1] \\
        [--target-root DIR]

Runs `perfbench/run.py` (the command BENCHMARK.json names) from each
checkout. Pair i uses seed first-seed + i for both sides; the parent runs
first in even pairs and the change in odd ones, so slow host drift lands on
both sides alike. Each side builds into its own CARGO_TARGET_DIR:
<target-root>/parent and <target-root>/change, or each checkout's own
.bench_build when --target-root is not given. The run length defaults to
BENCHMARK.json's run_seconds, and the bounds come from its end_to_end list
(read from the change's checkout).

Every run is printed as it finishes. At the end one table row per workload
and metric gives the parent's median with its first and third quartiles
(statistics.quantiles, n=4), the change's median, how many pairs the change
won and tied, and two verdicts for the end-to-end metrics:

- claim: "yes" when the change won at least nine tenths of the pairs (ties
  count for neither) and its median is better than the parent's by more
  than the parent's q1-q3 distance;
- bound: "ok" when the change's median is no worse than the parent's by
  more than the metric's bound, "REGRESSED" when it is, and "unresolved"
  when the parent's own q1-q3 spread exceeds the bound and not every run of
  the change beats every run of the parent.

Exits 1 when a run fails or reports incorrect output, after the table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout, target, command, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def fmt(value):
    if abs(value) >= 1e4:
        return "%.1fk" % (value / 1e3)
    if abs(value) >= 100:
        return "%.1f" % value
    return "%.3g" % value


def better(a, b, direction):
    """True when value `a` is better than `b`."""
    return a < b if direction == "lower" else a > b


def verdicts(parent, change, direction, bound):
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    pairs = len(parent)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    gap = med_p - med_c if direction == "lower" else med_c - med_p
    claim = wins * 10 >= 9 * pairs and gap > q3 - q1
    if bound is None:
        return wins, ties, claim, "-"
    worse = -gap / med_p if med_p else 0.0
    all_better = all(better(c, p, direction) for p in parent for c in change)
    if med_p and (q3 - q1) / abs(med_p) > bound and not all_better:
        status = "unresolved"
    elif worse > bound:
        status = "REGRESSED"
    else:
        status = "ok"
    return wins, ties, claim, status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--target-root")
    args = parser.parse_args()

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    ends = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench.get("per_layer", [])}
    targets = {}
    for side in SIDES:
        root = (os.path.join(os.path.abspath(args.target_root), side)
                if args.target_root else
                os.path.join(checkouts[side], ".bench_build"))
        targets[side] = root

    # values[(workload, metric)][side] -> per-pair values, in pair order.
    values = {}
    ops = {(w, s): [0, 0] for w in args.workload for s in SIDES}
    bad_runs = 0
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            results = {}
            for side in order:
                result = run_once(checkouts[side], targets[side],
                                  bench["command"], workload, seed, seconds,
                                  args.trace)
                ok = result is not None and result["correct"]
                print("pair %2d seed %d %-16s %-6s %s" % (
                    i, seed, workload, side,
                    " ".join("%s=%.6g" % (k, v["value"]) for k, v in
                             sorted(result["metrics"].items()))
                    if ok else "FAILED OR INCORRECT"), flush=True)
                if not ok:
                    bad_runs += 1
                    continue
                ops[(workload, side)][0] += result["attempted"]
                ops[(workload, side)][1] += result["failed"]
                results[side] = result["metrics"]
            if len(results) < 2:
                continue
            for name in results["parent"].keys() & results["change"].keys():
                per_side = values.setdefault((workload, name),
                                             {s: [] for s in SIDES})
                for side in SIDES:
                    per_side[side].append(results[side][name]["value"])

    print()
    print("| workload | metric | parent (q1–q3) → change | change better in "
          "| ties | claim | bound |")
    print("|---|---|---|---|---|---|---|")
    for (workload, name) in sorted(values, key=lambda k: (
            k[0], k[1] not in ends, k[1])):
        spec = ends.get(name) or layers.get(name)
        if spec is None:
            continue
        parent = values[(workload, name)]["parent"]
        change = values[(workload, name)]["change"]
        bound = ends[name]["bound"] if name in ends else None
        wins, ties, claim, status = verdicts(parent, change, spec["better"],
                                             bound)
        q1, med, q3 = quartiles(parent)
        print("| `%s` | `%s` | %s (%s–%s) → %s %s | %d/%d | %d | %s | %s |" % (
            workload, name, fmt(med), fmt(q1), fmt(q3),
            fmt(statistics.median(change)), spec["unit"], wins, len(parent),
            ties, ("yes" if claim else "no") if bound is not None else "-",
            status))
    print()
    for (workload, side), (attempted, failed) in sorted(ops.items()):
        print("%-16s %-6s failed %d of %d operations" % (
            workload, side, failed, attempted))
    if bad_runs:
        print("%d run(s) failed or reported incorrect output" % bad_runs)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
