#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and the measuring program
from source (CMake + Ninja, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs one workload
and relays its output. The last line of standard output is the JSON result.
Exits non-zero without a result when the build or the run fails.

Extra arguments after the four standard ones (--tiny, --expect-digest,
--fault) are passed to the measuring program; the self-tests use them.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_greedy", "paper_k179", "service_durable")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def run_quiet(cmd, timeout):
    """Runs `cmd` with its output sent to stderr; returns the exit code."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out: %s" % " ".join(cmd), file=sys.stderr)
        return 124
    except OSError as err:
        print("perfbench: cannot run %s: %s" % (cmd[0], err), file=sys.stderr)
        return 127


def build(out):
    if not os.path.exists(os.path.join(out, "build.ninja")):
        code = run_quiet(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = parser.parse_known_args()

    out = build_dir()
    if build(out) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(out, "easeml_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(out, "work")] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
