#!/usr/bin/env python3
"""Self-tests of the repository benchmark, at the --tiny sizes.

    python3 perfbench/test_perfbench.py

Run from the repository root. Checks that every metric BENCHMARK.json names
is emitted with its unit on every workload, that the default seed reproduces
the pinned decision-trace digests, that a tampered digest and a flipped byte
in the recovered-state comparison each fail the run, that a forced failing
call shows up in the failure count, and that the benchmark refuses to run
without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
WORKLOADS = ("fleet_greedy", "paper_k179", "service_durable")


def bench(*extra, workload="fleet_greedy", seed=1, trace=0, cwd=ROOT,
          env=None):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
                 "0.5", "--trace", str(trace), "--tiny"] + list(extra)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          env=env, check=False, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, specs):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in specs))
        for m in specs:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload=workload, trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.check_metrics(result_of(proc), self.spec[key])
                    self.assertIn("pinned", proc.stdout)
                    digest = [l for l in proc.stdout.splitlines()
                              if l.startswith("digest ")][0].split()
                    # digest <hex> pinned <hex>: seed 1 is pinned.
                    self.assertEqual(digest[1], digest[3])

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload=workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                for name, m in result_of(proc)["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_tampered_digest_fails_the_run(self):
        proc = bench("--expect-digest", "0123456789abcdef")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result_of(proc)["correct"])
        self.assertEqual(result_of(proc)["metrics"], {})
        self.assertIn("digest", proc.stderr)

    def test_flipped_recovered_byte_fails_the_run(self):
        proc = bench("--fault", "flip-recovered-byte",
                     workload="service_durable")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result_of(proc)["correct"])
        self.assertIn("recovered engine state differs", proc.stderr)

    def test_forced_failing_call_is_counted(self):
        for workload, op in (("fleet_greedy", "report"),
                             ("service_durable", "feed")):
            with self.subTest(workload=workload):
                proc = bench("--fault", "failing-call", workload=workload)
                result = result_of(proc)
                self.assertGreaterEqual(result["failed"], 1)
                lines = [l.split() for l in proc.stdout.splitlines()
                         if l.startswith("op %s " % op)]
                self.assertEqual(len(lines), 1)
                self.assertGreaterEqual(int(lines[0][5]), 1)  # failed column

    def test_refuses_to_run_without_library_sources(self):
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        bare = os.path.abspath(os.path.join(build, "selftest-bare"))
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = bench(cwd=bare, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
