#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py in smoke mode (tiny inputs) for every workload,
untraced and traced, and checks the result line against BENCHMARK.json:
every named metric present, finite and non-negative, with its unit. Also
checks that the correctness gate trips on a corrupted digest, that a
directory holding only BENCHMARK.json and the benchmark fails without a
result, and that perfbench/layer_map.json maps every per-layer metric.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_json(path):
    with open(path) as f:
        return json.load(f)


BENCH = load_json(os.path.join(ROOT, "BENCHMARK.json"))


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_smoke(workload, seed, trace, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricContractTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for workload in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run_smoke(workload["name"], 101, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_of(proc)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    specs = BENCH["per_layer" if trace else "end_to_end"]
                    self.assertEqual(set(result["metrics"]),
                                     {spec["name"] for spec in specs})
                    for spec in specs:
                        metric = result["metrics"][spec["name"]]
                        self.assertEqual(metric["unit"], spec["unit"],
                                         spec["name"])
                        value = metric["value"]
                        self.assertTrue(math.isfinite(value) and value >= 0,
                                        f"{spec['name']} = {value}")


class GateTest(unittest.TestCase):
    def test_corrupted_digest_trips_the_gate(self):
        seed = 202
        digests = os.path.join(build_dir(), "runs",
                               f"ga_alpha_sweep-seed{seed}-smoke.digests")
        if os.path.exists(digests):
            os.remove(digests)
        try:
            first = run_smoke("ga_alpha_sweep", seed, 0)
            self.assertTrue(result_of(first)["correct"], first.stderr)
            with open(digests) as f:
                lines = f.read().splitlines()
            stream, index, digest = lines[0].split()
            lines[0] = f"{stream} {index} {int(digest, 16) ^ 1:016x}"
            with open(digests, "w") as f:
                f.write("\n".join(lines) + "\n")
            second = run_smoke("ga_alpha_sweep", seed, 0)
            self.assertEqual(second.returncode, 0, second.stderr)
            self.assertFalse(result_of(second)["correct"])
            self.assertIn("digest", second.stderr)
        finally:
            if os.path.exists(digests):
                os.remove(digests)


class PackagingTest(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        bare = os.path.join(build_dir(), "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = run_smoke("ad_alpha_sweep", 1, 0, cwd=bare, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_layer_map_covers_every_per_layer_metric(self):
        layer_map = load_json(os.path.join(HERE, "layer_map.json"))["metrics"]
        self.assertEqual(set(layer_map),
                         {spec["name"] for spec in BENCH["per_layer"]})
        end_to_end = {spec["name"] for spec in BENCH["end_to_end"]}
        workloads = {w["name"] for w in BENCH["workloads"]}
        for name, entry in layer_map.items():
            for move in entry["moves"]:
                self.assertIn(move["metric"], end_to_end, name)
                self.assertIn(move["workload"], workloads, name)

    def test_setup_has_the_largest_bound(self):
        bounds = {spec["name"]: spec["bound"] for spec in BENCH["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


if __name__ == "__main__":
    unittest.main()
