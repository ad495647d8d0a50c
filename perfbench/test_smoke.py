#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload in --smoke mode, untraced
and traced, must be correct, fail nothing, and emit exactly the metrics
BENCHMARK.json names, each with its unit.

    python3 perfbench/test_smoke.py        # from the repository root
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        spec = load_spec()
        wanted = spec["per_layer" if trace else "end_to_end"]
        code, result, proc = run(workload, trace)
        self.assertEqual(code, 0, proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in wanted})
        for m in wanted:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if trace:
            self.assertEqual(metrics["fail_frac"]["value"], 0)
        else:
            for m in wanted:
                self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])

    def test_workloads(self):
        for w in load_spec()["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


if __name__ == "__main__":
    unittest.main()
