"""Smoke test of the benchmark runner and its trace shim.

Usage: python3 -m unittest bench/test_smoke.py     (about half a minute)

Every workload runs on a minimal input (small segments, one small call per
query command), untraced and traced.  The result line must name every
metric of ``BENCHMARK.json`` with its unit, and nothing may fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = ("iterated.colim_leq.calls", "hierarchy.bucketing.colim_leq_calls",
          "iterated.raw_forests", "hierarchy.classes")


def tiny(name: str, trace: bool) -> dict:
    result, _ = run.run_workload(name, seed=3, seconds=0.1, trace=trace, tiny=True)
    return result


class SmokeTest(unittest.TestCase):
    def assert_metrics(self, result: dict, listed: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in listed},
        )
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_every_workload_reports_every_metric(self) -> None:
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assert_metrics(tiny(name, False), SPEC["end_to_end"])
                self.assert_metrics(tiny(name, True), SPEC["per_layer"])

    def test_counts_ignore_hash_seed(self) -> None:
        seen = []
        for hash_seed in ("1", "2"):
            os.environ["PYTHONHASHSEED"] = hash_seed
            try:
                metrics = tiny("segments", True)["metrics"]
            finally:
                del os.environ["PYTHONHASHSEED"]
            seen.append({k: metrics[k]["value"] for k in COUNTS})
        self.assertEqual(seen[0], seen[1])
        self.assertGreater(seen[0]["hierarchy.classes"], 1)

    def test_refuses_without_sources(self) -> None:
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "queries",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
