#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of the repository:

    python3 perfbench/test_perfbench.py

It builds the benchmark (see run.py) and checks that

* a run prints every metric BENCHMARK.json names, with its unit, and exits 0;
* the exact operation counts of a traced run repeat at a fixed seed: argmin
  and objective evaluations per cold solve, distribution batch calls, the
  serve_hot hit count, and CdfCache tables built;
* the traced run's stage self times add up to the in-process totals within
  the stated bands;
* without the library sources next to it, the benchmark exits non-zero and
  prints no result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
# Traced runs measure the ledger on fixed inputs, so a short run will do;
# an untraced serve_cold run needs 1100 open-loop samples (two thirds of the
# run at 250/s) for its p99.
TRACED_SECONDS = "2"
UNTRACED_SECONDS = "8"

EXACT_COUNTS = (
    "core.dp.argmin_evals",
    "core.refine.objective_evals",
    "dist.quantile.batch_calls",
    "dist.cdf.batch_calls",
    "srv.cache.hits",
    "core.cdf_cache.tables_built",
)
# Request path (cache hit): framing + parse + prepare + lookup + format,
# each timed alone, against framing + handle_line on the same line.
REQUEST_BAND = (0.75, 1.25)
# Cold solve: prepare + RefinedDp::generate + Eq. 4 evaluation + result
# serialization against PlannerService::call with the cache off (the rest is
# the service's hand-off to its worker).
SOLVE_BAND = (0.85, 1.05)


def bench(workload, trace, cwd=ROOT):
    r = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED),
         "--seconds", TRACED_SECONDS if trace else UNTRACED_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return r


def result_of(r):
    lines = r.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.runs = {}

    def traced(self, workload):
        if workload not in self.runs:
            r = bench(workload, 1)
            self.assertEqual(r.returncode, 0, r.stderr + r.stdout[-2000:])
            self.runs[workload] = result_of(r)
        return self.runs[workload]

    def test_untraced_run_prints_end_to_end_metrics(self):
        r = bench("serve_cold", 0)
        self.assertEqual(r.returncode, 0, r.stderr + r.stdout[-2000:])
        _, result = result_of(r)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        for m in self.spec["end_to_end"]:
            self.assertIn(m["name"], result["metrics"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_traced_run_prints_per_layer_metrics(self):
        for workload in ("serve_cold", "sweep"):
            _, result = self.traced(workload)
            for m in self.spec["per_layer"]:
                self.assertIn(m["name"], result["metrics"], workload)
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_exact_counts_repeat(self):
        _, first = self.traced("serve_hot")
        r = bench("serve_hot", 1)
        self.assertEqual(r.returncode, 0, r.stderr)
        _, again = result_of(r)
        for name in EXACT_COUNTS:
            self.assertEqual(first["metrics"][name]["value"], again["metrics"][name]["value"], name)
        # Every request of the serve_hot mix is a hit.
        self.assertEqual(first["metrics"]["srv.cache.hits"]["value"], 1024)
        self.assertEqual(first["metrics"]["srv.cache.hit_ratio"]["value"], 1)

    def test_stage_times_add_up(self):
        for workload in ("serve_cold", "sweep"):
            _, result = self.traced(workload)
            m = {k: v["value"] for k, v in result["metrics"].items()}
            share = m["srv.request.attributed_share"]
            self.assertTrue(REQUEST_BAND[0] <= share <= REQUEST_BAND[1], (workload, share))
            solve = 1.0 - m["core.solve.unattributed_share"]
            self.assertTrue(SOLVE_BAND[0] <= solve <= SOLVE_BAND[1], (workload, solve))

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = bench("serve_cold", 0, cwd=tmp)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
