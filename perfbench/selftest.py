"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

A short smoke run of every workload, untraced and traced; the correctness
checks tripping on deliberately wrong programs (patched in memory, never
on disk); the command failing cleanly where the program is missing; and
BENCHMARK.json within the benchmark contract's limits.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run

run.import_program()

import workloads  # noqa: E402  (needs the import path set up above)
from spinalfade import bounds, decoder, sim  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text())
SMOKE_SECONDS = 1.0
OTHER_SEED = 7


class Smoke(unittest.TestCase):
    def test_every_workload_end_to_end(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for name, w in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                metrics, _, failures, attempted = run.end_to_end(w, OTHER_SEED, SMOKE_SECONDS)
                self.assertEqual(failures, {})
                self.assertGreaterEqual(attempted, 1)
                self.assertEqual(set(metrics), names)
                self.assertTrue(all(v > 0 for v, _ in metrics.values()), metrics)

    def test_every_workload_traced(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        with tempfile.TemporaryDirectory() as tmp:
            for name, w in workloads.WORKLOADS.items():
                with self.subTest(workload=name):
                    metrics, _, failures, _ = run.traced(
                        w, workloads.DEFAULT_SEED, SMOKE_SECONDS, Path(tmp) / "spans.csv.gz")
                    self.assertEqual(failures, {})
                    self.assertEqual(set(metrics), names)
                    coverage = metrics["trace.layer_coverage"][0]
                    self.assertTrue(0.9 <= coverage <= 1.1, coverage)


class ChecksTrip(unittest.TestCase):
    """Each wrong program must fail ops at a seed with no pins, and at the
    default seed, where the pins catch it too."""

    def assert_trips(self, name, owner, attr, wrong):
        for seed in (OTHER_SEED, workloads.DEFAULT_SEED):
            with self.subTest(seed=seed), mock.patch.object(owner, attr, wrong):
                failures = run.end_to_end(workloads.WORKLOADS[name], seed, 0.5)[2]
                self.assertTrue(failures, f"{name} passed with a wrong program")

    def test_wrong_decision(self):
        right = decoder._result_from_costs

        def off_by_one(costs, params):
            result = right(costs, params)
            value = (result.decoded.value + 1) % (1 << params.n)
            return decoder.DecodeResult(decoder.Message(value, params.n),
                                        result.min_cost, result.tie)

        self.assert_trips("decode-fixed-code", decoder, "_result_from_costs", off_by_one)

    def test_wrong_kernel(self):
        right = bounds.kernel
        self.assert_trips("bound-grid", bounds, "kernel", lambda *args: 0.5 * right(*args))

    def test_wrong_error_count(self):
        right = sim.count_errors

        def one_more(*args):
            return min(args[5], right(*args) + 1)

        for name in ("sweep-low-snr", "sweep-high-snr"):
            self.assert_trips(name, sim, "count_errors", one_more)


class Command(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.SPEC_PATH, tmp)
            shutil.copytree(Path(run.__file__).parent, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bound-grid",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class Spec(unittest.TestCase):
    def test_within_contract_limits(self):
        name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        # 4 + 22 runs per workload, each with four set-ups and checks, in 3420 s.
        runs = 4 + 22 * len(SPEC["workloads"])
        self.assertLess(runs * (SPEC["run_seconds"] + 8), 3420)
        for w in SPEC["workloads"]:
            self.assertTrue(name.match(w["name"]) and len(w["why"]) <= 200, w)
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertTrue(name.match(m["name"]) and unit.match(m["unit"]), m)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in SPEC["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25 and math.isfinite(m["bound"]), m)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
