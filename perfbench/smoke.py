#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy corpus sizes.

Checks that every metric in BENCHMARK.json is emitted on every workload,
that a clean tree reports no failed operation, that a corrupted output
raises ``error_rate``, and that the benchmark refuses to run without the
citnorm sources. Takes about a minute:

    python3 perfbench/smoke.py
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402


def toy_run(name: str, trace: int, customize=None) -> dict:
    return run.run_workload(name, seed=3, seconds=0.01, trace=trace, size=workloads.TOY,
                            customize=customize)["result"]


def corrupt_step(workload, step_name: str, corrupt) -> None:
    """Make one step damage its output after it has run."""
    for i, step in enumerate(workload.steps):
        if step.name == step_name:
            original = step.run

            def damaged(state, original=original):
                return corrupt(original(state), state)

            workload.steps[i] = dataclasses.replace(step, run=damaged)
            return
    raise KeyError(step_name)


def nan_score_row(workload):
    def corrupt(result, state):
        with open(workload.workdir / "scores.csv", "a", encoding="utf-8") as handle:
            handle.write("zzz,1,1,0,nan,nan,nan\n")
        return result
    corrupt_step(workload, "score", corrupt)


def falling_trajectory(workload):
    def corrupt(result, state):
        path = workload.workdir / "trajectory_math.csv"
        rows = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([rows[0]] + rows[:0:-1]) + "\n", encoding="utf-8")
        return result
    corrupt_step(workload, "trajectory-math", corrupt)


def dropped_unit(workload):
    def corrupt(result, state):
        state["scores"] = result[:-1]
        return state["scores"]
    corrupt_step(workload, "score", corrupt)


CORRUPTIONS = {
    "cli-many-units": nan_score_row,
    "cli-cohort": falling_trajectory,
    "lib-montecarlo": dropped_unit,
}


class BenchmarkSmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_and_a_clean_tree_fails_nothing(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for name in run.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result = toy_run(name, trace)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, declared)
                    self.assertTrue(all(math.isfinite(v["value"])
                                        for v in result["metrics"].values()))
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)

    def test_corrupted_output_raises_error_rate(self):
        for name, corruption in CORRUPTIONS.items():
            with self.subTest(workload=name):
                result = toy_run(name, 0, customize=corruption)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_refuses_to_run_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lib-montecarlo",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_scaling_to_reference_speed(self):
        nominal = workloads.REFERENCE_NOMINAL_S
        self.assertAlmostEqual(workloads.scaled(2.0, nominal, nominal), 2.0)
        self.assertAlmostEqual(workloads.scaled(2.0, 2 * nominal, 2 * nominal), 1.0)
        self.assertAlmostEqual(workloads.scaled(3.0, nominal, 2 * nominal), 2.0)

    def test_tail_is_the_highest_percentile_with_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 21)]
        self.assertEqual(run.tail(samples), (10.0, 50.0))
        self.assertEqual(run.tail(samples[:11]), (1.0, 100 / 11))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (2.0, 50.0))


if __name__ == "__main__":
    unittest.main()
