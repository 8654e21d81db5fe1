"""The committed benchmark results, ``BENCH_*.json`` at the repository root.

Each file, and the parent run stored in it, must report correct outputs and no failed
operation, or its timings say nothing. From ``BENCH_7.json`` on, each file must also store its
parent run and name a ``--seed`` no other BENCH file uses, so that each claim is measured
against a fresh parent on its own seed (``BENCH_5.json`` and ``BENCH_6.json`` predate that rule
and share seed 707).
"""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def committed() -> dict[str, dict]:
    """Each committed BENCH file's JSON, by file name."""
    return {path.name: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(ROOT.glob("BENCH_*.json"))}


def bench_faults(benches: dict[str, dict]) -> list[str]:
    """One line per fault of the BENCH files ``benches``, given by file name."""
    faults = []
    seeds = {path: re.findall(r"--seed[ =](\S+)", bench["command"])
             for path, bench in benches.items()}
    for path, bench in benches.items():
        if int(re.fullmatch(r"BENCH_(\d+)\.json", path).group(1)) >= 7:
            if "parent" not in bench:
                faults.append(f"{path}: no parent run stored")
            for seed in seeds[path]:
                others = [other for other in benches if other != path and seed in seeds[other]]
                if others:
                    faults.append(f"{path}: --seed {seed} is also used by {', '.join(others)}")
        runs = [(path, bench)]
        if "parent" in bench:
            runs.append((f"{path} parent", bench["parent"]))
        for name, run in runs:
            result = run["result"]
            if result["correct"] is not True or result["failed"] != 0:
                faults.append(f"{name}: correct {result['correct']}, failed {result['failed']}")
    return faults


def test_every_committed_bench_result_is_correct():
    benches = committed()
    assert {"BENCH_5.json", "BENCH_6.json", "BENCH_7.json"} <= set(benches)
    assert bench_faults(benches) == []


def _fresh(bench: dict) -> dict:
    """``bench`` under a seed no committed file uses."""
    return {**bench, "command": bench["command"].replace("--seed 3030", "--seed 31031")}


# copies of BENCH_30.json, each under a name, with the faults the check must name
@pytest.mark.parametrize("name, edit, faults", [
    ("BENCH_9999.json", lambda bench: bench, [
        "BENCH_30.json: --seed 3030 is also used by BENCH_9999.json",
        "BENCH_9999.json: --seed 3030 is also used by BENCH_30.json"]),
    ("BENCH_9999.json", lambda bench: {k: v for k, v in _fresh(bench).items() if k != "parent"},
     ["BENCH_9999.json: no parent run stored"]),
    ("BENCH_9999.json", lambda bench: {**_fresh(bench), "parent": {
        **bench["parent"], "result": {**bench["parent"]["result"], "failed": 1}}},
     ["BENCH_9999.json parent: correct True, failed 1"]),
    # a file from before the rule needs no parent run, but must report correct outputs
    ("BENCH_4.json", lambda bench: {"command": _fresh(bench)["command"],
                                    "result": {**bench["result"], "correct": False}},
     ["BENCH_4.json: correct False, failed 0"]),
], ids=["reused-seed", "no-parent", "failed-parent", "incorrect-before-the-rule"])
def test_a_copy_that_breaks_a_rule_is_named(name, edit, faults):
    benches = committed()
    benches[name] = edit(benches["BENCH_30.json"])
    assert bench_faults(benches) == faults
