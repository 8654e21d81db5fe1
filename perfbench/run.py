#!/usr/bin/env python3
"""citnorm benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload cli-many-units --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` times whole passes with tracing off and reports the end-to-end
metrics, in seconds scaled to reference speed (see workloads.py). ``--trace 1`` replays the same steps in-process with one span
around each public call into citnorm and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md in this
directory for the metric definitions and the workloads.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from tracing import Tracer, per_pass_totals, root_seconds
from workloads import (FULL, REFERENCE_NOMINAL_S, WORKLOADS, child_env, make_workload,
                       reference_s, scaled)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
MIN_PASSES = 2
MIB = 2 ** 20

END_TO_END_UNITS = {
    "setup_s": "s", "pubs_per_s": "pubs/s", "pass_s.p50": "s", "pass_s.tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.startup_s": "s", "cli.overhead_s": "s",
    "corpus.parse_s": "s", "corpus.parse_calls": "count", "corpus.parse_pubs_per_s": "pubs/s",
    "corpus.write_s": "s", "corpus.write_mb": "MB",
    "simulate.generate_s": "s", "simulate.generate_pubs_per_s": "pubs/s",
    "baseline.compute_s": "s", "baseline.write_s": "s", "baseline.read_s": "s",
    "baseline.cells": "count",
    "indicators.score_s": "s", "indicators.units": "count",
    "indicators.memberships": "count", "indicators.scan_ratio": "ratio",
    "stats.correlate_s": "s", "stats.age_matrix_s": "s", "stats.trajectory_s": "s",
    "stats.cohort_yield": "ratio",
    "report.scatter_s": "s", "report.ranking_s": "s", "report.svg_bytes": "bytes",
    "trace.overhead_pct": "%", "error_rate": "ratio",
}


class Tally:
    """Operations attempted and failed, with the first few problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, result) -> None:
        for step, found in result.problems.items():
            self.record(step, found)

    def record(self, step: str, found: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(found)
        self.problems.extend(f"{step}: {p}" for p in found[: max(0, 5 - len(self.problems))])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile). With fewer than eleven samples no percentile
    qualifies; the median is returned with percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return statistics.median(ordered), 50.0
    k = n - 11  # ordered[k] has exactly ten samples beyond it
    return ordered[k], 100.0 * (k + 1) / n


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload, seed: int, seconds: float, trace: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": workload.name,
        **workload.provenance(),
    }


def run_untraced(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics; every timing is scaled to reference speed."""
    setups, setups_wall, references = [], [], []
    reference = None
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        start = time.perf_counter()
        workload.build_inputs()
        built = time.perf_counter() - start
        warm = workload.run_pass(inprocess=False, reference=reference)
        setups.append(scaled(built, before, warm.references[0]) + warm.scaled_seconds)
        setups_wall.append(built + warm.seconds)
        tally.add(warm)
        reference = reference or warm.digests
    samples, samples_wall = [], []
    start = time.perf_counter()
    while len(samples) < workload.min_passes or time.perf_counter() - start < seconds:
        result = workload.run_pass(inprocess=False, reference=reference)
        samples.append(result.scaled_seconds)
        samples_wall.append(result.seconds)
        references.extend(result.references)
        tally.add(result)
    who = resource.RUSAGE_CHILDREN if workload.uses_cli else resource.RUSAGE_SELF
    p50 = statistics.median(samples)
    tail_value, tail_pct = tail(samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "pubs_per_s": workload.pubs_per_pass / p50,
        "pass_s.p50": p50,
        "pass_s.tail": tail_value,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss * 1024 / MIB,
    }
    details = {"setup_samples": setups, "pass_samples": samples,
               "tail_percentile": tail_pct, "tail_samples": len(samples),
               "wall_setup_samples": setups_wall, "wall_pass_samples": samples_wall,
               "wall_pass_s.p50": statistics.median(samples_wall),
               "reference_ms.p50": 1000 * statistics.median(references),
               "reference_nominal_ms": 1000 * REFERENCE_NOMINAL_S}
    return metrics, details


def time_startup(tally: Tally) -> list[float]:
    """Seconds for `citnorm --help`: interpreter, imports and argument parsing."""
    samples = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "citnorm", "--help"], cwd=ROOT,
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=60)
        samples.append(time.perf_counter() - start)
        tally.record("startup", [f"exit code {proc.returncode}"] if proc.returncode else [])
    return samples


def run_traced(workload, seconds: float, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    workload.build_inputs()
    warm = workload.run_pass(inprocess=False, reference=None)
    tally.add(warm)
    reference = warm.digests
    tally.add(workload.run_pass(inprocess=True, reference=reference))  # warms in-process imports
    startup = time_startup(tally)

    tracer = Tracer()
    cli_passes, plain, traced = [], [], []
    plain_scaled, traced_scaled = [], []  # the same passes scaled to reference speed
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        if workload.uses_cli:
            result = workload.run_pass(inprocess=False, reference=reference)
            cli_passes.append(result.seconds)
            tally.add(result)
        result = workload.run_pass(inprocess=True, reference=reference)
        plain.append(result.seconds)
        plain_scaled.append(result.scaled_seconds)
        tally.add(result)
        tracer.pass_id = len(traced)
        tracer.install()
        try:
            result = workload.run_pass(inprocess=True, reference=reference)
        finally:
            tracer.uninstall()
        traced.append(result.seconds)
        traced_scaled.append(result.scaled_seconds)
        tally.add(result)
    tracer.write_jsonl(spans_path)

    totals = per_pass_totals(tracer.spans)
    passes = [totals.get(p, {}) for p in range(len(traced))]

    def med(name: str, key: str = "total_s") -> float:
        values = []
        for entry in passes:
            item = entry.get(name)
            if item is None:
                values.append(0)
            elif key in ("total_s", "self_s", "calls"):
                values.append(item[key])
            else:
                values.append(item["counts"].get(key, 0))
        return statistics.median(values)

    def rate(name: str, count: str) -> float:
        seconds_ = med(name)
        return med(name, count) / seconds_ if seconds_ > 0 else 0.0

    roots = root_seconds(tracer.spans)
    stage_sum = statistics.median(roots.get(p, 0.0) for p in range(len(traced)))
    memberships = med("indicators.score_units", "memberships")
    score_calls = med("indicators.score_units", "calls")
    corpus_pubs = med("indicators.score_units", "corpus_pubs") / score_calls if score_calls else 0
    parsed = med("corpus.parse_corpus", "items")
    cohort_used = med("stats.trajectory", "items") + med("stats.age_correlation_matrix", "items")
    metrics = {
        "cli.startup_s": statistics.median(startup),
        "cli.overhead_s": statistics.median(cli_passes) - stage_sum if cli_passes else 0.0,
        "corpus.parse_s": med("corpus.parse_corpus"),
        "corpus.parse_calls": med("corpus.parse_corpus", "calls"),
        "corpus.parse_pubs_per_s": rate("corpus.parse_corpus", "items"),
        "corpus.write_s": med("corpus.write_corpus"),
        "corpus.write_mb": med("corpus.write_corpus", "bytes") / MIB,
        "simulate.generate_s": med("simulate.generate_corpus"),
        "simulate.generate_pubs_per_s": rate("simulate.generate_corpus", "items"),
        "baseline.compute_s": med("baseline.compute_baselines"),
        "baseline.write_s": med("baseline.write_baselines"),
        "baseline.read_s": med("baseline.read_baselines"),
        "baseline.cells": med("baseline.compute_baselines", "items"),
        "indicators.score_s": med("indicators.score_units"),
        "indicators.units": med("indicators.score_units", "units"),
        "indicators.memberships": memberships,
        "indicators.scan_ratio": (med("corpus.select_unit", "calls") * corpus_pubs / memberships
                                  if memberships else 0.0),
        "stats.correlate_s": med("stats.correlate_indicators"),
        "stats.age_matrix_s": med("stats.age_correlation_matrix"),
        "stats.trajectory_s": med("stats.trajectory"),
        "stats.cohort_yield": cohort_used / parsed if parsed else 0.0,
        "report.scatter_s": med("report.render_scatter"),
        "report.ranking_s": med("report.render_ranking"),
        "report.svg_bytes": med("report.render_scatter", "bytes"),
        "trace.overhead_pct": 100.0 * (statistics.median(traced_scaled)
                                       / statistics.median(plain_scaled) - 1),
    }
    self_table = {
        name: {"calls": med(name, "calls"), "total_s": med(name), "self_s": med(name, "self_s")}
        for name in sorted({n for entry in passes for n in entry})
    }
    details = {
        "traced_passes": len(traced), "traced_pass_samples": traced,
        "inprocess_pass_samples": plain, "cli_pass_samples": cli_passes,
        "startup_samples": startup, "stage_sum_s": stage_sum,
        "scan_ratio_basis": "computed: select_unit calls x corpus size / memberships",
        "self_time": self_table, "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def run_workload(name: str, seed: int, seconds: float, trace: int, size=None,
                 customize=None) -> dict:
    """Run one workload and return the result object plus its details.

    ``customize(workload)`` may alter the workload before it runs; the smoke
    test uses it to corrupt an output.
    """
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workload = make_workload(name, seed, size or FULL, workdir)
    if customize is not None:
        customize(workload)
    tally = Tally()
    try:
        if trace:
            metrics, details = run_traced(workload, seconds, tally, OUT / f"spans-{tag}.jsonl")
            metrics["error_rate"] = tally.failed / tally.attempted
            units = PER_LAYER_UNITS
        else:
            metrics, details = run_untraced(workload, seconds, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    report = {"provenance": provenance(workload, seed, seconds, trace), "result": result,
              "error_rate": tally.failed / tally.attempted, "problems": tally.problems,
              "details": details}
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    details = report["details"]
    if "tail_percentile" in details:
        print(f"pass_s.tail is p{details['tail_percentile']:.1f} of "
              f"{details['tail_samples']} passes")
        print(f"timings are scaled to reference speed: reference loop median "
              f"{details['reference_ms.p50']:.3f} ms, nominal {details['reference_nominal_ms']:g} ms; "
              f"wall pass_s.p50 {details['wall_pass_s.p50']:.6g} s")
    for name, entry in details.get("self_time", {}).items():
        print(f"self-time {name:34s} calls {entry['calls']:>6g}  "
              f"total {entry['total_s']:.6f} s  self {entry['self_s']:.6f} s")
    for problem in report["problems"]:
        print(f"problem {problem}")
    result = report["result"]
    print(f"error_rate {report['error_rate']:.6g} ({result['failed']}/{result['attempted']})")
    for name, metric in result["metrics"].items():
        print(f"metric {name:30s} {metric['value']:.6g} {metric['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace}")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}:{metric}"] = entry
    print(json.dumps(combined))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through subprocess.run, which kills its child


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be a positive number")

    if not (SRC / "citnorm" / "__init__.py").is_file():
        print(f"error: no citnorm sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    import citnorm
    if Path(citnorm.__file__).resolve().parent != SRC / "citnorm":
        print(f"error: imported citnorm from {citnorm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
