"""The benchmark's workloads: inputs from a seed, the steps of one pass, checks.

A *pass* is one full run of a workload's steps. Each step is one operation:
a ``citnorm`` subcommand on the CLI workloads, one library call on
``lib-montecarlo``. A step fails when it exits non-zero or raises, when its
output fails a check, or when its output differs from the first pass on the
same seed (every pass must be byte-identical).

Why these workloads:

* ``cli-many-units``: the README pipeline over the ``compare_indicators.py``
  roster at 632 groups. ``score`` rescans the corpus once per unit, so
  scoring grows with units x publications and dominates, next to two full
  JSONL parses and one JSONL write.
* ``cli-cohort``: the ``recency_noise_demo.py`` shape through the CLI. Every
  cohort command re-parses the whole corpus to use a small cohort and nothing
  is scored, so ingest dominates. It is the bypass case for scoring changes.
* ``lib-montecarlo``: one seed of the c07 and c08 acceptance loops,
  in-process with no files. Simulation and in-memory corpus construction
  dominate; a gain on the JSONL path that costs in-memory construction shows.

Every timing is also reported *scaled to reference speed*. The host's CPU
speed drifts (on a shared 2-vCPU VM, by up to 1.7x over tens of seconds to
minutes), and it slows a fixed pure-Python loop nearly as much as it slows
the workload. ``reference_s`` times that loop before the first step and after
each step of a pass; each step's wall seconds are multiplied by
``REFERENCE_NOMINAL_S`` over the mean of the two loop timings around it.
A scaled second is thus a wall second on a host where the loop takes
``REFERENCE_NOMINAL_S``. The loop is no part of citnorm, so a change to
citnorm moves scaled seconds as it moves wall seconds.

Sizes are set in ``FULL``. The 632-group roster's publication counts are
divided by four, and the CLI cohort is half the demo's 42k, so that a CLI
pass takes seconds and one run fits repeated set-up and several passes in
its time budget. Unit counts are those of the full rosters, and
``lib-montecarlo`` runs at the acceptance tests' full sizes.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STEP_TIMEOUT_S = 150
REFERENCE_LOOPS = 60_000
REFERENCE_NOMINAL_S = 0.006  # a round figure; the loop takes 3.9-6.4 ms on a 2.1 GHz Xeon vCPU

SEVEN_FIELDS = (("biochem", 3.0), ("cardiac", 2.2), ("chem", 1.4), ("econ", 0.9),
                ("math", 0.35), ("physics", 1.0), ("surgery", 1.3))
COHORT_FIELDS = (("math", 0.35), ("biochem", 3.0))


@dataclass(frozen=True)
class Size:
    """Corpus sizes of one benchmark scale."""

    many_units_groups: int
    many_units_divisor: int  # roster publication counts are divided by this
    cohort_pubs: int
    mc_groups: int
    mc_cohort_pubs: int


FULL = Size(many_units_groups=632, many_units_divisor=4, cohort_pubs=21_000,
            mc_groups=158, mc_cohort_pubs=42_000)
TOY = Size(many_units_groups=24, many_units_divisor=4, cohort_pubs=1_500,
           mc_groups=12, mc_cohort_pubs=1_500)


def roster(n_groups: int, pub_divisor: int) -> list[dict]:
    """The compare_indicators.py group roster, fixed across seeds."""
    rng = np.random.default_rng(2024)
    qualities = rng.uniform(0.6, 1.8, size=n_groups)
    sizes = rng.integers(50, 211, size=n_groups)
    return [{"unit_id": f"group{i:03d}", "quality": float(qualities[i]),
             "n_pubs": max(1, int(sizes[i]) // pub_divisor)} for i in range(n_groups)]


def many_units_config(seed: int, size: Size) -> dict:
    return {
        "fields": [{"field_id": f, "rate": r} for f, r in SEVEN_FIELDS],
        "units": roster(size.many_units_groups, size.many_units_divisor),
        "first_year": 1991, "census_year": 2000, "dispersion": 0.8, "seed": seed,
    }


def cohort_config(seed: int, size: Size) -> dict:
    return {
        "fields": [{"field_id": f, "rate": r} for f, r in COHORT_FIELDS],
        "units": [{"unit_id": "all", "quality": 1.0, "n_pubs": size.cohort_pubs}],
        "first_year": 1999, "census_year": 2008, "dispersion": 0.8, "seed": seed,
    }


def mc_roster_config(seed: int, size: Size) -> dict:
    config = many_units_config(seed, size)
    config["units"] = roster(size.mc_groups, 1)
    return config


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Step:
    """One operation of a pass.

    ``run(state)`` performs the operation and returns its raw result, or
    raises. ``check(result, state)`` runs after the timed pass and returns
    a list of problems; ``digest(result, state)`` fingerprints the output
    for the byte-identity check across passes.
    """

    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list[str]]
    digest: Callable[[object, dict], str]


def reference_s() -> float:
    """Seconds of a fixed pure-Python loop, the fastest of three tries."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, reference_before: float, reference_after: float) -> float:
    """Wall seconds scaled to reference speed by the loop timings around them."""
    return seconds * 2 * REFERENCE_NOMINAL_S / (reference_before + reference_after)


@dataclass
class PassResult:
    seconds: float  # wall seconds of the steps
    scaled_seconds: float  # the same, scaled to reference speed step by step
    references: list[float]  # reference_s() before the first step and after each step
    problems: dict[str, list[str]]  # step name -> problems; empty list means ok
    digests: dict[str, str]


def run_pass(steps: list[Step], state: dict, reference: dict[str, str] | None) -> PassResult:
    """Run the steps in order, timing each; check afterwards."""
    results: dict[str, object] = {}
    errors: dict[str, str] = {}
    references = [reference_s()]
    step_seconds = []
    for step in steps:
        start = time.perf_counter()
        try:
            results[step.name] = step.run(state)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[step.name] = f"{type(exc).__name__}: {exc}"
        step_seconds.append(time.perf_counter() - start)
        references.append(reference_s())
    seconds = sum(step_seconds)
    scaled_seconds = sum(scaled(*timing) for timing in
                         zip(step_seconds, references, references[1:]))
    problems: dict[str, list[str]] = {}
    digests: dict[str, str] = {}
    for step in steps:
        if step.name in errors:
            problems[step.name] = [errors[step.name]]
            continue
        try:
            found = step.check(results[step.name], state)
            digests[step.name] = step.digest(results[step.name], state)
        except Exception as exc:
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if not found and reference is not None and digests.get(step.name) != reference.get(step.name):
            found = ["output differs from the first pass on this seed"]
        problems[step.name] = found
    return PassResult(seconds=seconds, scaled_seconds=scaled_seconds, references=references,
                      problems=problems, digests=digests)


# --- CLI workloads -------------------------------------------------------

@dataclass
class CliRun:
    code: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_cli(argv: list[str], inprocess: bool) -> CliRun:
    """One citnorm invocation, as a child process or through ``cli.main``."""
    if not inprocess:
        proc = subprocess.run([sys.executable, "-m", "citnorm", *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, timeout=STEP_TIMEOUT_S)
        return CliRun(proc.returncode, proc.stdout, proc.stderr)
    import citnorm.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = citnorm.cli.main(argv)  # looked up per call, so tracing applies
    return CliRun(code, out.getvalue().encode(), err.getvalue().encode())


def cli_step(name: str, argv: list[str], output: Path | None,
             check: Callable[[bytes, dict], list[str]]) -> Step:
    """A subcommand step; ``output`` None means the result is its stdout."""

    def run(state: dict) -> CliRun:
        return run_cli(argv, state["inprocess"])

    def data(result: CliRun) -> bytes:
        return result.stdout if output is None else output.read_bytes()

    def checked(result: CliRun, state: dict) -> list[str]:
        if result.code != 0:
            tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return [f"exit code {result.code}: {' '.join(tail)}"]
        return check(data(result), state)

    return Step(name, run, checked, lambda result, state: sha256(data(result)))


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def check_corpus(data: bytes, state: dict) -> list[str]:
    lines = data.count(b"\n")
    return [] if lines == state["pubs"] else [f"corpus has {lines} lines, want {state['pubs']}"]


def check_baselines(data: bytes, state: dict) -> list[str]:
    rows = _rows(data)
    problems = []
    if rows[0] != ["field_id", "pub_year", "mean_citations", "cell_size"]:
        problems.append(f"bad header {rows[0]}")
    if sum(int(r[3]) for r in rows[1:]) != state["pubs"]:
        problems.append("cell sizes do not sum to the corpus size")
    if any(not math.isfinite(float(r[2])) or float(r[2]) < 0 for r in rows[1:]):
        problems.append("non-finite or negative cell mean")
    return problems


def check_scores(data: bytes, state: dict) -> list[str]:
    rows = _rows(data)[1:]
    problems = []
    if b"nan" in data.lower():
        problems.append("scores contain nan")
    if [r[0] for r in rows] != state["unit_ids"]:
        problems.append(f"{len(rows)} score rows, want one per configured unit ({state['units']})")
    if sum(int(r[1]) for r in rows) != state["pubs"]:
        problems.append("n_total does not sum to the corpus size")
    return problems


def check_correlations(data: bytes, state: dict) -> list[str]:
    rows = _rows(data)[1:]
    problems = [] if len(rows) == 3 else [f"{len(rows)} correlation rows, want 3"]
    for row in rows:
        for value in row[2:4]:
            if value == "NA" or not -1.0 <= float(value) <= 1.0:
                problems.append(f"{row[0]}/{row[1]}: correlation {value} not in [-1, 1]")
        if int(row[4]) != state["units"]:
            problems.append(f"{row[0]}/{row[1]}: n={row[4]}, want {state['units']}")
    return problems


def check_svg(data: bytes, state: dict) -> list[str]:
    text = data.decode("utf-8")
    meta = text.split("<!-- ", 1)[1].split(" -->", 1)[0]
    fields = dict(item.split("=", 1) for item in meta.split())
    total = sum(int(fields[k]) for k in ("markers", "clipped", "undefined"))
    if total != state["units"]:
        return [f"markers+clipped+undefined = {total}, want {state['units']}"]
    if text.count("<title>") != int(fields["markers"]):
        return ["marker count does not match the metadata"]
    return []


def check_ranking(data: bytes, state: dict) -> list[str]:
    rows = _rows(data)
    if rows[0] != ["rank", "unit_id", "score"] or len(rows) != 11:
        return [f"ranking has {len(rows)} lines, want a header and 10 rows"]
    return []


def check_trajectory(data: bytes, state: dict) -> list[str]:
    rows = _rows(data)[1:]
    means = [float(r[1]) for r in rows]
    problems = []
    if [int(r[0]) for r in rows] != state["cohort_years"]:
        problems.append("trajectory years do not cover the cohort's years")
    if any(b < a for a, b in zip(means, means[1:])) or not all(map(math.isfinite, means)):
        problems.append("cumulative means are not finite and non-decreasing")
    return problems


def check_age_csv(data: bytes, state: dict) -> list[str]:
    rows = _rows(data)
    entries = [row[1:] for row in rows[1:]]
    years = [str(y) for y in state["cohort_years"]]
    if rows[0] != [""] + years or [row[0] for row in rows[1:]] != years:
        return ["age matrix labels do not match the cohort's years"]
    return check_matrix([[None if v in ("", "NA") else float(v) for v in row] for row in entries])


def check_matrix(entries: list[list[float | None]]) -> list[str]:
    n = len(entries)
    problems = []
    for i in range(n):
        if entries[i][i] is not None:
            problems.append("age matrix diagonal is not blank")
        for j in range(n):
            if entries[i][j] != entries[j][i]:
                problems.append(f"age matrix not symmetric at ({i}, {j})")
            elif entries[i][j] is not None and not -1.0 <= entries[i][j] <= 1.0:
                problems.append(f"age correlation {entries[i][j]} not in [-1, 1]")
    return problems


class CliWorkload:
    """A workload made of ``citnorm`` subcommands sharing one work directory."""

    uses_cli = True
    min_passes = 2

    def __init__(self, name: str, seed: int, size: Size, workdir: Path) -> None:
        self.name, self.workdir = name, workdir
        self.config = (many_units_config if name == "cli-many-units" else cohort_config)(seed, size)
        units = self.config["units"]
        self.state = {
            "pubs": sum(u["n_pubs"] for u in units),
            "units": len(units),
            "unit_ids": sorted(u["unit_id"] for u in units),
            "cohort_years": list(range(self.config["first_year"], self.config["census_year"] + 1)),
            "inprocess": False,
        }
        self.steps = self._steps()

    def _steps(self) -> list[Step]:
        w = self.workdir
        config, corpus = w / "config.json", w / "corpus.jsonl"
        census = str(self.config["census_year"])
        simulate = cli_step("simulate", ["simulate", "--config", str(config), "--out", str(corpus)],
                            corpus, check_corpus)
        if self.name == "cli-cohort":
            first = str(self.config["first_year"])
            steps = [simulate]
            for command, check in (("trajectory", check_trajectory), ("age-corr", check_age_csv)):
                for field, _ in COHORT_FIELDS:
                    out = w / f"{command}_{field}.csv"
                    steps.append(cli_step(
                        f"{command}-{field}",
                        [command, "--corpus", str(corpus), "--census", census, "--field", field,
                         "--pub-year", first, "--out", str(out)],
                        out, check))
            return steps
        baselines, scores = w / "baselines.csv", w / "scores.csv"
        correlations = w / "correlations.csv"
        svg1, svg2 = w / "scatter_mncs1.svg", w / "scatter_mncs2.svg"
        return [
            simulate,
            cli_step("baselines", ["baselines", "--corpus", str(corpus), "--census", census,
                                   "--out", str(baselines)], baselines, check_baselines),
            cli_step("score", ["score", "--corpus", str(corpus), "--census", census, "--units",
                               "all", "--baselines", str(baselines), "--out", str(scores)],
                     scores, check_scores),
            cli_step("correlate", ["correlate", "--scores", str(scores), "--out",
                                   str(correlations)], correlations, check_correlations),
            cli_step("plot-mncs1", ["plot", "--scores", str(scores), "--x", "cpp_fcsm", "--y",
                                    "mncs1", "--out", str(svg1)], svg1, check_svg),
            cli_step("plot-mncs2", ["plot", "--scores", str(scores), "--x", "cpp_fcsm", "--y",
                                    "mncs2", "--axis-max", "2.5", "--out", str(svg2)],
                     svg2, check_svg),
            cli_step("rank", ["rank", "--scores", str(scores), "--by", "mncs2", "--top", "10"],
                     None, check_ranking),
        ]

    @property
    def pubs_per_pass(self) -> int:
        return self.state["pubs"]

    def provenance(self) -> dict:
        return {"pubs": self.state["pubs"], "units": self.state["units"]}

    def build_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / "config.json").write_text(json.dumps(self.config), encoding="utf-8")

    def run_pass(self, inprocess: bool, reference: dict[str, str] | None) -> PassResult:
        self.state["inprocess"] = inprocess
        return run_pass(self.steps, self.state, reference)


# --- library workload ----------------------------------------------------

def universe_cpp_fcsm(corpus, table) -> float:
    """Summed citations over summed expected citations for the whole corpus.

    Computed here from the baseline cells rather than through citnorm, so the
    check does not share code with what it checks.
    """
    total_c = 0
    total_e = 0.0
    for pub in corpus.publications:
        means = [table.cells[(fid, pub.pub_year)].mean_citations for fid in pub.field_ids]
        total_c += pub.citations_total
        total_e += sum(means) / len(means)
    return total_c / total_e


class LibWorkload:
    """One c07 seed and one c08 seed, in-process through the library API."""

    name = "lib-montecarlo"
    uses_cli = False
    min_passes = 11  # enough for pass_s.tail to have a percentile with ten samples beyond it

    def __init__(self, seed: int, size: Size) -> None:
        self.roster = mc_roster_config(seed, size)
        self.cohort = cohort_config(seed, size)
        self.cohort["units"][0]["n_pubs"] = size.mc_cohort_pubs
        self.state = {
            "pubs": sum(u["n_pubs"] for u in self.roster["units"]),
            "units": len(self.roster["units"]),
            "cohort_pubs": size.mc_cohort_pubs,
        }
        self.steps = self._steps()

    def build_inputs(self) -> None:
        from citnorm import simulate
        self.state["roster_config"] = simulate.config_from_dict(self.roster)
        self.state["cohort_config"] = simulate.config_from_dict(self.cohort)

    @property
    def pubs_per_pass(self) -> int:
        return self.state["pubs"] + self.state["cohort_pubs"]

    def provenance(self) -> dict:
        return {"pubs": self.pubs_per_pass, "units": self.state["units"],
                "roster_pubs": self.state["pubs"], "cohort_pubs": self.state["cohort_pubs"]}

    def _steps(self) -> list[Step]:
        import citnorm.baseline as baseline
        import citnorm.indicators as indicators
        import citnorm.simulate as simulate
        import citnorm.stats as stats

        first = self.cohort["first_year"]

        def digest(result, state):
            return sha256(repr(result).encode())

        def corpus_digest(corpus, state):
            # ids, years and fields come from a fixed-seed stream; the counts carry the seed
            return sha256(repr([p.citations_total for p in corpus.publications]).encode())

        def cohort_of(field):
            def run(state):
                corpus = state["cohort_corpus"]
                cohort = [p for p in corpus if field in p.field_ids and p.pub_year == first]
                return stats.age_correlation_matrix(cohort)
            return run

        def remember(key, fn):
            def run(state):
                state[key] = fn(state)
                return state[key]
            return run

        def check_table(table, state):
            if sum(c.cell_size for c in table.cells.values()) != state["pubs"]:
                return ["cell sizes do not sum to the corpus size"]
            value = universe_cpp_fcsm(state["corpus"], table)
            return [] if abs(value - 1.0) <= 1e-9 else [f"universe CPP/FCSm {value!r} is not 1"]

        def check_scores_lib(scores, state):
            problems = []
            if len(scores) != state["units"]:
                problems.append(f"{len(scores)} unit scores, want {state['units']}")
            if sum(s.n_total for s in scores) != state["pubs"]:
                problems.append("n_total does not sum to the corpus size")
            values = [v for s in scores for v in (s.cpp_fcsm, s.mncs1, s.mncs2)]
            if any(v is None or not math.isfinite(v) for v in values):
                problems.append("undefined or non-finite unit score")
            return problems

        def check_report(report, state):
            problems = []
            for pair in report.pairs:
                for value in (pair.pearson, pair.spearman):
                    if value is None or not -1.0 <= value <= 1.0:
                        problems.append(f"{pair.label_x}/{pair.label_y}: {value} not in [-1, 1]")
                if pair.n != state["units"]:
                    problems.append(f"{pair.label_x}/{pair.label_y}: n={pair.n}")
            return problems

        def check_corpus_size(key):
            def check(corpus, state):
                return [] if len(corpus) == state[key] else [f"{len(corpus)} publications"]
            return check

        def check_age(matrix, state):
            if list(matrix.years) != list(range(first, self.cohort["census_year"] + 1)):
                return ["age matrix years do not cover the cohort's years"]
            return check_matrix([list(row) for row in matrix.entries])

        return [
            Step("generate-roster",
                 remember("corpus", lambda s: simulate.generate_corpus(s["roster_config"])),
                 check_corpus_size("pubs"), corpus_digest),
            Step("baselines", remember("table", lambda s: baseline.compute_baselines(s["corpus"])),
                 check_table, digest),
            Step("score", remember("scores", lambda s: indicators.score_units(s["corpus"], s["table"])),
                 check_scores_lib, digest),
            Step("correlate", lambda s: stats.correlate_indicators(s["scores"]), check_report, digest),
            Step("generate-cohort",
                 remember("cohort_corpus", lambda s: simulate.generate_corpus(s["cohort_config"])),
                 check_corpus_size("cohort_pubs"), corpus_digest),
            *(Step(f"age-corr-{field}", cohort_of(field), check_age, digest)
              for field, _ in COHORT_FIELDS),
        ]

    def run_pass(self, inprocess: bool, reference: dict[str, str] | None) -> PassResult:
        result = run_pass(self.steps, self.state, reference)
        for key in ("corpus", "table", "scores", "cohort_corpus"):
            self.state.pop(key, None)  # free the corpora between passes
        return result


WORKLOADS = ("cli-many-units", "cli-cohort", "lib-montecarlo")


def make_workload(name: str, seed: int, size: Size, workdir: Path):
    if name == "lib-montecarlo":
        return LibWorkload(seed, size)
    return CliWorkload(name, seed, size, workdir)
