"""The package namespace: each public name loads from its module on first use."""
from __future__ import annotations

import importlib
import json

import pytest

import citnorm

from conftest import run_module, simulator

PUBLIC_NAMES = [
    "AgeCorrelationMatrix", "BaselineCell", "BaselineTable", "ConsistencyWitness", "Corpus",
    "CorrelationReport", "FieldSpec", "INDICATOR_NAMES", "MncsResult", "PairCorrelation",
    "Publication", "ScatterSpec", "ScoredPublication", "SimulationConfig", "Trajectory",
    "UnitScore", "UnitSpec", "ValidationError", "age_correlation_matrix", "compute_baselines",
    "corpus_to_jsonl", "correlate_indicators", "cpp_fcsm", "expected_citations", "field_cohort",
    "find_cpp_fcsm_consistency_counterexample", "generate_corpus", "load_config", "mncs",
    "normalized_score", "parse_corpus", "pearson", "rank_units", "read_baselines", "read_scores",
    "render_ranking", "render_scatter", "score_publication", "score_unit", "score_units",
    "select_cohort", "select_unit", "spearman", "trajectory", "write_age_matrix",
    "write_baselines", "write_corpus", "write_correlation_report", "write_scatter",
    "write_scores", "write_simulated", "write_trajectory",
]
SIMULATE_NAMES = {"FieldSpec", "SimulationConfig", "UnitSpec", "generate_corpus", "load_config",
                  "write_simulated"}
SUBMODULES = ["baseline", "corpus", "errors", "indicators", "report", "simulate", "stats"]
LOADED = ("print(json.dumps(sorted(m for m in sys.modules"
          " if m == 'numpy' or m.split('.')[0] == 'citnorm')))")


def _fresh(code: str):
    """The JSON that ``code`` prints in a fresh interpreter, run after ``import citnorm``."""
    proc = run_module("-c", "import json, sys\nimport citnorm\n" + code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_lists_the_public_names_in_order():
    assert _fresh("print(json.dumps(citnorm.__all__))") == PUBLIC_NAMES


def test_a_bare_import_loads_no_submodule_and_no_numpy():
    assert _fresh(LOADED) == ["citnorm"]


def test_only_the_simulate_names_load_numpy():
    names = sorted(set(PUBLIC_NAMES) - SIMULATE_NAMES)
    loaded = _fresh(f"[getattr(citnorm, name) for name in {names!r}]\n{LOADED}")
    assert "numpy" not in loaded and "citnorm.simulate" not in loaded
    assert "citnorm.stats" in loaded
    simulator()
    assert "numpy" in _fresh(f"citnorm.generate_corpus\n{LOADED}")


def test_a_submodule_resolves_after_a_bare_import():
    simulator()
    assert _fresh("print(json.dumps([citnorm.stats.pearson([1, 2, 3], [2, 4, 6]),"
                  f" [getattr(citnorm, m).__name__ for m in {SUBMODULES!r}]]))") == [
        1.0, [f"citnorm.{m}" for m in SUBMODULES]]


def test_every_name_is_the_object_its_module_defines():
    simulator()
    modules = [importlib.import_module(f"citnorm.{m}") for m in SUBMODULES]
    for name in PUBLIC_NAMES:
        held = [vars(module)[name] for module in modules if name in vars(module)]
        assert held and all(obj is getattr(citnorm, name) for obj in held), name
    assert set(PUBLIC_NAMES) | set(SUBMODULES) <= set(dir(citnorm))


def test_a_name_reads_what_its_module_holds_now(monkeypatch):
    # nothing is cached in the package, so a function swapped in its module is what it returns
    swapped = object()
    monkeypatch.setattr(citnorm.stats, "pearson", swapped)
    assert citnorm.pearson is swapped


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'citnorm' has no attribute 'nope'$"):
        citnorm.nope
