"""Field- and year-normalized citation indicators over publication corpora.

Computes per-publication normalized citation scores against field-year
baselines, aggregates them into per-unit CPP/FCSm (ratio of averages) and
MNCS (average of ratios) indicators, compares indicators with rank
correlations and scatter plots, and ships a seeded synthetic-corpus simulator
for exercising the indicators' algebraic properties at desk scale.
"""
import importlib

from .baseline import (
    BaselineCell,
    BaselineTable,
    compute_baselines,
    expected_citations,
    read_baselines,
    write_baselines,
)
from .corpus import (
    Corpus,
    Publication,
    Unit,
    corpus_to_jsonl,
    parse_corpus,
    select_unit,
    write_corpus,
)
from .errors import ValidationError
from .indicators import (
    INDICATOR_NAMES,
    ConsistencyWitness,
    MncsResult,
    ScoredPublication,
    UnitScore,
    cpp_fcsm,
    find_cpp_fcsm_consistency_counterexample,
    mncs,
    normalized_score,
    rank_units,
    read_scores,
    score_publication,
    score_unit,
    score_units,
    write_scores,
)
from .report import ScatterSpec, render_ranking, render_scatter

# simulate and stats need numpy, so their names load on first use (PEP 562):
# importing citnorm for ingest, baselines, scoring or plots does not pay for it.
_LAZY_NAMES = {
    "simulate": ("FieldSpec", "SimulationConfig", "UnitSpec", "generate_corpus", "load_config"),
    "stats": (
        "AgeCorrelationMatrix", "CorrelationReport", "PairCorrelation", "Trajectory",
        "age_correlation_matrix", "correlate_indicators", "pearson", "spearman", "trajectory",
    ),
}
_LAZY = {name: module for module, names in _LAZY_NAMES.items() for name in names}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "AgeCorrelationMatrix",
    "BaselineCell",
    "BaselineTable",
    "ConsistencyWitness",
    "Corpus",
    "CorrelationReport",
    "FieldSpec",
    "INDICATOR_NAMES",
    "MncsResult",
    "PairCorrelation",
    "Publication",
    "ScatterSpec",
    "ScoredPublication",
    "SimulationConfig",
    "Trajectory",
    "Unit",
    "UnitScore",
    "UnitSpec",
    "ValidationError",
    "age_correlation_matrix",
    "compute_baselines",
    "corpus_to_jsonl",
    "correlate_indicators",
    "cpp_fcsm",
    "expected_citations",
    "find_cpp_fcsm_consistency_counterexample",
    "generate_corpus",
    "load_config",
    "mncs",
    "normalized_score",
    "parse_corpus",
    "pearson",
    "rank_units",
    "read_baselines",
    "read_scores",
    "render_ranking",
    "render_scatter",
    "score_publication",
    "score_unit",
    "score_units",
    "select_unit",
    "spearman",
    "trajectory",
    "write_baselines",
    "write_corpus",
    "write_scores",
]
