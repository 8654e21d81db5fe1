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
    corpus_to_jsonl,
    parse_corpus,
    select_cohort,
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
from .stats import (
    AgeCorrelationMatrix,
    CorrelationReport,
    PairCorrelation,
    Trajectory,
    age_correlation_matrix,
    correlate_indicators,
    pearson,
    spearman,
    trajectory,
)

# simulate needs numpy, so its names load on first use (PEP 562): importing
# citnorm for ingest, baselines, scoring, statistics or plots does not pay for it.
_SIMULATE_NAMES = {"FieldSpec", "SimulationConfig", "UnitSpec", "generate_corpus", "load_config"}


def __getattr__(name: str):
    if name not in _SIMULATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".simulate", __name__), name)


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
    "select_cohort",
    "select_unit",
    "spearman",
    "trajectory",
    "write_baselines",
    "write_corpus",
    "write_scores",
]
