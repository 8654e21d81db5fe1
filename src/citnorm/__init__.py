"""Field- and year-normalized citation indicators over publication corpora.

Computes per-publication normalized citation scores against field-year
baselines, aggregates them into per-unit CPP/FCSm (ratio of averages) and
MNCS (average of ratios) indicators, compares indicators with rank
correlations and scatter plots, and ships a seeded synthetic-corpus simulator
for exercising the indicators' algebraic properties at desk scale.
"""
# Each module and the public names it defines. A name, or a module by its own name, loads on
# first use (PEP 562): importing citnorm loads no submodule, and only simulate needs numpy.
# Nothing is cached here, so a name always reads what its module holds now.
_EXPORTS = {
    "baseline": ("BaselineCell", "BaselineTable", "compute_baselines", "expected_citations",
                 "read_baselines", "write_baselines"),
    "corpus": ("Corpus", "Publication", "corpus_to_jsonl", "parse_corpus", "select_cohort",
               "select_unit", "write_corpus"),
    "errors": ("ValidationError",),
    "indicators": ("INDICATOR_NAMES", "ConsistencyWitness", "MncsResult", "ScoredPublication",
                   "UnitScore", "cpp_fcsm", "find_cpp_fcsm_consistency_counterexample", "mncs",
                   "normalized_score", "rank_units", "read_scores", "score_publication",
                   "score_unit", "score_units", "write_scores"),
    "report": ("ScatterSpec", "render_ranking", "render_scatter"),
    "simulate": ("FieldSpec", "SimulationConfig", "UnitSpec", "generate_corpus", "load_config"),
    "stats": ("AgeCorrelationMatrix", "CorrelationReport", "PairCorrelation", "Trajectory",
              "age_correlation_matrix", "correlate_indicators", "pearson", "spearman",
              "trajectory"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ with a fromlist returns the submodule itself; importlib.import_module would
    # load it too, but past the interpreter's own import, so -X importtime would not list it
    loaded = __import__(f"{__name__}.{module}", fromlist=[name])
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
