"""In-memory span tracing around calls into citnorm's public functions.

The tracer wraps chosen public functions of the citnorm modules from the
outside: it replaces each function object wherever a citnorm module holds a
reference to it (``indicators`` calls ``select_unit`` through its own
namespace, for example), records one span per call and restores the
originals when uninstalled. Nothing inside citnorm changes.

A span is a dict with ``id``, ``name`` (``module.function``), ``pass``,
``parent`` (the enclosing span's id or None), ``start`` and ``end``
(``time.perf_counter`` seconds) and optional ``counts`` taken from the
call's arguments and result after ``end`` is stamped, so counting is not
charged to the span.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _len_result(args, kwargs, result):
    return {"items": len(result)}


def _write_corpus_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _score_units_counts(args, kwargs, result):
    return {
        "units": len(result),
        "memberships": sum(s.n_total for s in result),
        "corpus_pubs": len(args[0]),
    }


def _svg_counts(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _trajectory_counts(args, kwargs, result):
    return {"items": result.n_pubs}


def _cohort_counts(args, kwargs, result):
    return {"items": len(args[0])}


# Public calls that bound a layer, with the counts each span records. Helpers
# called once per publication (expected_citations, score_publication, mncs,
# pearson, ...) are left unwrapped: a span per publication would cost more
# than the work it measures.
TRACED = {
    "cli": {"main": None},
    "corpus": {
        "parse_corpus": _len_result,
        "write_corpus": _write_corpus_counts,
        "select_unit": None,
    },
    "simulate": {"load_config": None, "generate_corpus": _len_result},
    "baseline": {
        "compute_baselines": _len_result,
        "read_baselines": _len_result,
        "write_baselines": None,
    },
    "indicators": {
        "score_units": _score_units_counts,
        "read_scores": _len_result,
        "write_scores": None,
    },
    "stats": {
        "correlate_indicators": None,
        "write_correlation_report": None,
        "trajectory": _trajectory_counts,
        "write_trajectory": None,
        "age_correlation_matrix": _cohort_counts,
        "write_age_matrix": None,
    },
    "report": {"render_scatter": _svg_counts, "render_ranking": None},
}


class Tracer:
    """Records spans while installed; keeps them in memory until written."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "pass": self.pass_id,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever a citnorm module refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name, functions in TRACED.items():
            module = importlib.import_module(f"citnorm.{mod_name}")
            for fn_name, counter in functions.items():
                original = getattr(module, fn_name)
                wrappers[id(original)] = (
                    original, self._wrap(f"{mod_name}.{fn_name}", original, counter)
                )
        modules = [m for n, m in sys.modules.items()
                   if n == "citnorm" or n.startswith("citnorm.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def per_pass_totals(spans: list[dict]) -> dict[int, dict[str, dict]]:
    """For each pass: per span name, calls, inclusive and self seconds, counts.

    Self time is a span's duration minus the part covered by its children.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[int, dict[str, dict]] = defaultdict(dict)
    for span in spans:
        entry = totals[span["pass"]].setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": defaultdict(int)}
        )
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[span["id"]]
        for key, value in span.get("counts", {}).items():
            entry["counts"][key] += value
    return totals


def root_seconds(spans: list[dict]) -> dict[int, float]:
    """Per pass, the summed duration of spans with no parent."""
    sums: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is None:
            sums[span["pass"]] += span["end"] - span["start"]
    return dict(sums)
