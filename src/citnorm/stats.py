"""Correlation and trajectory statistics for indicator comparisons.

Pearson measures how linearly two indicator series are related, Spearman how
monotonically (ties receive average ranks). Undefined unit scores are dropped
pairwise, not listwise, and each reported pair carries the number of items
that survived so the reduction stays visible.

All of it is pure Python, so only ``simulate`` loads numpy. :func:`pearson` is
finite at any finite magnitude; the age matrix uses exact integer moments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import mul
from pathlib import Path
from typing import Iterable, Sequence

from .baseline import _csv_text
from .corpus import Corpus, Publication, _write_text, select_cohort
from .errors import ValidationError
from .indicators import UnitScore, format_value

_INDICATOR_PAIRS = (
    ("cpp_fcsm", "mncs1"),
    ("cpp_fcsm", "mncs2"),
    ("mncs1", "mncs2"),
)


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks as a list of floats; tied values share the mean of the ranks they span."""
    ranks = [0.0] * len(values)
    below = 0
    for _, group in groupby(sorted(range(len(values)), key=values.__getitem__),
                            key=values.__getitem__):
        tied = list(group)
        for k in tied:
            ranks[k] = below + (len(tied) + 1) / 2
        below += len(tied)
    return ranks


def _paired_floats(x: Sequence[float], y: Sequence[float]) -> tuple[list[float], list[float]]:
    """``x`` and ``y`` as float lists, once they are checked to pair up and be finite."""
    if len(x) != len(y):
        raise ValidationError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValidationError("need at least two observations")
    try:
        fx = list(map(float, x))
        fy = list(map(float, y))
    except OverflowError:  # an integer beyond float range
        raise ValidationError("cannot correlate values beyond float range") from None
    if not (all(map(math.isfinite, fx)) and all(map(math.isfinite, fy))):
        raise ValidationError("cannot correlate non-finite values")
    return fx, fy


def _centered_unit_scale(values: list[float]) -> list[float]:
    """``values`` over the power of two that puts the largest magnitude in [0.5, 1),
    then centered. The scaling is exact (bar values 2**1021 below the largest), and
    no sum of squares can then overflow or underflow (Chan, Golub & LeVeque 1983)."""
    shift = -math.frexp(max(map(abs, values)))[1]
    scaled = [math.ldexp(v, shift) for v in values]
    mean = math.fsum(scaled) / len(scaled)
    return [v - mean for v in scaled]


def _clamped_r(cov: float, var_product: float) -> float:
    return max(-1.0, min(1.0, cov / math.sqrt(var_product)))


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Sample Pearson correlation, in [-1, 1] for any finite input; None when
    either vector is constant."""
    fx, fy = _paired_floats(x, y)
    if fx.count(fx[0]) == len(fx) or fy.count(fy[0]) == len(fy):
        return None
    dx = _centered_unit_scale(fx)
    dy = _centered_unit_scale(fy)
    # the largest magnitude is now at least 0.5 and a non-constant vector holds a
    # value 2**-54 or more away from it, so neither sum of squares is zero
    return _clamped_r(math.fsum(map(mul, dx, dy)),
                      math.fsum(map(mul, dx, dx)) * math.fsum(map(mul, dy, dy)))


def spearman(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Pearson correlation of the average-rank transforms."""
    fx, fy = _paired_floats(x, y)
    return pearson(average_ranks(fx), average_ranks(fy))


@dataclass(frozen=True)
class PairCorrelation:
    label_x: str
    label_y: str
    pearson: float | None
    spearman: float | None
    n: int


@dataclass(frozen=True)
class CorrelationReport:
    pairs: tuple[PairCorrelation, ...]


def correlate_indicators(scores: Sequence[UnitScore], min_pubs: int = 0) -> CorrelationReport:
    """Pearson/Spearman for the three indicator pairs across units.

    Units with fewer than ``min_pubs`` publications are ignored (a sensitivity
    filter; the default keeps everything). For each pair only units with both
    values defined enter; a pair with fewer than two such units is reported
    with undefined correlations.
    """
    if min_pubs < 0:
        raise ValidationError("min_pubs must be >= 0")
    if len(scores) < 2:
        raise ValidationError("need at least two units to correlate")
    eligible = [s for s in scores if s.n_total >= min_pubs]
    pairs = []
    for label_x, label_y in _INDICATOR_PAIRS:
        xs: list[float] = []
        ys: list[float] = []
        for score in eligible:
            vx = getattr(score, label_x)
            vy = getattr(score, label_y)
            if vx is not None and vy is not None:
                xs.append(vx)
                ys.append(vy)
        if len(xs) < 2:
            pairs.append(PairCorrelation(label_x, label_y, None, None, len(xs)))
        else:
            pairs.append(PairCorrelation(
                label_x, label_y, pearson(xs, ys), spearman(xs, ys), len(xs)
            ))
    return CorrelationReport(pairs=tuple(pairs))


@dataclass(frozen=True)
class AgeCorrelationMatrix:
    """Pearson correlations between cumulative counts at pairs of years.

    ``entries[i][j]`` correlates the counts by the end of ``years[i]`` with
    those by the end of ``years[j]``. The diagonal is conceptually 1 and is
    stored (and exported) as blank; entries are None where a year's counts
    are constant across publications.
    """

    years: tuple[int, ...]
    entries: tuple[tuple[float | None, ...], ...]


def _as_corpus(pubs: Corpus | Iterable[Publication]) -> Corpus:
    """``pubs`` itself if a corpus, else the corpus over them whose census year is the
    largest year they carry and whose first year is their earliest ``pub_year``."""
    if isinstance(pubs, Corpus):
        return pubs
    pubs = tuple(pubs)  # an iterator is read once, here, not once for the years and again below
    years = [pub.pub_year for pub in pubs]
    keys = [max(pub.citations_by_year) for pub in pubs if pub.citations_by_year]
    return Corpus(pubs, census_year=max(years + keys, default=0), first_year=min(years, default=0))


def _cohort_columns(cohort: Corpus) -> tuple[range, list[tuple[int, ...]]]:
    """The years a cohort counts and, per year, its counts by the end of it in id order. Its
    publications must share their year and carry by-year counts, which then span the same years."""
    if not cohort:
        raise ValidationError("no publications given")
    first = cohort.pub_years[0]
    for pid, year, row in zip(cohort.ids, cohort.pub_years, cohort.by_year):
        if row is None:
            raise ValidationError(f"publication {pid}: missing citations_by_year")
        if year != first:
            raise ValidationError("publications must share the same publication year")
    return range(first, cohort.census_year + 1), list(zip(*cohort.by_year))


def age_correlation_matrix(pubs: Corpus | Iterable[Publication]) -> AgeCorrelationMatrix:
    """Cross-year citation-count correlations for same-year publications, from
    exact integer moments of the counts (Σx, Σx² per year, Σxy per pair)."""
    cohort = _as_corpus(pubs)
    years, columns = _cohort_columns(cohort)
    n_pubs, n = len(cohort), len(years)
    if n > 1 and n_pubs < 2:
        raise ValidationError("need at least two observations")
    sums = [sum(col) for col in columns]
    # n² times the variance; zero exactly when the year's counts are constant
    spreads = [n_pubs * sum(map(mul, col, col)) - s * s for col, s in zip(columns, sums)]
    entries: list[list[float | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if spreads[i] and spreads[j]:
                cov = n_pubs * sum(map(mul, columns[i], columns[j])) - sums[i] * sums[j]
                entries[i][j] = entries[j][i] = _clamped_r(cov, spreads[i] * spreads[j])
    return AgeCorrelationMatrix(
        years=tuple(years), entries=tuple(tuple(row) for row in entries)
    )


@dataclass(frozen=True)
class Trajectory:
    """Mean cumulative citation counts per year for one (field, year) cohort."""

    field_id: str
    pub_year: int
    n_pubs: int
    means: tuple[tuple[int, float], ...]


def trajectory(pubs: Corpus | Iterable[Publication], field_id: str, pub_year: int) -> Trajectory:
    """Average citation trajectory of the publications in one field-year."""
    cohort = select_cohort(_as_corpus(pubs), field_id, pub_year)
    if not cohort:
        raise ValidationError(f"no publications in field '{field_id}', year {pub_year}")
    years, columns = _cohort_columns(cohort)
    means = tuple((year, sum(column) / len(cohort)) for year, column in zip(years, columns))
    return Trajectory(field_id=field_id, pub_year=pub_year, n_pubs=len(cohort), means=means)


def write_correlation_report(report: CorrelationReport, path: str | Path) -> None:
    _write_text(path, _csv_text(["label_x", "label_y", "pearson", "spearman", "n"], ([
        pair.label_x,
        pair.label_y,
        format_value(pair.pearson, decimals=6),
        format_value(pair.spearman, decimals=6),
        pair.n,
    ] for pair in report.pairs)))


def write_age_matrix(matrix: AgeCorrelationMatrix, path: str | Path) -> None:
    """CSV with year labels on the first row and column and a blank diagonal."""
    rows = ([year, *("" if i == j else format_value(value, decimals=2)
                     for j, value in enumerate(matrix.entries[i]))]
            for i, year in enumerate(matrix.years))
    _write_text(path, _csv_text(["", *matrix.years], rows))


def write_trajectory(traj: Trajectory, path: str | Path) -> None:
    _write_text(path, _csv_text(["year", "mean_citations"],
                                ([year, format_value(mean)] for year, mean in traj.means)))
