"""Correlation and trajectory statistics for indicator comparisons.

Pearson measures how linearly two indicator series are related, Spearman how
monotonically (ties receive average ranks). Undefined unit scores are dropped
pairwise, not listwise, and each reported pair carries the number of items
that survived so the reduction stays visible.

All of it is pure Python, so only ``simulate`` loads numpy. :func:`pearson` is
finite at any finite magnitude; the age matrix uses exact integer moments.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import groupby
from operator import mul
from pathlib import Path
from typing import Sequence

from .corpus import Publication
from .errors import ValidationError
from .indicators import UnitScore

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


def _year_columns(pubs: Sequence[Publication]) -> dict[int, list[int]]:
    """Each citation year of same-year publications mapped to their cumulative counts
    by the end of it, in id order. The publications must share their publication year
    and the years they count; id order fixes which one a fault names."""
    if not pubs:
        raise ValidationError("no publications given")
    ordered = sorted(pubs, key=lambda p: p.id)
    first = ordered[0]
    for pub in ordered:
        if pub.citations_by_year is None:
            raise ValidationError(f"publication {pub.id}: missing citations_by_year")
        if pub.pub_year != first.pub_year:
            raise ValidationError("publications must share the same publication year")
    years = sorted(first.citations_by_year)  # type: ignore[arg-type]
    for pub in ordered:
        if sorted(pub.citations_by_year) != years:  # type: ignore[arg-type]
            raise ValidationError("publications must cover the same year range")
    return {year: [pub.citations_by_year[year] for pub in ordered]  # type: ignore[index]
            for year in years}


def age_correlation_matrix(pubs: Sequence[Publication]) -> AgeCorrelationMatrix:
    """Cross-year citation-count correlations for same-year publications, from
    exact integer moments of the counts (Σx, Σx² per year, Σxy per pair)."""
    by_year = _year_columns(pubs)
    years, columns = list(by_year), list(by_year.values())
    n_pubs, n = len(pubs), len(years)
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


def trajectory(pubs: Sequence[Publication], field_id: str, pub_year: int) -> Trajectory:
    """Average citation trajectory of the publications in one field-year."""
    matched = [p for p in pubs if field_id in p.field_ids and p.pub_year == pub_year]
    if not matched:
        raise ValidationError(f"no publications in field '{field_id}', year {pub_year}")
    means = tuple((year, sum(column) / len(matched))
                  for year, column in _year_columns(matched).items())
    return Trajectory(field_id=field_id, pub_year=pub_year, n_pubs=len(matched), means=means)


def write_correlation_report(report: CorrelationReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["label_x", "label_y", "pearson", "spearman", "n"])
        for pair in report.pairs:
            writer.writerow([
                pair.label_x,
                pair.label_y,
                "NA" if pair.pearson is None else f"{pair.pearson:.6f}",
                "NA" if pair.spearman is None else f"{pair.spearman:.6f}",
                pair.n,
            ])


def write_age_matrix(matrix: AgeCorrelationMatrix, path: str | Path) -> None:
    """CSV with year labels on the first row and column and a blank diagonal."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([""] + [str(y) for y in matrix.years])
        for i, year in enumerate(matrix.years):
            row: list[str] = [str(year)]
            for j in range(len(matrix.years)):
                if i == j:
                    row.append("")
                else:
                    value = matrix.entries[i][j]
                    row.append("NA" if value is None else f"{value:.2f}")
            writer.writerow(row)


def write_trajectory(traj: Trajectory, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["year", "mean_citations"])
        for year, mean in traj.means:
            writer.writerow([year, f"{mean:.4f}"])
