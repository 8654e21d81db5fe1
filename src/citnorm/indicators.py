"""Normalized citation scores and per-unit indicator bundles.

Two normalization mechanisms over the same (actual, expected) citation pairs:

* CPP/FCSm, a ratio of averages: the sum of actual citations divided by the
  sum of expected citations. Equivalently, it is the expected-citation-
  weighted mean of the per-publication ratios, so publications with a large
  expected count carry more weight.
* MNCS, an average of ratios: the unweighted mean of the per-publication
  c/e ratios. MNCS1 averages over all publications; MNCS2 drops publications
  that have had less than one full calendar year to earn citations
  (pub_year equal to the census year).

Undefined values (zero denominators) propagate as ``None``, never as 0 or a
silent skip, and print as ``NA`` in exports. Publications with e = 0 are
excluded from MNCS means (0/0 has no value) and tallied; they stay in the
CPP/FCSm sums, where they merely add zero to the denominator.

Every floating-point sum is :func:`math.fsum`, which is correctly rounded, so
a unit's scores depend on its set of publications and not on their order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .baseline import (BaselineTable, _csv_int, _csv_real, _csv_rows, _csv_text, _expected,
                       expected_citations)
from .corpus import Corpus, Publication, _write_text
from .errors import ValidationError

INDICATOR_NAMES = ("cpp_fcsm", "mncs1", "mncs2")

_SCORES_HEADER = [
    "unit_id", "n_total", "n_mncs2", "n_excluded_zero_e", "cpp_fcsm", "mncs1", "mncs2",
]


@dataclass(frozen=True)
class ScoredPublication:
    """A publication reduced to its citation count and expected count."""

    id: str
    pub_year: int
    c: int
    e: float


@dataclass(frozen=True)
class UnitScore:
    """Indicator bundle for one unit.

    ``n_mncs2`` counts publications with at least one full citation year
    (pub_year <= census_year - 1); ``n_excluded_zero_e`` counts publications
    whose expected citation count is zero, which are dropped from MNCS means.
    """

    unit_id: str
    n_total: int
    n_mncs2: int
    n_excluded_zero_e: int
    cpp_fcsm: float | None
    mncs1: float | None
    mncs2: float | None


class MncsResult(NamedTuple):
    value: float | None
    n_used: int
    n_excluded_zero_e: int


def normalized_score(c: int, e: float) -> float | None:
    """Ratio of actual to expected citations; None when e = 0."""
    if c < 0:
        raise ValidationError("negative citation count")
    if e < 0:
        raise ValidationError("negative expected citation count")
    if e == 0:
        return None
    return c / e


def score_publication(pub: Publication, table: BaselineTable) -> ScoredPublication:
    """Attach the baseline-derived expected count to a publication."""
    return ScoredPublication(
        id=pub.id, pub_year=pub.pub_year, c=pub.citations_total,
        e=expected_citations(table, pub),
    )


def _ratio_of_sums(cs: Sequence[int], es: Sequence[float]) -> float | None:
    """Σc / Σe; None when Σe = 0."""
    total_e = math.fsum(es)
    return None if total_e == 0 else sum(cs) / total_e


def _mean_ratio(cs: Sequence[int], es: Sequence[float]) -> MncsResult:
    """Mean of c/e over the pairs with e != 0; None when there is none."""
    ratios = [c / e for c, e in zip(cs, es) if e != 0]
    value = math.fsum(ratios) / len(ratios) if ratios else None
    return MncsResult(value=value, n_used=len(ratios), n_excluded_zero_e=len(cs) - len(ratios))


def cpp_fcsm(pubs: Sequence[ScoredPublication]) -> float | None:
    """Ratio of summed actual to summed expected citations.

    Every publication participates: there is no recency filter, and e = 0
    publications simply add nothing to the denominator. Returns None when the
    summed expected count is zero.
    """
    if not pubs:
        raise ValidationError("cpp_fcsm requires at least one publication")
    return _ratio_of_sums([pub.c for pub in pubs], [pub.e for pub in pubs])


def mncs(
    pubs: Sequence[ScoredPublication], census_year: int, exclude_recent: bool
) -> MncsResult:
    """Unweighted mean of the per-publication c/e ratios.

    With ``exclude_recent`` the mean is restricted to publications with
    pub_year <= census_year - 1 (the MNCS2 variant). Publications with e = 0
    are excluded from the mean and tallied in ``n_excluded_zero_e``; the value
    is None when no publication remains.
    """
    if not pubs:
        raise ValidationError("mncs requires at least one publication")
    if exclude_recent:
        pubs = [pub for pub in pubs if pub.pub_year <= census_year - 1]
    return _mean_ratio([pub.c for pub in pubs], [pub.e for pub in pubs])


def score_unit(corpus: Corpus, table: BaselineTable, unit_id: str) -> UnitScore:
    """CPP/FCSm, MNCS1 and MNCS2 for one unit, with exclusion tallies."""
    return score_units(corpus, table, [unit_id])[0]


def score_units(
    corpus: Corpus, table: BaselineTable, unit_ids: Iterable[str] | None = None
) -> list[UnitScore]:
    """Score several units (all corpus units when ``unit_ids`` is None).

    One score per distinct requested unit, ascending by id. A single pass over
    the corpus's columns in id order finds each publication's requested units
    (a repeated unit counts once) and looks up its expected count once per
    distinct (fields, year); each unit's sums are then :func:`math.fsum` over
    its publications. Cost is corpus size plus unit memberships, no
    publication is built, and other units' publications are never looked up.
    """
    if isinstance(unit_ids, str):
        raise ValidationError("unit_ids must be a collection of unit ids, not a string")
    wanted = None if unit_ids is None else set(unit_ids)
    expected: dict[tuple[tuple[str, ...], int], float] = {}
    es: list[float] = [0.0] * len(corpus)
    members: dict[str, list[int]] = {}
    for i, (units, fields, year) in enumerate(zip(corpus.units, corpus.fields,
                                                  corpus.pub_years)):
        credited = set(units) if wanted is None else wanted.intersection(units)
        if not credited:
            continue
        e = expected.get((fields, year))
        if e is None:
            e = expected[(fields, year)] = _expected(table, fields, year)
        es[i] = e
        for uid in credited:
            members.setdefault(uid, []).append(i)
    totals, years, last_full_year = corpus.totals, corpus.pub_years, corpus.census_year - 1
    scores = []
    for uid in sorted(members) if wanted is None else sorted(wanted):
        rows = members.get(uid)
        if rows is None:
            raise ValidationError(f"unit '{uid}' has no publications")
        full = [i for i in rows if years[i] <= last_full_year]
        cs, unit_es = list(map(totals.__getitem__, rows)), list(map(es.__getitem__, rows))
        m1 = _mean_ratio(cs, unit_es)
        m2 = _mean_ratio(list(map(totals.__getitem__, full)), list(map(es.__getitem__, full)))
        scores.append(UnitScore(
            unit_id=uid,
            n_total=len(rows),
            n_mncs2=len(full),
            n_excluded_zero_e=m1.n_excluded_zero_e,
            cpp_fcsm=_ratio_of_sums(cs, unit_es),
            mncs1=m1.value,
            mncs2=m2.value,
        ))
    return scores


def rank_units(scores: Sequence[UnitScore], by: str, top: int) -> list[UnitScore]:
    """Top units in descending order of one indicator.

    Undefined scores sort last; ties break by ascending unit id so rankings
    are deterministic.
    """
    if by not in INDICATOR_NAMES:
        raise ValidationError(f"unknown indicator '{by}' (expected one of {INDICATOR_NAMES})")
    if top < 0:
        raise ValidationError("top must be >= 0")

    def key(score: UnitScore):
        value = getattr(score, by)
        if value is None:
            return (1, 0.0, score.unit_id)
        return (0, -value, score.unit_id)

    return sorted(scores, key=key)[:top]


@dataclass(frozen=True)
class ConsistencyWitness:
    """Two singleton units whose CPP/FCSm ranking flips after both gain the
    same extra publication. Each member is an (actual, expected) pair."""

    unit_a: tuple[int, float]
    unit_b: tuple[int, float]
    added: tuple[int, float]
    before: tuple[float, float]
    after: tuple[float, float]


def find_cpp_fcsm_consistency_counterexample(search_bound: int) -> ConsistencyWitness | None:
    """Search for a rank reversal of CPP/FCSm under identical progress.

    Enumerates singleton units A = {(c_a, e_a)} and B = {(c_b, e_b)} plus an
    added publication (c*, e*), with citation counts in 0..search_bound and
    expected counts on the tenths grid 0.1..search_bound. Comparisons use
    exact integer arithmetic (e is carried as 10e). Returns the first witness
    in lexicographic order of (c_a, e_a, c_b, e_b, c*, e*), where A outranks
    B before the addition and B outranks A after, or None when the bound
    admits no witness.

    The unweighted-mean indicators cannot flip here: for equal-size units an
    added common publication shifts both means by the same affine map.
    """
    if search_bound < 1:
        return None
    c_range = range(search_bound + 1)
    e_range = range(1, 10 * search_bound + 1)  # units of 0.1
    for c_a in c_range:
        for k_a in e_range:
            for c_b in c_range:
                for k_b in e_range:
                    # before: c_a/e_a > c_b/e_b, exactly
                    if c_a * k_b <= c_b * k_a:
                        continue
                    for c_x in c_range:
                        for k_x in e_range:
                            # after: (c_a+c*)/(e_a+e*) < (c_b+c*)/(e_b+e*)
                            if (c_a + c_x) * (k_b + k_x) < (c_b + c_x) * (k_a + k_x):
                                e_a, e_b, e_x = k_a / 10, k_b / 10, k_x / 10
                                return ConsistencyWitness(
                                    unit_a=(c_a, e_a),
                                    unit_b=(c_b, e_b),
                                    added=(c_x, e_x),
                                    before=(c_a / e_a, c_b / e_b),
                                    after=((c_a + c_x) / (e_a + e_x), (c_b + c_x) / (e_b + e_x)),
                                )
    return None


def format_value(value: float | None, decimals: int = 4) -> str:
    """Render an indicator value for CSV output (None prints as NA)."""
    if value is None:
        return "NA"
    return f"{value:.{decimals}f}"


def write_scores(scores: Sequence[UnitScore], path: str | Path) -> None:
    """Export unit scores as CSV, rows sorted by unit_id, reals to 4 dp."""
    _write_text(path, _csv_text(_SCORES_HEADER, (
        [score.unit_id, score.n_total, score.n_mncs2, score.n_excluded_zero_e,
         *(format_value(getattr(score, name)) for name in INDICATOR_NAMES)]
        for score in sorted(scores, key=lambda s: s.unit_id))))


def _parse_value(text: str) -> float | None:
    """A real as :func:`format_value` writes it: NA is None, and nan or inf are malformed."""
    value = None if text == "NA" else _csv_real(text)
    if value is not None and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def read_scores(path: str | Path) -> list[UnitScore]:
    """Load a scores CSV written by :func:`write_scores`.

    A row :func:`write_scores` cannot write is an error naming it: an empty or
    repeated unit id, or counts outside 1 <= n_total, 0 <= n_mncs2 <= n_total and
    0 <= n_excluded_zero_e <= n_total.
    """
    scores: list[UnitScore] = []
    seen: set[str] = set()
    for row_no, row in _csv_rows(path, "scores", _SCORES_HEADER):
        if len(row) != len(_SCORES_HEADER):
            raise ValidationError(f"scores CSV row {row_no}: wrong column count")
        try:
            score = UnitScore(
                unit_id=row[0],
                n_total=_csv_int(row[1]),
                n_mncs2=_csv_int(row[2]),
                n_excluded_zero_e=_csv_int(row[3]),
                cpp_fcsm=_parse_value(row[4]),
                mncs1=_parse_value(row[5]),
                mncs2=_parse_value(row[6]),
            )
        except ValueError:
            raise ValidationError(f"scores CSV row {row_no}: malformed values") from None
        if not score.unit_id:
            raise ValidationError(f"scores CSV row {row_no}: empty unit id")
        if score.unit_id in seen:
            raise ValidationError(f"scores CSV row {row_no}: duplicate unit {score.unit_id}")
        seen.add(score.unit_id)
        if not (1 <= score.n_total and 0 <= score.n_mncs2 <= score.n_total
                and 0 <= score.n_excluded_zero_e <= score.n_total):
            raise ValidationError(f"scores CSV row {row_no}: invalid counts")
        scores.append(score)
    return scores
