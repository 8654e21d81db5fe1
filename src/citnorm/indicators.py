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

All summations run in ascending publication-id order so results are
bit-reproducible regardless of how work is partitioned.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .baseline import BaselineTable, expected_citations
from .corpus import Corpus, Publication
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

    @property
    def ratio(self) -> float | None:
        """Normalized citation score c/e, or None when e = 0."""
        if self.e == 0:
            return None
        return self.c / self.e


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


def cpp_fcsm(pubs: Sequence[ScoredPublication]) -> float | None:
    """Ratio of summed actual to summed expected citations.

    Every publication participates: there is no recency filter, and e = 0
    publications simply add nothing to the denominator. Returns None when the
    summed expected count is zero.
    """
    if not pubs:
        raise ValidationError("cpp_fcsm requires at least one publication")
    total_c = 0
    total_e = 0.0
    for pub in sorted(pubs, key=lambda p: p.id):
        total_c += pub.c
        total_e += pub.e
    if total_e == 0:
        return None
    return total_c / total_e


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
    total = 0.0
    n_used = 0
    n_zero_e = 0
    for pub in sorted(pubs, key=lambda p: p.id):
        if exclude_recent and pub.pub_year > census_year - 1:
            continue
        ratio = pub.ratio
        if ratio is None:
            n_zero_e += 1
            continue
        total += ratio
        n_used += 1
    value = total / n_used if n_used > 0 else None
    return MncsResult(value=value, n_used=n_used, n_excluded_zero_e=n_zero_e)


def score_unit(corpus: Corpus, table: BaselineTable, unit_id: str) -> UnitScore:
    """CPP/FCSm, MNCS1 and MNCS2 for one unit, with exclusion tallies."""
    return score_units(corpus, table, [unit_id])[0]


def score_units(
    corpus: Corpus, table: BaselineTable, unit_ids: Iterable[str] | None = None
) -> list[UnitScore]:
    """Score several units (all corpus units when ``unit_ids`` is None).

    One score per distinct requested unit, ascending by id. A single pass over
    the corpus in id order scores each publication of a requested unit once
    and credits it to every such unit it lists (a repeated unit counts once),
    so cost is corpus size plus unit memberships and per-unit sums keep id
    order. Other units' publications are never scored or looked up.
    """
    wanted = None if unit_ids is None else set(unit_ids)
    members: dict[str, list[ScoredPublication]] = {}
    for pub in corpus.publications:
        credited = set(pub.unit_ids) if wanted is None else wanted.intersection(pub.unit_ids)
        if not credited:
            continue
        scored = score_publication(pub, table)
        for uid in credited:
            members.setdefault(uid, []).append(scored)
    census_year = corpus.census_year
    scores = []
    for uid in sorted(members) if wanted is None else sorted(wanted):
        scored = members.get(uid)
        if scored is None:
            raise ValidationError(f"unit '{uid}' has no publications")
        m1 = mncs(scored, census_year, exclude_recent=False)
        m2 = mncs(scored, census_year, exclude_recent=True)
        scores.append(UnitScore(
            unit_id=uid,
            n_total=len(scored),
            n_mncs2=sum(1 for pub in scored if pub.pub_year <= census_year - 1),
            n_excluded_zero_e=m1.n_excluded_zero_e,
            cpp_fcsm=cpp_fcsm(scored),
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

    def key(score: UnitScore):
        value = getattr(score, by)
        if value is None:
            return (1, 0.0, score.unit_id)
        return (0, -value, score.unit_id)

    return sorted(scores, key=key)[: max(top, 0)]


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
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_SCORES_HEADER)
        for score in sorted(scores, key=lambda s: s.unit_id):
            writer.writerow([
                score.unit_id,
                score.n_total,
                score.n_mncs2,
                score.n_excluded_zero_e,
                format_value(score.cpp_fcsm),
                format_value(score.mncs1),
                format_value(score.mncs2),
            ])


def _parse_value(text: str) -> float | None:
    """A real as :func:`format_value` writes it: NA is None, and nan or inf are malformed."""
    value = None if text == "NA" else float(text)
    if value is not None and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def read_scores(path: str | Path) -> list[UnitScore]:
    """Load a scores CSV written by :func:`write_scores`."""
    scores: list[UnitScore] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _SCORES_HEADER:
            raise ValidationError(f"bad scores CSV header: {header}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_SCORES_HEADER):
                raise ValidationError(f"scores CSV row {row_no}: wrong column count")
            try:
                scores.append(UnitScore(
                    unit_id=row[0],
                    n_total=int(row[1]),
                    n_mncs2=int(row[2]),
                    n_excluded_zero_e=int(row[3]),
                    cpp_fcsm=_parse_value(row[4]),
                    mncs1=_parse_value(row[5]),
                    mncs2=_parse_value(row[6]),
                ))
            except ValueError:
                raise ValidationError(f"scores CSV row {row_no}: malformed values") from None
    return scores
