"""Immutable publication corpus plus JSON Lines ingestion and validation.

A corpus is the universe of scored documents. Each publication carries the
subject fields it belongs to, the units (research groups, institutions,
countries, journals) it is credited to, and cumulative citation counts at a
census date. Citation counts are taken as pre-cleaned input; no self-citation
filtering, deduplication, or document-type normalization happens here.

Multi-field and multi-unit membership is whole counting: a publication
contributes fully to every field and unit it lists.

Publication file format (JSON Lines, UTF-8, one object per line):

    id                 string, unique, non-empty
    unit_ids           array of strings, possibly empty
    field_ids          array of strings, non-empty
    pub_year           integer calendar year
    doc_type           string label, carried but never used for normalization
    citations_total    non-negative integer up to 2**53 - 1, cumulative at the census date
    citations_by_year  optional object mapping year-string -> cumulative count

Integers are JSON integers: true and false are rejected, never read as 1 and 0.
A ``citations_by_year`` key is a year as ``str(int(key))`` writes it: ``" 2008"``
or ``"02008"`` is rejected, not read as 2008. Unknown keys are rejected by name.
:func:`parse_corpus` reads a file once; the census year, when not given, is the
largest year the records carry. Publications are kept in ascending id order
everywhere, so downstream floating-point summations are bit-reproducible.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter, lt
from pathlib import Path
from typing import Callable, Iterator

from .errors import ValidationError

_REQUIRED_KEYS = ("id", "unit_ids", "field_ids", "pub_year", "doc_type", "citations_total")
_REQUIRED = frozenset(_REQUIRED_KEYS)
_ALL_KEYS = _REQUIRED | {"citations_by_year"}
# Largest integer a float64 holds exactly; indicator arithmetic converts counts to float.
_MAX_CITATIONS = 2 ** 53 - 1


@dataclass(frozen=True, slots=True)
class Publication:
    """One scored document.

    ``citations_by_year``, when present, maps calendar year to the cumulative
    citation count by the end of that year. It must be non-decreasing; the
    corpus additionally checks that it covers every year from ``pub_year`` to
    the census year and ends at ``citations_total``. Slotted: a publication
    carries no per-instance ``__dict__``.
    """

    id: str
    unit_ids: tuple[str, ...]
    field_ids: tuple[str, ...]
    pub_year: int
    doc_type: str
    citations_total: int
    citations_by_year: dict[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit_ids", tuple(self.unit_ids))
        object.__setattr__(self, "field_ids", tuple(self.field_ids))
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("publication id must be a non-empty string")
        if not self.field_ids:
            raise ValidationError(f"publication {self.id}: field_ids must be non-empty")
        for fid in self.field_ids:
            if not isinstance(fid, str) or not fid:
                raise ValidationError(f"publication {self.id}: empty field id")
        for uid in self.unit_ids:
            if not isinstance(uid, str) or not uid:
                raise ValidationError(f"publication {self.id}: empty unit id")
        # type(), not isinstance(): bool is an int subclass, and a JSON true is no count
        if type(self.pub_year) is not int:
            raise ValidationError(f"publication {self.id}: pub_year must be an integer")
        total = self.citations_total
        if type(total) is not int:
            raise ValidationError(f"publication {self.id}: citations_total must be an integer")
        if total < 0:
            raise ValidationError(f"publication {self.id}: negative citation count")
        if total > _MAX_CITATIONS:
            raise ValidationError(f"publication {self.id}: citations_total exceeds 2**53 - 1")
        counts = self.citations_by_year
        if counts is not None:
            try:
                years = sorted(counts)
            except TypeError:  # mixed key types; the loop below names the first non-int
                years = list(counts)
            previous = 0
            for year in years:
                count = counts[year]
                if type(year) is not int or type(count) is not int or count < previous:
                    raise ValidationError(f"publication {self.id}: {_count_fault(year, count)}")
                previous = count


# Publication's slot descriptors in field order; setting through them is what
# object.__setattr__ does for a slot, minus the attribute lookup per call.
(_set_id, _set_unit_ids, _set_field_ids, _set_pub_year, _set_doc_type, _set_citations_total,
 _set_citations_by_year) = (
    Publication.__dict__[name].__set__ for name in Publication.__slots__
)


def _prechecked_publication(id, unit_ids, field_ids, pub_year, doc_type, citations_total,
                            citations_by_year) -> Publication:
    """A :class:`Publication` filled slot by slot, without ``__post_init__``.

    Only for a caller that has itself established every fact ``__post_init__``
    checks, and hands over ``unit_ids`` and ``field_ids`` as tuples: the
    simulator, which checks its draws in bulk.
    """
    pub = object.__new__(Publication)
    _set_id(pub, id)
    _set_unit_ids(pub, unit_ids)
    _set_field_ids(pub, field_ids)
    _set_pub_year(pub, pub_year)
    _set_doc_type(pub, doc_type)
    _set_citations_total(pub, citations_total)
    _set_citations_by_year(pub, citations_by_year)
    return pub


def _count_fault(year, count) -> str:
    """What is wrong with a citations_by_year entry that failed the checks."""
    if type(year) is not int:
        return f"citations_by_year year {year!r} must be an integer"
    if type(count) is not int:
        return f"citations_by_year value for {year} must be an integer"
    return "negative citation count" if count < 0 else f"non-monotone citations_by_year at {year}"


@dataclass(frozen=True)
class Corpus:
    """Validated, immutable set of publications in canonical (id) order.

    Citations are counted until the end of ``census_year``; every publication
    year must fall inside [first_year, census_year]. Safe for concurrent
    read access once constructed.
    """

    publications: tuple[Publication, ...]
    census_year: int
    first_year: int

    def __post_init__(self) -> None:
        first, census = self.first_year, self.census_year
        if first > census:
            raise ValidationError(f"first_year {first} is after census_year {census}")
        publications = tuple(self.publications)
        ids = [pub.id for pub in publications]
        # strictly increasing ids are already in canonical order and hold no duplicate
        if not all(map(lt, ids, ids[1:])):
            publications = tuple(sorted(publications, key=attrgetter("id")))
            ids = [pub.id for pub in publications]
            for pid, next_id in zip(ids, ids[1:]):
                if pid == next_id:
                    raise ValidationError(f"duplicate id {pid}")
        object.__setattr__(self, "publications", publications)
        for pub in publications:
            fault = _span_fault(pub, first, census)
            if fault is not None:
                raise ValidationError(f"publication {pub.id}: {fault}")

    def __len__(self) -> int:
        return len(self.publications)

    def __iter__(self) -> Iterator[Publication]:
        return iter(self.publications)

    def unit_ids(self) -> list[str]:
        """All unit ids occurring in the corpus, ascending."""
        ids = {uid for pub in self.publications for uid in pub.unit_ids}
        return sorted(ids)


def _span_fault(pub: Publication, first: int, census: int) -> str | None:
    """What is wrong with ``pub``'s year or by-year counts for the span, if anything.

    Expects the integer years that :class:`Publication` has checked.
    """
    year = pub.pub_year
    if not first <= year <= census:
        return f"pub_year {year} outside [{first}, {census}]"
    counts = pub.citations_by_year
    if counts is None:
        return None
    # distinct integer years, as many as the span, with its two ends: no gap
    if len(counts) != census - year + 1 or min(counts) != year or max(counts) != census:
        return f"citations_by_year must cover every year from {year} to {census} with no gaps"
    if counts[census] != pub.citations_total:
        return f"citations_by_year at census year {census} does not equal citations_total"
    return None


def _prechecked_corpus(publications: tuple[Publication, ...], census_year: int,
                       first_year: int) -> Corpus:
    """A :class:`Corpus` built without ``__post_init__``'s pass over its publications.

    Only for a caller that has checked each publication against the span and
    hands them over in strictly increasing id order: the simulator and
    :func:`parse_corpus`.
    """
    if first_year > census_year:
        raise ValidationError(f"first_year {first_year} is after census_year {census_year}")
    corpus = object.__new__(Corpus)
    object.__setattr__(corpus, "publications", publications)
    object.__setattr__(corpus, "census_year", census_year)
    object.__setattr__(corpus, "first_year", first_year)
    return corpus


def select_unit(corpus: Corpus, unit_id: str) -> list[Publication]:
    """Publications credited to ``unit_id``, ascending by id (possibly empty)."""
    return [pub for pub in corpus.publications if unit_id in pub.unit_ids]


def _year(key: str) -> int | None:
    """The year ``key`` names if it is written as ``str(int(key))`` writes it, else None."""
    try:
        year = int(key)
    except ValueError:
        return None
    return year if str(year) == key else None


def _publication_from_obj(obj: dict, line_no: int,
                          year_of: Callable[[str], int | None]) -> Publication:
    """Checks that need the raw JSON object; :class:`Publication` checks the values."""
    if not isinstance(obj, dict):
        raise ValidationError(f"line {line_no}: expected a JSON object")
    if not _ALL_KEYS.issuperset(obj):
        unknown = next(key for key in obj if key not in _ALL_KEYS)
        raise ValidationError(f"line {line_no}: unknown key '{unknown}'")
    if not obj.keys() >= _REQUIRED:
        missing = next(key for key in _REQUIRED_KEYS if key not in obj)
        raise ValidationError(f"line {line_no}: missing key '{missing}'")
    if not isinstance(obj["unit_ids"], list) or not isinstance(obj["field_ids"], list):
        raise ValidationError(f"line {line_no}: unit_ids and field_ids must be arrays")
    if not isinstance(obj["doc_type"], str):
        raise ValidationError(f"line {line_no}: doc_type must be a string")

    counts = obj.get("citations_by_year")
    if counts is not None:
        if not isinstance(counts, dict):
            raise ValidationError(f"line {line_no}: citations_by_year must be an object")
        years = list(map(year_of, counts))
        if None in years:
            bad = next(key for key, year in zip(counts, years) if year is None)
            raise ValidationError(f"line {line_no}: citations_by_year key '{bad}' is not a year")
        # canonical keys are distinct years, so no two of them can collapse into one
        counts = dict(zip(years, counts.values()))

    try:
        return Publication(
            id=obj["id"],
            unit_ids=obj["unit_ids"],
            field_ids=obj["field_ids"],
            pub_year=obj["pub_year"],
            doc_type=obj["doc_type"],
            citations_total=obj["citations_total"],
            citations_by_year=counts,
        )
    except ValidationError as exc:
        raise ValidationError(f"line {line_no}: {exc}") from None


def _json_line(line: str, line_no: int):
    """``json.loads`` of one line, its faults as line-numbered :class:`ValidationError`."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"line {line_no}: malformed JSON: {exc.msg}") from None
    except ValueError:  # the only other fault: an integer literal beyond int's digit limit
        raise ValidationError(
            f"line {line_no}: integer literal longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def parse_corpus(path: str | Path, census_year: int | None = None,
                 first_year: int | None = None) -> Corpus:
    """Parse a JSON Lines publication file into a validated :class:`Corpus`.

    The file is read once. ``census_year`` defaults to the largest year the
    records carry, as ``pub_year`` or as a ``citations_by_year`` key;
    ``first_year`` defaults to the earliest ``pub_year``. A record's own faults
    are reported as its line is read, its span and by-year coverage after the
    read, once the census year is known. Every error names its line.
    """
    publications: list[Publication] = []
    line_nos: list[int] = []
    seen_ids: set[str] = set()
    year_of = lru_cache(maxsize=None)(_year)  # a file repeats a few dozen year keys
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            pub = _publication_from_obj(_json_line(line, line_no), line_no, year_of)
            if pub.id in seen_ids:
                raise ValidationError(f"line {line_no}: duplicate id {pub.id}")
            seen_ids.add(pub.id)
            publications.append(pub)
            line_nos.append(line_no)
    if census_year is None:
        if not publications:
            raise ValidationError(f"cannot infer a census year from {path}")
        census_year = max(max((pub.pub_year, *(pub.citations_by_year or ())))
                          for pub in publications)
    if first_year is None:
        first_year = min((pub.pub_year for pub in publications), default=census_year)
    for line_no, pub in zip(line_nos, publications):
        fault = _span_fault(pub, first_year, census_year)
        if fault is not None:
            raise ValidationError(f"line {line_no}: publication {pub.id}: {fault}")
    publications.sort(key=attrgetter("id"))  # linear on input already in id order
    return _prechecked_corpus(tuple(publications), census_year, first_year)


def _jsonl_line(pub: Publication) -> str:
    """``json.dumps(obj, separators=(",", ":"))`` of the record, built directly.

    Keys in format order and ``citations_by_year`` in ascending years; strings
    go through json's own ASCII escaper, and every number is a plain int.
    """
    units = ",".join(map(_json_str, pub.unit_ids))
    fields = ",".join(map(_json_str, pub.field_ids))
    line = (
        f'{{"id":{_json_str(pub.id)},"unit_ids":[{units}],"field_ids":[{fields}],'
        f'"pub_year":{pub.pub_year},"doc_type":{_json_str(pub.doc_type)},'
        f'"citations_total":{pub.citations_total}'
    )
    counts = pub.citations_by_year
    if counts is None:
        return line + "}\n"
    by_year = ",".join([f'"{year}":{counts[year]}' for year in sorted(counts)])
    return f'{line},"citations_by_year":{{{by_year}}}}}\n'


def corpus_to_jsonl(corpus: Corpus) -> str:
    """Serialize a corpus back to JSON Lines text, in canonical order."""
    return "".join(map(_jsonl_line, corpus.publications))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(corpus_to_jsonl(corpus))
