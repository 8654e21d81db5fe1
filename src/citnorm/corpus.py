"""Immutable publication corpus, held as columns, plus JSON Lines ingestion and validation.

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

A :class:`Corpus` stores one column per fact (ids, years, totals, document
types, unit and field id tuples, and one by-year row per publication), not
one object per record. :func:`parse_corpus` and the simulator fill the
columns directly; writing, baselines, scoring and the selections below read
them. :class:`Publication` objects are built only where a caller asks for
them: ``corpus.publications`` and iteration build the whole tuple once, on
first use, and :func:`select_unit` and :func:`select_cohort` build only the
publications they return.
"""
from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import add, attrgetter, le, lt
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
        # a repeated field would count the publication twice in its own cell
        if len(self.field_ids) > 1 and len(set(self.field_ids)) < len(self.field_ids):
            repeated = next(f for i, f in enumerate(self.field_ids) if f in self.field_ids[:i])
            raise ValidationError(f"publication {self.id}: field_ids repeats '{repeated}'")
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


# Publication's slot descriptors in field order. The materializer fills one
# column at a time through them: what object.__setattr__ does for a slot,
# minus the attribute lookup per call.
_SLOT_SETTERS = tuple(Publication.__dict__[name].__set__ for name in Publication.__slots__)


def _count_fault(year, count) -> str:
    """What is wrong with a citations_by_year entry that failed the checks."""
    if type(year) is not int:
        return f"citations_by_year year {year!r} must be an integer"
    if type(count) is not int:
        return f"citations_by_year value for {year} must be an integer"
    return "negative citation count" if count < 0 else f"non-monotone citations_by_year at {year}"


def _row(counts: dict[int, int] | None, year: int) -> tuple[int, ...] | None:
    """``counts`` as values for ``year``, ``year + 1``, ...

    Expects the distinct integer keys that :class:`Publication` has checked.
    Keys that are not such a run give the empty row, which covers no span.
    """
    if counts is None:
        return None
    n = len(counts)
    if n and min(counts) == year and max(counts) == year + n - 1:  # distinct ints: a run
        return tuple(map(counts.__getitem__, range(year, year + n)))
    return ()


def _span_fault(year: int, total: int, row: tuple[int, ...] | None, first: int,
                census: int) -> str | None:
    """What is wrong with a publication's year or by-year row for the span, if anything."""
    if not first <= year <= census:
        return f"pub_year {year} outside [{first}, {census}]"
    if row is None:
        return None
    if year + len(row) - 1 != census:
        return f"citations_by_year must cover every year from {year} to {census} with no gaps"
    if row[-1] != total:
        return f"citations_by_year at census year {census} does not equal citations_total"
    return None


# The Publication attribute behind each Corpus column, in column order
_COLUMN_ATTRS = ("id", "pub_year", "citations_total", "doc_type", "unit_ids", "field_ids",
                 "citations_by_year")


def _column(index: int) -> property:
    return property(lambda corpus: corpus._column_tuples()[index])


class Corpus:
    """Validated, immutable set of publications in canonical (id) order.

    Citations are counted until the end of ``census_year``; every publication
    year must fall inside [first_year, census_year]. The corpus reads as
    columns, tuples whose i-th entries describe the publication with the i-th
    smallest id:

        ids         the ids, strictly increasing
        pub_years   publication years
        totals      ``citations_total`` values
        doc_types   document type labels
        units       ``unit_ids`` tuples, as listed (a repeated id is kept)
        fields      ``field_ids`` tuples, as listed
        by_year     cumulative counts for each year from ``pub_year`` to
                    ``census_year``, or None when the record has none

    A corpus starts from its columns (:func:`parse_corpus`, the simulator) or
    from its publications (this constructor) and builds the other on first
    use. Building the :class:`Publication` tuple (``publications``, iteration)
    releases the columns, so a corpus read as publications does not hold every
    fact twice; columns asked for afterwards are rebuilt from the publications.
    Safe for concurrent read access once constructed.
    """

    __slots__ = ("census_year", "first_year", "_columns", "_publications")

    ids, pub_years, totals, doc_types, units, fields, by_year = map(_column, range(7))

    def __init__(self, publications: Iterable[Publication], census_year: int,
                 first_year: int) -> None:
        first, census = first_year, census_year
        if first > census:
            raise ValidationError(f"first_year {first} is after census_year {census}")
        pubs = tuple(publications)
        ids = [pub.id for pub in pubs]
        # strictly increasing ids are already in canonical order and hold no duplicate
        if not all(map(lt, ids, ids[1:])):
            pubs = tuple(sorted(pubs, key=attrgetter("id")))
            ids = [pub.id for pub in pubs]
            for pid, next_id in zip(ids, ids[1:]):
                if pid == next_id:
                    raise ValidationError(f"duplicate id {pid}")
        for pub in pubs:
            row = _row(pub.citations_by_year, pub.pub_year)
            fault = _span_fault(pub.pub_year, pub.citations_total, row, first, census)
            if fault is not None:
                raise ValidationError(f"publication {pub.id}: {fault}")
        _fill(self, census, first, None, pubs)

    @classmethod
    def _from_columns(cls, census_year: int, first_year: int, *columns) -> Corpus:
        """A corpus over columns (in ``_COLUMN_ATTRS`` order) that need no check: every
        record has passed the :class:`Publication` checks and the span checks, and
        the ids are strictly increasing. For :func:`parse_corpus` and the simulator."""
        corpus = object.__new__(cls)
        _fill(corpus, census_year, first_year, tuple(map(tuple, columns)), None)
        return corpus

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field '{name}'")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.census_year, self.first_year, self._column_tuples())
                == (other.census_year, other.first_year, other._column_tuples()))

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):  # copy and pickle rebuild through the columns, not __setattr__
        return Corpus._from_columns, (self.census_year, self.first_year, *self._column_tuples())

    def __len__(self) -> int:
        pubs = self._publications
        return len(self._column_tuples()[0] if pubs is None else pubs)

    def __iter__(self) -> Iterator[Publication]:
        return iter(self.publications)

    @property
    def publications(self) -> tuple[Publication, ...]:
        """Every publication, ascending by id; built on first use, then kept."""
        pubs = self._publications
        if pubs is None:
            pubs = _materialize(self, None)
            object.__setattr__(self, "_publications", pubs)
            object.__setattr__(self, "_columns", None)  # the publications hold every fact
        return pubs

    def _column_tuples(self) -> tuple[tuple, ...]:
        columns = self._columns
        if columns is None:
            pubs = self._publications
            columns = tuple(tuple(map(attrgetter(attr), pubs)) for attr in _COLUMN_ATTRS[:6])
            columns += (tuple(_row(pub.citations_by_year, pub.pub_year) for pub in pubs),)
            object.__setattr__(self, "_columns", columns)
        return columns

    def _publications_at(self, indices: Sequence[int]) -> list[Publication]:
        """The publications at ``indices``, without building the others."""
        pubs = self._publications
        if pubs is not None:
            return list(map(pubs.__getitem__, indices))
        return list(_materialize(self, indices))

    def unit_ids(self) -> list[str]:
        """All unit ids occurring in the corpus, ascending."""
        return sorted(set(chain.from_iterable(self.units)))


def _fill(corpus: Corpus, census_year: int, first_year: int, columns, publications) -> None:
    for name, value in zip(Corpus.__slots__, (census_year, first_year, columns, publications)):
        object.__setattr__(corpus, name, value)


def _materialize(corpus: Corpus, indices: Sequence[int] | None) -> tuple[Publication, ...]:
    """Publications for the records at ``indices`` (all when None), built column by column.

    The corpus's columns hold only checked values, so this is the one place
    that builds a :class:`Publication` without ``__post_init__``. The
    publications share the columns' id strings, id tuples and numbers.
    """
    columns = corpus._column_tuples()
    if indices is not None:
        columns = [list(map(column.__getitem__, indices)) for column in columns]
    years, rows = columns[1], columns[6]
    census = corpus.census_year
    # a row spans its year to the census year, so no tail is longer than a row
    tails = {year: tuple(range(year, census + 1))
             for year in {year for year, row in zip(years, rows) if row is not None}}
    counts = (None if row is None else dict(zip(tails[year], row))
              for year, row in zip(years, rows))
    pubs = tuple(map(object.__new__, repeat(Publication, len(years))))
    by_attr = dict(zip(_COLUMN_ATTRS, (*columns[:6], counts)))
    for attr, set_slot in zip(Publication.__slots__, _SLOT_SETTERS):
        deque(map(set_slot, pubs, by_attr[attr]), maxlen=0)
    return pubs


def select_unit(corpus: Corpus, unit_id: str) -> list[Publication]:
    """Publications credited to ``unit_id``, ascending by id (possibly empty)."""
    return corpus._publications_at(
        [i for i, units in enumerate(corpus.units) if unit_id in units]
    )


def select_cohort(corpus: Corpus, field_id: str, pub_year: int) -> list[Publication]:
    """Publications of ``field_id`` published in ``pub_year``, ascending by id."""
    return corpus._publications_at([
        i for i, (fields, year) in enumerate(zip(corpus.fields, corpus.pub_years))
        if year == pub_year and field_id in fields
    ])


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


class _RecordReader:
    """Column values of the JSON records of one file, each record checked once.

    The common record is read without building a :class:`Publication`: its
    keys are known, its values have the documented JSON types, its unit and
    field id lists have been seen and checked before (each distinct list is
    kept as one tuple, shared by every record that lists it), and its by-year
    keys are canonical consecutive years from its publication year on, in
    ascending order. Any other record goes through
    :func:`_publication_from_obj`, which reports the first fault in the
    documented order or returns the record if it has none.
    """

    _INT_ONLY = frozenset({int})

    def __init__(self) -> None:
        self.year_of = lru_cache(maxsize=None)(_year)  # a file repeats a few dozen year keys
        self.unit_tuples: dict[tuple, tuple[str, ...]] = {}
        self.field_tuples: dict[tuple, tuple[str, ...]] = {}
        self.doc_types: dict[str, str] = {}
        self.run_starts: dict[tuple[str, ...], int | None] = {}
        self.latest_key: int | None = None  # largest by-year key of a record read here

    def record(self, obj, line_no: int) -> tuple:
        """(id, pub_year, citations_total, doc_type, unit_ids, field_ids, by-year row)."""
        values = self._regular(obj)
        if values is not None:
            return values
        pub = _publication_from_obj(obj, line_no, self.year_of)
        row = _row(pub.citations_by_year, pub.pub_year)
        if pub.citations_by_year:
            latest = max(pub.citations_by_year)
            if self.latest_key is None or latest > self.latest_key:
                self.latest_key = latest
        return (pub.id, pub.pub_year, pub.citations_total, pub.doc_type, pub.unit_ids,
                pub.field_ids, row)

    def _regular(self, obj) -> tuple | None:
        """The record's column values if it is a common one (see the class), else None."""
        if type(obj) is not dict or not _ALL_KEYS.issuperset(obj):
            return None
        try:
            pid, units, fields = obj["id"], obj["unit_ids"], obj["field_ids"]
            year, doc_type, total = obj["pub_year"], obj["doc_type"], obj["citations_total"]
        except KeyError:
            return None
        if not (type(pid) is str and pid and type(units) is list and type(fields) is list
                and type(year) is int and type(doc_type) is str and type(total) is int
                and 0 <= total <= _MAX_CITATIONS):
            return None
        try:
            unit_ids = self.unit_tuples.get(tuple(units)) or self._new_ids(units, self.unit_tuples)
            field_ids = (self.field_tuples.get(tuple(fields))
                         or self._new_ids(fields, self.field_tuples))
        except TypeError:  # an unhashable element, which is no id
            return None
        if unit_ids is None or field_ids is None:
            return None
        counts = obj.get("citations_by_year")
        if counts is None:
            row = None
        elif type(counts) is dict and self._run_start(tuple(counts)) == year:
            row = tuple(counts.values())
            if not ({*map(type, row)} == self._INT_ONLY and row[0] >= 0
                    and all(map(le, row, row[1:]))):
                return None
        else:
            return None
        doc_type = self.doc_types.setdefault(doc_type, doc_type)
        return pid, year, total, doc_type, unit_ids, field_ids, row

    def _new_ids(self, values: list, known: dict) -> tuple[str, ...] | None:
        """``values`` as a tuple kept in ``known``, if they are valid unit or field ids."""
        ids = tuple(values)
        if not all(type(i) is str and i for i in ids) or (
                known is self.field_tuples and not (ids and len(set(ids)) == len(ids))):
            return None
        known[ids] = ids
        return ids

    def _run_start(self, keys: tuple[str, ...]) -> int | None:
        """The first year of ``keys`` if they are canonical consecutive ascending years."""
        if keys not in self.run_starts:
            years = list(map(self.year_of, keys))
            self.run_starts[keys] = years[0] if years and None not in years and years == list(
                range(years[0], years[0] + len(years))) else None
        return self.run_starts[keys]


def _json_line(line: str, line_no: int):
    """``json.loads`` of one line, its faults as line-numbered :class:`ValidationError`.

    The file is decoded with ``surrogateescape``, so a byte that is not UTF-8
    arrives here as a lone surrogate, which no valid line holds.
    """
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"line {line_no}: not valid UTF-8") from None
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"line {line_no}: malformed JSON: {exc.msg}") from None
    except RecursionError:
        raise ValidationError(f"line {line_no}: malformed JSON: nesting too deep") from None
    except ValueError:  # the only other fault: an integer literal beyond int's digit limit
        raise ValidationError(
            f"line {line_no}: integer literal longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def parse_corpus(path: str | Path, census_year: int | None = None,
                 first_year: int | None = None) -> Corpus:
    """Parse a JSON Lines publication file into a validated :class:`Corpus`.

    The file is read once, into columns; no :class:`Publication` is built for
    a well-formed record. ``census_year`` defaults to the largest year the
    records carry, as ``pub_year`` or as a ``citations_by_year`` key;
    ``first_year`` defaults to the earliest ``pub_year``. A record's own faults
    are reported as its line is read, its span and by-year coverage after the
    read, once the census year is known. Every error names its line.
    """
    reader = _RecordReader()
    records: list[tuple] = []
    line_nos: list[int] = []
    seen_ids: set[str] = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            record = reader.record(_json_line(line, line_no), line_no)
            pid = record[0]
            if pid in seen_ids:
                raise ValidationError(f"line {line_no}: duplicate id {pid}")
            seen_ids.add(pid)
            records.append(record)
            line_nos.append(line_no)
    columns = tuple(zip(*records)) or ((),) * 7
    del records
    ids, years, totals, _, _, _, rows = columns
    if census_year is None:
        if not ids:
            raise ValidationError(f"cannot infer a census year from {path}")
        census_year = max(year + len(row) - 1 if row else year for year, row in zip(years, rows))
        if reader.latest_key is not None:  # a misaligned row's keys may run past its end
            census_year = max(census_year, reader.latest_key)
    if first_year is None:
        first_year = min(years, default=census_year)
    for line_no, pid, year, total, row in zip(line_nos, ids, years, totals, rows):
        fault = _span_fault(year, total, row, first_year, census_year)
        if fault is not None:
            raise ValidationError(f"line {line_no}: publication {pid}: {fault}")
    if first_year > census_year:
        raise ValidationError(f"first_year {first_year} is after census_year {census_year}")
    if not all(map(lt, ids, ids[1:])):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        columns = tuple(tuple(map(column.__getitem__, order)) for column in columns)
    return Corpus._from_columns(census_year, first_year, *columns)


def corpus_to_jsonl(corpus: Corpus) -> str:
    """Serialize a corpus back to JSON Lines text, in canonical order.

    Each line is ``json.dumps(obj, separators=(",", ":"))`` of the record,
    built directly: keys in format order and ``citations_by_year`` in
    ascending years; strings go through json's own ASCII escaper, and every
    number is a plain int.
    """
    census = corpus.census_year
    year_keys: dict[int, list[str]] = {}  # '"year":' from a publication year to the census
    lines = []
    for pid, units, fields, year, doc_type, total, row in zip(
            corpus.ids, corpus.units, corpus.fields, corpus.pub_years, corpus.doc_types,
            corpus.totals, corpus.by_year):
        line = (
            f'{{"id":{_json_str(pid)},"unit_ids":[{",".join(map(_json_str, units))}],'
            f'"field_ids":[{",".join(map(_json_str, fields))}],"pub_year":{year},'
            f'"doc_type":{_json_str(doc_type)},"citations_total":{total}'
        )
        if row is None:
            lines.append(line + "}\n")
            continue
        keys = year_keys.get(year)
        if keys is None:
            keys = year_keys[year] = [f'"{y}":' for y in range(year, census + 1)]
        by_year = ",".join(map(add, keys, map(str, row)))
        lines.append(f'{line},"citations_by_year":{{{by_year}}}}}\n')
    return "".join(lines)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(corpus_to_jsonl(corpus))
