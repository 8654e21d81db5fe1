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
Publications are kept in ascending id order everywhere, so every listing of
them, written or returned, comes in one order.

:func:`parse_corpus` reads a file once and takes every record through one
ordered pass of checks, the first fault ending the read with its line number:
the line's UTF-8 and JSON; the raw record's shape (an object, unknown keys,
missing keys, array id lists, a string ``doc_type``, the by-year object and
its keys); the values, through the same two checks that :class:`Publication`
makes (:func:`_check_ids`, :func:`_check_counts`); the id's uniqueness. Once
all lines are read and the census year is known (when not given, the largest
year the records carry), each record's span and by-year coverage are checked.

A :class:`Corpus` stores one column per fact (ids, years, totals, document
types, unit and field id tuples, and one by-year row per publication), not
one object per record, and always holds them. :func:`parse_corpus` and the
simulator fill the columns directly; writing, baselines, scoring and the
selections below read them. :class:`Publication` objects are built from the
columns only where a caller asks for them: ``corpus.publications`` and
iteration build the whole tuple once, on first use, and cache it beside the
columns; :func:`select_unit` and :func:`select_cohort` build only the
publications they return.
"""
from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import add, attrgetter, le, lt
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

_REQUIRED_KEYS = ("id", "unit_ids", "field_ids", "pub_year", "doc_type", "citations_total")
_REQUIRED = frozenset(_REQUIRED_KEYS)
_ALL_KEYS = _REQUIRED | {"citations_by_year"}
# Largest integer a float64 holds exactly; indicator arithmetic converts counts to float.
_MAX_CITATIONS = 2 ** 53 - 1
_INT_ONLY = frozenset({int})


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
        _check_ids(self.id, self.field_ids, self.unit_ids)
        counts = self.citations_by_year
        years = None
        if counts is not None:
            try:
                years = sorted(counts)
            except TypeError:  # mixed key types; the check below names the first non-int
                years = list(counts)
            # a year that is no int gets the count None, which fails there and names the year
            counts = [counts[year] if type(year) is int else None for year in years]
        _check_counts(self.id, self.pub_year, self.citations_total, years, counts)


def _check_ids(pid, fields: Sequence, units: Sequence) -> None:
    """Raise the first fault of a publication id and its field and unit id lists."""
    if not isinstance(pid, str) or not pid:
        raise ValidationError("publication id must be a non-empty string")
    if not fields:
        raise ValidationError(f"publication {pid}: field_ids must be non-empty")
    for fid in fields:
        if not isinstance(fid, str) or not fid:
            raise ValidationError(f"publication {pid}: empty field id")
    # a repeated field would count the publication twice in its own cell
    if len(set(fields)) < len(fields):
        repeated = next(f for i, f in enumerate(fields) if f in fields[:i])
        raise ValidationError(f"publication {pid}: field_ids repeats '{repeated}'")
    for uid in units:
        if not isinstance(uid, str) or not uid:
            raise ValidationError(f"publication {pid}: empty unit id")


def _check_counts(pid: str, year, total, years: Sequence | None,
                  counts: Sequence | None) -> None:
    """Raise the first fault of a publication's year, citation total and by-year counts.

    ``counts`` are the ``citations_by_year`` values in the order of ``years``,
    ascending; both are None when the publication has no by-year counts.
    """
    # type(), not isinstance(): bool is an int subclass, and a JSON true is no count
    if type(year) is not int:
        raise ValidationError(f"publication {pid}: pub_year must be an integer")
    if type(total) is not int:
        raise ValidationError(f"publication {pid}: citations_total must be an integer")
    if total < 0:
        raise ValidationError(f"publication {pid}: negative citation count")
    if total > _MAX_CITATIONS:
        raise ValidationError(f"publication {pid}: citations_total exceeds 2**53 - 1")
    if counts and not (_INT_ONLY.issuperset(map(type, counts)) and counts[0] >= 0
                       and all(map(le, counts, counts[1:]))):
        previous = 0
        for year, count in zip(years, counts):  # find the first entry at fault
            if type(year) is not int:
                raise ValidationError(
                    f"publication {pid}: citations_by_year year {year!r} must be an integer")
            if type(count) is not int:
                raise ValidationError(
                    f"publication {pid}: citations_by_year value for {year} must be an integer")
            if count < 0:
                raise ValidationError(f"publication {pid}: negative citation count")
            if count < previous:
                raise ValidationError(
                    f"publication {pid}: non-monotone citations_by_year at {year}")
            previous = count


# Publication's slot descriptors in field order. The materializer fills one
# column at a time through them: what object.__setattr__ does for a slot,
# minus the attribute lookup per call.
_SLOT_SETTERS = tuple(Publication.__dict__[name].__set__ for name in Publication.__slots__)


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


# The Corpus columns, and the Publication attribute behind each, in column order
_COLUMNS = ("ids", "pub_years", "totals", "doc_types", "units", "fields", "by_year")
_COLUMN_ATTRS = ("id", "pub_year", "citations_total", "doc_type", "unit_ids", "field_ids",
                 "citations_by_year")


class Corpus:
    """Validated, immutable set of publications in canonical (id) order.

    Citations are counted until the end of ``census_year``; every publication
    year must fall inside [first_year, census_year]. The corpus is stored as
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

    The columns are the only stored form: :func:`parse_corpus` and the simulator
    fill them, and this constructor derives them from the publications it checks,
    which it does not keep. ``publications`` and iteration build the
    :class:`Publication` tuple from the columns on first use and cache it beside
    them; comparing, pickling and copying read only the columns. Safe for
    concurrent read access once constructed.
    """

    __slots__ = ("census_year", "first_year", *_COLUMNS, "_publications")

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
        rows = []
        for pub in pubs:
            row = _row(pub.citations_by_year, pub.pub_year)
            fault = _span_fault(pub.pub_year, pub.citations_total, row, first, census)
            if fault is not None:
                raise ValidationError(f"publication {pub.id}: {fault}")
            rows.append(row)
        _fill(self, census, first,
              *(tuple(map(attrgetter(attr), pubs)) for attr in _COLUMN_ATTRS[:6]), tuple(rows))

    @classmethod
    def _from_columns(cls, census_year: int, first_year: int, *columns) -> Corpus:
        """A corpus over columns (in ``_COLUMNS`` order) that need no check: every
        record has passed the :class:`Publication` checks and the span checks, and
        the ids are strictly increasing. For :func:`parse_corpus` and the simulator."""
        corpus = object.__new__(cls)
        _fill(corpus, census_year, first_year, *map(tuple, columns))
        return corpus

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field '{name}'")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _state(self) == _state(other)

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):  # copy and pickle rebuild through the columns, not __setattr__
        return Corpus._from_columns, _state(self)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Publication]:
        return iter(self.publications)

    @property
    def publications(self) -> tuple[Publication, ...]:
        """Every publication, ascending by id; built on first use, then kept."""
        pubs = self._publications
        if pubs is None:
            pubs = _materialize(self, None)
            object.__setattr__(self, "_publications", pubs)
        return pubs

    def unit_ids(self) -> list[str]:
        """All unit ids occurring in the corpus, ascending."""
        return sorted(set(chain.from_iterable(self.units)))


# census year, first year and the columns: what a corpus holds besides its cache
_state = attrgetter(*Corpus.__slots__[:-1])


def _fill(corpus: Corpus, census_year: int, first_year: int, *columns: tuple) -> None:
    for name, value in zip(Corpus.__slots__, (census_year, first_year, *columns, None)):
        object.__setattr__(corpus, name, value)


def _materialize(corpus: Corpus, indices: Sequence[int] | None) -> tuple[Publication, ...]:
    """Publications for the records at ``indices`` (all when None), built column by column.

    The corpus's columns hold only checked values, so this is the one place
    that builds a :class:`Publication` without ``__post_init__``. The
    publications share the columns' id strings, id tuples and numbers.
    """
    columns = _state(corpus)[2:]
    if indices is not None:
        columns = [list(map(column.__getitem__, indices)) for column in columns]
    years, rows = columns[1], columns[6]
    # a row spans its year to the census year, so no tail is longer than a row
    tails = {year: tuple(range(year, corpus.census_year + 1))
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
    return list(_materialize(
        corpus, [i for i, units in enumerate(corpus.units) if unit_id in units]))


def select_cohort(corpus: Corpus, field_id: str, pub_year: int) -> list[Publication]:
    """Publications of ``field_id`` published in ``pub_year``, ascending by id."""
    return list(_materialize(corpus, [
        i for i, (fields, year) in enumerate(zip(corpus.fields, corpus.pub_years))
        if year == pub_year and field_id in fields
    ]))


class _RecordReader:
    """Column values of the records of one file, each checked once in the module's order.

    :meth:`read` raises a record's first fault. What repeats across records is
    done once per file: each distinct unit or field id list is checked once and
    kept as one tuple shared by every record that lists it, each distinct
    sequence of by-year keys is read once, and each ``doc_type`` string is kept once.
    """

    __slots__ = ("field_lists", "unit_lists", "key_years", "doc_types", "ids", "records")

    def __init__(self) -> None:
        self.field_lists: dict[tuple, tuple[str, ...]] = {}
        self.unit_lists: dict[tuple, tuple[str, ...]] = {}
        self.key_years: dict[tuple[str, ...], tuple] = {}
        self.doc_types: dict[str, str] = {}
        self.ids: set[str] = set()
        # (id, pub_year, citations_total, doc_type, unit_ids, field_ids, by-year row)
        self.records: list[tuple] = []

    def read(self, obj) -> None:
        """Check one decoded record and keep its column values, or raise its first fault."""
        if type(obj) is not dict:
            raise ValidationError("expected a JSON object")
        if not _ALL_KEYS.issuperset(obj):
            unknown = next(key for key in obj if key not in _ALL_KEYS)
            raise ValidationError(f"unknown key '{unknown}'")
        try:
            pid, units, fields = obj["id"], obj["unit_ids"], obj["field_ids"]
            year, doc_type, total = obj["pub_year"], obj["doc_type"], obj["citations_total"]
        except KeyError:
            missing = next(key for key in _REQUIRED_KEYS if key not in obj)
            raise ValidationError(f"missing key '{missing}'") from None
        if type(units) is not list or type(fields) is not list:
            raise ValidationError("unit_ids and field_ids must be arrays")
        if type(doc_type) is not str:
            raise ValidationError("doc_type must be a string")
        years = row = start = None
        counts = obj.get("citations_by_year")
        if counts is not None:
            if type(counts) is not dict:
                raise ValidationError("citations_by_year must be an object")
            keys = tuple(counts)
            years, order, start = self.key_years.get(keys) or self._years(keys)
            row = tuple(counts.values())
            if order is not None:
                row = tuple(map(row.__getitem__, order))
        try:  # a list seen before was checked then
            field_ids, unit_ids = self.field_lists[tuple(fields)], self.unit_lists[tuple(units)]
        except (KeyError, TypeError):  # a new list, or one holding an unhashable value
            field_ids = None
        if field_ids is None or type(pid) is not str or not pid:
            _check_ids(pid, fields, units)
            field_ids = self.field_lists.setdefault(tuple(fields), tuple(fields))
            unit_ids = self.unit_lists.setdefault(tuple(units), tuple(units))
        _check_counts(pid, year, total, years, row)
        if pid in self.ids:
            raise ValidationError(f"duplicate id {pid}")
        self.ids.add(pid)
        if row is not None and start != year:
            row = ()  # the keys are no run of years from pub_year: the row covers no span
        self.records.append((pid, year, total, self.doc_types.setdefault(doc_type, doc_type),
                             unit_ids, field_ids, row))

    def _years(self, keys: tuple[str, ...]) -> tuple:
        """The years that by-year ``keys`` name, ascending; the order that sorts the values
        (None if sorted); and the first year if the years run without a gap, else None."""
        years = []
        for key in keys:
            try:
                year = int(key)
            except ValueError:
                year = None
            if year is None or str(year) != key:  # " 2008", "02008" and "2_008" are no years
                raise ValidationError(f"citations_by_year key '{key}' is not a year")
            years.append(year)
        order = sorted(range(len(years)), key=years.__getitem__)
        ascending = tuple(map(years.__getitem__, order))
        # canonical keys are distinct years, so a gapless run spans exactly len(keys) years
        start = ascending[0] if years and ascending[-1] - ascending[0] == len(years) - 1 else None
        found = self.key_years[keys] = (ascending, None if ascending == tuple(years) else order,
                                        start)
        return found


def _json_line(line: str):
    """``json.loads`` of one line, its faults as :class:`ValidationError`.

    The file is decoded with ``surrogateescape``, so a byte that is not UTF-8
    arrives here as a lone surrogate, which no valid line holds.
    """
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError("not valid UTF-8") from None
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc.msg}") from None
    except RecursionError:
        raise ValidationError("malformed JSON: nesting too deep") from None
    except ValueError:  # the only other fault: an integer literal beyond int's digit limit
        raise ValidationError(
            f"integer literal longer than {sys.get_int_max_str_digits()} digits") from None


def parse_corpus(path: str | Path, census_year: int | None = None,
                 first_year: int | None = None) -> Corpus:
    """Parse a JSON Lines publication file into a validated :class:`Corpus`.

    The file is read once, into columns; no :class:`Publication` is built.
    ``census_year`` defaults to the largest year the records carry, as
    ``pub_year`` or as a ``citations_by_year`` key; ``first_year`` defaults
    to the earliest ``pub_year``. A record's own faults are reported as its
    line is read, its span and by-year coverage after the read, once the
    census year is known. Every error names its line.
    """
    reader = _RecordReader()
    line_nos: list[int] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                reader.read(_json_line(line))
            except ValidationError as exc:
                raise ValidationError(f"line {line_no}: {exc}") from None
            line_nos.append(line_no)
    columns = tuple(zip(*reader.records)) or ((),) * 7
    del reader.records
    ids, years, totals, _, _, _, rows = columns
    if census_year is None:
        if not ids:
            raise ValidationError(f"cannot infer a census year from {path}")
        census_year = max(chain(years, (keys[-1] for keys, _, _ in reader.key_years.values()
                                        if keys)))
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
