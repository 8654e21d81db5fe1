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

:func:`parse_corpus` reads a file as a stream and takes every record through one
ordered pass of checks, the first fault ending the read with its line number:
the line's UTF-8 and JSON; the raw record's shape (an object, unknown keys,
missing keys, array id lists, a string ``doc_type``, the by-year object and
its keys); the values, through the same two checks that :class:`Publication`
makes (:func:`_check_ids`, :func:`_check_counts`). Once all lines are read and
the census year is known (when not given, the largest year the records carry),
:func:`_checked_columns` checks them as for ``Corpus(publications)``, ids first.

A :class:`Corpus` holds one column per fact, in the order above, not one object per
record. :class:`Publication` objects are built from the columns only where a caller
asks for them, each ``citations_by_year`` a read-only :class:`CitationsByYear` over its row.
That build, :func:`parse_corpus` and the simulator run with the cyclic collector paused, and
leave their records in its oldest generation.

Every file citnorm writes goes through :func:`_write_text`, whole or not at all, as text
pieces: a corpus as pieces of ``_CHUNK_LINES`` lines, so no write holds its whole text. An id
holding a lone surrogate (a ``"\\ud800"`` escape) is an error only there, as UTF-8 cannot hold it.
"""
from __future__ import annotations

import gc
import json
import os
import stat
import sys
from collections import deque
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass
from functools import cache
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter, itemgetter, le, lt
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

# Largest integer a float64 holds exactly; indicator arithmetic converts counts to float.
_MAX_CITATIONS = 2 ** 53 - 1
_INT_ONLY = frozenset({int})


@contextmanager
def _gc_paused():
    """The cyclic collector off, then on again if it was: for builders of records with no cycles.
    With it on and none frozen, a build that returns leaves its records in the oldest generation."""
    enabled = gc.isenabled()
    promote = enabled and not gc.get_freeze_count()
    if promote:
        gc.collect(1)  # the caller's young objects, scanned as without the pause
    gc.disable()
    try:
        yield
        if promote and not gc.get_freeze_count():  # a freeze made meanwhile stands too
            gc.freeze()  # two list splices: every tracked object joins the oldest generation
            gc.unfreeze()
    finally:
        if enabled:
            gc.enable()


class CitationsByYear(Mapping):
    """A publication's cumulative citation counts by year, read-only: ``years`` ascending,
    ``counts`` in their order. Like a dict of those items it compares equal to any mapping
    holding them, prints as that dict, is unhashable and raises ``KeyError`` for a key it
    lacks; ``dict(view)`` gives the dict."""

    __slots__ = ("years", "counts")

    def __init__(self, years: Iterable[int], counts: Iterable[int]) -> None:
        object.__setattr__(self, "years", tuple(years))
        object.__setattr__(self, "counts", tuple(counts))

    def __getitem__(self, year) -> int:
        try:
            return self.counts[self.years.index(year)]
        except ValueError:  # no such year, an int or not
            raise KeyError(year) from None

    def __iter__(self) -> Iterator[int]:
        return iter(self.years)

    def __len__(self) -> int:
        return len(self.years)

    def __repr__(self) -> str:
        return repr(dict(zip(self.years, self.counts)))

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return CitationsByYear, (self.years, self.counts)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field '{name}'")


@dataclass(frozen=True, slots=True)
class Publication:
    """One scored document.

    ``citations_by_year``, when present, maps calendar year to the cumulative
    citation count by the end of that year. It must be non-decreasing; the
    corpus additionally checks that it covers every year from ``pub_year`` to
    the census year and ends at ``citations_total``. Any mapping is accepted; the
    publication keeps a read-only :class:`CitationsByYear` copy in ascending years,
    which a later change to the caller's mapping does not reach. Slotted: a
    publication carries no per-instance ``__dict__``.
    """

    id: str
    unit_ids: tuple[str, ...]
    field_ids: tuple[str, ...]
    pub_year: int
    doc_type: str
    citations_total: int
    citations_by_year: Mapping[int, int] | None = None

    def __post_init__(self) -> None:
        if isinstance(self.unit_ids, str) or isinstance(self.field_ids, str):
            raise ValidationError(f"publication {self.id}: unit_ids or field_ids is a string")
        if not isinstance(self.doc_type, str):
            raise ValidationError(f"publication {self.id}: doc_type must be a string")
        object.__setattr__(self, "unit_ids", tuple(self.unit_ids))
        object.__setattr__(self, "field_ids", tuple(self.field_ids))
        _check_ids(self.id, self.field_ids, self.unit_ids)
        counts = self.citations_by_year
        years = None
        if counts is not None:
            if not isinstance(counts, Mapping):
                raise ValidationError(f"publication {self.id}: citations_by_year must be a mapping")
            try:  # a set, as a mapping's keys are one, even where its iteration repeats a key
                years = sorted(set(counts))
            except TypeError:  # mixed key types; the check below names the first non-int
                years = list(counts)
            # a year that is no int gets the count None, which fails there and names the year
            counts = [counts[year] if type(year) is int else None for year in years]
        _check_counts(self.id, self.pub_year, self.citations_total, years, counts)
        if years is not None:
            object.__setattr__(self, "citations_by_year", CitationsByYear(years, counts))


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


def _row(counts: CitationsByYear | None, year: int) -> tuple | None:
    """The counts of ``counts`` if its years run from ``year`` with no gap, else the empty
    row, which covers no span. :class:`Publication` has checked and sorted the years."""
    if counts is None:
        return None
    years = counts.years  # distinct and ascending: a gapless run if its ends are len - 1 apart
    return counts.counts if years and years[0] == year == years[-1] - len(years) + 1 else ()


# A record's facts come in Publication's field order, the one order of the JSONL keys, the
# Corpus columns and the reader's record tuples; every key but citations_by_year is required.
_REQUIRED_KEYS = Publication.__slots__[:-1]
_ALL_KEYS = frozenset(Publication.__slots__)
_required_values = itemgetter(*_REQUIRED_KEYS)
_COLUMNS = ("ids", "units", "fields", "pub_years", "doc_types", "totals", "by_year")


def _checked_columns(columns: Sequence[tuple], census: int, first: int,
                     line_nos: Sequence[int] | None = None) -> Sequence[tuple]:
    """``columns`` (in ``_COLUMNS`` order) of checked records, in id order, after the
    corpus-level checks, the first fault ending them: ids unique; ``census`` and ``first``
    ints; each record's span in order (its year in [first, census], a by-year row to the
    census with no gaps that ends at its total); then ``first`` against ``census``. With
    ``line_nos``, a fault names its line."""
    def error(i: int, message: str) -> ValidationError:
        return ValidationError(message if line_nos is None else f"line {line_nos[i]}: {message}")

    ids = columns[0]
    ordered = all(map(lt, ids, ids[1:]))  # strictly increasing ids hold no duplicate
    if not ordered and len(set(ids)) < len(ids):
        index: dict[str, int] = {}  # the first record whose id an earlier one holds is named
        i = next(i for i, pid in enumerate(ids) if index.setdefault(pid, i) != i)
        raise error(i, f"duplicate id {ids[i]}")
    for name, year in (("census_year", census), ("first_year", first)):
        if type(year) is not int:  # type(): a bool is no year
            raise ValidationError(f"{name} {year!r} must be an integer")
    for i, (pid, year, total, row) in enumerate(zip(ids, columns[3], columns[5], columns[6])):
        if not first <= year <= census:
            fault = f"pub_year {year} outside [{first}, {census}]"
        elif row is not None and year + len(row) - 1 != census:
            fault = f"citations_by_year must cover every year from {year} to {census} with no gaps"
        elif row is not None and row[-1] != total:
            fault = f"citations_by_year at census year {census} does not equal citations_total"
        else:
            continue
        raise error(i, f"publication {pid}: {fault}")
    if first > census:
        raise ValidationError(f"first_year {first} is after census_year {census}")
    if not ordered:
        order = sorted(range(len(ids)), key=ids.__getitem__)
        columns = tuple(tuple(map(column.__getitem__, order)) for column in columns)
    return columns


class Corpus:
    """Validated, immutable set of publications in canonical (id) order.

    Citations are counted until the end of ``census_year``; every publication
    year must fall inside [first_year, census_year]. The corpus is stored as
    columns, in :class:`Publication`'s field order, tuples whose i-th entries describe
    the publication with the i-th smallest id:

        ids         the ids, strictly increasing
        units       ``unit_ids`` tuples, as listed (a repeated id is kept)
        fields      ``field_ids`` tuples, as listed
        pub_years   publication years
        doc_types   document type labels
        totals      ``citations_total`` values
        by_year     cumulative counts for each year from ``pub_year`` to
                    ``census_year``, or None when the record has none

    The columns are the only stored form: :func:`parse_corpus`, the simulator and
    the selections (:func:`select_unit`, :func:`select_cohort`) fill them, and this
    constructor derives them from the publications, which it does not keep, through
    the corpus-level check that :func:`parse_corpus` ends in. ``publications`` and
    iteration build the :class:`Publication` tuple from the columns on first use and
    cache it beside them; comparing, pickling and copying read only the columns.
    Safe for concurrent read access once constructed.
    """

    __slots__ = ("census_year", "first_year", *_COLUMNS, "_publications")

    def __init__(self, publications: Iterable[Publication], census_year: int,
                 first_year: int) -> None:
        pubs = tuple(publications)
        columns = [tuple(map(attrgetter(name), pubs)) for name in Publication.__slots__]
        columns[6] = tuple(map(_row, columns[6], columns[3]))
        _fill(self, census_year, first_year, *_checked_columns(columns, census_year, first_year))

    @classmethod
    def _from_columns(cls, census_year: int, first_year: int, *columns) -> Corpus:
        """A corpus over columns (in ``_COLUMNS`` order) that need no check: every
        record has passed the :class:`Publication` checks and the span checks, and
        the ids are strictly increasing. For :func:`parse_corpus`, the simulator and
        the selections."""
        corpus = object.__new__(cls)
        _fill(corpus, census_year, first_year, *map(tuple, columns))
        return corpus

    __setattr__ = CitationsByYear.__setattr__
    __delattr__ = CitationsByYear.__delattr__

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
            pubs = _materialize(self)
            object.__setattr__(self, "_publications", pubs)
        return pubs


# census year, first year and the columns: what a corpus holds besides its cache
_state = attrgetter(*Corpus.__slots__[:-1])


def _fill(corpus: Corpus, census_year: int, first_year: int, *columns: tuple) -> None:
    for name, value in zip(Corpus.__slots__, (census_year, first_year, *columns, None)):
        object.__setattr__(corpus, name, value)


@_gc_paused()
def _materialize(corpus: Corpus) -> tuple[Publication, ...]:
    """Every publication of ``corpus``, built column by column.

    The corpus's columns hold only checked values, so this is the one place that
    builds a :class:`Publication` and its :class:`CitationsByYear` without their
    checks. The publications share the columns' id strings, id tuples, numbers and
    by-year rows; the views of one publication year share one tuple of years.
    """
    columns = _state(corpus)[2:]
    years, rows = columns[3], columns[6]
    spans = {year: tuple(range(year, corpus.census_year + 1)) for year in set(years)}
    views = _built(CitationsByYear, len(rows), (map(spans.__getitem__, years), rows))
    if None in rows:  # a record without by-year counts has none
        views = tuple(view if row is not None else None for view, row in zip(views, rows))
    return _built(Publication, len(rows), (*columns[:6], views))


def _built(cls: type, n: int, columns: Iterable[Iterable]) -> tuple:
    """``n`` instances of the slotted ``cls``, its slots filled column by column through
    their descriptors: ``object.__setattr__`` per slot, minus the attribute lookup per call."""
    built = tuple(map(object.__new__, repeat(cls, n)))
    for name, column in zip(cls.__slots__, columns):
        deque(map(cls.__dict__[name].__set__, built, column), maxlen=0)
    return built


def _select(corpus: Corpus, indices: list[int]) -> Corpus:
    """The corpus of the records at ``indices``, ascending, with ``corpus``'s years."""
    return Corpus._from_columns(corpus.census_year, corpus.first_year, *(
        map(column.__getitem__, indices) for column in _state(corpus)[2:]))


def select_unit(corpus: Corpus, unit_id: str) -> Corpus:
    """The corpus of the publications credited to ``unit_id`` (possibly empty)."""
    return _select(corpus, [i for i, units in enumerate(corpus.units) if unit_id in units])


def select_cohort(corpus: Corpus, field_id: str, pub_year: int) -> Corpus:
    """The corpus of the publications of ``field_id`` published in ``pub_year``."""
    return _select(corpus, [
        i for i, (fields, year) in enumerate(zip(corpus.fields, corpus.pub_years))
        if year == pub_year and field_id in fields
    ])


class _RecordReader:
    """Column values of the records of one file, each checked once in the module's order.

    :meth:`read` raises a record's first fault. What repeats across records is
    done once per file: each distinct unit or field id list is checked once and
    kept as one tuple shared by every record that lists it, each distinct
    sequence of by-year keys is read once, and each ``doc_type`` string is kept once.
    """

    __slots__ = ("field_lists", "unit_lists", "key_years", "doc_types", "records")

    def __init__(self) -> None:
        self.field_lists: dict[tuple, tuple[str, ...]] = {}
        self.unit_lists: dict[tuple, tuple[str, ...]] = {}
        self.key_years: dict[tuple[str, ...], tuple] = {}
        self.doc_types: dict[str, str] = {}
        # (id, unit_ids, field_ids, pub_year, doc_type, citations_total, by-year row)
        self.records: list[tuple] = []

    def read(self, obj) -> None:
        """Check one decoded record and keep its column values, or raise its first fault."""
        if type(obj) is not dict:
            raise ValidationError("expected a JSON object")
        if not _ALL_KEYS.issuperset(obj):
            unknown = next(key for key in obj if key not in _ALL_KEYS)
            raise ValidationError(f"unknown key '{unknown}'")
        try:
            pid, units, fields, year, doc_type, total = _required_values(obj)
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
        if row is not None and start != year:
            row = ()  # the keys are no run of years from pub_year: the row covers no span
        self.records.append((pid, unit_ids, field_ids, year,
                             self.doc_types.setdefault(doc_type, doc_type), total, row))

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
    """``json.loads`` of one line, or of a batch of lines, its faults as :class:`ValidationError`.

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


# Non-blank lines per json.loads call: one call shares the key memo and the call overhead.
_BATCH_LINES = 32
# Lines per piece of a corpus's JSON Lines text: a write holds one piece, not the whole text.
_CHUNK_LINES = 1024


def _read_batch(reader: _RecordReader, lines: list[str], line_nos: list[int],
                decode: bool = True) -> None:
    """Read ``lines`` into ``reader``, decoded as one array if ``decode``, or else one
    ``json.loads`` per line, which raises the first fault with its line number.

    Lines L1..Ln, each keeping its newline, are decoded as one array ``[L1,...,Ln]``. The
    batch counts only if every line's first non-whitespace character is ``{`` (the caller
    passes ``decode`` false otherwise), the text passes the UTF-8 screen, it decodes, the
    array has n elements and :meth:`_RecordReader.read` takes every one. Then element i
    equals ``json.loads(Li)``:

    - no value runs across a line end inside a string: a raw newline in a string is a
      decode error;
    - a line end inside an object is followed by the joining ``,``, after which an object
      expects a key, and the next line starts with ``{``. So a merge across a line end can
      only put an object inside an array, and ``read`` rejects that in any record;
    - with no merge possible, each line starts at least one element, and n elements for n
      lines rule out two records on one line.

    Any other batch is undone and read again line by line. As lines that each read alone
    also count as a batch, that read always names a fault. The reader's memos are kept:
    they hold only values that passed their checks.
    """
    kept = len(reader.records)
    try:
        if decode:
            records = _json_line(f"[{','.join(lines)}]")
            if len(records) == len(lines):
                deque(map(reader.read, records), maxlen=0)
                return
    except ValidationError:
        del reader.records[kept:]
    for line_no, line in zip(line_nos, lines):
        try:
            reader.read(_json_line(line))
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None


@_gc_paused()
def parse_corpus(path: str | Path, census_year: int | None = None,
                 first_year: int | None = None) -> Corpus:
    """Parse a JSON Lines publication file into a validated :class:`Corpus`.

    The file is read once, as a stream, into columns; no :class:`Publication` is built.
    Each run of ``_BATCH_LINES`` non-blank lines goes to :func:`_read_batch`. A run ends
    early at a line whose first non-whitespace character is no ``{``, which no batch decodes.
    ``census_year`` defaults to the largest year the records carry, as
    ``pub_year`` or as a ``citations_by_year`` key; ``first_year`` defaults
    to the earliest ``pub_year``. A record's own faults are reported as its
    line is read, its span and by-year coverage after the read, once the
    census year is known. A record's fault names its line.
    """
    reader, line_nos, lines = _RecordReader(), [], []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            opens = line[0] == "{"
            if not opens:  # strip only a line that does not open its object at once
                text = line.lstrip()
                if not text:
                    continue
                opens = text[0] == "{"
            lines.append(line)
            line_nos.append(line_no)
            if len(lines) == _BATCH_LINES or not opens:
                _read_batch(reader, lines, line_nos[len(line_nos) - len(lines):], opens)
                lines = []
    _read_batch(reader, lines, line_nos[len(line_nos) - len(lines):])
    records = reader.records
    if census_year is None:
        if not records:
            raise ValidationError(f"cannot infer a census year from {path}")
        census_year = max(chain(map(itemgetter(3), records),
                                (keys[-1] for keys, _, _ in reader.key_years.values() if keys)))
    if first_year is None:
        first_year = min(map(itemgetter(3), records), default=census_year)
    return Corpus._from_columns(census_year, first_year,
                                *_checked_columns(tuple(zip(*records)) or ((),) * len(_COLUMNS),
                                                  census_year, first_year, line_nos))


def _jsonl_pieces(census_year: int, records: Iterable[tuple]) -> Iterator[str]:
    """The JSON Lines text of ``records`` (tuples in ``_COLUMNS`` order, of a corpus counted
    to ``census_year``), in their order, ``_CHUNK_LINES`` lines a piece.

    Each line is ``json.dumps(obj, separators=(",", ":"))`` of the record: keys in format
    order, ``citations_by_year`` in ascending years, strings through json's own ASCII escaper
    and every number a plain int. It fills the ``%`` template of its publication year, with
    or without by-year counts; each id list is written as JSON once."""
    array = cache(lambda ids: f"[{','.join(map(_json_str, ids))}]")

    @cache
    def template(year: int, by_year: bool) -> str:
        keys = ",".join(f'"{y}":%d' for y in range(year, census_year + 1))
        return ('{"id":%s,"unit_ids":%s,"field_ids":%s,'
                f'"pub_year":{year},"doc_type":%s,"citations_total":%d'
                + (f',"citations_by_year":{{{keys}}}' if by_year else "") + "}\n")

    records = iter(records)
    while piece := "".join([
            template(year, row is not None) % (_json_str(pid), array(units), array(fields),
                                               _json_str(doc_type), total, *(row or ()))
            for pid, units, fields, year, doc_type, total, row in islice(records, _CHUNK_LINES)]):
        yield piece


def corpus_to_jsonl(corpus: Corpus) -> str:
    """The JSON Lines text of a corpus, in canonical order: the pieces of :func:`_jsonl_pieces`."""
    return "".join(_jsonl_pieces(corpus.census_year, zip(*_state(corpus)[2:])))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    _write_text(path, _jsonl_pieces(corpus.census_year, zip(*_state(corpus)[2:])))


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"cannot write {exc.object[exc.start]!r} as UTF-8") from None


def _write_text(path: str | Path, pieces: Iterable[str]) -> None:
    """Write the text ``pieces`` to ``path`` as UTF-8, one by one, whole or not at all.

    A character UTF-8 cannot hold is a :class:`ValidationError`, in the first piece before
    any file is touched. A temporary file beside the target takes the pieces, then replaces
    it or is removed: a new file gets the mode ``open(path, "w")`` gives, an existing one
    keeps its mode and a symlink stays a link. A target that is no regular file, such as a
    FIFO or ``/dev/stdout``, is written in place."""
    encoded = map(_utf8, pieces)
    data = chain((next(encoded, b""),), encoded)  # the first piece before any file is touched
    mode = os.stat(path).st_mode if os.path.exists(path) else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as handle:
            deque(map(handle.write, data), maxlen=0)
        return
    target = os.path.realpath(path)
    temp = os.path.join(os.path.dirname(target), f".citnorm-{os.urandom(8).hex()}.tmp")
    try:  # a new file, 0o666 less the umask as for open(path, "w")
        handle = open(temp, "xb")
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with handle:
            if mode is not None:
                os.fchmod(handle.fileno(), stat.S_IMODE(mode))
            deque(map(handle.write, data), maxlen=0)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise
