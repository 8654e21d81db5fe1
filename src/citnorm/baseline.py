"""Expected-citation baselines per (field, publication year) cell.

The expected citation count of a publication is the average number of
citations of all publications published in the same field and the same year.
Baselines are computed over a reference corpus (normally the whole ingested
universe, of which scored units are subsets) or loaded from a CSV export so
that an externally maintained global table can be used instead.

Document type is deliberately not part of the cell key. Cells whose members
all have zero citations are retained with mean 0; the ratio-domain
consequences of e = 0 are handled by the indicator layer.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import _MAX_CITATIONS, Corpus, Publication, _write_text
from .errors import ValidationError

_CSV_HEADER = ["field_id", "pub_year", "mean_citations", "cell_size"]
# Nonzero cell means: one of whole counts is at least 1/cell_size, and within the range every
# ratio and sum the indicators take is finite (math.fsum raises OverflowError beyond it).
# The CSV admits only the means compute_baselines writes at 6 decimals.
_MIN_MEAN, _MIN_CSV_MEAN, _MAX_MEAN = 2.0 ** -53, 0.000001, float(_MAX_CITATIONS)


@dataclass(frozen=True)
class BaselineCell:
    """A cell's mean citation count, an int or float (no bool) that is 0 or in [2**-53, 2**53 - 1],
    and its number of publications, an integer of at least 1; any other cell is a
    :class:`ValidationError`."""

    mean_citations: float
    cell_size: int

    def __post_init__(self) -> None:
        mean, size = self.mean_citations, self.cell_size
        if (type(mean) is bool or not isinstance(mean, (int, float))
                or not (mean == 0 or _MIN_MEAN <= mean <= _MAX_MEAN)
                or type(size) is not int or size < 1):
            raise ValidationError(f"invalid baseline cell: mean {mean!r}, size {size!r}")


@dataclass(frozen=True)
class BaselineTable:
    """Map from (field_id, pub_year) to the cell mean and cell size."""

    cells: dict[tuple[str, int], BaselineCell]

    def __len__(self) -> int:
        return len(self.cells)


def compute_baselines(corpus: Corpus) -> BaselineTable:
    """Build the expected-citations table from a reference corpus.

    A multi-field publication contributes its full citation count to every one
    of its fields' cells (whole counting). Cell sums are exact integers,
    divided once, so a cell's mean depends only on its members. Reads the
    corpus's columns: no publication is built.
    """
    if len(corpus) == 0:
        raise ValidationError("cannot compute baselines over an empty corpus")
    sums: dict[tuple[str, int], int] = {}
    sizes: dict[tuple[str, int], int] = {}
    for field_ids, year, total in zip(corpus.fields, corpus.pub_years, corpus.totals):
        for fid in field_ids:
            key = (fid, year)
            sums[key] = sums.get(key, 0) + total
            sizes[key] = sizes.get(key, 0) + 1
    cells = {
        key: BaselineCell(mean_citations=sums[key] / sizes[key], cell_size=sizes[key])
        for key in sums
    }
    return BaselineTable(cells=cells)


def _expected(table: BaselineTable, field_ids: tuple[str, ...], pub_year: int) -> float:
    """:func:`expected_citations` of a publication with these fields and year."""
    means = []
    for fid in field_ids:
        cell = table.cells.get((fid, pub_year))
        if cell is None:
            raise ValidationError(
                f"no baseline cell for field '{fid}', year {pub_year}"
            )
        means.append(cell.mean_citations)
    return math.fsum(means) / len(field_ids)


def expected_citations(table: BaselineTable, pub: Publication) -> float:
    """Expected citation count for one publication.

    For a single-field publication this is exactly its cell mean; for a
    multi-field publication it is the arithmetic mean of the cell means over
    the publication's fields, whose listed order names the first missing cell
    but does not change the mean (the sum is :func:`math.fsum`).
    """
    return _expected(table, pub.field_ids, pub.pub_year)


def write_baselines(table: BaselineTable, path: str | Path) -> None:
    """Export the table as CSV, rows sorted by (field_id, pub_year)."""
    _write_text(path, _csv_text(_CSV_HEADER, (
        [fid, year, f"{cell.mean_citations:.6f}", cell.cell_size]
        for (fid, year), cell in sorted(table.cells.items()))))


def _csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The CSV text of a header and rows, each line ending in a bare newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _csv_int(text: str) -> int:
    """An integer CSV field, written as ``str(int)`` writes it: no sign, padding or '_'."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"non-canonical integer {text!r}")
    return value


def _csv_real(text: str) -> float:
    """A real CSV field: ASCII, with no '_' and no surrounding whitespace."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"malformed real {text!r}")
    return float(text)


def _csv_rows(path: str | Path, what: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows after the header of a UTF-8 CSV file, each with its row number.
    A header other than ``header``, or a row that the csv module or UTF-8 rejects, is a
    one-line error naming it. ``surrogateescape`` turns a byte that is not UTF-8 into a
    lone surrogate, which no valid row holds."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        rows = csv.reader(handle)
        for row_no in count(1):
            try:
                row = next(rows, None)
                ",".join(row or ()).encode("utf-8")
            except (csv.Error, UnicodeEncodeError) as exc:  # csv: e.g. an unclosed quote
                fault = "not valid UTF-8" if isinstance(exc, UnicodeError) else exc
                raise ValidationError(f"{what} CSV row {row_no}: {fault}") from None
            if row_no == 1 and row != header:
                raise ValidationError(f"bad {what} CSV header: {row}")
            if row is None:
                return
            if row and row_no > 1:
                yield row_no, row


def read_baselines(path: str | Path) -> BaselineTable:
    """Load a CSV baseline export (means carry 6 decimal places). A mean is 0 or lies
    in [0.000001, 2**53 - 1], as :func:`compute_baselines` writes it; any other mean
    is an invalid cell."""
    cells: dict[tuple[str, int], BaselineCell] = {}
    for row_no, row in _csv_rows(path, "baseline", _CSV_HEADER):
        if len(row) != 4:
            raise ValidationError(f"baseline CSV row {row_no}: expected 4 columns")
        fid, year_s, mean_s, size_s = row
        try:
            year = _csv_int(year_s)
            mean = _csv_real(mean_s)
            size = _csv_int(size_s)
        except ValueError:
            raise ValidationError(f"baseline CSV row {row_no}: malformed values") from None
        if not (mean == 0 or _MIN_CSV_MEAN <= mean <= _MAX_MEAN) or size < 1:
            raise ValidationError(f"baseline CSV row {row_no}: invalid cell")
        if (fid, year) in cells:
            raise ValidationError(f"baseline CSV row {row_no}: duplicate cell ({fid}, {year})")
        cells[(fid, year)] = BaselineCell(mean_citations=mean, cell_size=size)
    return BaselineTable(cells=cells)
