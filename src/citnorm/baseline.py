"""Expected-citation baselines per (field, publication year) cell.

The expected citation count of a publication is the average number of
citations of all publications published in the same field and the same year.
Baselines are computed over a reference corpus (normally the whole ingested
universe, of which scored units are subsets) or loaded from a CSV export so
that an externally maintained global table can be used instead. A table read
back from its export equals the table written, so it scores the same.

Document type is deliberately not part of the cell key. Cells whose members
all have zero citations are retained with mean 0; the ratio-domain
consequences of e = 0 are handled by the indicator layer.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ._files import _MAX_CITATIONS, _csv_int, _csv_real, _csv_rows, _csv_text, _write_text
from .errors import ValidationError

if TYPE_CHECKING:
    from .corpus import Corpus, Publication

_CSV_HEADER = ["field_id", "pub_year", "mean_citations", "cell_size"]
# Nonzero cell means: one of whole counts is at least 1/cell_size, and within the range every
# ratio and sum the indicators take is finite (math.fsum raises OverflowError beyond it).
_MIN_MEAN, _MAX_MEAN = 2.0 ** -53, float(_MAX_CITATIONS)


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
    corpus's columns: no publication is built. Citations are summed once per
    (field list, year), and each of those sums and counts is then spread to its
    fields' cells, which come in the order the publications first reach them.
    """
    if len(corpus) == 0:
        raise ValidationError("cannot compute baselines over an empty corpus")
    counts = Counter(zip(corpus.fields, corpus.pub_years))
    key_sums = dict.fromkeys(counts, 0)
    for key, total in zip(zip(corpus.fields, corpus.pub_years), corpus.totals):
        key_sums[key] += total
    sums: dict[tuple[str, int], int] = {}
    sizes: dict[tuple[str, int], int] = {}
    for (field_ids, year), count, total in zip(counts, counts.values(), key_sums.values()):
        for fid in field_ids:
            key = (fid, year)
            sums[key] = sums.get(key, 0) + total
            sizes[key] = sizes.get(key, 0) + count
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
    """Export the table as CSV, rows sorted by (field_id, pub_year), each mean as its
    ``repr``: the shortest text that reads back as the same double."""
    _write_text(path, [_csv_text(_CSV_HEADER, (
        [fid, year, repr(float(cell.mean_citations)), cell.cell_size]
        for (fid, year), cell in sorted(table.cells.items())))])


def read_baselines(path: str | Path) -> BaselineTable:
    """Load a CSV baseline export. Each row must be a :class:`BaselineCell`, so a mean is 0
    or lies in [2**-53, 2**53 - 1]; :func:`write_baselines` writes each mean exactly, and
    a file written with 6 decimals still reads."""
    cells: dict[tuple[str, int], BaselineCell] = {}
    for row_no, (fid, year_s, mean_s, size_s) in _csv_rows(path, "baseline", _CSV_HEADER):
        try:
            year = _csv_int(year_s)
            cell = BaselineCell(mean_citations=_csv_real(mean_s), cell_size=_csv_int(size_s))
        except ValidationError:
            raise ValidationError(f"baseline CSV row {row_no}: invalid cell") from None
        except ValueError:
            raise ValidationError(f"baseline CSV row {row_no}: malformed values") from None
        if (fid, year) in cells:
            raise ValidationError(f"baseline CSV row {row_no}: duplicate cell ({fid}, {year})")
        cells[(fid, year)] = cell
    return BaselineTable(cells=cells)
