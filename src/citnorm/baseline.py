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
import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, Publication
from .errors import ValidationError

_CSV_HEADER = ["field_id", "pub_year", "mean_citations", "cell_size"]


@dataclass(frozen=True)
class BaselineCell:
    mean_citations: float
    cell_size: int


@dataclass(frozen=True)
class BaselineTable:
    """Map from (field_id, pub_year) to the cell mean and cell size."""

    cells: dict[tuple[str, int], BaselineCell]

    def __len__(self) -> int:
        return len(self.cells)


def compute_baselines(corpus: Corpus) -> BaselineTable:
    """Build the expected-citations table from a reference corpus.

    A multi-field publication contributes its full citation count to every one
    of its fields' cells (whole counting). Cell sums are accumulated as exact
    integers in canonical id order and divided once, so partitioned/merged
    construction yields bit-identical means.
    """
    if len(corpus) == 0:
        raise ValidationError("cannot compute baselines over an empty corpus")
    sums: dict[tuple[str, int], int] = {}
    sizes: dict[tuple[str, int], int] = {}
    for pub in corpus:
        for fid in pub.field_ids:
            key = (fid, pub.pub_year)
            sums[key] = sums.get(key, 0) + pub.citations_total
            sizes[key] = sizes.get(key, 0) + 1
    cells = {
        key: BaselineCell(mean_citations=sums[key] / sizes[key], cell_size=sizes[key])
        for key in sums
    }
    return BaselineTable(cells=cells)


def expected_citations(table: BaselineTable, pub: Publication) -> float:
    """Expected citation count for one publication.

    For a single-field publication this is exactly its cell mean; for a
    multi-field publication it is the arithmetic mean of the cell means over
    the publication's fields, taken in their listed order.
    """
    total = 0.0
    for fid in pub.field_ids:
        cell = table.cells.get((fid, pub.pub_year))
        if cell is None:
            raise ValidationError(
                f"no baseline cell for field '{fid}', year {pub.pub_year}"
            )
        total += cell.mean_citations
    return total / len(pub.field_ids)


def write_baselines(table: BaselineTable, path: str | Path) -> None:
    """Export the table as CSV, rows sorted by (field_id, pub_year)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for (fid, year) in sorted(table.cells):
            cell = table.cells[(fid, year)]
            writer.writerow([fid, year, f"{cell.mean_citations:.6f}", cell.cell_size])


def read_baselines(path: str | Path) -> BaselineTable:
    """Load a CSV baseline export (means carry 6 decimal places)."""
    cells: dict[tuple[str, int], BaselineCell] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValidationError(f"bad baseline CSV header: {header}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValidationError(f"baseline CSV row {row_no}: expected 4 columns")
            fid, year_s, mean_s, size_s = row
            try:
                year = int(year_s)
                mean = float(mean_s)
                size = int(size_s)
            except ValueError:
                raise ValidationError(f"baseline CSV row {row_no}: malformed values") from None
            if not (math.isfinite(mean) and mean >= 0) or size < 1:
                raise ValidationError(f"baseline CSV row {row_no}: invalid cell")
            if (fid, year) in cells:
                raise ValidationError(f"baseline CSV row {row_no}: duplicate cell ({fid}, {year})")
            cells[(fid, year)] = BaselineCell(mean_citations=mean, cell_size=size)
    return BaselineTable(cells=cells)
