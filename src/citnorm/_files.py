"""The file helpers and names that the library's readers and writers share.

A leaf: it imports no citnorm module but :mod:`errors`, so ``citnorm --help`` loads only this,
for its indicator choices, and a command that reads a scores CSV need not load the corpus reader.
"""
from __future__ import annotations

import csv
import io
import os
import stat
from collections import deque
from itertools import chain, count
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

# Largest integer a float64 holds exactly; indicator arithmetic converts counts to float.
_MAX_CITATIONS = 2 ** 53 - 1
# The indicators a unit is scored by, in the order of the scores CSV's columns
INDICATOR_NAMES = ("cpp_fcsm", "mncs1", "mncs2")


def format_value(value: float | None, decimals: int = 4) -> str:
    """Render an indicator value for CSV output (None prints as NA)."""
    if value is None:
        return "NA"
    return f"{value:.{decimals}f}"


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
    A header other than ``header``, a row of another width, or a row that the csv module or
    UTF-8 rejects, is a one-line error naming it. ``surrogateescape`` turns a byte that is
    not UTF-8 into a lone surrogate, which no valid row holds."""
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
                if len(row) != len(header):
                    raise ValidationError(
                        f"{what} CSV row {row_no}: expected {len(header)} columns")
                yield row_no, row


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
