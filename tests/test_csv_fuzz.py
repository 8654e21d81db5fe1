"""Byte-mutation fuzzing of the baselines CSV and scores CSV readers.

Each example takes a valid file, mutates its bytes (a byte replaced, inserted
or deleted, two rows joined, or one row split) and reads it. The reader either
raises :class:`ValidationError` or returns only finite values; any other
exception fails.
"""
from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from citnorm.baseline import read_baselines
from citnorm.errors import ValidationError
from citnorm.indicators import read_scores

BASELINES = ("field_id,pub_year,mean_citations,cell_size\n"
             "f1,2008,1.500000,2\nf1,2009,0.000000,1\né2,2008,12.250000,4\n").encode()
SCORES = ("unit_id,n_total,n_mncs2,n_excluded_zero_e,cpp_fcsm,mncs1,mncs2\n"
          "u1,3,3,0,1.2000,1.1000,0.9000\nu2,2,1,1,NA,0.8000,NA\n"
          "ü3,4,4,0,0.0000,0.0000,0.0000\n").encode()
BYTES = st.one_of(st.sampled_from(b'0123456789-+_ .eE",\r\n\x00\xc3\xa9\xffNA'),
                  st.integers(0, 255))


@st.composite
def mutated(draw, base: bytes) -> bytes:
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["replace", "insert", "delete", "join", "split"]))
        at = draw(st.integers(0, 10 ** 6)) % (len(data) + 1)
        if kind == "replace" and at < len(data):
            data[at] = draw(BYTES)
        elif kind == "insert":
            data.insert(at, draw(BYTES))
        elif kind == "delete" and at < len(data):
            del data[at]
        elif kind == "join" and b"\n" in data[at:]:
            del data[data.index(b"\n", at)]
        elif kind == "split":
            data.insert(at, ord("\n"))
    return bytes(data)


def read(reader, path):
    try:
        return reader(path)
    except ValidationError:
        return None


def finite(value) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


@given(data=mutated(BASELINES))
@settings(max_examples=300, deadline=None)
def test_mutated_baselines_read_finite_or_fail_validation(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "baselines.csv"
    path.write_bytes(data)
    table = read(read_baselines, path)
    if table is not None:
        for (fid, year), cell in table.cells.items():
            assert type(fid) is str and type(year) is int
            fid.encode("utf-8")  # holds no lone surrogate from a byte that is not UTF-8
            assert finite(cell.mean_citations) and cell.mean_citations >= 0
            assert type(cell.cell_size) is int and cell.cell_size >= 1


@given(data=mutated(SCORES))
@settings(max_examples=300, deadline=None)
def test_mutated_scores_read_finite_or_fail_validation(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "scores.csv"
    path.write_bytes(data)
    scores = read(read_scores, path)
    for score in scores or ():
        assert type(score.unit_id) is str
        score.unit_id.encode("utf-8")
        assert all(type(n) is int for n in (score.n_total, score.n_mncs2,
                                            score.n_excluded_zero_e))
        assert all(value is None or finite(value)
                   for value in (score.cpp_fcsm, score.mncs1, score.mncs2))


def test_unmutated_files_read(tmp_path):
    (tmp_path / "baselines.csv").write_bytes(BASELINES)
    (tmp_path / "scores.csv").write_bytes(SCORES)
    assert len(read_baselines(tmp_path / "baselines.csv")) == 3
    assert [score.unit_id for score in read_scores(tmp_path / "scores.csv")] == ["u1", "u2", "ü3"]
