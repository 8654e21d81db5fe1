"""Byte-mutation fuzzing of the simulation config, through ``citnorm simulate``.

Each example takes a valid config, mutates its bytes (a byte replaced,
inserted or deleted; at most two mutations) and runs the command in-process.
It either exits 0 and writes a corpus that reads back with finite counts, or
exits 1 (2 for I/O errors) with exactly one line on stderr; a traceback fails.
Every ``n_pubs`` is a single digit, so two mutations reach at most three
digits and no example allocates much.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings, strategies as st

from citnorm.cli import main
from citnorm.corpus import parse_corpus

pytest.importorskip("numpy")  # every example runs citnorm simulate

CONFIG = json.dumps({
    "fields": [{"field_id": "f1", "rate": 2.5}, {"field_id": "é2", "rate": 0.5}],
    "units": [{"unit_id": "u1", "quality": 1.5, "n_pubs": 4},
              {"unit_id": "u2", "quality": 0.5, "n_pubs": 3}],
    "first_year": 2000, "census_year": 2004, "dispersion": 0.5, "seed": 7,
    "same_year_damping": 0.1,
}, ensure_ascii=False).encode()
BYTES = st.one_of(st.sampled_from(b'0123456789-+.eE",:{}[]\r\n\x00\xc3\xa9\xff'),
                  st.integers(0, 255))


@st.composite
def mutated(draw, base: bytes) -> bytes:
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        at = draw(st.integers(0, 10 ** 6)) % (len(data) + 1)
        if kind == "replace" and at < len(data):
            data[at] = draw(BYTES)
        elif kind == "insert":
            data.insert(at, draw(BYTES))
        elif kind == "delete" and at < len(data):
            del data[at]
    return bytes(data)


@given(data=mutated(CONFIG))
@settings(max_examples=300, deadline=None)
def test_mutated_config_simulates_or_fails_in_one_line(tmp_path_factory, data):
    workdir = tmp_path_factory.mktemp("fuzz")
    config, out = workdir / "config.json", workdir / "corpus.jsonl"
    config.write_bytes(data)
    with redirect_stderr(io.StringIO()) as stderr:
        code = main(["simulate", "--config", str(config), "--out", str(out)])
    err = stderr.getvalue()
    if code == 0:
        assert err == ""
        corpus = parse_corpus(out)
        assert len(corpus) > 0 and all(0 <= total < 2 ** 53 for total in corpus.totals)
    else:
        assert code in (1, 2)
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
