"""Differential fuzzing of the corpus reader against a plain reference reader.

Each example takes a valid JSON Lines file, mutates its bytes (a byte replaced,
inserted or deleted, a number replaced by another JSON value, two lines joined,
bare or with a ``,``, one line split, or the by-year keys of a record reordered) and reads it twice:
with :func:`parse_corpus`, and with the reference reader below, which is
``json.loads`` per line plus the public :class:`Publication` and
:class:`Corpus` constructors, raising faults in the documented order. A second
test draws records with chosen faults instead of mutating bytes. Either both
readers return equal corpora, or both raise :class:`ValidationError` with the
same message; any other exception fails.
"""
from __future__ import annotations

import json
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from citnorm.cli import main
from citnorm.corpus import Corpus, Publication, parse_corpus
from citnorm.errors import ValidationError

REQUIRED = ("id", "unit_ids", "field_ids", "pub_year", "doc_type", "citations_total")
KNOWN = set(REQUIRED) | {"citations_by_year"}


def reference_record(obj, line_no: int) -> Publication:
    def fault(message: str) -> ValidationError:
        return ValidationError(f"line {line_no}: {message}")

    if not isinstance(obj, dict):
        raise fault("expected a JSON object")
    for key in obj:
        if key not in KNOWN:
            raise fault(f"unknown key '{key}'")
    for key in REQUIRED:
        if key not in obj:
            raise fault(f"missing key '{key}'")
    if not isinstance(obj["unit_ids"], list) or not isinstance(obj["field_ids"], list):
        raise fault("unit_ids and field_ids must be arrays")
    if not isinstance(obj["doc_type"], str):
        raise fault("doc_type must be a string")
    counts = obj.get("citations_by_year")
    if counts is not None:
        if not isinstance(counts, dict):
            raise fault("citations_by_year must be an object")
        by_year = {}
        for key, value in counts.items():
            try:
                year = int(key)
            except ValueError:
                year = None
            if year is None or str(year) != key:
                raise fault(f"citations_by_year key '{key}' is not a year")
            by_year[year] = value
        counts = by_year
    try:
        return Publication(id=obj["id"], unit_ids=obj["unit_ids"], field_ids=obj["field_ids"],
                           pub_year=obj["pub_year"], doc_type=obj["doc_type"],
                           citations_total=obj["citations_total"], citations_by_year=counts)
    except ValidationError as exc:
        raise fault(str(exc)) from None


def reference_parse(path, census_year=None, first_year=None) -> Corpus:
    numbered: list[tuple[int, Publication]] = []
    seen = set()
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ValidationError(f"line {line_no}: not valid UTF-8") from None
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"line {line_no}: malformed JSON: {exc.msg}") from None
            except RecursionError:
                raise ValidationError(f"line {line_no}: malformed JSON: nesting too deep") from None
            except ValueError:
                raise ValidationError(f"line {line_no}: integer literal longer than "
                                      f"{sys.get_int_max_str_digits()} digits") from None
            pub = reference_record(obj, line_no)
            if pub.id in seen:
                raise ValidationError(f"line {line_no}: duplicate id {pub.id}")
            seen.add(pub.id)
            numbered.append((line_no, pub))
    if census_year is None:
        if not numbered:
            raise ValidationError(f"cannot infer a census year from {path}")
        census_year = max(max((pub.pub_year, *(pub.citations_by_year or ())))
                          for _, pub in numbered)
    if first_year is None:
        first_year = min((pub.pub_year for _, pub in numbered), default=census_year)
    for line_no, pub in numbered:
        if not first_year <= pub.pub_year <= census_year:
            raise ValidationError(f"line {line_no}: publication {pub.id}: pub_year "
                                  f"{pub.pub_year} outside [{first_year}, {census_year}]")
        try:
            Corpus([pub], census_year=census_year, first_year=first_year)
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
    return Corpus([pub for _, pub in numbered], census_year=census_year, first_year=first_year)


RECORDS = [
    {"id": "P3", "unit_ids": ["u1", "u2"], "field_ids": ["f1", "f2"], "pub_year": 2008,
     "doc_type": "article", "citations_total": 5,
     "citations_by_year": {"2008": 1, "2009": 3, "2010": 5}},
    {"id": "P1", "unit_ids": [], "field_ids": ["f1"], "pub_year": 2010, "doc_type": "review",
     "citations_total": 0, "citations_by_year": {"2010": 0}},
    {"id": "é2", "unit_ids": ["u1", "u1"], "field_ids": ["f2"], "pub_year": 2003,
     "doc_type": "letter", "citations_total": 12},
    {"doc_type": "article", "id": "P4", "pub_year": 2009, "unit_ids": ["u3"],
     "field_ids": ["f1"], "citations_total": 2, "citations_by_year": {"2010": 2, "2009": 1}},
    {"id": "P0", "unit_ids": ["u2"], "field_ids": ["f2"], "pub_year": 2000,
     "doc_type": "article", "citations_total": 7},
]
# enough records that most mutations land past the reader's first batch of 32 lines
MANY = [
    {"id": f"Q{i:02d}", "unit_ids": ["u1", "u2"][:i % 3], "field_ids": ["f1", "f2"][:1 + i % 2],
     "pub_year": 2000 + i % 11, "doc_type": "article", "citations_total": 10 - i % 11,
     **({"citations_by_year": {str(y): y - 2000 - i % 11 for y in range(2000 + i % 11, 2011)}}
        if i % 4 else {})}
    for i in range(70)
]
BASES = [
    "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in RECORDS).encode("utf-8"),
    ("\n".join(json.dumps(obj, separators=(",", ":")) for obj in RECORDS[::-1]) + "\n\n")
    .encode("ascii"),
    "".join(json.dumps(obj) + "\n" for obj in MANY).encode("ascii"),
]
NUMBERS = re.compile(rb"-?[0-9]+")
# what a number may become: other counts and years, the bounds, and other JSON types
VALUES = [b"-1", b"0", b"2", b"1999", b"2011", b"9007199254740991", b"9007199254740992",
          b"1.0", b"1e3", b"true", b"null", b'"3"', b"[]", b"{}", b"NaN"]
BYTES = st.one_of(st.sampled_from(b'0123456789-+_ .eE"{}[],:\\\ntfn\x00\xc3\xa9\xff'),
                  st.integers(0, 255))


def reorder_keys(line: bytes, seed: int) -> bytes:
    """The line with its by-year keys shuffled, if it is a record that has them."""
    try:
        obj = json.loads(line)
    except ValueError:
        return line
    if not isinstance(obj, dict) or not isinstance(obj.get("citations_by_year"), dict):
        return line
    items = list(obj["citations_by_year"].items())
    random.Random(seed).shuffle(items)
    obj["citations_by_year"] = dict(items)
    return json.dumps(obj).encode("utf-8")


@st.composite
def mutated_files(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["replace", "insert", "delete", "number", "join", "pair",
                                     "split", "reorder"]))
        at = draw(st.integers(0, 10 ** 6)) % (len(data) + 1)
        numbers = list(NUMBERS.finditer(data))
        if kind == "number" and numbers:
            number = numbers[at % len(numbers)]
            data[number.start():number.end()] = draw(st.sampled_from(VALUES))
        elif kind == "replace" and at < len(data):
            data[at] = draw(BYTES)
        elif kind == "insert":
            data.insert(at, draw(BYTES))
        elif kind == "delete" and at < len(data):
            del data[at]
        elif kind == "split":
            data.insert(at, ord("\n"))
        else:  # join the line holding `at` to the next, bare or with `,`, or reorder its keys
            lines = data.split(b"\n")
            index = data.count(b"\n", 0, at)
            if kind in ("join", "pair") and index + 1 < len(lines):
                comma = b"," if kind == "pair" else b""
                lines[index:index + 2] = [lines[index] + comma + lines[index + 1]]
            elif kind == "reorder":
                lines[index] = reorder_keys(bytes(lines[index]), draw(st.integers(0, 99)))
            data = bytearray(b"\n".join(lines))
    return bytes(data)


def outcome(read, path, **years):
    try:
        return "read", read(path, **years)
    except ValidationError as exc:
        return "error", str(exc)


@given(data=mutated_files(),
       years=st.sampled_from([{}, {"census_year": 2010}, {"census_year": 2009},
                              {"census_year": 2010, "first_year": 2001},
                              {"census_year": 2005, "first_year": 2006}]))
@settings(max_examples=400, deadline=None)
def test_mutated_file_reads_as_the_reference_reader_reads_it(tmp_path_factory, data, years):
    path = tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"
    path.write_bytes(data)
    assert outcome(parse_corpus, path, **years) == outcome(reference_parse, path, **years)


# Valid records with up to two faults each, drawn from the faults the reader
# checks for, so that every check and every pair of faults on a line is reached.
ODD = st.sampled_from([True, 1.0, None, "2", [], {}])
FAULTS = ["odd value", "empty id", "repeated field", "unknown key", "missing key",
          "bad total", "bad count", "negative start", "bad year key", "gap", "reordered",
          "misaligned", "total off"]


@st.composite
def drawn_records(draw, fault: str) -> dict:
    """A valid record given ``fault`` one time in two, and another fault one time in four."""
    year = draw(st.integers(1999, 2011))
    obj = {
        "id": draw(st.sampled_from(["P1", "P2", "P3", "P4"])),
        "unit_ids": draw(st.lists(st.sampled_from(["u1", "u2"]), max_size=3)),
        "field_ids": draw(st.lists(st.sampled_from(["f1", "f2"]), min_size=1, max_size=2,
                                   unique=True)),
        "pub_year": year,
        "doc_type": "article",
        "citations_total": draw(st.integers(0, 9)),
    }
    if draw(st.integers(0, 2)):
        counts, total = {}, 0
        for y in range(year, draw(st.sampled_from([2011, *range(year, 2012)])) + 1):
            total += draw(st.integers(0, 3))
            counts[str(y)] = total
        obj["citations_by_year"], obj["citations_total"] = counts, total
    counts = obj.get("citations_by_year") or {"2000": 0}
    faults = [fault] * draw(st.integers(0, 1)) + [draw(st.sampled_from(FAULTS + [None] * 39))]
    for kind in filter(None, faults):
        key = draw(st.sampled_from(list(obj)))
        if kind == "odd value":
            obj[key] = draw(ODD)
        elif kind == "empty id":
            obj[draw(st.sampled_from(["id", "unit_ids", "field_ids"]))] = draw(
                st.sampled_from(["", [""], ["f1", ""]]))
        elif kind == "repeated field":
            obj["field_ids"] = ["f1", "f2", "f1"]
        elif kind == "unknown key":
            obj["extra"] = 1
        elif kind == "missing key":
            del obj[key]
        elif kind == "bad total":
            obj["citations_total"] = draw(st.sampled_from([-1, 2 ** 53, True, 2.0]))
        elif kind == "bad count":
            counts[draw(st.sampled_from([min(counts), *counts]))] = draw(
                st.sampled_from([-1, True, 2.0, None, 2 ** 53, 0]))
        elif kind == "negative start":  # the one count that monotonicity does not bound
            counts[min(counts)] = -1
        elif kind == "bad year key":
            moved = draw(st.sampled_from(list(counts)))
            counts[draw(st.sampled_from([" " + moved, "0" + moved, "x", "1e3"]))] = \
                counts.pop(moved)
        elif kind == "gap" and len(counts) > 2:
            del counts[sorted(counts)[1]]
        elif kind == "reordered":
            items = list(counts.items())
            random.Random(draw(st.integers(0, 99))).shuffle(items)
            counts.clear()
            counts.update(items)
        elif kind == "misaligned":
            obj["pub_year"] = year + draw(st.sampled_from([-1, 1]))
        elif kind == "total off" and type(obj.get("citations_total", 0)) is int:
            obj["citations_total"] = obj.get("citations_total", 0) + 1  # an odd value stays odd
    return obj


@pytest.mark.parametrize("fault", FAULTS)
@given(data=st.data(),
       years=st.sampled_from([{}, {}, {"census_year": 2011},
                              {"census_year": 2011, "first_year": 2000},
                              {"census_year": 2010, "first_year": 2001},
                              {"census_year": 2005, "first_year": 2006}]))
@settings(max_examples=100, deadline=None)
def test_drawn_records_read_as_the_reference_reader_reads_them(tmp_path_factory, fault, data,
                                                               years):
    records = data.draw(st.lists(drawn_records(fault), min_size=1, max_size=6))
    path = tmp_path_factory.mktemp("drawn") / "corpus.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in records), encoding="utf-8")
    assert outcome(parse_corpus, path, **years) == outcome(reference_parse, path, **years)


@pytest.mark.parametrize("data, size", zip(BASES, [len(RECORDS), len(RECORDS), len(MANY)]),
                         ids=["unicode", "compact", "many"])
def test_unmutated_bases_are_valid(tmp_path, data, size):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    assert len(parse_corpus(path)) == size
    assert parse_corpus(path) == reference_parse(path)


@pytest.mark.parametrize("line, message", [
    (b'{"id": "P\xff"}', "line 2: not valid UTF-8"),
    (b"[" * 100_000, "line 2: malformed JSON: nesting too deep"),
], ids=["not-utf8", "deep"])
def test_undecodable_lines_are_one_line_errors(tmp_path, capsys, line, message):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(BASES[1].split(b"\n")[0] + b"\n" + line + b"\n")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        parse_corpus(path)
    assert main(["trajectory", "--corpus", str(path), "--field", "f1", "--pub-year", "2009",
                 "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_fuzz_failures_print_a_reproduction_blob():
    assert settings(max_examples=20, deadline=None).print_blob  # built as the tests above
