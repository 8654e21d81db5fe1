"""Corpus model, JSON Lines ingestion, and validation errors."""
from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from citnorm.corpus import (
    Corpus,
    Publication,
    corpus_to_jsonl,
    parse_corpus,
    select_unit,
    write_corpus,
)
from citnorm.errors import ValidationError

from conftest import make_corpus, make_pub


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as handle:
        for obj in objs:
            handle.write(json.dumps(obj) + "\n")


def record(pid="P1", **overrides):
    obj = {
        "id": pid,
        "unit_ids": ["u1"],
        "field_ids": ["f1"],
        "pub_year": 2005,
        "doc_type": "article",
        "citations_total": 3,
    }
    obj.update(overrides)
    return obj


class TestParse:
    def test_two_well_formed_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1"), record("P2")])
        corpus = parse_corpus(path, census_year=2010, first_year=2000)
        assert len(corpus) == 2
        assert [p.id for p in corpus] == ["P1", "P2"]

    def test_negative_citation_count(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1", citations_total=-1)])
        with pytest.raises(ValidationError, match="negative citation count"):
            parse_corpus(path, census_year=2010, first_year=2000)

    def test_duplicate_id_names_second_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1"), record("P1")])
        with pytest.raises(ValidationError, match="line 2: duplicate id P1"):
            parse_corpus(path, census_year=2010, first_year=2000)

    def test_repeated_field_id_names_its_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1"), record("P2", field_ids=["f1", "f2", "f1"])])
        with pytest.raises(ValidationError) as info:
            parse_corpus(path, census_year=2010, first_year=2000)
        assert str(info.value) == "line 2: publication P2: field_ids repeats 'f1'"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(record("P1")) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            parse_corpus(path, census_year=2010, first_year=2000)

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1", journal="Nature")])
        with pytest.raises(ValidationError, match="unknown key 'journal'"):
            parse_corpus(path, census_year=2010, first_year=2000)

    def test_missing_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        obj = record("P1")
        del obj["doc_type"]
        write_jsonl(path, [obj])
        with pytest.raises(ValidationError, match="missing key 'doc_type'"):
            parse_corpus(path, census_year=2010, first_year=2000)

    def test_year_outside_range(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1", pub_year=1999)])
        with pytest.raises(ValidationError, match="outside"):
            parse_corpus(path, census_year=2010, first_year=2000)
        write_jsonl(path, [record("P1", pub_year=2011)])
        with pytest.raises(ValidationError, match="outside"):
            parse_corpus(path, census_year=2010, first_year=2000)

    def test_non_monotone_counts(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        counts = {"2005": 4, "2006": 3, "2007": 5, "2008": 5, "2009": 5, "2010": 5}
        write_jsonl(path, [record("P1", citations_total=5, citations_by_year=counts)])
        with pytest.raises(ValidationError, match="non-monotone"):
            parse_corpus(path, census_year=2010, first_year=2000)

    @pytest.mark.parametrize("overrides, message", [
        ({"pub_year": True}, "pub_year must be an integer"),
        ({"citations_total": True}, "citations_total must be an integer"),
        ({"pub_year": 2009, "citations_total": 1, "citations_by_year": {"2009": 0, "2010": True}},
         "citations_by_year value for 2010 must be an integer"),
    ])
    def test_json_booleans_are_not_integers(self, tmp_path, overrides, message):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1"), record("P2", **overrides)])
        with pytest.raises(ValidationError, match=f"^line 2: publication P2: {message}$"):
            parse_corpus(path, census_year=2010, first_year=2000)

    def test_citation_total_bounded_by_exact_float_range(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1", citations_total=2 ** 53 - 1)])
        assert parse_corpus(path, census_year=2010).publications[0].citations_total == 2 ** 53 - 1
        write_jsonl(path, [record("P1"), record("P2", citations_total=2 ** 53)])
        with pytest.raises(ValidationError, match=r"^line 2: .*exceeds 2\*\*53 - 1$"):
            parse_corpus(path, census_year=2010)

    def test_duplicate_year_keys_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        counts = {"2008": 9, " 2008": 1, "2009": 5, "2010": 5}
        write_jsonl(path, [record("P1"), record("P2", pub_year=2008, citations_total=5,
                                                citations_by_year=counts)])
        with pytest.raises(ValidationError,
                           match="^line 2: citations_by_year key ' 2008' is not a year$"):
            parse_corpus(path, census_year=2010, first_year=2000)

    @pytest.mark.parametrize("key", ["2_008", "+2009", "\uff12\uff10\uff10\uff18", "2008 ",
                                     "02008", "-0", "2008.0", "x"])
    def test_year_keys_must_be_canonical(self, tmp_path, key):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1"), record("P2", pub_year=2008, citations_total=1,
                                                citations_by_year={"2008": 1, key: 1})])
        with pytest.raises(ValidationError,
                           match=f"^line 2: citations_by_year key '{re.escape(key)}' is not a year$"):
            parse_corpus(path, census_year=2010, first_year=2000)

    @pytest.mark.parametrize("counts, message", [
        ({"2008": 1, "2010": 5}, "must cover every year from 2008 to 2010 with no gaps"),
        ({"2008": 1, "2009": 2, "2010": 4},
         "at census year 2010 does not equal citations_total"),
    ], ids=["gap", "census"])
    def test_coverage_errors_name_their_line(self, tmp_path, counts, message):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1"), record("P2", pub_year=2008, citations_total=5,
                                                citations_by_year=counts)])
        with pytest.raises(ValidationError,
                           match=f"^line 2: publication P2: citations_by_year {message}$"):
            parse_corpus(path, census_year=2010, first_year=2000)

    def test_out_of_order_lines_are_sorted(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P3"), record("P1"), record("P2")])
        corpus = parse_corpus(path, census_year=2010, first_year=2000)
        assert [p.id for p in corpus] == ["P1", "P2", "P3"]
        assert corpus == make_corpus([make_pub(pid, citations=3) for pid in ("P3", "P1", "P2")])

    def test_first_year_after_census_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="first_year 2011 is after census_year 2010"):
            parse_corpus(path, census_year=2010, first_year=2011)

    def test_integer_literal_beyond_digit_limit(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        huge = json.dumps(record("P2")).replace('"citations_total": 3',
                                                '"citations_total": ' + "9" * 5001)
        path.write_text(json.dumps(record("P1")) + "\n" + huge + "\n", encoding="utf-8")
        for read in (lambda: parse_corpus(path, census_year=2010),
                     lambda: parse_corpus(path)):
            with pytest.raises(ValidationError, match="^line 2: integer literal longer than"):
                read()

    def test_default_first_year_is_min(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1", pub_year=2003), record("P2", pub_year=2007)])
        corpus = parse_corpus(path, census_year=2010)
        assert corpus.first_year == 2003

    def test_infer_census_year(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [
            record("P1", pub_year=2003),
            record("P2", pub_year=2005, citations_total=4,
                   citations_by_year={"2005": 1, "2006": 2, "2007": 4}),
        ])
        assert parse_corpus(path).census_year == 2007
        write_jsonl(path, [record("P1", pub_year=2003)])
        assert parse_corpus(path).census_year == 2003
        path.write_text("")
        with pytest.raises(ValidationError, match="census"):
            parse_corpus(path)


class TestInvariants:
    def test_counts_must_cover_every_year(self):
        pub = make_pub("P1", year=2008, citations=5,
                       by_year={2008: 1, 2010: 5})  # 2009 missing
        with pytest.raises(ValidationError, match="no gaps"):
            make_corpus([pub])
        pub = make_pub("P1", year=2008, citations=5,
                       by_year={2007: 0, 2008: 1, 2010: 5})  # as many years, one too early
        with pytest.raises(ValidationError, match="no gaps"):
            make_corpus([pub])

    def test_counts_must_end_at_total(self):
        pub = make_pub("P1", year=2009, citations=5, by_year={2009: 1, 2010: 4})
        with pytest.raises(ValidationError, match="citations_total"):
            make_corpus([pub])

    def test_empty_field_ids_rejected(self):
        with pytest.raises(ValidationError, match="field_ids"):
            make_pub("P1", fields=())

    def test_repeated_field_id_rejected(self):
        with pytest.raises(ValidationError, match="publication P1: field_ids repeats 'f'"):
            make_pub("P1", fields=("f", "g", "f"))

    @pytest.mark.parametrize("field, kwargs", [
        ("pub_year", {"year": True}),
        ("citations_total", {"citations": True}),
        ("citations_by_year", {"year": 2009, "citations": 1, "by_year": {2009: 0, 2010: True}}),
    ])
    def test_booleans_are_not_integers(self, field, kwargs):
        with pytest.raises(ValidationError, match=field):
            make_pub("P1", **kwargs)

    def test_year_strings_are_not_coerced(self):
        with pytest.raises(ValidationError, match="year '2009' must be an integer"):
            make_pub("P1", year=2009, citations=1, by_year={"2009": 0, 2010: 1})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate id"):
            make_corpus([make_pub("P1"), make_pub("P1")])

    def test_publications_sorted_by_id(self):
        corpus = make_corpus([make_pub("b"), make_pub("a"), make_pub("c")])
        assert [p.id for p in corpus] == ["a", "b", "c"]


class TestSelectUnit:
    def test_selects_all_tagged(self):
        pubs = [make_pub(f"P{i:02d}", units=("A",)) for i in range(15)]
        pubs.append(make_pub("Q1", units=("B",)))
        corpus = make_corpus(pubs)
        assert len(select_unit(corpus, "A")) == 15

    def test_unknown_unit_is_empty(self):
        corpus = make_corpus([make_pub("P1")])
        assert select_unit(corpus, "nope") == []

    def test_multi_unit_pub_in_both_lists(self):
        corpus = make_corpus([make_pub("P1", units=("A", "B"))])
        assert [p.id for p in select_unit(corpus, "A")] == ["P1"]
        assert [p.id for p in select_unit(corpus, "B")] == ["P1"]

    def test_sorted_and_repeatable(self):
        corpus = make_corpus([make_pub("z"), make_pub("a"), make_pub("m")])
        first = select_unit(corpus, "u1")
        second = select_unit(corpus, "u1")
        assert [p.id for p in first] == ["a", "m", "z"]
        assert first == second


def test_round_trip_fixed(tmp_path):
    pubs = [
        make_pub("P1", field="f1", year=2008, citations=7, units=("u1", "u2"),
                 by_year={2008: 1, 2009: 4, 2010: 7}),
        make_pub("P2", field="f2", year=2010, citations=0, units=()),
    ]
    corpus = make_corpus(pubs)
    path = tmp_path / "out.jsonl"
    write_corpus(corpus, path)
    again = parse_corpus(path, census_year=2010, first_year=2000)
    assert again == corpus


ids = st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=6)


# JSON-escaped characters (quote, backslash, control characters) and non-ASCII text
hostile_chars = st.one_of(
    st.sampled_from('"\\/\x00\n\x1f\x7f\u00e9\u2028\u6f22\U0001f600'), st.characters()
)
hostile = st.text(hostile_chars, min_size=1, max_size=6)


@st.composite
def corpora(draw, ids=ids, units=st.sampled_from(["u1", "u2", "u3"]),
            fields=st.sampled_from(["f1", "f2"]),
            doc_types=st.sampled_from(["article", "review", "letter"])):
    first, census = 2000, 2006
    unique_ids = draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    pubs = []
    for pid in unique_ids:
        year = draw(st.integers(first, census))
        has_history = draw(st.booleans())
        by_year = None
        total = draw(st.integers(0, 40))
        if has_history:
            increments = draw(st.lists(
                st.integers(0, 9), min_size=census - year + 1, max_size=census - year + 1
            ))
            running = 0
            by_year = {}
            for offset, inc in enumerate(increments):
                running += inc
                by_year[year + offset] = running
            total = running
        pubs.append(Publication(
            id=pid,
            unit_ids=tuple(draw(st.lists(units, max_size=2, unique=True))),
            field_ids=tuple(draw(st.lists(fields, min_size=1, max_size=2, unique=True))),
            pub_year=year,
            doc_type=draw(doc_types),
            citations_total=total,
            citations_by_year=by_year,
        ))
    return Corpus(tuple(pubs), census_year=census, first_year=first)


@given(corpora())
@settings(max_examples=60)
def test_round_trip_property(tmp_path_factory, corpus):
    text = corpus_to_jsonl(corpus)
    path = tmp_path_factory.mktemp("rt") / "corpus.jsonl"
    path.write_text(text, encoding="utf-8")
    again = parse_corpus(path, census_year=corpus.census_year, first_year=corpus.first_year)
    assert again == corpus
    assert corpus_to_jsonl(again) == text


@given(corpora())
@settings(max_examples=60)
def test_inferred_census_is_the_largest_year_in_the_file(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("census") / "corpus.jsonl"
    write_corpus(corpus, path)
    latest = max(max((pub.pub_year, *(pub.citations_by_year or ()))) for pub in corpus)
    inferred = parse_corpus(path)
    assert inferred.census_year == latest
    assert inferred == parse_corpus(path, census_year=latest)


def reference_jsonl_line(pub):
    obj = {
        "id": pub.id,
        "unit_ids": list(pub.unit_ids),
        "field_ids": list(pub.field_ids),
        "pub_year": pub.pub_year,
        "doc_type": pub.doc_type,
        "citations_total": pub.citations_total,
    }
    if pub.citations_by_year is not None:
        obj["citations_by_year"] = {
            str(year): pub.citations_by_year[year] for year in sorted(pub.citations_by_year)
        }
    return json.dumps(obj, separators=(",", ":")) + "\n"


@given(corpora(ids=hostile, units=hostile, fields=hostile,
               doc_types=st.text(hostile_chars, max_size=6)))
@settings(max_examples=100)
def test_writer_matches_json_dumps_byte_for_byte(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("writer") / "corpus.jsonl"
    write_corpus(corpus, path)
    expected = "".join(reference_jsonl_line(pub) for pub in corpus)
    assert path.read_bytes() == expected.encode("ascii")
    again = parse_corpus(path, census_year=corpus.census_year, first_year=corpus.first_year)
    assert again == corpus
