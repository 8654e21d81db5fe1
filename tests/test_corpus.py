"""Corpus model, JSON Lines ingestion, and validation errors."""
from __future__ import annotations

import copy
import dataclasses
import gc
import json
import os
import pickle
import re
import threading
import tracemalloc
from collections.abc import Mapping
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

import citnorm.corpus as corpus_module
from citnorm.baseline import compute_baselines
from citnorm.corpus import (
    CitationsByYear,
    Corpus,
    Publication,
    corpus_to_jsonl,
    parse_corpus,
    select_cohort,
    select_unit,
    write_corpus,
)
from citnorm.errors import ValidationError
from citnorm.indicators import score_units
from citnorm.simulate import config_from_dict, generate_corpus
from citnorm.stats import age_correlation_matrix, trajectory

from conftest import make_corpus, make_pub
from test_ingest_fuzz import outcome, reference_parse


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

    @pytest.mark.parametrize("line", ['["id"]', '"P2"', "3", "null", "[]"])
    def test_line_that_is_no_object_names_its_line(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(record("P1")) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="^line 2: expected a JSON object$"):
            parse_corpus(path, census_year=2010, first_year=2000)

    @pytest.mark.parametrize("overrides, message", [
        ({"unit_ids": "u1"}, "unit_ids and field_ids must be arrays"),
        ({"field_ids": "f1"}, "unit_ids and field_ids must be arrays"),
        ({"doc_type": 3}, "doc_type must be a string"),
        ({"citations_by_year": [3]}, "citations_by_year must be an object"),
        # the id lists are those of line 1, which were checked there
        ({"id": ""}, "publication id must be a non-empty string"),
        ({"id": 3}, "publication id must be a non-empty string"),
        ({"field_ids": ["f1", ""]}, "publication P2: empty field id"),
        ({"field_ids": ["f1", 3]}, "publication P2: empty field id"),
        ({"unit_ids": ["u1", ""]}, "publication P2: empty unit id"),
        ({"unit_ids": ["u1", 3]}, "publication P2: empty unit id"),
        ({"citations_by_year": {"2005": -1, "2006": 0, "2007": 3}},
         "publication P2: negative citation count"),
        ({"citations_by_year": {"2005": 1, "2006": -1, "2007": 3}},
         "publication P2: negative citation count"),
        # as many keys as years to the census, but with a gap, and one key past the census
        ({"citations_by_year": {"2005": 1, "2006": 1, "2007": 2, "2009": 2, "2010": 3,
                                "2011": 3}},
         "publication P2: citations_by_year must cover every year from 2005 to 2010 with no gaps"),
    ])
    def test_record_faults_name_their_line(self, tmp_path, overrides, message):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1"), record("P2", **overrides)])
        with pytest.raises(ValidationError, match=f"^line 2: {message}$"):
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

    @pytest.mark.parametrize("counts", [{"2008": 1, "2009": 3, "2010": 5},
                                        {"2010": 1, "2011": 3, "2012": 5}],
                             ids=["starts-early", "starts-late"])
    def test_counts_must_start_at_the_publication_year(self, tmp_path, counts):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record("P1", pub_year=2009, citations_total=5,
                                  citations_by_year=counts)])
        census = max(map(int, counts))
        with pytest.raises(ValidationError, match=f"^line 1: publication P1: citations_by_year "
                                                  f"must cover every year from 2009 to {census}"):
            parse_corpus(path)

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

    def test_a_mapping_that_repeats_a_year_covers_only_its_keys(self):
        class Repeating(Mapping):  # iterates 2009 twice and has no 2010
            def __getitem__(self, year):
                return {2008: 1, 2009: 2, 2011: 5}[year]

            def __iter__(self):
                return iter([2008, 2009, 2009, 2011])

            def __len__(self):
                return 4

        pub = make_pub("P1", year=2008, citations=5, by_year=Repeating())
        assert pub.citations_by_year == {2008: 1, 2009: 2, 2011: 5}
        with pytest.raises(ValidationError, match="from 2008 to 2011 with no gaps"):
            make_corpus([pub], census_year=2011)

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
        assert len(select_unit(corpus, "nope")) == 0

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


def test_corpus_pickles_and_copies(tmp_path):
    built = make_corpus([make_pub("P2", year=2009, citations=3, by_year={2009: 1, 2010: 3}),
                         make_pub("P1", units=())])
    write_corpus(built, tmp_path / "corpus.jsonl")
    parsed = parse_corpus(tmp_path / "corpus.jsonl", census_year=2010, first_year=2000)
    iterated = parse_corpus(tmp_path / "corpus.jsonl", census_year=2010, first_year=2000)
    assert len(iterated.publications) == 2
    for corpus in (built, parsed, iterated):
        for again in (pickle.loads(pickle.dumps(corpus)), copy.copy(corpus),
                      copy.deepcopy(corpus)):
            assert again == corpus and again.publications == built.publications



def test_a_corpus_holds_its_columns_and_builds_its_publications_once(tmp_path, monkeypatch):
    pubs = [make_pub(f"P{i}", year=2008, citations=i, by_year={2008: 0, 2009: i, 2010: i})
            for i in range(5)]
    write_corpus(make_corpus(pubs), tmp_path / "corpus.jsonl")
    config = config_from_dict({"fields": [{"field_id": "f1", "rate": 2.0}],
                               "units": [{"unit_id": "u1", "quality": 1.0, "n_pubs": 5}],
                               "first_year": 2000, "census_year": 2010, "seed": 3})
    builds, materialize = [], corpus_module._materialize
    monkeypatch.setattr(corpus_module, "_materialize",
                        lambda corpus: builds.append(corpus) or materialize(corpus))
    read = parse_corpus(tmp_path / "corpus.jsonl", census_year=2010, first_year=2000)
    for corpus in (read, generate_corpus(config), make_corpus(pubs)):
        for again in (pickle.loads(pickle.dumps(corpus)), copy.copy(corpus),
                      copy.deepcopy(corpus)):
            assert again == corpus and corpus == again
        score_units(corpus, compute_baselines(corpus))
    assert make_corpus(pubs) == read and builds == [], "comparing or scoring built publications"
    # the tuple is built once, however often it is read, and the columns stay
    iterated = parse_corpus(tmp_path / "corpus.jsonl", census_year=2010, first_year=2000)
    first = iterated.publications
    assert iterated.publications is first and list(iterated) == list(first) == pubs
    assert builds == [iterated]
    table = compute_baselines(iterated)
    assert iterated == read and score_units(iterated, table) == score_units(read, table)
    assert table == compute_baselines(read) and builds == [iterated]


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


# --- the one corpus-level check ----------------------------------------------

# (publications, census year, first year, the first fault without its line number)
ONE_CHECK_CASES = {
    "year outside the window": (
        [make_pub("P1", year=1999)], 2010, 2000,
        "publication P1: pub_year 1999 outside [2000, 2010]"),
    "by-year gap": (
        [make_pub("P1", year=2008, citations=5, by_year={2008: 1, 2010: 5})], 2010, 2000,
        "publication P1: citations_by_year must cover every year from 2008 to 2010 with no gaps"),
    "by-year gap as long as the span": (
        [make_pub("P1", year=2008, citations=5, by_year={2008: 1, 2010: 5})], 2009, 2000,
        "publication P1: citations_by_year must cover every year from 2008 to 2009 with no gaps"),
    "by-year past the census": (
        [make_pub("P1", year=2008, citations=5, by_year={2008: 1, 2009: 5, 2010: 5})], 2009,
        2000,
        "publication P1: citations_by_year must cover every year from 2008 to 2009 with no gaps"),
    "by-year end not the total": (
        [make_pub("P1", year=2009, citations=5, by_year={2009: 1, 2010: 4})], 2010, 2000,
        "publication P1: citations_by_year at census year 2010 does not equal citations_total"),
    "duplicate id": (
        [make_pub("P1"), make_pub("P2"), make_pub("P1")], 2010, 2000, "duplicate id P1"),
    "first year after census, no records": (
        [], 2005, 2006, "first_year 2006 is after census_year 2005"),
    # several faults: the first in the order parse_corpus finds them
    "span before first year after census": (
        [make_pub("P1", year=2005)], 2005, 2006,
        "publication P1: pub_year 2005 outside [2006, 2005]"),
    "first span fault in the order given": (
        [make_pub("P2", year=1999), make_pub("P1", year=1998)], 2010, 2000,
        "publication P2: pub_year 1999 outside [2000, 2010]"),
    "duplicate before span": (
        [make_pub("P2", year=1999), make_pub("P1"), make_pub("P2")], 2010, 2000,
        "duplicate id P2"),
    "first duplicate in the order given": (
        [make_pub("B"), make_pub("A"), make_pub("B"), make_pub("A")], 2010, 2000,
        "duplicate id B"),
}


@pytest.mark.parametrize("pubs, census, first, message", ONE_CHECK_CASES.values(),
                         ids=ONE_CHECK_CASES.keys())
def test_corpus_reports_the_fault_parse_corpus_reports(tmp_path, pubs, census, first, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(map(reference_jsonl_line, pubs)))
    with pytest.raises(ValidationError) as parsed:
        parse_corpus(path, census_year=census, first_year=first)
    assert re.sub(r"^line \d+: ", "", str(parsed.value)) == message
    with pytest.raises(ValidationError) as built:
        Corpus(pubs, census_year=census, first_year=first)
    assert str(built.value) == message


def test_a_corpus_is_frozen_and_equals_only_a_corpus():
    corpus = make_corpus([make_pub("P1")])
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'ids'"):
        corpus.ids = ()
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'ids'"):
        del corpus.ids
    with pytest.raises(FrozenInstanceError):
        corpus._publications = ()
    assert corpus.ids == ("P1",) and corpus.publications[0].id == "P1"
    assert (corpus == 5) is False and corpus != 5
    assert corpus == make_corpus([make_pub("P1")])


@pytest.mark.parametrize("kwargs", [{"units": "ab"}, {"fields": "fg"}])
def test_a_string_is_no_list_of_ids(kwargs):
    with pytest.raises(ValidationError,
                       match="^publication P1: unit_ids or field_ids is a string$"):
        make_pub("P1", **kwargs)


def test_doc_type_must_be_a_string():
    # write_corpus would otherwise fail on it with a TypeError from json's escaper
    with pytest.raises(ValidationError, match="^publication P1: doc_type must be a string$"):
        Publication("P1", ("u1",), ("f1",), 2005, 5, 0)


def test_select_cohort_builds_only_its_publications_in_id_order(monkeypatch):
    corpus = make_corpus([
        make_pub("P3", fields=("F", "G")), make_pub("P1", field="F"), make_pub("P2", field="G"),
        make_pub("P0", field="F", year=2006), make_pub("P4", fields=("G", "F"), units=()),
    ])
    builds, materialize = [], corpus_module._materialize
    monkeypatch.setattr(corpus_module, "_materialize",
                        lambda corpus: builds.append(corpus) or materialize(corpus))
    cohort = select_cohort(corpus, "F", 2005)
    assert cohort.ids == ("P1", "P3", "P4")
    assert len(select_cohort(corpus, "F", 2007)) == 0
    assert len(select_cohort(corpus, "H", 2005)) == 0
    assert builds == [], "a selection built publications"
    monkeypatch.setattr(corpus_module, "_materialize", materialize)
    assert list(cohort) == [pub for pub in corpus.publications
                            if pub.pub_year == 2005 and "F" in pub.field_ids]


def test_columns_and_jsonl_keys_come_in_publication_field_order(tmp_path):
    pubs = [make_pub("P2", fields=("F", "G"), units=("A", "B"), year=2009, citations=3,
                     by_year={2009: 1, 2010: 3}),
            make_pub("P1", units=(), citations=4)]
    built = make_corpus(pubs)
    write_corpus(built, tmp_path / "corpus.jsonl")
    parsed = parse_corpus(tmp_path / "corpus.jsonl", census_year=2010, first_year=2000)
    simulated = generate_corpus(config_from_dict({
        "fields": [{"field_id": "f1", "rate": 2.0}, {"field_id": "f2", "rate": 0.5}],
        "units": [{"unit_id": "u1", "quality": 1.0, "n_pubs": 4}],
        "first_year": 2005, "census_year": 2010, "seed": 3}))
    by_id = sorted(pubs, key=lambda pub: pub.id)
    for corpus, expected in ((built, by_id), (parsed, by_id), (simulated, simulated.publications)):
        columns = [getattr(corpus, name) for name in corpus_module._COLUMNS]
        for column, name in zip(columns[:-1], Publication.__slots__):
            assert column == tuple(getattr(pub, name) for pub in expected), name
        lines = corpus_to_jsonl(corpus).splitlines()
        assert any(len(json.loads(line)) == 7 for line in lines)
        for line in lines:
            keys = tuple(json.loads(line))
            assert keys == Publication.__slots__[:len(keys)] and len(keys) >= 6


def test_publication_rejects_by_year_counts_that_are_no_mapping():
    # before, [1] and (1, 2) raised IndexError, 5 TypeError, and "ab" named the year 'a'
    for counts in ([1], (1, 2), 5, "ab"):
        with pytest.raises(ValidationError,
                           match="^publication P1: citations_by_year must be a mapping$"):
            make_pub("P1", by_year=counts)


# Lines that a reader decoding several lines per json.loads call could misread. Five hold
# two records on one line, so that a batch's element count still equals its line count;
# each case gives the line (counted from its first) and the fault a per-line reader names.
def _line(i: int, **overrides) -> str:
    return json.dumps(record(f"P{i:03d}", **overrides))


_PAIR = _line(900) + "," + _line(901)
_MALFORMED = "malformed JSON: "
BATCH_TRAPS = {
    "split-object": (["{\"a\":", "1}"], 1, _MALFORMED),
    "split-record": ([_line(1).replace(', "field_ids"', '\n"field_ids"'), _PAIR], 1, _MALFORMED),
    "split-unit-ids": ([_PAIR, _line(2).replace('["u1"]', '["u1"\n{"x": 1}]')], 1, _MALFORMED),
    # the second half of the record opens no object, so only the "{" check rejects the batch
    "split-unit-ids-value": ([_PAIR, _line(2).replace('["u1"]', '["u1"\n"u2"]')], 1, _MALFORMED),
    "split-string": ([_line(3, doc_type="a},@{b").replace("@", "\n"), _PAIR], 1, _MALFORMED),
    "two-records": ([_line(4), _PAIR], 2, _MALFORMED),
    "bracket-after": ([_line(5) + "]", _line(6)], 1, _MALFORMED),
    "last-bracket-after": ([_line(5), _line(6) + "]"], 2, _MALFORMED),
    "garbage-after": ([_line(7) + " x", _line(8)], 1, _MALFORMED),
    # a byte that is not UTF-8 arrives as a lone surrogate, which json.loads takes in a string
    "not-utf8": ([_line(9), _line(10, doc_type="a@b").replace("@", "\udcff")], 2,
                 "not valid UTF-8"),
}


@pytest.mark.parametrize("lead", [0, 40], ids=["first-batch", "later-batch"])
@pytest.mark.parametrize("lines, line, fault", BATCH_TRAPS.values(), ids=BATCH_TRAPS)
def test_lines_a_batch_could_misread_read_as_the_per_line_reader_reads_them(
        tmp_path, lines, line, fault, lead):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(_line(i) + "\n" for i in range(100, 100 + lead))
                    + "\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    found = outcome(parse_corpus, path)
    assert found == outcome(reference_parse, path)
    assert found[0] == "error" and found[1].startswith(f"line {lead + line}: {fault}")


@pytest.mark.parametrize("at", [33, 70])
def test_a_fault_in_a_later_batch_names_its_own_line(tmp_path, at):
    lines = [_line(i) for i in range(70)]
    lines[at - 1] = _line(at - 1, citations_total=-1)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    found = outcome(parse_corpus, path)
    assert found == outcome(reference_parse, path)
    assert found == ("error", f"line {at}: publication P{at - 1:03d}: negative citation count")


def decoded_texts(monkeypatch) -> list[str]:
    """The texts the corpus reader hands to ``_json_line``, from now on."""
    texts, json_line = [], corpus_module._json_line

    def recording(text):
        texts.append(text)
        return json_line(text)

    monkeypatch.setattr(corpus_module, "_json_line", recording)
    return texts


def test_a_valid_file_is_read_in_batches_alone(tmp_path, monkeypatch):
    # leading whitespace, CRLF line ends, blank lines and no final newline, over three batches
    lines = ["  " + _line(i) if i % 3 else "\t" + _line(i) for i in range(69)]
    lines.append(_line(69, pub_year=2006))
    lines[40:40] = ["", "  "]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    expected = reference_parse(path)
    texts = decoded_texts(monkeypatch)
    assert parse_corpus(path) == expected and len(expected) == 70
    assert len(texts) == 3 and all(text.startswith("[") for text in texts)
    # a span fault after the read names the line the batch read it from, blank lines counted
    with pytest.raises(ValidationError, match="^line 72: publication P069: pub_year 2006 "):
        parse_corpus(path, census_year=2005)


def test_a_fault_rereads_only_its_own_batch_line_by_line(tmp_path, monkeypatch):
    lines = [_line(i) for i in range(100)]
    lines[69] = _line(69, citations_total=-1)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    texts = decoded_texts(monkeypatch)
    with pytest.raises(ValidationError,
                       match="^line 70: publication P069: negative citation count$"):
        parse_corpus(path)
    # lines 1-64 in two batches; the third fails, and only its lines 65-70 are read again
    assert texts[:3] == ["[" + ",".join(line + "\n" for line in lines[i:i + 32]) + "]"
                         for i in (0, 32, 64)]
    assert texts[3:] == [line + "\n" for line in lines[64:70]]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_a_stream_that_cannot_rewind_names_a_fault_in_a_later_batch(tmp_path):
    lines = [_line(i) for i in range(40)]
    lines[35] = _line(35, citations_total=-1)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("\n".join(lines) + "\n",),
                              daemon=True)
    writer.start()
    with pytest.raises(ValidationError,
                       match="^line 36: publication P035: negative citation count$"):
        parse_corpus(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()


# --- by-year counts: a read-only view ----------------------------------------

def test_by_year_counts_cannot_be_changed_after_the_checks():
    pub = make_pub("a", year=2000, citations=3, by_year={2000: 1, 2001: 3})
    with pytest.raises(TypeError):
        pub.citations_by_year[2000] = -7
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'counts'"):
        pub.citations_by_year.counts = (-7, 3)
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'years'"):
        del pub.citations_by_year.years
    assert pub.citations_by_year == {2000: 1, 2001: 3}


def test_changing_the_callers_mapping_changes_nothing_reported():
    counts = {2000: 1, 2001: 3}
    pubs = [make_pub("a", field="f", year=2000, citations=3, by_year=counts),
            make_pub("b", field="f", year=2000, citations=5, by_year={2000: 2, 2001: 5})]
    counts[2000] = 3  # before, the publication kept this dict, so every report below changed
    assert Corpus(pubs[:1], census_year=2001, first_year=2000).by_year == ((1, 3),)
    assert trajectory(pubs, "f", 2000).means == ((2000, 1.5), (2001, 4.0))
    assert age_correlation_matrix(pubs).entries[0][1] == 1.0


def test_by_year_view_is_a_plain_mapping():
    counts = {2010: 3, 2009: 1}
    pub = make_pub("P1", year=2009, citations=3, by_year=counts)
    view = pub.citations_by_year
    assert isinstance(view, Mapping) and type(view) is CitationsByYear
    assert view == counts and counts == view and not view != counts
    assert view != {2009: 1} and {2009: 1, 2010: 4} != view and view != [2009, 2010]
    assert type(dict(view)) is dict and dict(view) == counts
    # ascending years, whatever the order of the mapping given
    assert list(view) == [2009, 2010] and list(view.items()) == [(2009, 1), (2010, 3)]
    assert repr(view) == "{2009: 1, 2010: 3}"
    assert repr(pub) == ("Publication(id='P1', unit_ids=('u1',), field_ids=('f1',), "
                         "pub_year=2009, doc_type='article', citations_total=3, "
                         "citations_by_year={2009: 1, 2010: 3})")
    with pytest.raises(TypeError):
        hash(view)
    for key in (2008, 2011, "2009", None, (2009,), [2009]):
        with pytest.raises(KeyError):
            view[key]
        assert key not in view and view.get(key) is None
    assert view[2010] == 3 and 2009 in view and len(view) == 2


@pytest.mark.parametrize("source", ["built", "materialized"])
def test_publications_with_by_year_views_pickle_copy_and_replace(source):
    pub = make_pub("P1", year=2009, citations=3, by_year={2009: 1, 2010: 3})
    if source == "materialized":
        pub = make_corpus([pub]).publications[0]
    clones = [pickle.loads(pickle.dumps(pub)), copy.copy(pub), copy.deepcopy(pub),
              dataclasses.replace(pub)]
    for clone in clones:
        assert clone == pub and repr(clone) == repr(pub)
        assert type(clone.citations_by_year) is CitationsByYear
    assert pickle.loads(pickle.dumps(pub.citations_by_year)) == {2009: 1, 2010: 3}
    later = dataclasses.replace(pub, pub_year=2010, citations_by_year={2010: 3})
    assert later.citations_by_year == {2010: 3} and pub.citations_by_year[2009] == 1


def test_a_materialized_view_shares_its_corpus_row():
    pubs = [make_pub("P1", year=2009, citations=3, by_year={2009: 1, 2010: 3}),
            make_pub("P2", year=2009, citations=0, by_year={2010: 0, 2009: 0}),
            make_pub("P3", citations=2)]
    corpus = make_corpus(pubs)
    built = corpus.publications
    assert built == tuple(pubs) and tuple(pubs) == built
    assert corpus.by_year[0] is pubs[0].citations_by_year.counts  # the checked row, not a copy
    assert built[0].citations_by_year.counts is corpus.by_year[0]
    assert built[1].citations_by_year.counts is corpus.by_year[1]
    assert built[0].citations_by_year.years is built[1].citations_by_year.years  # one per year
    assert built[2].citations_by_year is None


def test_materialized_publications_keep_at_most_200_bytes_each():
    corpus = generate_corpus(config_from_dict({
        "fields": [{"field_id": "f1", "rate": 2.0}, {"field_id": "f2", "rate": 0.5}],
        "units": [{"unit_id": "u1", "quality": 1.0, "n_pubs": 10_000}],
        "first_year": 1999, "census_year": 2008, "seed": 5}))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pubs = corpus.publications
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a dict per publication kept about 383 bytes each; the view shares the corpus's row
    assert len(pubs) == 10_000 and kept / len(pubs) <= 200
