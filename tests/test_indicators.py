"""Indicator arithmetic, ranking, exclusion bookkeeping, and algebraic laws."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from citnorm.baseline import BaselineCell, BaselineTable, compute_baselines
from citnorm.corpus import parse_corpus, select_unit, write_corpus
from citnorm.errors import ValidationError
from citnorm.indicators import (
    ScoredPublication,
    UnitScore,
    cpp_fcsm,
    find_cpp_fcsm_consistency_counterexample,
    mncs,
    normalized_score,
    rank_units,
    read_scores,
    score_publication,
    score_unit,
    score_units,
    write_scores,
)

from conftest import GOLDEN_CENSUS, GOLDEN_GROUP_ROWS, make_corpus, make_pub


def sp(pid, c, e, year=2005):
    return ScoredPublication(id=pid, pub_year=year, c=c, e=e)


class TestNormalizedScore:
    def test_high_ratio_row(self):
        assert normalized_score(21, 3.57) == pytest.approx(5.882, abs=5e-4)

    def test_rounded_expected_count_interval(self):
        # e is printed to 2 decimals, so the recomputed ratio must fall in the
        # interval implied by e in [1.515, 1.525]; the published 10.55 does too.
        value = normalized_score(16, 1.52)
        assert 16 / 1.525 <= value <= 16 / 1.515
        assert value == pytest.approx(10.526, abs=5e-4)

    def test_zero_expected_is_undefined(self):
        assert normalized_score(0, 0.0) is None

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            normalized_score(-1, 1.0)
        with pytest.raises(ValidationError):
            normalized_score(1, -0.5)


class TestCppFcsm:
    def test_golden_group(self, golden_scored):
        assert cpp_fcsm(golden_scored) == pytest.approx(88 / 51.17, abs=1e-9)
        assert cpp_fcsm(golden_scored) == pytest.approx(1.7198, abs=0.01)

    def test_actual_equal_expected_gives_one(self):
        pubs = [sp("a", 3, 3.0), sp("b", 7, 7.0)]
        assert cpp_fcsm(pubs) == 1.0

    def test_single_publication_collapses(self):
        pubs = [sp("a", 10, 5.0)]
        assert cpp_fcsm(pubs) == 2.0
        assert mncs(pubs, census_year=2010, exclude_recent=False).value == 2.0

    def test_zero_e_terms_stay_in_denominator_sum(self):
        pubs = [sp("a", 4, 2.0), sp("b", 3, 0.0)]
        assert cpp_fcsm(pubs) == 7 / 2.0

    def test_all_zero_e_is_undefined(self):
        assert cpp_fcsm([sp("a", 4, 0.0)]) is None

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            cpp_fcsm([])


class TestMncs:
    def test_golden_group_both_variants(self, golden_scored):
        ratio_sum = sum(c / e for _, c, e, _ in GOLDEN_GROUP_ROWS if e > 0)
        m1 = mncs(golden_scored, GOLDEN_CENSUS, exclude_recent=False)
        assert m1.value == pytest.approx(ratio_sum / 15, abs=1e-12)
        assert m1.value == pytest.approx(3.08, abs=0.02)
        assert m1.n_used == 15

        m2 = mncs(golden_scored, GOLDEN_CENSUS, exclude_recent=True)
        assert m2.value == pytest.approx(ratio_sum / 14, abs=1e-12)
        assert m2.value == pytest.approx(3.30, abs=0.02)
        assert m2.n_used == 14  # the census-year publication is dropped

    def test_constant_ratios(self):
        pubs = [sp(f"p{i}", 6, 2.0, year=2000 + i) for i in range(4)]
        assert mncs(pubs, 2010, exclude_recent=False).value == 3.0
        assert mncs(pubs, 2010, exclude_recent=True).value == 3.0

    def test_zero_e_excluded_and_tallied(self):
        pubs = [sp("a", 2, 1.0), sp("b", 5, 0.0)]
        result = mncs(pubs, 2010, exclude_recent=False)
        assert result.value == 2.0
        assert result.n_used == 1
        assert result.n_excluded_zero_e == 1

    def test_all_excluded_is_undefined(self):
        pubs = [sp("a", 5, 0.0)]
        result = mncs(pubs, 2010, exclude_recent=False)
        assert result.value is None and result.n_used == 0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mncs([], 2010, exclude_recent=False)


def golden_corpus_and_table():
    """The golden group as a corpus plus a hand-built baseline table.

    Each row gets a synthetic field per distinct (expected count, year) pair
    so that the baseline lookup reproduces the published expected counts.
    """
    pubs = []
    cells = {}
    for i, (year, c, e, _score) in enumerate(GOLDEN_GROUP_ROWS):
        fid = f"f_{e:.2f}"
        cells[(fid, year)] = BaselineCell(mean_citations=e, cell_size=100)
        pubs.append(make_pub(f"p{i:02d}", field=fid, year=year, citations=c, units=("A",)))
    corpus = make_corpus(pubs, census_year=GOLDEN_CENSUS)
    return corpus, BaselineTable(cells)


class TestScoreUnit:
    def test_golden_group_bundle(self):
        corpus, table = golden_corpus_and_table()
        score = score_unit(corpus, table, "A")
        assert score.n_total == 15
        assert score.n_mncs2 == 14
        assert score.n_excluded_zero_e == 0
        assert score.cpp_fcsm == pytest.approx(1.72, abs=0.01)
        assert score.mncs1 == pytest.approx(3.08, abs=0.02)
        assert score.mncs2 == pytest.approx(3.30, abs=0.02)
        assert score.mncs2 > score.cpp_fcsm

    def test_only_zero_e_publication(self):
        corpus = make_corpus([make_pub("P1", field="F", year=2005, citations=0, units=("U",))])
        table = BaselineTable({("F", 2005): BaselineCell(0.0, 1)})
        score = score_unit(corpus, table, "U")
        assert score.mncs1 is None and score.mncs2 is None
        assert score.n_excluded_zero_e == 1

    def test_whole_single_field_corpus_scores_one(self):
        rng = random.Random(11)
        pubs = [
            make_pub(f"p{i:03d}", field=rng.choice(["F", "G"]),
                     year=rng.randint(2001, 2008),
                     citations=rng.randint(1, 30), units=("all",))
            for i in range(400)
        ]
        corpus = make_corpus(pubs, census_year=2008)
        table = compute_baselines(corpus)
        score = score_unit(corpus, table, "all")
        assert score.cpp_fcsm == pytest.approx(1.0, abs=1e-9)
        assert score.mncs1 == pytest.approx(1.0, abs=1e-9)

    def test_unknown_unit_rejected(self):
        corpus, table = golden_corpus_and_table()
        with pytest.raises(ValidationError, match="no publications"):
            score_unit(corpus, table, "nope")

    def test_first_absent_unit_in_sorted_order_is_named(self):
        corpus, table = golden_corpus_and_table()
        with pytest.raises(ValidationError, match=r"^unit 'nope' has no publications$"):
            score_units(corpus, table, ["zzz", "A", "nope"])

    def test_score_units_all(self):
        corpus, table = golden_corpus_and_table()
        scores = score_units(corpus, table)
        assert [s.unit_id for s in scores] == ["A"]

    def test_unit_listed_twice_counts_once(self):
        corpus = make_corpus([
            make_pub("P1", field="F", year=2005, citations=4, units=("A", "A")),
            make_pub("P2", field="F", year=2005, citations=2, units=("B",)),
        ])
        table = compute_baselines(corpus)
        score = score_unit(corpus, table, "A")
        assert (score.n_total, score.n_mncs2) == (1, 1)
        assert score.mncs1 == 4 / 3
        assert score_units(corpus, table, ["A", "A"]) == [score]

    def test_repeated_unit_id_is_written_back_and_counted_once(self, tmp_path):
        lines = [
            '{"id":"P1","unit_ids":["A","A"],"field_ids":["F"],"pub_year":2005,'
            '"doc_type":"article","citations_total":4}',
            '{"id":"P2","unit_ids":["A","B","A"],"field_ids":["F"],"pub_year":2008,'
            '"doc_type":"article","citations_total":3,'
            '"citations_by_year":{"2008":0,"2009":1,"2010":3}}',
            '{"id":"P3","unit_ids":["B"],"field_ids":["F"],"pub_year":2005,'
            '"doc_type":"article","citations_total":2}',
        ]
        path, again = tmp_path / "corpus.jsonl", tmp_path / "again.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        parsed = parse_corpus(path, census_year=2010)
        write_corpus(parsed, again)
        assert again.read_bytes() == path.read_bytes()
        built = make_corpus([
            make_pub("P1", field="F", year=2005, citations=4, units=("A", "A")),
            make_pub("P2", field="F", year=2008, citations=3, units=("A", "B", "A"),
                     by_year={2008: 0, 2009: 1, 2010: 3}),
            make_pub("P3", field="F", year=2005, citations=2, units=("B",)),
        ])
        assert parsed == built
        for corpus in (parsed, built):
            table = compute_baselines(corpus)
            a, b = score_units(corpus, table)
            assert (a.unit_id, a.n_total, b.unit_id, b.n_total) == ("A", 2, "B", 2)
            assert a.mncs1 == (4 / 3 + 3 / 3) / 2
            assert a.cpp_fcsm == 7 / (3 + 3)

    def test_subset_needs_only_its_own_cells(self):
        corpus = make_corpus([
            make_pub("P1", field="F", year=2005, citations=4, units=("A",)),
            make_pub("P2", field="G", year=2006, citations=2, units=("B",)),
            make_pub("P3", field="G", year=2006, citations=1, units=()),
        ])
        partial = BaselineTable({("F", 2005): BaselineCell(2.0, 7)})
        [score] = score_units(corpus, partial, ["A"])
        assert (score.unit_id, score.n_total, score.cpp_fcsm) == ("A", 1, 2.0)
        with pytest.raises(ValidationError, match="no baseline cell for field 'G'"):
            score_units(corpus, partial)


def us(uid, cpp=None, m1=None, m2=None, n=10, n2=9):
    return UnitScore(unit_id=uid, n_total=n, n_mncs2=n2, n_excluded_zero_e=0,
                     cpp_fcsm=cpp, mncs1=m1, mncs2=m2)


class TestRankUnits:
    def test_descending_with_id_tiebreak(self):
        scores = [us("A", cpp=1.5), us("B", cpp=2.0), us("C", cpp=1.5)]
        ranked = rank_units(scores, by="cpp_fcsm", top=10)
        assert [s.unit_id for s in ranked] == ["B", "A", "C"]

    def test_truncation(self):
        scores = [us("A", cpp=1.5), us("B", cpp=2.0), us("C", cpp=1.5)]
        assert [s.unit_id for s in rank_units(scores, "cpp_fcsm", 1)] == ["B"]

    def test_undefined_sorts_last(self):
        scores = [us("A", cpp=None), us("B", cpp=2.0), us("C", cpp=1.5)]
        ranked = rank_units(scores, by="cpp_fcsm", top=3)
        assert [s.unit_id for s in ranked] == ["B", "C", "A"]

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValidationError, match="unknown indicator"):
            rank_units([us("A", cpp=1.0)], by="h_index", top=1)

    def test_negative_top_rejected(self):
        # before, max(top, 0) turned -1 into an empty ranking
        with pytest.raises(ValidationError, match="^top must be >= 0$"):
            rank_units([us("A", cpp=1.0)], by="cpp_fcsm", top=-1)
        assert rank_units([us("A", cpp=1.0)], by="cpp_fcsm", top=0) == []


class TestConsistencyCounterexample:
    def test_witness_found_and_arithmetically_verified(self):
        witness = find_cpp_fcsm_consistency_counterexample(10)
        assert witness is not None
        (c_a, e_a), (c_b, e_b) = witness.unit_a, witness.unit_b
        c_x, e_x = witness.added
        before_a = cpp_fcsm([sp("a", c_a, e_a)])
        before_b = cpp_fcsm([sp("b", c_b, e_b)])
        after_a = cpp_fcsm([sp("a", c_a, e_a), sp("x", c_x, e_x)])
        after_b = cpp_fcsm([sp("b", c_b, e_b), sp("x", c_x, e_x)])
        assert before_a > before_b
        assert after_a < after_b
        assert witness.before == (before_a, before_b)
        assert witness.after == (after_a, after_b)

    def test_documented_reversal_instance(self):
        # A={(2,1)} scores 2.0 over B={(10,6)} at 1.667; adding (0,10) to both
        # flips the CPP/FCSm order: 2/11 = 0.182 against 10/16 = 0.625.
        assert cpp_fcsm([sp("a", 2, 1.0)]) > cpp_fcsm([sp("b", 10, 6.0)])
        assert (cpp_fcsm([sp("a", 2, 1.0), sp("x", 0, 10.0)])
                < cpp_fcsm([sp("b", 10, 6.0), sp("x", 0, 10.0)]))

    def test_zero_bound_gives_none(self):
        assert find_cpp_fcsm_consistency_counterexample(0) is None

    def test_mncs_equal_size_order_preserved_randomized(self):
        rng = random.Random(99)
        for _ in range(2000):
            n = rng.randint(1, 30)
            a = [sp(f"a{i}", rng.randint(0, 40), rng.uniform(0.1, 20)) for i in range(n)]
            b = [sp(f"b{i}", rng.randint(0, 40), rng.uniform(0.1, 20)) for i in range(n)]
            extra_c, extra_e = rng.randint(0, 40), rng.uniform(0.1, 20)
            before_a = mncs(a, 2010, False).value
            before_b = mncs(b, 2010, False).value
            after_a = mncs(a + [sp("x", extra_c, extra_e)], 2010, False).value
            after_b = mncs(b + [sp("x", extra_c, extra_e)], 2010, False).value
            if before_a > before_b:
                assert after_a > after_b
            elif before_a < before_b:
                assert after_a < after_b


class TestRecencyOutlier:
    """One extreme census-year publication joins a large stable unit."""

    CENSUS = 2008
    N = 10_000
    MU = 1.0  # every base ratio is exactly 1
    OUTLIER_C, OUTLIER_E = 3500, 0.5  # ratio exactly 7000

    def build(self):
        base = [sp(f"{i:06d}", 8, 8.0, year=2004) for i in range(self.N)]
        outlier = sp("zzz_outlier", self.OUTLIER_C, self.OUTLIER_E, year=self.CENSUS)
        return base, outlier

    def test_mncs2_bit_unchanged(self):
        base, outlier = self.build()
        before = mncs(base, self.CENSUS, exclude_recent=True).value
        after = mncs(base + [outlier], self.CENSUS, exclude_recent=True).value
        assert after == before

    def test_mncs1_shift_is_exact(self):
        base, outlier = self.build()
        before = mncs(base, self.CENSUS, exclude_recent=False).value
        after = mncs(base + [outlier], self.CENSUS, exclude_recent=False).value
        assert before == self.MU
        ratio = self.OUTLIER_C / self.OUTLIER_E
        exact = Fraction(self.MU) + (Fraction(ratio) - Fraction(self.MU)) / (self.N + 1)
        assert after == float(exact)  # correctly rounded mu + (r - mu)/(n + 1)

    def test_cpp_shift_smaller_when_added_e_below_mean(self):
        base, outlier = self.build()
        cpp_before = cpp_fcsm(base)
        cpp_after = cpp_fcsm(base + [outlier])
        m1_before = mncs(base, self.CENSUS, False).value
        m1_after = mncs(base + [outlier], self.CENSUS, False).value
        assert self.OUTLIER_E < 8.0  # below the unit's mean expected count
        assert abs(cpp_after - cpp_before) < abs(m1_after - m1_before)


finite_e = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


@st.composite
def scored_units(draw, min_size=1, max_size=60):
    n = draw(st.integers(min_size, max_size))
    return [
        sp(f"p{i:03d}", draw(st.integers(0, 200)), draw(finite_e),
           year=draw(st.integers(2000, 2008)))
        for i in range(n)
    ]


@given(scored_units())
@settings(max_examples=80)
def test_weighting_identity(pubs):
    # CPP/FCSm is the expected-count-weighted mean of the ratios.
    total_e = sum(p.e for p in pubs)
    weighted = sum((p.e / total_e) * (p.c / p.e) for p in pubs)
    value = cpp_fcsm(pubs)
    assert value == pytest.approx(weighted, rel=1e-12, abs=1e-12)


@given(st.integers(0, 100), finite_e)
def test_single_publication_collapse(c, e):
    pubs = [sp("only", c, e)]
    assert cpp_fcsm(pubs) == mncs(pubs, 2010, False).value == c / e


@given(scored_units(), scored_units())
@settings(max_examples=60)
def test_merge_laws(a, b):
    b = [sp("q" + p.id, p.c, p.e, p.pub_year) for p in b]  # disjoint ids
    merged = a + b
    n_a, n_b = len(a), len(b)
    m_a = mncs(a, 2010, False).value
    m_b = mncs(b, 2010, False).value
    m_ab = mncs(merged, 2010, False).value
    assert m_ab == pytest.approx((n_a * m_a + n_b * m_b) / (n_a + n_b), rel=1e-12)
    c_a, e_a = sum(p.c for p in a), sum(p.e for p in a)
    c_b, e_b = sum(p.c for p in b), sum(p.e for p in b)
    assert cpp_fcsm(merged) == pytest.approx((c_a + c_b) / (e_a + e_b), rel=1e-12)


@given(st.integers(2, 7))
@settings(max_examples=20)
def test_global_scale_invariance(k):
    rng = random.Random(k)
    pubs = [
        make_pub(f"p{i:03d}", field=rng.choice(["F", "G", "H"]),
                 year=rng.randint(2001, 2008), citations=rng.randint(0, 25),
                 units=("U1" if i % 2 else "U2",))
        for i in range(120)
    ]
    scaled = [
        make_pub(p.id, fields=p.field_ids, year=p.pub_year,
                 citations=k * p.citations_total, units=p.unit_ids)
        for p in pubs
    ]
    corpus = make_corpus(pubs, census_year=2008)
    corpus_k = make_corpus(scaled, census_year=2008)
    table, table_k = compute_baselines(corpus), compute_baselines(corpus_k)
    for uid in ("U1", "U2"):
        one = score_unit(corpus, table, uid)
        other = score_unit(corpus_k, table_k, uid)
        for name in ("cpp_fcsm", "mncs1", "mncs2"):
            assert getattr(other, name) == pytest.approx(getattr(one, name), rel=1e-12)


def reference_scores(corpus, table, unit_ids):
    """Per-unit scoring through select_unit: one corpus scan per unit."""
    scores = []
    for uid in sorted(set(unit_ids)):
        pubs = select_unit(corpus, uid)
        scored = [score_publication(pub, table) for pub in pubs]
        m1 = mncs(scored, corpus.census_year, exclude_recent=False)
        m2 = mncs(scored, corpus.census_year, exclude_recent=True)
        scores.append(UnitScore(
            unit_id=uid,
            n_total=len(pubs),
            n_mncs2=sum(1 for pub in pubs if pub.pub_year <= corpus.census_year - 1),
            n_excluded_zero_e=m1.n_excluded_zero_e,
            cpp_fcsm=cpp_fcsm(scored),
            mncs1=m1.value,
            mncs2=m2.value,
        ))
    return scores


@st.composite
def mixed_corpora(draw):
    """Multi-unit, multi-field and unit-less publications, zero-citation
    cells (e = 0) and census-year publications, in shuffled id order."""
    n = draw(st.integers(1, 40))
    numbers = draw(st.permutations(range(n)))
    pubs = [
        make_pub(
            f"p{k}",
            units=tuple(draw(st.lists(st.sampled_from(["u0", "u1", "u2", "u3", "u4"]),
                                      max_size=3))),
            fields=tuple(draw(st.lists(st.sampled_from(["F", "G", "H"]),
                                       min_size=1, max_size=3, unique=True))),
            year=draw(st.integers(2007, 2010)),
            citations=draw(st.sampled_from([0, 0, 0, 1, 2, 7, 30])),
        )
        for k in numbers
    ]
    return make_corpus(pubs, census_year=2010)


@given(mixed_corpora(), st.data())
@settings(max_examples=100, deadline=None)
def test_score_units_equals_per_unit_scan(corpus, data):
    table = compute_baselines(corpus)
    all_ids = sorted(set(chain.from_iterable(corpus.units)))
    assert score_units(corpus, table) == reference_scores(corpus, table, all_ids)
    if all_ids:
        subset = data.draw(st.lists(st.sampled_from(all_ids), max_size=8))
        assert score_units(corpus, table, subset) == reference_scores(corpus, table, subset)


# defined indicator values, among them ones that need all 17 significant digits to read back
defined_values = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from([1 / 3, 0.1 + 0.2, 5e-324, 1.7976931348623157e308]))
# the scores score_units can give: none when every publication has e = 0; else cpp_fcsm and
# mncs1, and mncs2 where a publication with a full citation year has e > 0
unit_values = st.one_of(st.just((None, None, None)),
                        st.tuples(defined_values, defined_values,
                                  st.one_of(st.none(), defined_values)))


@given(st.lists(unit_values, max_size=6))
@settings(max_examples=200)
def test_scores_csv_round_trip(tmp_path_factory, values):
    scores = [UnitScore(f"u{i}", 10, 9, 10 if cpp is None else 0, cpp, m1, m2)
              for i, (cpp, m1, m2) in enumerate(values)]
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    write_scores(scores, path)
    assert path.read_text().splitlines()[0] == (
        "unit_id,n_total,n_mncs2,n_excluded_zero_e,cpp_fcsm,mncs1,mncs2")
    assert read_scores(path) == scores


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_read_scores_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "scores.csv"
    path.write_text(
        "unit_id,n_total,n_mncs2,n_excluded_zero_e,cpp_fcsm,mncs1,mncs2\n"
        "alpha,12,10,0,1.5000,2.2500,NA\n"
        f"beta,3,3,0,{value},0.5000,0.5000\n"
    )
    with pytest.raises(ValidationError, match="^scores CSV row 3: malformed values$"):
        read_scores(path)


@pytest.mark.parametrize("row", [
    "beta,1_0,3,0,1.0000,0.5000,0.5000",  # '_' in an integer
    "beta,+5,3,0,1.0000,0.5000,0.5000",  # a sign on an integer
    "beta,5,3, 0,1.0000,0.5000,0.5000",  # whitespace around an integer
    "beta,５,3,0,1.0000,0.5000,0.5000",  # non-ASCII digits
    "beta,05,3,0,1.0000,0.5000,0.5000",  # a padded integer
    "beta,5,3,0,1_0.5,0.5000,0.5000",  # '_' in a real
    "beta,5,3,0,1.0000, 0.5,0.5000",  # whitespace around a real
    "beta,5,3,0,1.0000,0.5000,０.5",  # non-ASCII digits in a real
])
def test_read_scores_rejects_coerced_numerals(tmp_path, row):
    path = tmp_path / "scores.csv"
    path.write_text(
        "unit_id,n_total,n_mncs2,n_excluded_zero_e,cpp_fcsm,mncs1,mncs2\n"
        "alpha,12,10,0,1.5000,2.2500,NA\n"
        f"{row}\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="^scores CSV row 3: malformed values$"):
        read_scores(path)


expected_counts = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=2.0 ** 53 - 1))


@given(st.lists(st.tuples(st.integers(0, 2 ** 53 - 1), expected_counts), min_size=1, max_size=30))
@settings(max_examples=200)
def test_sums_are_correctly_rounded(pairs):
    # the exact sums, rounded once: no order of the terms can change them
    pubs = [sp(f"p{i:03d}", c, e) for i, (c, e) in enumerate(pairs)]
    cs, es = [c for c, _ in pairs], [e for _, e in pairs]
    total_e = float(sum(map(Fraction, es)))
    assert cpp_fcsm(pubs) == (None if total_e == 0 else sum(cs) / total_e)
    ratios = [c / e for c, e in pairs if e != 0]
    value = mncs(pubs, 2010, False).value
    assert value == (float(sum(map(Fraction, ratios))) / len(ratios) if ratios else None)


SCORES_HEADER = "unit_id,n_total,n_mncs2,n_excluded_zero_e,cpp_fcsm,mncs1,mncs2\n"


@pytest.mark.parametrize("rows, message", [
    (["alpha,3,3,0,1.0000,1.0000,1.0000", ",3,3,0,1.0000,1.0000,1.0000"],
     "scores CSV row 3: empty unit id"),
    (["u1,3,3,0,1.0000,1.0000,1.0000", "u1,3,3,0,1.0000,1.0000,1.0000"],
     "scores CSV row 3: duplicate unit u1"),
    (["u1,-3,-7,9,1.0000,1.0000,1.0000"], "scores CSV row 2: invalid counts"),
    (["u1,0,0,0,1.0000,1.0000,1.0000"], "scores CSV row 2: invalid counts"),
    (["u1,3,4,0,1.0000,1.0000,1.0000"], "scores CSV row 2: invalid counts"),
    (["u1,3,-1,0,1.0000,1.0000,1.0000"], "scores CSV row 2: invalid counts"),
    (["u1,3,3,4,1.0000,1.0000,1.0000"], "scores CSV row 2: invalid counts"),
    (["u1,3,3,-1,1.0000,1.0000,1.0000"], "scores CSV row 2: invalid counts"),
    (["u1,2,0,0,-1.5,NA,3.0"], "scores CSV row 2: invalid values"),
    (["u1,3,3,0,1.0,-0.5,1.0"], "scores CSV row 2: invalid values"),
    (["u1,3,3,0,1.0,1.0,-5e-324"], "scores CSV row 2: invalid values"),
    (["u1,3,0,0,1.0,1.0,1.0"], "scores CSV row 2: invalid values"),
    (["u2,2,2,2,1.0000,NA,NA"], "scores CSV row 2: invalid values"),
    (["u1,2,2,2,NA,1.0000,NA"], "scores CSV row 2: invalid values"),
    (["u1,2,2,2,NA,NA,1.0000"], "scores CSV row 2: invalid values"),
    (["u1,2,2,1,NA,1.0000,1.0000"], "scores CSV row 2: invalid values"),
    (["u1,2,2,1,1.0000,NA,1.0000"], "scores CSV row 2: invalid values"),
    (["u1,2,2,0,NA,NA,NA"], "scores CSV row 2: invalid values"),
], ids=["empty-unit", "duplicate-unit", "all-counts", "n_total-0", "n_mncs2-above",
        "n_mncs2-negative", "excluded-above", "excluded-negative", "negative-and-mncs2-over-none",
        "negative-mncs1", "negative-mncs2", "mncs2-over-none", "cpp-with-no-e",
        "mncs1-with-no-e", "mncs2-with-no-e", "cpp-na-with-some-e", "mncs1-na-with-some-e",
        "all-na-with-some-e"])
def test_read_scores_rejects_rows_write_scores_never_writes(tmp_path, rows, message):
    path = tmp_path / "scores.csv"
    path.write_text(SCORES_HEADER + "".join(row + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        read_scores(path)


def test_read_scores_accepts_counts_at_their_bounds(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(SCORES_HEADER + "u1,1,0,1,NA,NA,NA\nu2,2,2,2,NA,NA,NA\n",
                    encoding="utf-8")
    assert [(s.n_total, s.n_mncs2, s.n_excluded_zero_e) for s in read_scores(path)] == [
        (1, 0, 1), (2, 2, 2)]


def test_score_units_rejects_a_string_of_unit_ids():
    corpus = make_corpus([make_pub("P1", units=("a",)), make_pub("P2", units=("b",))])
    with pytest.raises(ValidationError,
                       match="^unit_ids must be a collection of unit ids, not a string$"):
        score_units(corpus, compute_baselines(corpus), "ab")
