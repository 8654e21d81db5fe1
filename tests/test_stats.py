"""Correlations, age matrices, trajectories, and their oracles."""
from __future__ import annotations

import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from citnorm.corpus import Corpus, select_cohort
from citnorm.errors import ValidationError
from citnorm.stats import (
    age_correlation_matrix,
    average_ranks,
    correlate_indicators,
    pearson,
    spearman,
    trajectory,
    write_age_matrix,
    write_correlation_report,
    write_trajectory,
)
from citnorm.indicators import UnitScore

from conftest import make_corpus, make_pub


# --- independent oracles -------------------------------------------------

def pearson_oracle(x, y):
    """Raw-moment formula, algebraically distinct from the implementation.

    Exact (up to the final sqrt/divide) on small-integer inputs, which is how
    the property tests below use it.
    """
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    syy = sum(v * v for v in y)
    sxy = sum(a * b for a, b in zip(x, y))
    denom = math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    if denom == 0:
        return None
    return max(-1.0, min(1.0, (n * sxy - sx * sy) / denom))


def ranks_oracle(values):
    """O(n^2) average ranks: count below, then split the ties evenly."""
    out = []
    for v in values:
        below = sum(1 for w in values if w < v)
        ties = sum(1 for w in values if w == v)
        out.append(below + (ties + 1) / 2)
    return out


def spearman_oracle(x, y):
    return pearson_oracle(ranks_oracle(x), ranks_oracle(y))


# --- pearson / spearman ---------------------------------------------------

class TestPearson:
    def test_exact_positive_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_exact_negative_linear(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == -1.0

    def test_partial_relation(self):
        # cov-sum 4.0 against variance-sums of 5.0 each
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValidationError, match="two observations"):
            pearson([1], [2])

    def test_constant_vector_undefined(self):
        assert pearson([5, 5, 5], [1, 2, 3]) is None
        assert pearson([0.1, 0.1, 0.1], [1, 2, 3]) is None

    @pytest.mark.parametrize("correlate", [pearson, spearman])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, correlate, bad):
        for x, y in (([bad, bad, bad], [1, 2, 3]), ([1, 2, 3], [1, bad, 3])):
            with pytest.raises(ValidationError, match="non-finite"):
                correlate(x, y)

    def test_pearson_rejects_an_integer_beyond_float_range(self):
        with pytest.raises(ValidationError, match="^cannot correlate values beyond float range$"):
            pearson([10 ** 400, 1, 2], [1, 2, 3])

    def test_spearman_rejects_an_integer_beyond_float_range(self):
        with pytest.raises(ValidationError, match="^cannot correlate values beyond float range$"):
            spearman([1, 2, 3], [3, -10 ** 400, 1])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes_keep_their_value(self, scale):
        x = [1 * scale, 2 * scale, 3 * scale]
        y = [3 * scale, 1 * scale, 2 * scale]
        assert pearson(x, y) == pytest.approx(-0.5, abs=1e-12)

    def test_largest_finite_values_give_finite_r(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = pearson([1.7e308, -1.7e308, 1.0, 1.7e308], [1, 2, 3, 5])
        assert math.isfinite(r) and -1.0 <= r <= 1.0


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 4, 9], [2, 3, 50]) == 1.0

    def test_identical_tie_pattern(self):
        assert spearman([1, 2, 2, 3], [10, 20, 20, 40]) == 1.0

    def test_rank_valued_input(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_average_ranks(self):
        assert list(average_ranks([10, 20, 20, 40])) == [1.0, 2.5, 2.5, 4.0]

    def test_average_ranks_are_a_list_matching_the_oracle(self):
        values = [3.0, -0.0, 0.0, 7.5, 3.0, 3.0, -2.0]
        ranks = average_ranks(values)
        assert type(ranks) is list and ranks == ranks_oracle(values)


# Small-integer lattices keep both the inputs and the raw-moment oracle exact,
# while still exercising ties heavily.
paired_vectors = st.lists(
    st.tuples(st.integers(0, 9).map(float), st.integers(0, 9).map(float)),
    min_size=2,
    max_size=40,
).map(lambda pairs: ([a for a, _ in pairs], [b for _, b in pairs]))


@given(paired_vectors)
@settings(max_examples=150)
def test_matches_oracles(xy):
    x, y = xy
    r = pearson(x, y)
    expected = pearson_oracle(x, y)
    if len(set(x)) == 1 or len(set(y)) == 1:
        assert r is None
    else:
        assert r == pytest.approx(expected, rel=1e-12, abs=1e-12)
        rs = spearman(x, y)
        assert rs == pytest.approx(spearman_oracle(x, y), rel=1e-12, abs=1e-12)


@given(paired_vectors)
@settings(max_examples=100)
def test_symmetry_and_invariance(xy):
    x, y = xy
    r = pearson(x, y)
    assert pearson(y, x) == r
    rs = spearman(x, y)
    assert spearman(y, x) == rs
    if r is not None:
        shifted = [2.5 * v + 7 for v in x]  # positive affine map, exact here
        assert pearson(shifted, y) == pytest.approx(r, rel=1e-12, abs=1e-12)
    if rs is not None:
        monotone = [v ** 3 + 2 * v for v in x]  # strictly increasing
        assert spearman(monotone, y) == pytest.approx(rs, rel=1e-12, abs=1e-12)


@given(paired_vectors, st.integers(-900, 900))
@settings(max_examples=150)
def test_power_of_two_scaling_is_exact(xy, k):
    x, y = xy
    assert pearson([v * 2.0 ** k for v in x], y) == pearson(x, y)


# --- indicator cross-correlation ------------------------------------------

def us(uid, cpp, m1, m2, n=100, n2=95):
    return UnitScore(unit_id=uid, n_total=n, n_mncs2=n2, n_excluded_zero_e=0,
                     cpp_fcsm=cpp, mncs1=m1, mncs2=m2)


class TestCorrelateIndicators:
    def test_identical_scores_are_undefined(self):
        scores = [us("A", 1.0, 1.0, 1.0), us("B", 1.0, 1.0, 1.0)]
        report = correlate_indicators(scores)
        assert all(p.pearson is None and p.spearman is None for p in report.pairs)
        assert all(p.n == 2 for p in report.pairs)

    def test_two_collinear_units(self):
        scores = [us("A", 1.0, 2.0, 2.0), us("B", 2.0, 4.0, 4.0)]
        report = correlate_indicators(scores)
        assert report.pairs[0].pearson == 1.0

    def test_pairwise_deletion_and_n(self):
        scores = [
            us("A", 1.0, 2.0, None),
            us("B", 2.0, 3.0, 1.0),
            us("C", 3.0, None, 2.0),
            us("D", 4.0, 5.0, 4.0),
        ]
        report = correlate_indicators(scores)
        by_pair = {(p.label_x, p.label_y): p for p in report.pairs}
        assert by_pair[("cpp_fcsm", "mncs1")].n == 3
        assert by_pair[("cpp_fcsm", "mncs2")].n == 3
        assert by_pair[("mncs1", "mncs2")].n == 2

    def test_under_two_codefined_reports_undefined(self):
        scores = [us("A", 1.0, None, None), us("B", 2.0, 3.0, None)]
        report = correlate_indicators(scores)
        by_pair = {(p.label_x, p.label_y): p for p in report.pairs}
        pair = by_pair[("cpp_fcsm", "mncs1")]
        assert pair.n == 1 and pair.pearson is None
        assert by_pair[("mncs1", "mncs2")].n == 0

    def test_min_pubs_filter(self):
        scores = [us("A", 1.0, 2.0, 2.0, n=10), us("B", 2.0, 4.0, 4.0, n=200),
                  us("C", 3.0, 5.0, 5.0, n=300)]
        report = correlate_indicators(scores, min_pubs=100)
        assert all(p.n == 2 for p in report.pairs)

    def test_needs_two_units(self):
        with pytest.raises(ValidationError, match="two units"):
            correlate_indicators([us("A", 1.0, 1.0, 1.0)])

    def test_negative_min_pubs_rejected(self):
        scores = [us("A", 1.0, 2.0, 2.0), us("B", 2.0, 4.0, 4.0)]
        with pytest.raises(ValidationError, match="^min_pubs must be >= 0$"):
            correlate_indicators(scores, min_pubs=-4)

    def test_report_csv(self, tmp_path):
        scores = [us("A", 1.0, 2.0, 2.0), us("B", 2.0, 4.0, 4.0)]
        path = tmp_path / "corr.csv"
        write_correlation_report(correlate_indicators(scores), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label_x,label_y,pearson,spearman,n"
        assert lines[1] == "cpp_fcsm,mncs1,1.000000,1.000000,2"


# --- age correlation matrix -------------------------------------------------

def cohort_pub(pid, year, counts):
    by_year = dict(zip(range(year, year + len(counts)), counts))
    return make_pub(pid, year=year, citations=counts[-1], by_year=by_year)


class TestAgeCorrelationMatrix:
    def test_final_value_reached_in_year_one(self):
        pubs = [
            cohort_pub("a", 2000, [1, 1, 1]),
            cohort_pub("b", 2000, [4, 4, 4]),
            cohort_pub("c", 2000, [9, 9, 9]),
        ]
        matrix = age_correlation_matrix(pubs)
        assert matrix.years == (2000, 2001, 2002)
        for i in range(3):
            assert matrix.entries[i][i] is None  # blank diagonal
            for j in range(3):
                if i != j:
                    assert matrix.entries[i][j] == 1.0

    def test_two_publications_give_unit_magnitude(self):
        pubs = [cohort_pub("a", 2000, [0, 2, 3]), cohort_pub("b", 2000, [1, 2, 5])]
        matrix = age_correlation_matrix(pubs)
        for i in range(3):
            for j in range(3):
                if i != j and matrix.entries[i][j] is not None:
                    assert abs(matrix.entries[i][j]) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = random.Random(5)
        pubs = []
        for i in range(40):
            counts, running = [], 0
            for _ in range(6):
                running += rng.randint(0, 4)
                counts.append(running)
            pubs.append(cohort_pub(f"p{i:02d}", 2000, counts))
        matrix = age_correlation_matrix(pubs)
        n = len(matrix.years)
        for i in range(n):
            for j in range(n):
                assert matrix.entries[i][j] == matrix.entries[j][i]
                if matrix.entries[i][j] is not None:
                    assert abs(matrix.entries[i][j]) <= 1.0 + 1e-12

    def test_constant_early_year_is_undefined(self):
        pubs = [cohort_pub("a", 2000, [0, 1, 4]), cohort_pub("b", 2000, [0, 2, 3])]
        matrix = age_correlation_matrix(pubs)
        assert matrix.entries[0][1] is None  # nobody cited by year one
        assert matrix.entries[1][2] is not None

    def test_missing_history_rejected(self):
        pubs = [make_pub("a", year=2000, citations=3)]
        with pytest.raises(ValidationError, match="citations_by_year"):
            age_correlation_matrix(pubs)

    def test_single_publication_rejected(self):
        with pytest.raises(ValidationError, match="two observations"):
            age_correlation_matrix([cohort_pub("a", 2000, [0, 1, 4])])

    def test_mixed_pub_years_rejected(self):
        pubs = [cohort_pub("a", 2000, [1, 2, 3]), cohort_pub("b", 2001, [1, 2])]
        with pytest.raises(ValidationError, match="same publication year"):
            age_correlation_matrix(pubs)

    def test_no_publications_rejected(self):
        with pytest.raises(ValidationError, match="^no publications given$"):
            age_correlation_matrix([])

    def test_different_year_ranges_rejected(self):
        pubs = [cohort_pub("a", 2000, [1, 2, 3]), cohort_pub("b", 2000, [1, 2])]
        with pytest.raises(ValidationError, match="^publication b: citations_by_year must cover "
                                                  "every year from 2000 to 2002 with no gaps$"):
            age_correlation_matrix(pubs)

    def test_matrix_csv_layout(self, tmp_path):
        pubs = [cohort_pub("a", 2000, [0, 1, 4]), cohort_pub("b", 2000, [0, 2, 3])]
        path = tmp_path / "matrix.csv"
        write_age_matrix(age_correlation_matrix(pubs), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",2000,2001,2002"
        first_row = lines[1].split(",")
        assert first_row[0] == "2000"
        assert first_row[1] == ""  # blank diagonal
        assert first_row[2] == "NA"  # constant year-one counts


# --- publication lists and cohort corpora ---------------------------------

@pytest.mark.parametrize("pubs, message", [
    ([cohort_pub("a", 2000, [1, 2, 3]), make_pub("b", year=2000, citations=5,
                                                 by_year={2000: 1, 2001: 2, 2002: 3})],
     "publication b: citations_by_year at census year 2002 does not equal citations_total"),
    ([cohort_pub("a", 2000, [1, 2, 3]), make_pub("b", year=2000, citations=2,
                                                 by_year={2001: 1, 2002: 2})],
     "publication b: citations_by_year must cover every year from 2000 to 2002 with no gaps"),
    ([cohort_pub("a", 2000, [1, 2, 3]), cohort_pub("a", 2000, [0, 2, 4])], "duplicate id a"),
], ids=["total", "late-start", "repeated-id"])
@pytest.mark.parametrize("statistic", [age_correlation_matrix,
                                       lambda pubs: trajectory(pubs, "f1", 2000)],
                         ids=["age-matrix", "trajectory"])
def test_a_publication_list_passes_the_corpus_check(statistic, pubs, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        statistic(pubs)


def test_a_cohort_corpus_and_its_list_give_equal_results():
    rng = random.Random(8)
    pubs = []
    for i in range(30):
        running, counts = 0, []
        for _ in range(4):
            running += rng.randint(0, 3)
            counts.append(running)
        pubs.append(cohort_pub(f"p{i:02d}", 2003, counts))
    pubs.append(make_pub("other", field="f2", year=2003, citations=1,
                         by_year={2003: 0, 2004: 0, 2005: 1, 2006: 1}))
    cohort = select_cohort(make_corpus(pubs, census_year=2006), "f1", 2003)
    assert isinstance(cohort, Corpus) and len(cohort) == 30
    for statistic in (age_correlation_matrix, lambda pubs: trajectory(pubs, "f1", 2003)):
        expected = statistic(cohort)
        assert statistic(list(cohort)) == expected
        # an iterator and a generator are read once, not found empty on a second pass
        assert statistic(iter(cohort)) == statistic(p for p in cohort) == expected


# --- trajectories -----------------------------------------------------------

class TestTrajectory:
    def test_identical_vectors(self):
        counts = [1, 3, 6]
        pubs = [cohort_pub(f"p{i}", 2000, counts) for i in range(5)]
        traj = trajectory(pubs, "f1", 2000)
        assert traj.n_pubs == 5
        assert traj.means == ((2000, 1.0), (2001, 3.0), (2002, 6.0))

    def test_single_publication(self):
        pubs = [cohort_pub("p", 2000, [0, 2, 2])]
        traj = trajectory(pubs, "f1", 2000)
        assert traj.means == ((2000, 0.0), (2001, 2.0), (2002, 2.0))

    def test_means_non_decreasing(self):
        rng = random.Random(3)
        pubs = []
        for i in range(30):
            running, counts = 0, []
            for _ in range(5):
                running += rng.randint(0, 3)
                counts.append(running)
            pubs.append(cohort_pub(f"p{i:02d}", 2000, counts))
        traj = trajectory(pubs, "f1", 2000)
        values = [m for _, m in traj.means]
        assert values == sorted(values)

    def test_no_match_rejected(self):
        pubs = [cohort_pub("p", 2000, [1, 2, 3])]
        with pytest.raises(ValidationError, match="no publications"):
            trajectory(pubs, "other-field", 2000)

    def test_simulated_linear_cohort(self):
        # cohort mean k full years after publication tracks 3k (the damped
        # first year contributes only 0.3)
        from citnorm.simulate import FieldSpec, SimulationConfig, UnitSpec, generate_corpus

        config = SimulationConfig(
            fields=(FieldSpec("f", 3.0),),
            units=(UnitSpec("u", 1.0, 12_000),),
            first_year=1999,
            census_year=2008,
            seed=6,
        )
        corpus = generate_corpus(config)
        cohort = [p for p in corpus if p.pub_year == 1999]
        assert len(cohort) >= 1000
        traj = trajectory(cohort, "f", 1999)
        for k, (_year, mean) in enumerate(traj.means):
            if k >= 3:
                assert mean == pytest.approx(3.0 * k, rel=0.10)

    def test_trajectory_csv(self, tmp_path):
        pubs = [cohort_pub("p", 2000, [0, 2, 2])]
        path = tmp_path / "traj.csv"
        write_trajectory(trajectory(pubs, "f1", 2000), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "year,mean_citations"
        assert lines[1] == "2000,0.0000"
        assert lines[2] == "2001,2.0000"
