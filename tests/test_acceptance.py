"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion including the measured runtime against its budget.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import runpy
import time
from fractions import Fraction
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from citnorm.baseline import compute_baselines
from citnorm.cli import main
from citnorm.corpus import select_cohort
from citnorm.indicators import (
    ScoredPublication,
    cpp_fcsm,
    find_cpp_fcsm_consistency_counterexample,
    mncs,
    normalized_score,
    score_unit,
    score_units,
)
from citnorm.simulate import FieldSpec, SimulationConfig, UnitSpec, generate_corpus
from citnorm.stats import age_correlation_matrix, correlate_indicators, pearson, spearman

from conftest import GOLDEN_CENSUS, GOLDEN_GROUP_ROWS, golden_group_scored
from test_stats import pearson_oracle, spearman_oracle


@contextlib.contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nacceptance {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"\nacceptance {name}: FAIL (runtime {elapsed:.2f}s exceeds {budget_s:.0f}s)")
        raise AssertionError(f"{name} exceeded its runtime budget")
    print(f"\nacceptance {name}: PASS ({elapsed:.2f}s < {budget_s:.0f}s)")


def sp(pid, c, e, year=2000):
    return ScoredPublication(id=pid, pub_year=year, c=c, e=e)


def test_c01_golden_rows_within_rounding_intervals():
    """Each published ratio is consistent with its 2-decimal expected count."""
    with criterion("1 golden-row intervals", 1.0):
        for year, c, e, printed in GOLDEN_GROUP_ROWS:
            value = normalized_score(c, e)
            if c == 0:
                assert value == 0.0 and printed == 0.0
                continue
            low, high = c / (e + 0.005), c / (e - 0.005)
            assert low <= value <= high
            # the printed score is itself rounded to 2 decimals
            assert low - 0.005 <= printed <= high + 0.005


def test_c02_golden_group_indicator_bundle():
    with criterion("2 golden-group bundle", 1.0):
        scored = golden_group_scored()
        cpp = cpp_fcsm(scored)
        m1 = mncs(scored, GOLDEN_CENSUS, exclude_recent=False)
        m2 = mncs(scored, GOLDEN_CENSUS, exclude_recent=True)
        assert cpp == pytest.approx(1.72, abs=0.01)
        assert m1.value == pytest.approx(3.08, abs=0.02)
        assert m2.value == pytest.approx(3.30, abs=0.02)
        assert m1.n_used == 15 and m2.n_used == 14  # one census-year exclusion
        assert m2.value > cpp  # recent publications weigh less in the ratio of sums


def test_c03_weighting_identity_on_random_units():
    """The ratio of sums equals the expected-count-weighted mean of ratios."""
    with criterion("3 weighting identity", 5.0):
        rng = np.random.default_rng(7331)
        for _ in range(1000):
            n = int(rng.integers(1, 101))
            cs = rng.integers(0, 501, size=n)
            es = rng.uniform(0.1, 50.0, size=n)
            pubs = [sp(f"p{i:03d}", int(cs[i]), float(es[i])) for i in range(n)]
            value = cpp_fcsm(pubs)
            total_e = sum(p.e for p in pubs)
            weighted = sum((p.e / total_e) * (p.c / p.e) for p in pubs)
            assert abs(value - weighted) <= 1e-12 * max(abs(value), 1e-300)


def test_c04_universe_normalizes_to_one():
    with criterion("4 universe normalization", 5.0):
        config = SimulationConfig(
            fields=(FieldSpec("a", 2.0), FieldSpec("b", 3.0), FieldSpec("c", 4.0)),
            units=(UnitSpec("everything", 1.0, 10_000),),
            first_year=2000,
            census_year=2009,
            dispersion=0.5,
            seed=17,
        )
        corpus = generate_corpus(config)
        table = compute_baselines(corpus)
        assert all(cell.mean_citations > 0 for cell in table.cells.values())
        score = score_unit(corpus, table, "everything")
        assert score.cpp_fcsm == pytest.approx(1.0, abs=1e-9)
        assert score.mncs1 == pytest.approx(1.0, abs=1e-9)


def test_c05_consistency_properties():
    with criterion("5 consistency", 10.0):
        # order preservation of the mean-of-ratios under identical progress,
        # for equal-size units: 10,000 randomized trials, zero violations
        rng = np.random.default_rng(2417)
        for _ in range(10_000):
            n = int(rng.integers(1, 13))
            a = [sp(f"a{i}", int(rng.integers(0, 41)), float(rng.uniform(0.1, 20)))
                 for i in range(n)]
            b = [sp(f"b{i}", int(rng.integers(0, 41)), float(rng.uniform(0.1, 20)))
                 for i in range(n)]
            extra = sp("x", int(rng.integers(0, 41)), float(rng.uniform(0.1, 20)))
            before_a = mncs(a, 2010, False).value
            before_b = mncs(b, 2010, False).value
            after_a = mncs(a + [extra], 2010, False).value
            after_b = mncs(b + [extra], 2010, False).value
            if before_a > before_b:
                assert after_a > after_b
            elif before_a < before_b:
                assert after_a < after_b

        # the ratio of sums admits a reversal witness inside a small bound
        witness = find_cpp_fcsm_consistency_counterexample(10)
        assert witness is not None
        (c_a, e_a), (c_b, e_b) = witness.unit_a, witness.unit_b
        c_x, e_x = witness.added
        k_a, k_b, k_x = round(e_a * 10), round(e_b * 10), round(e_x * 10)
        assert Fraction(c_a, k_a) > Fraction(c_b, k_b)  # A first, exactly
        assert Fraction(c_a + c_x, k_a + k_x) < Fraction(c_b + c_x, k_b + k_x)
        assert cpp_fcsm([sp("a", c_a, e_a)]) > cpp_fcsm([sp("b", c_b, e_b)])
        assert (cpp_fcsm([sp("a", c_a, e_a), sp("x", c_x, e_x)])
                < cpp_fcsm([sp("b", c_b, e_b), sp("x", c_x, e_x)]))


def test_c06_recency_outlier_stress():
    """One census-year publication with ratio 7000 joins 10,000 stable ones."""
    with criterion("6 recency outlier", 5.0):
        census, n, mu = 2008, 10_000, 1.0
        base = [sp(f"{i:06d}", 8, 8.0, year=2004) for i in range(n)]
        outlier = sp("zzz", 3500, 0.5, year=census)  # ratio exactly 7000
        ratio = 3500 / 0.5

        m2_before = mncs(base, census, exclude_recent=True).value
        m2_after = mncs(base + [outlier], census, exclude_recent=True).value
        assert m2_after == m2_before  # bit-identical

        m1_before = mncs(base, census, exclude_recent=False).value
        m1_after = mncs(base + [outlier], census, exclude_recent=False).value
        assert m1_before == mu
        exact = Fraction(mu) + (Fraction(ratio) - Fraction(mu)) / (n + 1)
        assert m1_after == float(exact)  # shifts by exactly (r - mu)/(n + 1)

        cpp_before = cpp_fcsm(base)
        cpp_after = cpp_fcsm(base + [outlier])
        assert abs(cpp_after - cpp_before) < 0.05  # added e = 0.5, far below mean e
        assert abs(cpp_after - cpp_before) < abs(m1_after - m1_before)


# the compare roster: scripts/compare_indicators.py's 158 research groups and seven fields
COMPARE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_indicators.py"


def test_c07_recency_filter_tightens_correlation():
    """Across seeds, cpp correlates at least as well with mncs2 as with mncs1."""
    with criterion("7 correlation direction", 120.0):
        build_config = runpy.run_path(str(COMPARE_SCRIPT))["build_config"]
        hits = 0
        n_seeds = 50
        for seed in range(n_seeds):
            corpus = generate_corpus(build_config(seed, 158))
            table = compute_baselines(corpus)
            scores = score_units(corpus, table)
            report = correlate_indicators(scores)
            by_pair = {(p.label_x, p.label_y): p for p in report.pairs}
            p_m1 = by_pair[("cpp_fcsm", "mncs1")].pearson
            p_m2 = by_pair[("cpp_fcsm", "mncs2")].pearson
            hits += p_m2 >= p_m1
        assert hits >= 0.9 * n_seeds, f"direction held in only {hits}/{n_seeds} seeds"


def test_c08_low_rate_fields_predict_worse():
    """Year-1 counts predict year-10 counts worse in a low-rate field."""
    with criterion("8 age-correlation direction", 120.0):
        fields = (FieldSpec("math", 0.35), FieldSpec("biochem", 3.0))
        units = (UnitSpec("all", 1.0, 42_000),)
        hits = 0
        n_seeds = 50
        for seed in range(n_seeds):
            config = SimulationConfig(
                fields=fields, units=units, first_year=1999, census_year=2008,
                dispersion=0.8, seed=seed,
            )
            corpus = generate_corpus(config)
            corr = {}
            for fid in ("math", "biochem"):
                cohort = select_cohort(corpus, fid, 1999)
                assert len(cohort) >= 2000
                matrix = age_correlation_matrix(cohort)
                corr[fid] = matrix.entries[0][-1]
            hits += corr["math"] < corr["biochem"]
        assert hits >= 0.9 * n_seeds, f"direction held in only {hits}/{n_seeds} seeds"


def test_c09_correlation_oracle_agreement():
    with criterion("9 stats oracle", 5.0):
        rng = np.random.default_rng(1234)
        for trial in range(1000):
            n = int(rng.integers(5, 101))
            if trial % 2 == 0:
                x = rng.uniform(0.0, 100.0, size=n).tolist()
                y = rng.uniform(0.0, 100.0, size=n).tolist()
            else:  # integer-valued vectors carry ties
                x = rng.integers(0, 13, size=n).astype(float).tolist()
                y = rng.integers(0, 13, size=n).astype(float).tolist()
            r = pearson(x, y)
            expected = pearson_oracle(x, y)
            if r is None or expected is None:
                assert len(set(x)) == 1 or len(set(y)) == 1
                continue
            assert math.isclose(r, expected, rel_tol=1e-12, abs_tol=1e-12)
            rs = spearman(x, y)
            expected_s = spearman_oracle(x, y)
            assert math.isclose(rs, expected_s, rel_tol=1e-12, abs_tol=1e-12)


def test_c10_cli_determinism(tmp_path):
    with criterion("10 CLI determinism", 60.0):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "fields": [{"field_id": "fast", "rate": 2.5},
                       {"field_id": "slow", "rate": 0.6}],
            "units": [{"unit_id": "u_a", "quality": 1.4, "n_pubs": 150},
                      {"unit_id": "u_b", "quality": 1.0, "n_pubs": 100},
                      {"unit_id": "u_c", "quality": 0.7, "n_pubs": 80}],
            "first_year": 2000, "census_year": 2009,
            "dispersion": 0.5, "seed": 99,
        }))
        corpus = tmp_path / "corpus.jsonl"
        scores = tmp_path / "scores.csv"

        # (name, args-without-out, canonical output); later commands read
        # earlier canonical outputs
        commands = [
            ("simulate", ["simulate", "--config", str(config_path)], corpus),
            ("baselines", ["baselines", "--corpus", str(corpus), "--census", "2009"],
             tmp_path / "baselines.csv"),
            ("score", ["score", "--corpus", str(corpus), "--census", "2009",
                       "--units", "all"], scores),
            ("correlate", ["correlate", "--scores", str(scores)], tmp_path / "corr.csv"),
            ("trajectory", ["trajectory", "--corpus", str(corpus), "--census", "2009",
                            "--field", "fast", "--pub-year", "2000"],
             tmp_path / "traj.csv"),
            ("age-corr", ["age-corr", "--corpus", str(corpus), "--census", "2009",
                          "--field", "fast", "--pub-year", "2000"],
             tmp_path / "age.csv"),
            ("plot", ["plot", "--scores", str(scores), "--x", "cpp_fcsm",
                      "--y", "mncs1"], tmp_path / "scatter.svg"),
        ]

        for name, args, out in commands:
            assert main(args + ["--out", str(out)]) == 0
            rerun = tmp_path / f"{name}_rerun{out.suffix}"
            assert main(args + ["--out", str(rerun)]) == 0
            assert out.read_bytes() == rerun.read_bytes(), \
                f"{name} output not byte-identical"

        # rank writes to stdout
        rank_args = ["rank", "--scores", str(scores), "--by", "mncs2", "--top", "3"]
        captured = []
        for _ in range(2):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(rank_args) == 0
            captured.append(buffer.getvalue())
        assert captured[0] == captured[1]
        assert captured[0].startswith("rank,unit_id,score")
