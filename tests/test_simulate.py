"""Synthetic corpus generator: determinism, shape stability, calibration."""
from __future__ import annotations

import gc
import hashlib
import json
import re
import runpy
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

import citnorm.simulate as simulate_module
from citnorm.corpus import Corpus, Publication, corpus_to_jsonl, parse_corpus
from citnorm.errors import ValidationError
from citnorm.simulate import (
    FieldSpec,
    SimulationConfig,
    UnitSpec,
    config_from_dict,
    generate_corpus,
    load_config,
    write_simulated,
)

from conftest import run_child, run_module


def one_field_config(rate=3.0, n_pubs=1000, dispersion=0.0, seed=42,
                     first_year=1999, census_year=2008):
    return SimulationConfig(
        fields=(FieldSpec("f", rate),),
        units=(UnitSpec("u", 1.0, n_pubs),),
        first_year=first_year,
        census_year=census_year,
        dispersion=dispersion,
        seed=seed,
    )


def test_same_config_same_bytes():
    config = one_field_config(n_pubs=200)
    a = generate_corpus(config)
    b = generate_corpus(config)
    assert a == b
    assert corpus_to_jsonl(a) == corpus_to_jsonl(b)


def test_integer_and_float_config_numbers_simulate_the_same_corpus(tmp_path):
    # the config reader passes JSON numbers on as they are, with no float(): 2 and 2.0 must
    # draw the same citations, in the corpus built whole and in the one written block by block
    simulated = []
    for one, two in ((1, 2), (1.0, 2.0)):
        path = tmp_path / f"{type(one).__name__}.json"
        path.write_text(json.dumps({
            "fields": [{"field_id": "f1", "rate": two}, {"field_id": "f2", "rate": 0.5}],
            "units": [{"unit_id": "u1", "quality": one, "n_pubs": 60},
                      {"unit_id": "u2", "quality": 1.4, "n_pubs": 40}],
            "first_year": 2000, "census_year": 2009, "seed": 5,
            "dispersion": one, "same_year_damping": one}), encoding="utf-8")
        config = load_config(path)
        assert type(config.units[0].quality) is type(one)
        write_simulated(config, path.with_suffix(".jsonl"))
        simulated.append((corpus_to_jsonl(generate_corpus(config)),
                          path.with_suffix(".jsonl").read_text(encoding="utf-8")))
    assert simulated[0] == simulated[1]


def test_seed_changes_counts_but_not_shape():
    a = generate_corpus(one_field_config(n_pubs=300, seed=1))
    b = generate_corpus(one_field_config(n_pubs=300, seed=2))
    assert [p.id for p in a] == [p.id for p in b]
    assert [p.pub_year for p in a] == [p.pub_year for p in b]
    assert [p.field_ids for p in a] == [p.field_ids for p in b]
    assert [p.citations_total for p in a] != [p.citations_total for p in b]


def test_ids_are_zero_padded_generation_order():
    corpus = generate_corpus(one_field_config(n_pubs=20))
    ids = [p.id for p in corpus]
    assert ids == sorted(ids)
    assert ids[0] == "00000000" and ids[-1] == "00000019"


def test_counts_monotone_and_anchored():
    corpus = generate_corpus(one_field_config(n_pubs=300, dispersion=0.7, seed=5))
    for pub in corpus:
        counts = [pub.citations_by_year[y] for y in sorted(pub.citations_by_year)]
        assert counts == sorted(counts)
        assert counts[-1] == pub.citations_total
        assert min(pub.citations_by_year) == pub.pub_year


def test_linear_accrual_calibration():
    # With rate 3 and same-year damping 0.1, the analytic mean cumulative
    # count k full years after publication is 0.3 + 3k.
    corpus = generate_corpus(one_field_config(rate=3.0, n_pubs=4000, seed=9))
    by_age: dict[int, list[int]] = {}
    for pub in corpus:
        for year, count in pub.citations_by_year.items():
            by_age.setdefault(year - pub.pub_year, []).append(count)
    for age in range(2, 10):
        values = by_age[age]
        assert len(values) >= 300
        analytic = 0.3 + 3.0 * age
        assert np.mean(values) == pytest.approx(analytic, rel=0.10)


def test_quality_scales_mean_citations():
    config = SimulationConfig(
        fields=(FieldSpec("f", 3.0),),
        units=(UnitSpec("plain", 1.0, 1500), UnitSpec("strong", 2.0, 1500)),
        first_year=1999,
        census_year=2008,
        seed=21,
    )
    corpus = generate_corpus(config)
    means = {}
    for uid in ("plain", "strong"):
        totals = [p.citations_total for p in corpus if uid in p.unit_ids]
        means[uid] = np.mean(totals)
    assert means["strong"] / means["plain"] == pytest.approx(2.0, rel=0.10)


def test_field_rate_calibration_with_dispersion():
    # Realized mean yearly accrual (past the damped first year) should match
    # field rate x publication-weighted mean quality within 5% at 10k pubs.
    config = SimulationConfig(
        fields=(FieldSpec("low", 0.8), FieldSpec("high", 2.5)),
        units=(UnitSpec("a", 0.5, 5000), UnitSpec("b", 1.5, 5000)),
        first_year=2000,
        census_year=2009,
        dispersion=0.6,
        seed=3,
    )
    corpus = generate_corpus(config)
    mean_quality = 1.0  # equal publication counts at 0.5 and 1.5
    for fid, rate in (("low", 0.8), ("high", 2.5)):
        increments = []
        for pub in corpus:
            if fid not in pub.field_ids:
                continue
            years = sorted(pub.citations_by_year)
            for prev, year in zip(years, years[1:]):
                increments.append(pub.citations_by_year[year] - pub.citations_by_year[prev])
        assert np.mean(increments) == pytest.approx(rate * mean_quality, rel=0.05)


def test_pub_years_cover_span_uniformly():
    corpus = generate_corpus(one_field_config(n_pubs=5000))
    years = np.array([p.pub_year for p in corpus])
    for year in range(1999, 2009):
        share = np.mean(years == year)
        assert 0.06 <= share <= 0.14  # ~0.1 each over a 10-year span


# Units of 2,048-row blocks: three (5,000), two whose second holds one row (2,049), one (40).
STRADDLING = SimulationConfig(
    fields=(FieldSpec("f1", 2.0), FieldSpec("f2", 0.5), FieldSpec("f3", 1.3)),
    units=(UnitSpec("big", 1.0, 5000), UnitSpec("edge", 1.4, 2049), UnitSpec("small", 0.7, 40)),
    first_year=1999,
    census_year=2008,
    dispersion=0.8,
    seed=11,
    same_year_damping=0.3,
)


# the compare roster: scripts/compare_indicators.py's 158 research groups, 20,917 publications
COMPARE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_indicators.py"


@pytest.mark.parametrize("config, length, digest", [
    # the digest of STRADDLING's JSON Lines text as the simulator wrote it when it drew
    # each unit's citations in one call, before it drew them in blocks
    pytest.param(lambda: STRADDLING, 1_316_794,
                 "2fec0c0eeeb21143a3f6af35e8ffc8a525e22baee879fbba342cbf3037ccbdcc",
                 id="straddling"),
    # many units of 50 to 210 publications, each its own short block, as drawn before
    # the ids were built per thousand and the means read from one weight table
    pytest.param(lambda: runpy.run_path(str(COMPARE_SCRIPT))["build_config"](0, 158),
                 4_065_732, "b8632b457abd723991160e6ac998b7c35dc1146c1df01742f43fcc0f9d7fb052",
                 id="compare-roster"),
])
def test_units_larger_than_a_block_simulate_the_pinned_corpus(tmp_path, config, length, digest):
    # the streamed writer, which never holds the corpus, writes the same bytes: through the
    # temporary file, also where /dev/stdout is a file, and in place behind a pipe; and they
    # read back as the corpus they write
    assert simulate_module._BLOCK_PUBS == 2048
    config = config()
    text = corpus_to_jsonl(generate_corpus(config))
    assert len(text) == length
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    path, config_path = tmp_path / "corpus.jsonl", tmp_path / "config.json"
    write_simulated(config, path)
    written = path.read_bytes()
    assert len(written) == length
    assert hashlib.sha256(written).hexdigest() == digest
    assert corpus_to_jsonl(parse_corpus(path)) == text
    config_path.write_text(json.dumps(asdict(config)), encoding="utf-8")
    argv = ("-m", "citnorm", "simulate", "--config", str(config_path), "--out", "/dev/stdout")
    piped = run_module(*argv)
    assert (piped.returncode, piped.stderr) == (0, "") and piped.stdout == text
    redirected = run_child("sh", "-c", '"$@" > redirected.jsonl', "sh", sys.executable, *argv,
                           cwd=tmp_path)
    assert (redirected.returncode, redirected.stderr) == (0, "")
    assert (tmp_path / "redirected.jsonl").read_bytes() == written


@pytest.mark.parametrize("start, stop", [
    (0, 1), (995, 2_005), (999_990, 1_000_010), (0, 2_048), (123_456_789, 123_456_790),
])
@pytest.mark.parametrize("width", [8, 9])
def test_ids_are_the_zero_padded_serials(start, stop, width):
    # only a corpus of more than 10**8 publications reaches width 9
    assert simulate_module._ids(start, stop, width) == [
        str(i).zfill(width) for i in range(start, stop)]


@pytest.mark.parametrize("block", [1, 7, 16])
def test_the_block_size_changes_no_draw(monkeypatch, block):
    config = replace(STRADDLING, units=(UnitSpec("a", 1.0, 30), UnitSpec("b", 1.2, 16)))
    expected = generate_corpus(config)  # each unit one block
    monkeypatch.setattr(simulate_module, "_BLOCK_PUBS", block)
    assert generate_corpus(config) == expected


def test_drawing_a_large_unit_holds_a_block_of_arrays_not_the_unit():
    config = one_field_config(n_pubs=50_000, dispersion=0.8, seed=5)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = generate_corpus(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the unit-wide (publications x years) arrays took about 9.2 MB above the corpus's own
    # 10 MB; blocks of 2,048 rows take about 4 MB, mostly the unit's per-publication arrays
    assert len(corpus) == 50_000 and held - before > 8e6
    assert peak - held < 6.5e6


@st.composite
def simulation_configs(draw):
    field_specs = tuple(FieldSpec(f"f{i}", draw(st.floats(0.05, 20.0)))
                        for i in range(draw(st.integers(1, 3))))
    units = tuple(UnitSpec(f"u{i}", draw(st.floats(0.2, 3.0)), draw(st.integers(1, 25)))
                  for i in range(draw(st.integers(1, 4))))
    first = draw(st.integers(1980, 2010))
    return SimulationConfig(
        fields=field_specs,
        units=units,
        first_year=first,
        census_year=first + draw(st.integers(0, 11)),  # spans of 1-12 years
        dispersion=draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0))),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        same_year_damping=draw(st.floats(0.0, 1.0)),
    )


@given(simulation_configs())
@settings(max_examples=100, deadline=None)
def test_generated_records_pass_the_public_checks(config):
    corpus = generate_corpus(config)
    rebuilt = Corpus(
        tuple(Publication(**{f.name: getattr(pub, f.name) for f in fields(Publication)})
              for pub in corpus),
        census_year=config.census_year,
    )
    assert corpus == rebuilt
    assert len(corpus) == sum(u.n_pubs for u in config.units)


def test_publications_are_frozen_and_slotted():
    generated = generate_corpus(one_field_config(n_pubs=3)).publications[0]
    public = Publication(**{f.name: getattr(generated, f.name) for f in fields(Publication)})
    for pub in (generated, public):
        with pytest.raises(FrozenInstanceError):
            pub.citations_total = 0
        assert not hasattr(pub, "__dict__")


class TestBulkChecks:
    def test_total_beyond_exact_float_range_names_first_publication(self):
        config = SimulationConfig(
            fields=(FieldSpec("f", 1.0),),
            # even a damped first year of the loud unit draws about 1e16 > 2**53 - 1
            units=(UnitSpec("calm", 1.0, 2), UnitSpec("loud", 1e17, 3)),
            first_year=2000,
            census_year=2009,
        )
        with pytest.raises(ValidationError,
                           match=r"^publication 00000002: citations_total exceeds 2\*\*53 - 1$"):
            generate_corpus(config)

    def test_total_beyond_exact_float_range_in_a_later_block_names_its_publication(self):
        config = SimulationConfig(
            fields=(FieldSpec("f", 1.0),),
            # rare gamma factors push a loud total past 2**53 - 1: first at row 5,380 of
            # the loud unit, in its third block of 2,048 rows
            units=(UnitSpec("calm", 1.0, 100), UnitSpec("loud", 1.2e14, 6000)),
            first_year=2000,
            census_year=2009,
            dispersion=1.0,
            seed=5,
        )
        with pytest.raises(ValidationError,
                           match=r"^publication 00005480: citations_total exceeds 2\*\*53 - 1$"):
            generate_corpus(config)

    def test_wrapped_cumulative_sum_is_rejected(self):
        config = SimulationConfig(
            fields=(FieldSpec("f", 4e18),),
            units=(UnitSpec("u", 1.0, 3),),
            first_year=2000,
            census_year=2003,
            same_year_damping=1.0,
        )
        # Row 0 sums four draws near 4e18, which wraps int64 to a negative total;
        # row 1 sums two and only exceeds the bound.
        calm = replace(config, fields=(FieldSpec("f", 1.0),))
        assert [p.pub_year for p in generate_corpus(calm)] == [2000, 2002, 2000]
        with pytest.raises(ValidationError,
                           match=r"^publication 00000000: citations_total exceeds 2\*\*53 - 1$"):
            generate_corpus(config)

    class Compared(np.ndarray):
        """An array that notes whether it was compared, as only the full checks compare."""

        compared = False

        def __lt__(self, other):
            type(self).compared = True
            return super().__lt__(other)

    def checked(self, monkeypatch, rows):
        monkeypatch.setattr(self.Compared, "compared", False)
        increments = np.array(rows, dtype=np.int64).view(self.Compared)
        cumulative = simulate_module._checked_cumsum(increments, ["p0", "p1"], 2000)
        assert np.array_equal(cumulative, np.array(rows, dtype=np.int64).cumsum(axis=1))
        return cumulative[:, -1].tolist(), self.Compared.compared

    def test_a_block_at_the_bound_takes_the_quick_return(self, monkeypatch):
        # 2**53 - 1 = 6,361 * 1,416,003,655,831: the largest increment times the years
        rows = [[1_416_003_655_831] * 6_361, [0] * 6_361]
        assert self.checked(monkeypatch, rows) == ([2 ** 53 - 1, 0], False)

    def test_a_larger_increment_within_the_bound_passes_the_full_checks(self, monkeypatch):
        rows = [[2 ** 52, 0, 0, 2 ** 52 - 1], [1, 1, 1, 1]]
        assert self.checked(monkeypatch, rows) == ([2 ** 53 - 1, 4], True)

    @pytest.mark.parametrize("rows, fault", [
        ([[1, 1, 1, 1], [2 ** 52, 0, 0, 2 ** 52]],
         r"^publication p1: citations_total exceeds 2\*\*53 - 1$"),
        ([[0, 0, 0, 0], [0, 3, -1, 0]], r"^publication p1: non-monotone citations_by_year at 2002$"),
    ], ids=["total", "negative"])
    def test_a_row_at_2_53_or_a_negative_increment_is_named(self, monkeypatch, rows, fault):
        with pytest.raises(ValidationError, match=fault):
            self.checked(monkeypatch, rows)

    def test_negative_increment_is_rejected(self, monkeypatch):
        default_rng = np.random.default_rng

        class OneNegativeDraw:
            """A generator whose Poisson draws are negative in one cell: row 1, census year."""

            def __init__(self, seed):
                self._rng = default_rng(seed)

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def poisson(self, mean):
                draws = self._rng.poisson(mean)
                draws[1, -1] = -1
                return draws

        monkeypatch.setattr(np.random, "default_rng", OneNegativeDraw)
        config = one_field_config(rate=50.0, n_pubs=3, first_year=2000, census_year=2003)
        with pytest.raises(ValidationError,
                           match=r"^publication 00000001: non-monotone citations_by_year at 2003$"):
            generate_corpus(config)


class TestConfigValidation:
    def test_requires_fields_and_units(self):
        with pytest.raises(ValidationError, match="field"):
            SimulationConfig(fields=(), units=(UnitSpec("u", 1.0, 1),),
                             first_year=2000, census_year=2001)
        with pytest.raises(ValidationError, match="unit"):
            SimulationConfig(fields=(FieldSpec("f", 1.0),), units=(),
                             first_year=2000, census_year=2001)

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValidationError, match="rate"):
            one_field_config(rate=0.0)
        with pytest.raises(ValidationError, match="quality"):
            SimulationConfig(fields=(FieldSpec("f", 1.0),),
                             units=(UnitSpec("u", 0.0, 1),),
                             first_year=2000, census_year=2001)
        with pytest.raises(ValidationError, match="n_pubs"):
            SimulationConfig(fields=(FieldSpec("f", 1.0),),
                             units=(UnitSpec("u", 1.0, 0),),
                             first_year=2000, census_year=2001)
        with pytest.raises(ValidationError, match="census_year"):
            one_field_config(first_year=2005, census_year=2004)
        with pytest.raises(ValidationError, match="dispersion"):
            one_field_config(dispersion=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_numbers(self, value):
        with pytest.raises(ValidationError, match="rate must be finite"):
            one_field_config(rate=value)
        with pytest.raises(ValidationError, match="quality must be finite"):
            SimulationConfig(fields=(FieldSpec("f", 1.0),), units=(UnitSpec("u", value, 1),),
                             first_year=2000, census_year=2001)
        with pytest.raises(ValidationError, match="dispersion must be finite"):
            one_field_config(dispersion=value)
        with pytest.raises(ValidationError, match="same_year_damping"):
            replace(one_field_config(), same_year_damping=value)

    @pytest.mark.parametrize("change, message", [
        ({"seed": True}, "seed must be an integer"),
        ({"dispersion": True}, "dispersion must be a number"),
        ({"same_year_damping": False}, "same_year_damping must be a number"),
        ({"fields": (FieldSpec("f", True),)}, "field 'f': rate must be a number"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"first_year": 2000.0}, "first_year must be an integer"),
        ({"units": (UnitSpec("u", 1.0, 2.5),)}, "unit 'u': n_pubs must be an integer"),
        ({"fields": (FieldSpec("f", "2"),)}, "field 'f': rate must be a number"),
        # a numpy scalar is no JSON number either: the caller converts it
        ({"seed": np.uint64(7)}, "seed must be an integer"),
        ({"units": (UnitSpec("u", np.float64(1.5), 3),)}, "unit 'u': quality must be a number"),
        ({"units": (FieldSpec("u", 1.0),)}, "units must hold UnitSpec objects"),
    ])
    def test_rejects_value_of_wrong_type(self, change, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            replace(one_field_config(), **change)

    @pytest.mark.parametrize("dispersion", [1e-170, 1e-160, 1e155])
    def test_rejects_dispersion_whose_gamma_parameters_overflow(self, dispersion):
        with pytest.raises(ValidationError, match="too large or too small"):
            one_field_config(dispersion=dispersion)

    @pytest.mark.parametrize("spec", [FieldSpec("", 1.0), FieldSpec(7, 1.0)])
    def test_field_id_must_be_non_empty_string(self, spec):
        with pytest.raises(ValidationError, match="field_id .* must be a non-empty string"):
            SimulationConfig(fields=(spec,), units=(UnitSpec("u", 1.0, 1),),
                             first_year=2000, census_year=2001)

    @pytest.mark.parametrize("spec", [UnitSpec("", 1.0, 1), UnitSpec(None, 1.0, 1)])
    def test_unit_id_must_be_non_empty_string(self, spec):
        with pytest.raises(ValidationError, match="unit_id .* must be a non-empty string"):
            SimulationConfig(fields=(FieldSpec("f", 1.0),), units=(spec,),
                             first_year=2000, census_year=2001)

    @pytest.mark.parametrize("fields, units, message", [
        (("f", "f"), ("u",), "field 'f' is listed twice"),
        (("f",), ("u", "u"), "unit 'u' is listed twice"),
        # the first id that an earlier one repeats is named, and fields come first
        (("a", "b", "b", "a"), ("u", "u"), "field 'b' is listed twice"),
        (("f", "u"), ("u", "v", "f", "v"), "unit 'v' is listed twice"),
    ])
    def test_repeated_id_is_rejected(self, fields, units, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SimulationConfig(fields=tuple(FieldSpec(f, 0.5 + i) for i, f in enumerate(fields)),
                             units=tuple(UnitSpec(u, 1.0 + i, 5) for i, u in enumerate(units)),
                             first_year=2000, census_year=2001)

    def test_rate_beyond_poisson_range_is_validation_error(self):
        with pytest.raises(ValidationError, match="^unit 'u': cannot draw citations"):
            generate_corpus(one_field_config(rate=1e20, n_pubs=2))

    def test_config_json_round_trip(self, tmp_path):
        obj = {
            "fields": [{"field_id": "f", "rate": 2.0}],
            "units": [{"unit_id": "u", "quality": 1.5, "n_pubs": 10}],
            "first_year": 2000,
            "census_year": 2005,
            "dispersion": 0.4,
            "seed": 77,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        config = load_config(path)
        assert config == config_from_dict(obj)
        assert config.seed == 77 and config.fields[0].rate == 2.0

    def test_malformed_config_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="^bad simulation config: malformed JSON: "):
            load_config(path)
        path.write_text("{}")
        with pytest.raises(ValidationError, match="bad simulation config"):
            load_config(path)
