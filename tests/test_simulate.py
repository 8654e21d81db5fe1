"""Synthetic corpus generator: determinism, shape stability, calibration."""
from __future__ import annotations

from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citnorm.corpus import Corpus, Publication, corpus_to_jsonl
from citnorm.errors import ValidationError
from citnorm.simulate import (
    FieldSpec,
    SimulationConfig,
    UnitSpec,
    config_from_dict,
    generate_corpus,
    load_config,
)


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
        first_year=config.first_year,
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
        import json

        path.write_text(json.dumps(obj))
        config = load_config(path)
        assert config == config_from_dict(obj)
        assert config.seed == 77 and config.fields[0].rate == 2.0

    def test_malformed_config_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="malformed config"):
            load_config(path)
        path.write_text("{}")
        with pytest.raises(ValidationError, match="bad simulation config"):
            load_config(path)
