"""Seeded generator of synthetic corpora with field-dependent citation accrual.

The model is deliberately minimal: a publication in field f belonging to unit
u draws a latent yearly citation rate

    lambda = f.rate * u.quality * g

where g is a gamma heterogeneity factor with mean 1 and variance
``dispersion**2`` (g = 1 when dispersion is 0). Yearly citation increments are
Poisson with mean lambda, except in the publication's own calendar year where
the mean is damped by ``same_year_damping`` (default 0.1) because fresh
publications collect almost nothing before year's end. Cumulative counts
therefore grow approximately linearly with age, low-rate fields show weak
correlations between early and late counts, and unit quality scales realized
citation totals multiplicatively.

Determinism: a corpus is a pure function of its config. Publication years and
field assignments are drawn from a stream with a fixed internal seed, so
changing only ``seed`` changes the realized citation counts but leaves the
corpus shape (ids, years, fields) untouched; that makes across-seed
comparisons well-defined.

Every fact a :class:`~citnorm.corpus.Publication` and a
:class:`~citnorm.corpus.Corpus` check holds by construction here or is checked
once on the drawn arrays, so the corpus's columns are filled without
re-checking each record, and no ``Publication`` is built: years come from the
configured span, by-year counts run from the publication year to the census
year and end at the total, ids are zero-padded serials in increasing order,
and the increments are checked to be non-negative and their totals to stay
within 2**53 - 1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .corpus import _MAX_CITATIONS, Corpus
from .errors import ValidationError

# Shape stream seed; independent of config.seed by design (see module docs).
_SHAPE_SEED = 0x5EED5


@dataclass(frozen=True)
class FieldSpec:
    field_id: str
    rate: float  # mean citations gained per publication per (full) year


@dataclass(frozen=True)
class UnitSpec:
    unit_id: str
    quality: float  # multiplicative factor on field rates
    n_pubs: int


@dataclass(frozen=True)
class SimulationConfig:
    fields: tuple[FieldSpec, ...]
    units: tuple[UnitSpec, ...]
    first_year: int
    census_year: int
    dispersion: float = 0.0
    seed: int = 0
    same_year_damping: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "units", tuple(self.units))
        if not self.fields:
            raise ValidationError("config needs at least one field")
        if not self.units:
            raise ValidationError("config needs at least one unit")
        if not (1 <= self.first_year <= 9999 and 1 <= self.census_year <= 9999):
            raise ValidationError("first_year and census_year must be in [1, 9999]")
        if self.census_year < self.first_year:
            raise ValidationError("census_year must not precede first_year")
        for f in self.fields:
            if not isinstance(f.field_id, str) or not f.field_id:
                raise ValidationError(f"field_id {f.field_id!r} must be a non-empty string")
            if not (math.isfinite(f.rate) and f.rate > 0):
                raise ValidationError(f"field '{f.field_id}': rate must be finite and > 0")
        for u in self.units:
            if not isinstance(u.unit_id, str) or not u.unit_id:
                raise ValidationError(f"unit_id {u.unit_id!r} must be a non-empty string")
            if not (math.isfinite(u.quality) and u.quality > 0):
                raise ValidationError(f"unit '{u.unit_id}': quality must be finite and > 0")
            if u.n_pubs < 1:
                raise ValidationError(f"unit '{u.unit_id}': n_pubs must be >= 1")
        for kind, ids in (("field", [f.field_id for f in self.fields]),
                          ("unit", [u.unit_id for u in self.units])):
            seen: set[str] = set()  # a repeated id would merge two specs into one id's records
            for id_ in ids:
                if id_ in seen:
                    raise ValidationError(f"{kind} '{id_}' is listed twice")
                seen.add(id_)
        if not (math.isfinite(self.dispersion) and self.dispersion >= 0):
            raise ValidationError("dispersion must be finite and >= 0")
        if self.dispersion > 0:
            _gamma_shape_scale(self.dispersion)
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if not 0 <= self.same_year_damping <= 1:
            raise ValidationError("same_year_damping must be in [0, 1]")


def _gamma_shape_scale(dispersion: float) -> tuple[float, float]:
    """Shape and scale of the gamma factor with mean 1 and variance ``dispersion**2``."""
    try:
        variance = dispersion ** 2
        shape = 1.0 / variance
    except ArithmeticError:  # the square overflows, or underflows to zero
        shape = math.inf
    if math.isinf(shape):  # also a square so small that its reciprocal overflows
        raise ValidationError(
            f"dispersion {dispersion!r} is too large or too small to simulate"
        )
    return shape, variance


# The JSON types each config key takes (type(), not isinstance(): a JSON true is
# no integer), or None where SimulationConfig checks the value itself.
_INTEGER, _NUMBER = (int,), (int, float)
_CONFIG_KEYS = {"fields": None, "units": None, "first_year": _INTEGER, "census_year": _INTEGER,
                "dispersion": _NUMBER, "seed": _INTEGER, "same_year_damping": _NUMBER}
_FIELD_KEYS = {"field_id": None, "rate": _NUMBER}
_UNIT_KEYS = {"unit_id": None, "quality": _NUMBER, "n_pubs": _INTEGER}


def _checked(obj, keys: dict, where: str) -> dict:
    """``obj``, once checked to be a JSON object of known keys with values of their types."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key, value in obj.items():
        if key not in keys:
            raise ValueError(f"unknown key '{key}' in {where}")
        if keys[key] is not None and type(value) not in keys[key]:
            kind = "an integer" if keys[key] is _INTEGER else "a number"
            raise ValueError(f"{key} in {where} must be {kind}")
    return obj


def config_from_dict(obj: dict) -> SimulationConfig:
    """A :class:`SimulationConfig` from parsed JSON: no value is coerced, no unknown key kept."""
    try:
        _checked(obj, _CONFIG_KEYS, "the config")
        fields = [_checked(f, _FIELD_KEYS, f"fields[{i}]") for i, f in enumerate(obj["fields"])]
        units = [_checked(u, _UNIT_KEYS, f"units[{i}]") for i, u in enumerate(obj["units"])]
        return SimulationConfig(
            fields=tuple(FieldSpec(field_id=f["field_id"], rate=float(f["rate"])) for f in fields),
            units=tuple(
                UnitSpec(unit_id=u["unit_id"], quality=float(u["quality"]), n_pubs=u["n_pubs"])
                for u in units
            ),
            first_year=obj["first_year"],
            census_year=obj["census_year"],
            dispersion=float(obj.get("dispersion", 0.0)),
            seed=obj.get("seed", 0),
            same_year_damping=float(obj.get("same_year_damping", 0.1)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad simulation config: {exc}") from None


def load_config(path: str | Path) -> SimulationConfig:
    """Read a JSON config file mirroring the SimulationConfig field names."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except ValueError as exc:  # not JSON, not UTF-8, or an integer beyond int's digit limit
            raise ValidationError(f"malformed config JSON: {getattr(exc, 'msg', exc)}") from None
        except RecursionError:
            raise ValidationError("malformed config JSON: nesting too deep") from None
    return config_from_dict(obj)


def generate_corpus(config: SimulationConfig) -> Corpus:
    """Generate a synthetic corpus; fully deterministic given the config.

    Each unit contributes ``n_pubs`` publications with a publication year
    uniform over [first_year, census_year] and a single field uniform over
    the configured fields. Ids are zero-padded decimals in generation order,
    so generation order and canonical id order coincide.
    """
    shape_rng = np.random.default_rng(_SHAPE_SEED)
    count_rng = np.random.default_rng(config.seed)
    first, census = config.first_year, config.census_year
    year_grid = np.arange(first, census + 1)
    year_objects = {year: year for year in range(first, census + 1)}  # one int per year
    rates = np.array([f.rate for f in config.fields], dtype=float)
    field_ids = [(f.field_id,) for f in config.fields]
    if config.dispersion > 0:
        shape, scale = _gamma_shape_scale(config.dispersion)

    total = sum(u.n_pubs for u in config.units)
    width = max(8, len(str(total - 1)))
    ids: list[str] = []
    years: list[int] = []
    totals: list[int] = []
    units: list[tuple[str, ...]] = []
    fields: list[tuple[str, ...]] = []
    rows: list[tuple[int, ...]] = []
    for unit in config.units:
        n = unit.n_pubs
        # numpy raises ValueError for a size or a mean it cannot draw (no Poisson mean
        # above about 9.2e18), MemoryError for arrays it cannot allocate
        try:
            pub_years = shape_rng.integers(first, census + 1, size=n)
            field_idx = shape_rng.integers(0, len(config.fields), size=n)
            if config.dispersion > 0:
                g = count_rng.gamma(shape=shape, scale=scale, size=n)
            else:
                g = np.ones(n)
            with np.errstate(over="ignore"):
                lam = rates[field_idx] * unit.quality * g  # (n,)
            if not np.isfinite(lam).all():
                raise ValueError("lam value is not finite")
            # Per-year means: 0 before the pub year, damped in it, lambda after.
            after = year_grid[None, :] > pub_years[:, None]
            same = year_grid[None, :] == pub_years[:, None]
            mean = lam[:, None] * (after + config.same_year_damping * same)
            increments = count_rng.poisson(mean)  # Poisson(0) == 0 before pub year
        except (ValueError, MemoryError) as exc:
            raise ValidationError(
                f"unit '{unit.unit_id}': cannot draw citations: {str(exc) or 'out of memory'}"
            ) from None
        del mean  # each (n, years) array goes as soon as it is used: they set peak memory
        unit_pub_ids = [str(i).zfill(width) for i in range(len(ids), len(ids) + n)]
        # every row from its publication year to the census year, row after row
        ragged = _checked_cumsum(increments, unit_pub_ids, first)[after | same]
        del increments, after, same
        ragged = tuple(ragged.tolist())
        ends = np.cumsum(census + 1 - pub_years).tolist()
        unit_rows = list(map(ragged.__getitem__, map(slice, [0, *ends[:-1]], ends)))
        rows.extend(unit_rows)
        totals.extend(map(itemgetter(-1), unit_rows))
        ids.extend(unit_pub_ids)
        years.extend(map(year_objects.__getitem__, pub_years.tolist()))
        units.extend(repeat((unit.unit_id,), n))
        fields.extend(map(field_ids.__getitem__, field_idx.tolist()))
    return Corpus._from_columns(census, first, ids, units, fields, years,
                                repeat("article", total), totals, rows)


def _checked_cumsum(increments: np.ndarray, ids: list[str], first_year: int) -> np.ndarray:
    """Cumulative counts per row, after checking the facts the draws must hold.

    No increment may be negative, and each row's total must stay within
    2**53 - 1; the faults name the first offending publication (row order).
    """
    negative = increments < 0
    if negative.any():
        row, col = np.argwhere(negative)[0].tolist()
        raise ValidationError(
            f"publication {ids[row]}: non-monotone citations_by_year at {first_year + col}"
        )
    cumulative = increments.cumsum(axis=1)
    # With no negative increment, a row can only step down where cumsum wrapped
    # past 2**63 - 1, and its true total then exceeds the bound as well.
    wrapped = (cumulative[:, 1:] < cumulative[:, :-1]).any(axis=1)
    over = (cumulative[:, -1] > _MAX_CITATIONS) | wrapped
    if over.any():
        raise ValidationError(
            f"publication {ids[over.argmax()]}: citations_total exceeds 2**53 - 1"
        )
    return cumulative
