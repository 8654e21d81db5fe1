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
"""
from __future__ import annotations

import dataclasses
import math
import sys
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ._files import _MAX_CITATIONS, _write_text
from .corpus import _COLUMNS, Corpus, _gc_paused, _json_line, _jsonl_pieces, _key_fault
from .errors import ValidationError

# Shape stream seed; independent of config.seed by design (see module docs).
_SHAPE_SEED = 0x5EED5
_MAX_FLOAT = sys.float_info.max  # unlike math.isfinite, comparing an int with it cannot overflow
# Publications per block of draws: its (publications, years) arrays set peak memory.
_BLOCK_PUBS = 2048
_TAILS = [f"{i:03d}" for i in range(1000)]  # the last three digits of an id


@dataclasses.dataclass(frozen=True)
class FieldSpec:
    field_id: str
    rate: float  # mean citations gained per publication per (full) year


@dataclasses.dataclass(frozen=True)
class UnitSpec:
    unit_id: str
    quality: float  # multiplicative factor on field rates
    n_pubs: int


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    fields: tuple[FieldSpec, ...]
    units: tuple[UnitSpec, ...]
    first_year: int
    census_year: int
    dispersion: float = 0.0
    seed: int = 0
    same_year_damping: float = 0.1

    def __post_init__(self) -> None:
        for name in ("fields", "units"):
            try:
                object.__setattr__(self, name, tuple(getattr(self, name)))
            except TypeError:  # not iterable
                raise ValidationError(f"{name} must be a list") from None
        _check_types(self, "")
        for kind, spec_type, specs in (("field", FieldSpec, self.fields),
                                       ("unit", UnitSpec, self.units)):
            if not specs:
                raise ValidationError(f"config needs at least one {kind}")
            seen: set[str] = set()  # a repeated id would merge two specs into one id's records
            for spec in specs:
                if not isinstance(spec, spec_type):
                    raise ValidationError(f"{kind}s must hold {spec_type.__name__} objects")
                id_ = getattr(spec, f"{kind}_id")
                if not isinstance(id_, str) or not id_:
                    raise ValidationError(f"{kind}_id {id_!r} must be a non-empty string")
                if id_ in seen:
                    raise ValidationError(f"{kind} '{id_}' is listed twice")
                seen.add(id_)
                _check_types(spec, f"{kind} '{id_}': ")
        if not (1 <= self.first_year <= 9999 and 1 <= self.census_year <= 9999):
            raise ValidationError("first_year and census_year must be in [1, 9999]")
        if self.census_year < self.first_year:
            raise ValidationError("census_year must not precede first_year")
        for f in self.fields:
            if not 0 < f.rate <= _MAX_FLOAT:
                raise ValidationError(f"field '{f.field_id}': rate must be finite and > 0")
        for u in self.units:
            if not 0 < u.quality <= _MAX_FLOAT:
                raise ValidationError(f"unit '{u.unit_id}': quality must be finite and > 0")
            if u.n_pubs < 1:
                raise ValidationError(f"unit '{u.unit_id}': n_pubs must be >= 1")
        if not 0 <= self.dispersion <= _MAX_FLOAT:
            raise ValidationError("dispersion must be finite and >= 0")
        if self.dispersion > 0:
            _gamma_shape_scale(self.dispersion)
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if not 0 <= self.same_year_damping <= 1:
            raise ValidationError("same_year_damping must be in [0, 1]")


def _check_types(spec, where: str) -> None:
    """Check each int and float attribute of ``spec`` as JSON types it, by type(): a bool, a
    str or a numpy scalar is neither. (Annotations are strings, by the future import.)"""
    for attr in dataclasses.fields(spec):
        value = getattr(spec, attr.name)
        if attr.type == "int" and type(value) is not int:
            raise ValidationError(f"{where}{attr.name} must be an integer")
        if attr.type == "float" and type(value) not in (int, float):
            raise ValidationError(f"{where}{attr.name} must be a number")


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


def _json_object(obj, spec_type, where: str) -> dict:
    """``obj``, once checked to be a JSON object with each key ``spec_type`` needs and no other."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    defaults = {attr.name: attr.default for attr in dataclasses.fields(spec_type)}
    if fault := _key_fault(obj, defaults, [key for key, default in defaults.items()
                                           if default is dataclasses.MISSING], f" in {where}"):
        raise fault
    return obj


def config_from_dict(obj: dict) -> SimulationConfig:
    """A :class:`SimulationConfig` from parsed JSON: no value is coerced, no unknown key kept."""
    try:
        _json_object(obj, SimulationConfig, "the config")
        specs = {key: [spec_type(**_json_object(spec, spec_type, f"{key}[{i}]"))
                       for i, spec in enumerate(obj[key])]
                 for key, spec_type in (("fields", FieldSpec), ("units", UnitSpec))
                 if type(obj[key]) is list}  # SimulationConfig names any other value
        return SimulationConfig(**{**obj, **specs})
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad simulation config: {exc}") from None


def load_config(path: str | Path) -> SimulationConfig:
    """Read a JSON config mirroring the SimulationConfig field names, decoded as a corpus line."""
    try:
        obj = _json_line(Path(path).read_text(encoding="utf-8", errors="surrogateescape"))
    except ValidationError as exc:
        raise ValidationError(f"bad simulation config: {exc}") from None
    return config_from_dict(obj)


def _ids(start: int, stop: int, width: int) -> list[str]:
    """``[str(i).zfill(width) for i in range(start, stop)]`` for ``width`` >= 4: one
    zero-padded prefix per thousand serials, joined to each of its three-digit tails."""
    ids: list[str] = []
    for thousand in range(start // 1000, (stop - 1) // 1000 + 1):
        base = thousand * 1000
        tails = _TAILS[max(start - base, 0):min(stop - base, 1000)]
        ids.extend(map(str(thousand).zfill(width - 3).__add__, tails))
    return ids


def _drawn_blocks(config: SimulationConfig) -> Iterator[tuple[Iterable, ...]]:
    """The publications of ``config``'s corpus in id order, ``_BLOCK_PUBS`` or fewer at a time,
    each block as its columns in ``_COLUMNS`` order, each column to be read once.

    Ids come from :func:`_ids`. A publication ``p`` years after ``first_year`` reads row
    ``p`` of two (years x years) tables built once per config: its Poisson means are its
    lambda times the weight row, and its counts are its cumulative draws over the years
    the mask row keeps, its publication year to the census year, the last its total. Poisson
    takes the means in row order, drawing nothing for a zero mean: any block size gives one corpus.
    """
    shape_rng = np.random.default_rng(_SHAPE_SEED)
    count_rng = np.random.default_rng(config.seed)
    first, census = config.first_year, config.census_year
    year_objects = {year: year for year in range(first, census + 1)}  # one int per year
    span = census + 1 - first
    grid = np.arange(span)
    # the weights: 0 before a publication's year (so Poisson draws 0), damped in it, 1 after
    after, same = grid > grid[:, None], grid == grid[:, None]
    weights, counted = after + config.same_year_damping * same, after | same
    rates = np.array([f.rate for f in config.fields], dtype=float)
    field_ids = [(f.field_id,) for f in config.fields]
    if config.dispersion > 0:
        shape, scale = _gamma_shape_scale(config.dispersion)

    width = max(8, len(str(sum(u.n_pubs for u in config.units) - 1)))
    drawn = 0  # publications of the units before this one
    for unit in config.units:
        n, unit_ids = unit.n_pubs, (unit.unit_id,)
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
            year_offsets = pub_years - first
            for start in range(0, n, _BLOCK_PUBS):
                block = slice(start, min(n, start + _BLOCK_PUBS))
                ids = _ids(drawn + block.start, drawn + block.stop, width)
                offsets = year_offsets[block]
                increments = count_rng.poisson(lam[block, None] * weights[offsets])
                cumulative = _checked_cumsum(increments, ids, first)
                # every row from its publication year to the census year, row after row
                ragged = tuple(cumulative[counted[offsets]].tolist())
                ends = np.cumsum(span - offsets).tolist()
                rows = list(map(ragged.__getitem__, map(slice, [0, *ends[:-1]], ends)))
                yield (ids, repeat(unit_ids, len(ids)),
                       map(field_ids.__getitem__, field_idx[block].tolist()),
                       map(year_objects.__getitem__, pub_years[block].tolist()),
                       repeat("article", len(ids)), cumulative[:, -1].tolist(), rows)
        except ValidationError:
            raise
        except (ValueError, MemoryError) as exc:
            raise ValidationError(
                f"unit '{unit.unit_id}': cannot draw citations: {str(exc) or 'out of memory'}"
            ) from None
        drawn += n


@_gc_paused()
def generate_corpus(config: SimulationConfig) -> Corpus:
    """Generate a synthetic corpus; fully deterministic given the config.

    Each unit contributes ``n_pubs`` publications with a publication year
    uniform over [first_year, census_year] and a single field uniform over
    the configured fields. Ids are zero-padded decimals in generation order,
    so generation order and canonical id order coincide.
    """
    columns = [[] for _ in _COLUMNS]
    for block in _drawn_blocks(config):
        for column, values in zip(columns, block):
            column.extend(values)
    # each column's list is dropped as soon as its tuple is made
    return Corpus._from_columns(config.census_year, *(tuple(columns.pop(0)) for _ in _COLUMNS))


def write_simulated(config: SimulationConfig, path: str | Path) -> None:
    """``write_corpus(generate_corpus(config), path)``, drawn and written a block at a time."""
    records = (r for block in _drawn_blocks(config) for r in zip(*block))
    _write_text(path, _jsonl_pieces(config.census_year, records))


def _checked_cumsum(increments: np.ndarray, ids: list[str], first_year: int) -> np.ndarray:
    """Cumulative counts per row, after checking the facts the draws must hold.

    No increment may be negative, and each row's total must stay within
    2**53 - 1; the faults name the first offending publication (row order).
    A block whose smallest increment is >= 0 and whose largest, times its number of
    years, is within 2**53 - 1 returns after those two reductions, as the checks could
    find nothing in it: no increment is negative, and no row, a sum of that many
    increments, totals more than that product, so none exceeds the bound or wraps.
    Every other block runs the full checks.
    """
    if (increments.min() >= 0
            and int(increments.max()) * increments.shape[1] <= _MAX_CITATIONS):
        return increments.cumsum(axis=1)
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
