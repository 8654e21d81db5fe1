"""Shared fixtures: the Hypothesis profile, the golden 15-publication research group,
corpus builders and a runner for fresh interpreters."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import citnorm
from citnorm.corpus import Corpus, Publication
from citnorm.indicators import ScoredPublication

# Every run prints a @reproduce_failure blob with a falsifying example, so a
# failure in a CI log, including one raised while drawing the example, can be
# replayed locally. Loaded here, before the test modules build their settings.
settings.register_profile("citnorm", print_blob=True)
settings.load_profile("citnorm")

# A real research group of 15 publications with hand-checked indicator values:
# (pub_year, citations, expected citations, published normalized score).
# Expected citations are printed to 2 decimals, so recomputed ratios must land
# inside the interval implied by that rounding.
GOLDEN_GROUP_ROWS = [
    (1994, 6, 6.97, 0.86),
    (1994, 3, 6.97, 0.43),
    (1995, 0, 7.39, 0.00),
    (1995, 2, 2.54, 0.79),
    (1995, 5, 7.39, 0.68),
    (1997, 21, 3.57, 5.89),
    (1997, 1, 4.42, 0.23),
    (1998, 6, 2.48, 2.42),
    (1998, 6, 2.48, 2.42),
    (1998, 3, 2.17, 1.38),
    (1999, 16, 1.52, 10.55),
    (1999, 13, 1.52, 8.57),
    (1999, 5, 0.45, 11.03),
    (1999, 1, 1.09, 0.91),
    (2000, 0, 0.21, 0.00),
]
GOLDEN_CENSUS = 2000
GOLDEN_FIRST = 1991


def golden_group_scored() -> list[ScoredPublication]:
    return [
        ScoredPublication(id=f"p{i:02d}", pub_year=year, c=c, e=e)
        for i, (year, c, e, _score) in enumerate(GOLDEN_GROUP_ROWS)
    ]


@pytest.fixture
def golden_scored() -> list[ScoredPublication]:
    return golden_group_scored()


def make_pub(
    pid: str,
    field: str = "f1",
    year: int = 2005,
    citations: int = 0,
    units: tuple[str, ...] = ("u1",),
    by_year: dict[int, int] | None = None,
    fields: tuple[str, ...] | None = None,
) -> Publication:
    return Publication(
        id=pid,
        unit_ids=units,
        field_ids=fields if fields is not None else (field,),
        pub_year=year,
        doc_type="article",
        citations_total=citations,
        citations_by_year=by_year,
    )


def make_corpus(pubs, census_year: int = 2010, first_year: int = 2000) -> Corpus:
    return Corpus(tuple(pubs), census_year=census_year, first_year=first_year)


def run_module(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python <args>`` in a fresh interpreter that imports this checkout's citnorm."""
    src = str(Path(citnorm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60, **kwargs)
