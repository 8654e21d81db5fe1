"""Pinned output bytes: every file-writing command over one fixed corpus.

The corpus is built in pure Python from ``random.Random`` with a fixed seed, so
it is the same on every supported Python. It holds multi-field and multi-unit
records, records without by-year counts, census-year publications and one cell
where every publication has zero citations. Each command's output is compared
with a sha256 digest recorded when the test was written; a change to any
output byte, or to the order of a floating-point sum, fails here.
"""
from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stdout

import pytest

from citnorm.cli import main
from citnorm.corpus import Corpus, Publication, write_corpus

FIRST, CENSUS = 2000, 2009
FIELDS = ("bio", "chem", "math", "zoo")
UNITS = tuple(f"unit{i:02d}" for i in range(12))


def pinned_corpus() -> Corpus:
    rng = random.Random(20101)
    pubs = []
    for serial in range(400):
        year = FIRST + rng.randrange(CENSUS - FIRST + 1)
        fields = (FIELDS[rng.randrange(3)],)
        if rng.random() < 0.2:  # a second, distinct field
            fields += (FIELDS[(FIELDS.index(fields[0]) + 1 + rng.randrange(2)) % 3],)
        units = tuple(rng.sample(UNITS, rng.choice((0, 1, 1, 1, 2, 3))))
        counts, total = {}, 0
        for y in range(year, CENSUS + 1):
            total += rng.randrange(6 if y > year else 2) * (1 + FIELDS.index(fields[0]))
            counts[y] = total
        # no by-year counts for some 2005 and 2006 records, outside every cohort below
        by_year = None if year in (2005, 2006) and rng.random() < 0.4 else counts
        pubs.append(Publication(f"p{serial:04d}", units, fields, year, "article", total, by_year))
    # a cell whose every member has zero citations: e = 0 for each of them
    for serial in range(3):
        pubs.append(Publication(f"z{serial}", (UNITS[serial],), ("zoo",), 2004, "review", 0,
                                {y: 0 for y in range(2004, CENSUS + 1)}))
    rng.shuffle(pubs)
    return Corpus(pubs, census_year=CENSUS, first_year=FIRST)


# sha256 of each output, recorded on the code these tests were written against
DIGESTS = {
    "corpus.jsonl": "0751c09b17842139c71d1e0403b25c93f5f48b27140244dc3c3fcbe12f1fa6bc",
    "baselines.csv": "f8de84fd1f781e2871d35d6900a07e8ca22ddd9eb01fffcf8d8bb34668d5a95e",
    "scores.csv": "5a8c08e813fa2e318f6021bd28db1be8a6888b1604ff0450501238b25802833b",
    "scores_subset.csv": "63b00ab6fe23364809355d43d32a0945432285339ffaff7ba3364c5bab7e5b16",
    "correlations.csv": "5317f2e02d865fbe3f9ad6fdad38fb364c3f6aa96476fc7b4e9507eb3ba6545e",
    "correlations_min.csv": "23b39874ed9b1be9571df2fcc95c5413a4be10bd64e688aa243cede47b914482",
    "trajectory.csv": "57e04e2a3f62c641c88fa7d5f86fd98118b93c9abefa713cc9c2c2eec27c2cc1",
    "trajectory_inferred.csv": "c9d9592b128988414057de582c2d3c35e12e230e488c822739a05b27b9a6039d",
    "age.csv": "b21d533e7612638886e4f37a72d5f9488882468ec2ba94943e68281882b3cf46",
    "age_inferred.csv": "e9c12aa85be7032b5c9768a51e1fbff08e4deaf2f4a09c3d8faaaf30d32d1d6c",
    "plot.svg": "fa7ee3dde6058abf7ba44a3ae90c8706dfb6be58bb3c132adf6d613d5e93c660",
    "rank.csv": "61de955545ce940b8d68fc7ab1f3bf2a5928c0c34d9101c3b01f08102b58dfd2",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("pinned")
    corpus = str(work / "corpus.jsonl")
    write_corpus(pinned_corpus(), corpus)
    census = ["--census", str(CENSUS)]

    def out(name):
        return ["--out", str(work / name)]

    runs = [
        ["baselines", "--corpus", corpus, *census, *out("baselines.csv")],
        ["score", "--corpus", corpus, *census, "--units", "all", *out("scores.csv")],
        ["score", "--corpus", corpus, *census, "--units", "unit03,unit00,unit11",
         "--baselines", str(work / "baselines.csv"), *out("scores_subset.csv")],
        ["correlate", "--scores", str(work / "scores.csv"), *out("correlations.csv")],
        ["correlate", "--scores", str(work / "scores.csv"), "--min-pubs", "40",
         *out("correlations_min.csv")],
        ["trajectory", "--corpus", corpus, *census, "--field", "bio", "--pub-year", "2003",
         *out("trajectory.csv")],
        ["trajectory", "--corpus", corpus, "--field", "chem", "--pub-year", "2007",
         *out("trajectory_inferred.csv")],
        ["age-corr", "--corpus", corpus, *census, "--field", "chem", "--pub-year", "2001",
         *out("age.csv")],
        ["age-corr", "--corpus", corpus, "--field", "math", "--pub-year", "2000",
         *out("age_inferred.csv")],
        ["plot", "--scores", str(work / "scores.csv"), "--x", "cpp_fcsm", "--y", "mncs1",
         "--threshold", "30", *out("plot.svg")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(["rank", "--scores", str(work / "scores.csv"), "--by", "mncs2",
                     "--top", "8"]) == 0
    (work / "rank.csv").write_text(stdout.getvalue(), encoding="utf-8")
    return work


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_are_pinned(outputs, name):
    assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == DIGESTS[name]
