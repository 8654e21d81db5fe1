"""The corpus builders run with the cyclic collector paused, and restore it afterwards.

``parse_corpus``, ``generate_corpus`` and a corpus's first ``publications`` build one or
more containers per record and no reference cycle. Each is checked on a 5,000-record corpus,
enough allocations for several young-generation collections had the collector been running.
"""
from __future__ import annotations

import gc
import sys

import pytest

from citnorm.corpus import parse_corpus, write_corpus
from citnorm.errors import ValidationError
from citnorm.simulate import config_from_dict, generate_corpus

# each builder, and the function whose frame is on the stack while it builds: ``publications``
# builds its tuple in _materialize, and caches it once the collector is back on
BUILDERS = {"parse_corpus": "parse_corpus", "generate_corpus": "generate_corpus",
            "publications": "_materialize"}


def make_config(rate=2.0):
    return config_from_dict({
        "fields": [{"field_id": "f1", "rate": rate}, {"field_id": "f2", "rate": 0.5}],
        "units": [{"unit_id": "u1", "quality": 1.0, "n_pubs": 3000},
                  {"unit_id": "u2", "quality": 1.4, "n_pubs": 2000}],
        "first_year": 2000, "census_year": 2009, "seed": 5})


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("gc") / "corpus.jsonl"
    write_corpus(generate_corpus(make_config()), path)
    return path


@pytest.fixture
def build(request, corpus_file):
    """The builder named by the test's parameter, as a call of no arguments, its input ready."""
    config = make_config()
    fresh = generate_corpus(config)  # its publications not built yet
    return {"parse_corpus": lambda: parse_corpus(corpus_file),
            "generate_corpus": lambda: generate_corpus(config),
            "publications": lambda: fresh.publications}[request.param]


@pytest.fixture
def collection_starts():
    """For each collection that starts while the fixture is active, the names of the functions
    running then, innermost first."""
    started: list[list[str]] = []

    def record(phase, info):
        if phase == "start":
            frame, names = sys._getframe(1), []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            started.append(names)

    gc.callbacks.append(record)
    yield started
    gc.callbacks.remove(record)


@pytest.mark.parametrize("build, building", BUILDERS.items(), indirect=["build"])
def test_no_collection_starts_while_a_builder_runs(build, building, collection_starts):
    gc.collect()  # an empty young generation: the call's own argument tuple cannot start one
    built = build()
    assert len(built) == 5000
    assert [names for names in collection_starts if building in names] == []


@pytest.mark.parametrize("build", BUILDERS, indirect=True)
def test_a_build_leaves_the_collector_on(build):
    build()
    assert gc.isenabled()


def test_a_failed_read_leaves_the_collector_on(corpus_file, tmp_path):
    lines = corpus_file.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[40] = "x" + lines[40]  # past the first 32-line batch
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValidationError, match="^line 41: malformed JSON"):
        parse_corpus(bad)
    assert gc.isenabled()


def test_a_failed_draw_leaves_the_collector_on():
    with pytest.raises(ValidationError, match="^unit 'u1': cannot draw citations: "):
        generate_corpus(make_config(rate=1e308))  # no Poisson mean is that large
    assert gc.isenabled()


@pytest.mark.parametrize("build", BUILDERS, indirect=True)
def test_a_paused_collector_stays_paused(build):
    gc.disable()
    try:
        build()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_the_builders_leave_no_cyclic_garbage(corpus_file):
    config = make_config()
    gc.collect()
    gc.disable()
    try:
        parse_corpus(corpus_file)
        generate_corpus(config)
        generate_corpus(config).publications
        assert gc.collect() == 0
    finally:
        gc.enable()
