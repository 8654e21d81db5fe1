"""The corpus builders run with the cyclic collector paused, restore it afterwards, and leave
what they built in the oldest generation.

``parse_corpus``, ``generate_corpus``, a corpus's first ``publications`` and ``citnorm
simulate``'s streamed draw-and-write build one or more containers per record and no
reference cycle. Each is checked on a 5,000-record corpus, enough allocations for several
young-generation collections had the collector been running.

With the collector on and nothing frozen, a builder first collects the young generations, so
the caller's young objects are scanned as they would have been, and a build that returns then
hands every object it made to the oldest generation (``gc.freeze`` then ``gc.unfreeze``), where
no young collection rescans them. A caller's freeze stands: with anything frozen, the builder
only pauses. CPython 3.12's collections move the immortal objects they meet to the permanent
generation, which ``gc.get_freeze_count`` counts as frozen (375 tuples at start-up on 3.12.1),
so the tests of the promotion unfreeze them first.
"""
from __future__ import annotations

import gc
import json
import sys
import weakref
from itertools import chain

import pytest

from citnorm import corpus
from citnorm.cli import main
from citnorm.corpus import parse_corpus, write_corpus
from citnorm.errors import ValidationError
from citnorm.simulate import config_from_dict, generate_corpus

# each builder, and the function whose frame is on the stack while it builds: ``publications``
# builds its tuple in _materialize, and caches it once the collector is back on; the CLI's
# simulate draws each block as _write_text pulls its next piece of text
BUILDERS = {"parse_corpus": "parse_corpus", "generate_corpus": "generate_corpus",
            "publications": "_materialize", "cli_simulate": "_write_text"}


def config_dict(rate=2.0, quality=1.4):
    return {"fields": [{"field_id": "f1", "rate": rate}, {"field_id": "f2", "rate": 0.5}],
            "units": [{"unit_id": "u1", "quality": 1.0, "n_pubs": 3000},
                      {"unit_id": "u2", "quality": quality, "n_pubs": 2000}],
            "first_year": 2000, "census_year": 2009, "seed": 5}


def make_config(rate=2.0):
    return config_from_dict(config_dict(rate))


def simulate_cli(tmp_path, config: dict) -> int:
    """``citnorm simulate`` of ``config`` to ``corpus.jsonl`` in ``tmp_path``, in-process."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "corpus.jsonl")])


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("gc") / "corpus.jsonl"
    write_corpus(generate_corpus(make_config()), path)
    return path


@pytest.fixture
def build(request, corpus_file, tmp_path):
    """The builder named by the test's parameter, as a call of no arguments, its input ready;
    the CLI's simulate gives the lines it wrote."""
    config = make_config()
    fresh = generate_corpus(config)  # its publications not built yet

    def cli_simulate():
        assert simulate_cli(tmp_path, config_dict()) == 0
        return (tmp_path / "corpus.jsonl").read_bytes().splitlines()

    return {"parse_corpus": lambda: parse_corpus(corpus_file),
            "generate_corpus": lambda: generate_corpus(config),
            "publications": lambda: fresh.publications,
            "cli_simulate": cli_simulate}[request.param]


def oldest_generation() -> set[int]:
    return {id(o) for o in gc.get_objects(generation=2)}


# for each builder, objects it made that outlive it: a by-year row and its column, the
# publication tuple and a publication, or a record the CLI's simulate drew and a test kept
KEPT = {"parse_corpus": lambda built, drawn: (built.by_year, built.by_year[0]),
        "generate_corpus": lambda built, drawn: (built.by_year, built.by_year[0]),
        "publications": lambda built, drawn: (built, built[0]),
        "cli_simulate": lambda built, drawn: (drawn[0], drawn[0][6])}


class Node:
    pass


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
    gc.unfreeze()  # see the module docstring
    with pytest.raises(ValidationError, match="^line 41: malformed JSON") as raised:
        parse_corpus(bad)
    assert gc.isenabled() and gc.get_freeze_count() == 0
    assert id(raised.value) not in oldest_generation()  # a build that raises promotes nothing


def test_a_failed_draw_leaves_the_collector_on():
    gc.unfreeze()
    with pytest.raises(ValidationError, match="^unit 'u1': cannot draw citations: ") as raised:
        generate_corpus(make_config(rate=1e308))  # no Poisson mean is that large
    assert gc.isenabled() and gc.get_freeze_count() == 0
    assert id(raised.value) not in oldest_generation()


def test_a_failed_streamed_draw_leaves_the_collector_on(tmp_path, capsys):
    gc.unfreeze()
    # u2's totals exceed 2**53 - 1, found after the first pieces of u1's lines are written
    assert simulate_cli(tmp_path, config_dict(quality=1e17)) == 1
    assert capsys.readouterr().err.startswith("error: publication 00003000: ")
    assert gc.isenabled() and gc.get_freeze_count() == 0


@pytest.mark.parametrize("build, kept", KEPT.items(), indirect=["build"], ids=list(KEPT))
def test_a_build_leaves_its_records_in_the_oldest_generation(build, kept, monkeypatch):
    drawn = []
    pieces = corpus._jsonl_pieces

    def keep_first(census_year, records):  # the CLI's simulate holds no record once written
        records = iter(records)
        drawn.append(next(records))
        return pieces(census_year, chain(drawn, records))

    monkeypatch.setattr(corpus, "_jsonl_pieces", keep_first)
    gc.unfreeze()  # see the module docstring
    records = kept(build(), drawn)
    oldest, young = oldest_generation(), {id(o) for o in gc.get_objects(generation=0)}
    assert [id(o) in oldest for o in records] == [True, True]
    assert [id(o) in young for o in records] == [False, False]
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("build", BUILDERS, indirect=True)
def test_a_cycle_dropped_before_a_build_is_freed_by_a_young_collection(build):
    cycle = Node()
    cycle.self = cycle
    watch = weakref.ref(cycle)
    del cycle
    gc.unfreeze()
    build()
    gc.collect(1)  # reaches no object of the oldest generation
    assert watch() is None


@pytest.mark.parametrize("build", BUILDERS, indirect=True)
def test_a_callers_freeze_stands(build):
    # a build may free frozen objects, so the freeze count can fall; a frozen one stays frozen
    frozen = Node()
    gc.freeze()
    try:
        build()
        assert all(o is not frozen for o in gc.get_objects())
    finally:
        gc.unfreeze()


def test_a_freeze_made_during_a_build_stands(corpus_file, monkeypatch):
    read_batch, frozen = corpus._read_batch, Node()

    def freeze_then_read(*args, **kwargs):
        gc.freeze()
        monkeypatch.setattr(corpus, "_read_batch", read_batch)
        return read_batch(*args, **kwargs)

    monkeypatch.setattr(corpus, "_read_batch", freeze_then_read)
    gc.unfreeze()
    try:
        parse_corpus(corpus_file)
        assert all(o is not frozen for o in gc.get_objects())
    finally:
        gc.unfreeze()


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
