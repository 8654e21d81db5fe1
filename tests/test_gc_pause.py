"""The corpus builders run with the cyclic collector paused, and restore it afterwards.

``parse_corpus``, ``generate_corpus``, a corpus's first ``publications`` and ``citnorm
simulate``'s streamed draw-and-write build one or more containers per record and no
reference cycle. Each is checked on a 5,000-record corpus, enough allocations for several
young-generation collections had the collector been running.
"""
from __future__ import annotations

import gc
import json
import sys

import pytest

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


def test_a_failed_streamed_draw_leaves_the_collector_on(tmp_path, capsys):
    # u2's totals exceed 2**53 - 1, found after the first pieces of u1's lines are written
    assert simulate_cli(tmp_path, config_dict(quality=1e17)) == 1
    assert capsys.readouterr().err.startswith("error: publication 00003000: ")
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
