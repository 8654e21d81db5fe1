"""The one output path: every file a command writes is written whole or not at all.

A failed run leaves an existing output byte-identical and creates no new one,
and no temporary file stays behind. A successful run keeps the file semantics
of a plain ``open(path, "w")``: the mode of a new or existing file, a symlinked
target, and a target that is no regular file, such as a pipe behind ``/dev/stdout``.
"""
from __future__ import annotations

import builtins
import errno
import json
import os
import stat
import threading
from pathlib import Path

import pytest

from citnorm.cli import main
from citnorm.errors import ValidationError
from citnorm.indicators import UnitScore, write_scores

from conftest import run_module, simulator

CONFIG = {
    "fields": [{"field_id": "f1", "rate": 2.0}, {"field_id": "f2", "rate": 0.5}],
    "units": [
        {"unit_id": "u1", "quality": 1.5, "n_pubs": 60},
        {"unit_id": "u2", "quality": 1.0, "n_pubs": 50},
        {"unit_id": "u3", "quality": 0.6, "n_pubs": 40},
    ],
    "first_year": 2000,
    "census_year": 2009,
    "dispersion": 0.5,
    "seed": 3,
}
PREVIOUS = b"previous output\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """A config, the corpus it simulates and that corpus's scores."""
    simulator()
    path = tmp_path_factory.mktemp("inputs")
    (path / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    assert main(["simulate", "--config", str(path / "config.json"),
                 "--out", str(path / "corpus.jsonl")]) == 0
    assert main(["score", "--corpus", str(path / "corpus.jsonl"), "--census", "2009",
                 "--units", "all", "--out", str(path / "scores.csv")]) == 0
    return path


def command(name: str, inputs: Path, out: Path) -> list[str]:
    """The argv of one file-writing command, writing to ``out``."""
    corpus = ["--corpus", str(inputs / "corpus.jsonl"), "--census", "2009"]
    cohort = [*corpus, "--field", "f1", "--pub-year", "2003"]
    return {
        "simulate": ["simulate", "--config", str(inputs / "config.json")],
        "baselines": ["baselines", *corpus],
        "score": ["score", *corpus, "--units", "all"],
        "correlate": ["correlate", "--scores", str(inputs / "scores.csv")],
        "trajectory": ["trajectory", *cohort],
        "age-corr": ["age-corr", *cohort],
        "plot": ["plot", "--scores", str(inputs / "scores.csv"), "--x", "cpp_fcsm",
                 "--y", "mncs1"],
    }[name] + ["--out", str(out)]


COMMANDS = ["simulate", "baselines", "score", "correlate", "trajectory", "age-corr", "plot"]


def _target(tmp_path: Path, name: str, existing: bool) -> Path:
    """An output path alone in its own directory, holding PREVIOUS when ``existing``."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / name
    if existing:
        target.write_bytes(PREVIOUS)
    return target


def _assert_untouched(target: Path, existing: bool) -> None:
    """The target's directory holds what it held before the run, and nothing else."""
    assert os.listdir(target.parent) == ([target.name] if existing else [])
    if existing:
        assert target.read_bytes() == PREVIOUS


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_surrogate_unit_id_is_one_line_error_and_writes_nothing(tmp_path, capsys, existing):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"id":"a","unit_ids":["\\ud800"],"field_ids":["f"],"pub_year":2000,'
        '"doc_type":"article","citations_total":1}\n'
        '{"id":"b","unit_ids":["u"],"field_ids":["f"],"pub_year":2000,'
        '"doc_type":"article","citations_total":2}\n', encoding="utf-8")
    target = _target(tmp_path, "scores.csv", existing)
    code = main(["score", "--corpus", str(corpus), "--census", "2001", "--units", "all",
                 "--out", str(target)])
    assert code == 1
    assert capsys.readouterr().err == "error: cannot write '\\ud800' as UTF-8\n"
    _assert_untouched(target, existing)


def test_library_writer_rejects_a_surrogate_before_touching_the_file(tmp_path):
    target = tmp_path / "scores.csv"
    score = UnitScore("u\udfff", 1, 1, 0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError, match=r"^cannot write '\\udfff' as UTF-8$"):
        write_scores([score], target)
    assert not target.exists()


class _DiskFull:
    """A file whose writes store half their data, then fail as a full disk does."""

    def __init__(self, handle) -> None:
        self._handle = handle

    def __getattr__(self, name: str):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("name", COMMANDS)
def test_failed_write_leaves_the_target_as_it_was(tmp_path, monkeypatch, capsys, inputs, name,
                                                  existing):
    target = _target(tmp_path, "output", existing)
    real_open = builtins.open

    def open_for_a_full_disk(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        return _DiskFull(handle) if "w" in mode or "x" in mode else handle

    monkeypatch.setattr(builtins, "open", open_for_a_full_disk)
    code = main(command(name, inputs, target))
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == f"i/o error: [Errno {errno.ENOSPC}] " \
                                      f"{os.strerror(errno.ENOSPC)}\n"
    _assert_untouched(target, existing)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_file_size_limit_leaves_no_partial_corpus(tmp_path, inputs, existing):
    resource = pytest.importorskip("resource")
    target = _target(tmp_path, "corpus.jsonl", existing)

    def limit_file_size() -> None:  # runs in the child only; Python ignores SIGXFSZ
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))

    proc = run_module("-m", "citnorm", *command("simulate", inputs, target),
                       preexec_fn=limit_file_size)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"i/o error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"]
    _assert_untouched(target, existing)
    # the same run without the limit writes the whole corpus
    assert run_module("-m", "citnorm", *command("simulate", inputs, target)).returncode == 0
    assert target.read_bytes() == (inputs / "corpus.jsonl").read_bytes()


@pytest.mark.parametrize("name", COMMANDS)
def test_rerun_over_existing_outputs_is_identical(tmp_path, inputs, name):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(command(name, inputs, first)) == 0
    second.write_bytes(PREVIOUS * 1000)
    assert main(command(name, inputs, second)) == 0
    assert second.read_bytes() == first.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["first", "second"]


def test_new_file_gets_the_mode_open_gives(tmp_path, inputs):
    old_umask = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        assert main(command("baselines", inputs, tmp_path / "written")) == 0
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE((tmp_path / "written").stat().st_mode) == 0o640
    assert (tmp_path / "written").stat().st_mode == (tmp_path / "plain").stat().st_mode


@pytest.mark.parametrize("mode", [0o600, 0o664])
def test_existing_target_keeps_its_mode(tmp_path, inputs, mode):
    target = _target(tmp_path, "baselines.csv", existing=True)
    target.chmod(mode)
    assert main(command("baselines", inputs, target)) == 0
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert target.read_bytes().startswith(b"field_id,pub_year,")


@pytest.mark.parametrize("existing", [False, True], ids=["dangling", "existing"])
def test_symlinked_target_stays_a_link(tmp_path, inputs, existing):
    real = _target(tmp_path, "baselines.csv", existing)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    assert main(command("baselines", inputs, link)) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes().startswith(b"field_id,pub_year,")
    assert os.listdir(real.parent) == ["baselines.csv"]
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "out"]


def test_missing_directory_error_names_the_target(tmp_path, capsys, inputs):
    target = tmp_path / "absent" / "baselines.csv"
    assert main(command("baselines", inputs, target)) == 2
    assert capsys.readouterr().err == (
        f"i/o error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{target}'\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_dev_stdout_writes_through_a_pipe(tmp_path, inputs):
    assert main(command("baselines", inputs, tmp_path / "baselines.csv")) == 0
    proc = run_module("-m", "citnorm", *command("baselines", inputs, Path("/dev/stdout")))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (tmp_path / "baselines.csv").read_text(encoding="utf-8")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_fifo_target_is_written_in_place(tmp_path, inputs):
    assert main(command("baselines", inputs, tmp_path / "baselines.csv")) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(command("baselines", inputs, fifo)) == 0
    finally:
        reader.join(timeout=60)
    assert received == [(tmp_path / "baselines.csv").read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["baselines.csv", "fifo"]
