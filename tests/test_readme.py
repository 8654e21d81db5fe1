"""README's examples run as written, so a documented import, name or option stays real.

Each runs in a child process against one small config and its census-2009 corpus: the first
python block under "## Library" under ``python -W error``, and the first bash block under
"## Command line" under ``bash -e``, with a ``citnorm`` on ``PATH`` that runs
``python -m citnorm`` from this checkout.
"""
from __future__ import annotations

import json
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from citnorm.cli import main

from conftest import run_child, run_module

pytest.importorskip("numpy")  # each example runs citnorm simulate

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIG = {"fields": [{"field_id": "f1", "rate": 2.0}, {"field_id": "f2", "rate": 0.5}],
          "units": [{"unit_id": "u1", "quality": 1.0, "n_pubs": 60},
                    {"unit_id": "u2", "quality": 1.4, "n_pubs": 40}],
          "first_year": 2000, "census_year": 2009, "seed": 5}


def example(section: str, language: str) -> str:
    """The first ``language`` code block under README's ``## <section>`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_the_library_example_runs(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    assert main(["simulate", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "corpus.jsonl")]) == 0
    (tmp_path / "example.py").write_text(example("Library", "python"), encoding="utf-8")
    proc = run_module("-W", "error", "example.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_the_command_line_example_runs(tmp_path, monkeypatch):
    bin_dir, work = tmp_path / "bin", tmp_path / "work"
    bin_dir.mkdir()
    work.mkdir()
    wrapper = bin_dir / "citnorm"
    wrapper.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m citnorm "$@"\n',
                       encoding="utf-8")
    wrapper.chmod(0o755)
    monkeypatch.setenv("PATH", os.pathsep.join([str(bin_dir), os.environ["PATH"]]))
    (work / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    (work / "example.sh").write_text(example("Command line", "bash"), encoding="utf-8")
    proc = run_child("bash", "-e", "example.sh", cwd=work)
    assert proc.returncode == 0, proc.stderr
