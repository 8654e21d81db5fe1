"""End-to-end CLI coverage: every subcommand, exit codes, output formats."""
from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import resource
import runpy
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # the CLI fixtures and most tests here run citnorm simulate

import citnorm.cli as cli_module
from citnorm.cli import _build_parser, main
from citnorm.corpus import Corpus, Publication, corpus_to_jsonl, write_corpus
from citnorm.errors import ValidationError
from citnorm.indicators import INDICATOR_NAMES
from citnorm.simulate import (FieldSpec, SimulationConfig, UnitSpec, config_from_dict,
                              generate_corpus)

from conftest import run_module

CONFIG = {
    "fields": [{"field_id": "fast", "rate": 2.5}, {"field_id": "slow", "rate": 0.5}],
    "units": [
        {"unit_id": "u_big", "quality": 1.6, "n_pubs": 120},
        {"unit_id": "u_mid", "quality": 1.0, "n_pubs": 80},
        {"unit_id": "u_low", "quality": 0.7, "n_pubs": 60},
    ],
    "first_year": 2000,
    "census_year": 2009,
    "dispersion": 0.5,
    "seed": 11,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    config = path / "config.json"
    config.write_text(json.dumps(CONFIG))
    corpus = path / "corpus.jsonl"
    assert main(["simulate", "--config", str(config), "--out", str(corpus)]) == 0
    return path


@pytest.fixture(scope="module")
def outputs(workdir):
    """baselines.csv, scores.csv and traj.csv in ``workdir``, written once for the tests
    that read them, so that each of those tests also passes when run on its own."""
    corpus = str(workdir / "corpus.jsonl")
    for argv in (
        ["baselines", "--corpus", corpus, "--census", "2009", "--out", "baselines.csv"],
        ["score", "--corpus", corpus, "--census", "2009", "--units", "all", "--out", "scores.csv"],
        ["trajectory", "--corpus", corpus, "--census", "2009", "--field", "fast",
         "--pub-year", "2000", "--out", "traj.csv"],
    ):
        assert main([*argv[:-1], str(workdir / argv[-1])]) == 0
    return workdir


def test_simulate_writes_jsonl(workdir):
    lines = (workdir / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 260
    first = json.loads(lines[0])
    assert set(first) >= {"id", "unit_ids", "field_ids", "pub_year", "citations_total"}


def test_baselines_command(workdir):
    out = workdir / "baselines.csv"
    code = main(["baselines", "--corpus", str(workdir / "corpus.jsonl"),
                 "--census", "2009", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "field_id,pub_year,mean_citations,cell_size"
    assert len(lines) == 21  # 2 fields x 10 years + header


def test_score_all_units(workdir):
    out = workdir / "scores.csv"
    code = main(["score", "--corpus", str(workdir / "corpus.jsonl"),
                 "--census", "2009", "--units", "all", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("unit_id,")
    assert [line.split(",")[0] for line in lines[1:]] == ["u_big", "u_low", "u_mid"]


@pytest.mark.usefixtures("outputs")
def test_score_subset_and_external_baselines(workdir):
    out = workdir / "scores_subset.csv"
    code = main(["score", "--corpus", str(workdir / "corpus.jsonl"),
                 "--census", "2009", "--units", "u_big,u_low",
                 "--baselines", str(workdir / "baselines.csv"), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3

    # the baselines CSV holds each mean exactly, so each row is the full run's
    full = {line.split(",")[0]: line for line in
            (workdir / "scores.csv").read_text().splitlines()[1:]}
    assert all(full[row.split(",")[0]] == row for row in lines[1:])


# low field rates give small cell means, whose 6-decimal rounding changed a printed score
ROUTES_CONFIG = {
    "fields": [{"field_id": "rare", "rate": 0.02}, {"field_id": "slow", "rate": 0.1},
               {"field_id": "fast", "rate": 2.5}],
    "units": [{"unit_id": f"u{i:02d}", "quality": 0.5 + i / 40, "n_pubs": 30} for i in range(40)],
    "first_year": 2000, "census_year": 2009, "dispersion": 0.8,
}


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3],
                         ids=lambda seed: "crafted" if seed is None else f"seed{seed}")
def test_both_scoring_routes_write_the_same_scores(tmp_path, seed):
    # score over baselines computed in memory, or over the baselines CSV: with 6-decimal
    # means the crafted cell of 3,000 publications and one citation read back as 0.000333,
    # and u1's scores as 300.3003, as did one value in each of seeds 0 to 2
    corpus = str(tmp_path / "corpus.jsonl")
    if seed is None:
        write_corpus(Corpus([Publication(f"p{i:04d}", ("u1" if i < 10 else "u2",), ("f",),
                                         2005, "article", int(i == 0)) for i in range(3000)],
                            census_year=2009), corpus)
    else:
        (tmp_path / "config.json").write_text(json.dumps({**ROUTES_CONFIG, "seed": seed}))
        assert main(["simulate", "--config", str(tmp_path / "config.json"), "--out", corpus]) == 0
    common = ["--corpus", corpus, "--census", "2009"]
    baselines = str(tmp_path / "baselines.csv")
    assert main(["baselines", *common, "--out", baselines]) == 0
    for name, extra in (("direct.csv", []), ("via.csv", ["--baselines", baselines])):
        assert main(["score", *common, "--units", "all", *extra,
                     "--out", str(tmp_path / name)]) == 0
    direct = (tmp_path / "direct.csv").read_text()
    assert (tmp_path / "via.csv").read_text() == direct
    if seed is None:
        assert direct.splitlines()[1] == "u1,10,10,0,300.0,300.0,300.0"


COMPARE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_indicators.py"


@pytest.mark.parametrize("seed", range(4))
def test_cli_chain_writes_what_the_library_computes(tmp_path, monkeypatch, capsys, seed):
    # compare_indicators.py correlates, ranks and plots the scores it holds in memory; the
    # CLI chain reads them back from scores.csv, which must hold each indicator exactly
    bundle, chain = tmp_path / "bundle", tmp_path / "chain"
    monkeypatch.setattr(sys, "argv", [str(COMPARE_SCRIPT), "--out-dir", str(bundle),
                                      "--seed", str(seed)])
    runpy.run_path(str(COMPARE_SCRIPT), run_name="__main__")
    chain.mkdir()
    scores = str(chain / "scores.csv")
    assert main(["score", "--corpus", str(bundle / "corpus.jsonl"), "--census", "2000",
                 "--units", "all", "--out", scores]) == 0
    assert main(["correlate", "--scores", scores, "--out", str(chain / "correlations.csv")]) == 0
    for y in ("mncs1", "mncs2"):
        assert main(["plot", "--scores", scores, "--x", "cpp_fcsm", "--y", y,
                     "--threshold", "50", "--out", str(chain / f"scatter_{y}.svg")]) == 0
    capsys.readouterr()
    for indicator in INDICATOR_NAMES:
        assert main(["rank", "--scores", scores, "--by", indicator, "--top", "10"]) == 0
        (chain / f"ranking_{indicator}.csv").write_text(capsys.readouterr().out,
                                                         encoding="utf-8")
    written = sorted(path.name for path in chain.iterdir())
    assert len(written) == 7
    for name in written:
        assert (chain / name).read_bytes() == (bundle / name).read_bytes(), name


def test_score_unknown_unit_fails_validation(workdir, capsys):
    code = main(["score", "--corpus", str(workdir / "corpus.jsonl"),
                 "--census", "2009", "--units", "ghost",
                 "--out", str(workdir / "nope.csv")])
    assert code == 1
    assert "ghost" in capsys.readouterr().err


@pytest.mark.usefixtures("outputs")
def test_correlate_command(workdir):
    out = workdir / "corr.csv"
    code = main(["correlate", "--scores", str(workdir / "scores.csv"),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "label_x,label_y,pearson,spearman,n"
    assert len(lines) == 4


@pytest.mark.usefixtures("outputs")
def test_correlate_min_pubs(workdir):
    out = workdir / "corr_floor.csv"
    code = main(["correlate", "--scores", str(workdir / "scores.csv"),
                 "--min-pubs", "70", "--out", str(out)])
    assert code == 0
    assert all(line.endswith(",2") for line in out.read_text().splitlines()[1:])


@pytest.mark.parametrize("command", [
    ["correlate", "--scores", "{scores}", "--min-pubs", "-4", "--out", "{out}"],
    ["rank", "--scores", "{scores}", "--by", "mncs1", "--top", "-1"],
], ids=["correlate", "rank"])
def test_negative_count_options_are_one_line_errors(workdir, tmp_path, capsys, command):
    scores, out = tmp_path / "scores.csv", tmp_path / "out.csv"
    assert main(["score", "--corpus", str(workdir / "corpus.jsonl"), "--census", "2009",
                 "--units", "all", "--out", str(scores)]) == 0
    assert main([arg.format(scores=scores, out=out) for arg in command]) == 1
    captured = capsys.readouterr()
    option = "min_pubs" if command[0] == "correlate" else "top"
    assert captured.err == f"error: {option} must be >= 0\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["trajectory", "age-corr"])
def test_an_empty_cohort_is_named(workdir, tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert main([command, "--corpus", str(workdir / "corpus.jsonl"), "--field", "nope",
                 "--pub-year", "2005", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: no publications in field 'nope', year 2005\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["baselines"],
    ["score", "--units", "all"],
    ["trajectory", "--field", "fast", "--pub-year", "2003"],
    ["age-corr", "--field", "fast", "--pub-year", "2003"],
], ids=lambda command: command[0])
def test_census_bounds_every_pub_year(workdir, tmp_path, capsys, command):
    records = [json.loads(line) for line in (workdir / "corpus.jsonl").read_text().splitlines()]
    line, late = next((n, r) for n, r in enumerate(records, 1) if r["pub_year"] == 2000)
    late.update(pub_year=2010, citations_by_year={"2010": late["citations_total"]})
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(record) + "\n" for record in records))
    out = tmp_path / "out.csv"
    argv = [command[0], "--corpus", str(corpus), "--census", "2009", *command[1:],
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: line {line}: publication {late['id']}: pub_year 2010 is after census_year 2009"
    ]
    assert not out.exists()
    # a corpus has no other year bound
    assert main([*argv, "--first-year", "2000"]) == 1
    assert "unrecognized arguments: --first-year 2000" in capsys.readouterr().err
    assert not out.exists()
    argv[2] = str(workdir / "corpus.jsonl")
    assert main(argv) == 0
    assert out.exists() and capsys.readouterr().err == ""


def test_trajectory_command(workdir):
    out = workdir / "traj.csv"
    code = main(["trajectory", "--corpus", str(workdir / "corpus.jsonl"),
                 "--census", "2009", "--field", "fast", "--pub-year", "2000",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "year,mean_citations"
    assert len(lines) == 11
    means = [float(line.split(",")[1]) for line in lines[1:]]
    assert means == sorted(means)


@pytest.mark.usefixtures("outputs")
def test_trajectory_census_inferred(workdir):
    # census is optional for cohort commands; it is read off the file
    out = workdir / "traj_nocensus.csv"
    code = main(["trajectory", "--corpus", str(workdir / "corpus.jsonl"),
                 "--field", "fast", "--pub-year", "2000", "--out", str(out)])
    assert code == 0
    assert out.read_text() == (workdir / "traj.csv").read_text()


@pytest.mark.parametrize("command", ["trajectory", "age-corr"])
def test_cohort_commands_build_no_publication(workdir, tmp_path, monkeypatch, command):
    from citnorm import corpus as corpus_module

    def materialize(*args):
        raise AssertionError("a cohort command built publications")

    monkeypatch.setattr(corpus_module, "_materialize", materialize)
    assert main([command, "--corpus", str(workdir / "corpus.jsonl"), "--field", "fast",
                 "--pub-year", "2000", "--out", str(tmp_path / "out.csv")]) == 0


def test_age_corr_command(workdir):
    out = workdir / "age.csv"
    code = main(["age-corr", "--corpus", str(workdir / "corpus.jsonl"),
                 "--census", "2009", "--field", "fast", "--pub-year", "2000",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",2000,2001,2002,2003,2004,2005,2006,2007,2008,2009"
    assert len(lines) == 11
    assert lines[1].split(",")[1] == ""  # blank diagonal


@pytest.mark.usefixtures("outputs")
def test_plot_command(workdir):
    out = workdir / "scatter.svg"
    code = main(["plot", "--scores", str(workdir / "scores.csv"),
                 "--x", "cpp_fcsm", "--y", "mncs1", "--threshold", "50",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("<?xml") and "</svg>" in text


@pytest.mark.usefixtures("outputs")
def test_plot_axis_max(workdir):
    out = workdir / "scatter_zoom.svg"
    code = main(["plot", "--scores", str(workdir / "scores.csv"),
                 "--x", "cpp_fcsm", "--y", "mncs2", "--axis-max", "0.8",
                 "--out", str(out)])
    assert code == 0
    assert "axis_max=0.800000" in out.read_text()


@pytest.mark.usefixtures("outputs")
def test_rank_writes_csv_to_stdout(workdir, capsys):
    code = main(["rank", "--scores", str(workdir / "scores.csv"),
                 "--by", "mncs2", "--top", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rank,unit_id,score"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


def test_missing_file_is_io_error(tmp_path, capsys):
    code = main(["baselines", "--corpus", str(tmp_path / "absent.jsonl"),
                 "--census", "2009", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def test_bad_corpus_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "P1"}\n')
    code = main(["baselines", "--corpus", str(bad), "--census", "2009",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "missing key" in capsys.readouterr().err


def test_bad_usage_is_validation_error(capsys):
    assert main(["score", "--corpus", "x.jsonl"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_indicator_choice_rejected(workdir, capsys):
    code = main(["rank", "--scores", str(workdir / "scores.csv"),
                 "--by", "h_index", "--top", "3"])
    assert code == 1


@pytest.mark.parametrize("command", ["baselines", "score"])
def test_citation_count_beyond_float_range_is_one_line_error(tmp_path, command):
    corpus = tmp_path / "huge.jsonl"
    corpus.write_text(json.dumps({
        "id": "P1", "unit_ids": ["u1"], "field_ids": ["f1"], "pub_year": 2005,
        "doc_type": "article", "citations_total": 10 ** 400,
    }) + "\n", encoding="utf-8")
    units = ["--units", "all"] if command == "score" else []
    proc = run_module("-m", "citnorm", command, "--corpus", str(corpus), "--census", "2009",
                       *units, "--out", str(tmp_path / "out.csv"))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: line 1: publication P1: citations_total exceeds 2**53 - 1"
    ]


@pytest.mark.parametrize("command", ["baselines", "trajectory"])  # trajectory infers the census
def test_integer_literal_beyond_digit_limit_is_one_line_error(tmp_path, capsys, command):
    corpus = tmp_path / "huge.jsonl"
    corpus.write_text('{"id": "P1", "citations_total": ' + "1" * 5001 + "}\n", encoding="utf-8")
    argv = {
        "baselines": ["baselines", "--corpus", str(corpus), "--census", "2009"],
        "trajectory": ["trajectory", "--corpus", str(corpus), "--field", "f",
                       "--pub-year", "2005"],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: line 1: integer literal longer than 4300 digits"
    ]


def test_repeated_field_id_is_one_line_error(tmp_path, capsys):
    corpus = tmp_path / "repeated.jsonl"
    corpus.write_text("".join(json.dumps({
        "id": pid, "unit_ids": ["u1"], "field_ids": fields, "pub_year": 2000,
        "doc_type": "article", "citations_total": total,
    }) + "\n" for pid, fields, total in [("P1", ["f", "f"], 3), ("P2", ["f"], 1)]),
        encoding="utf-8")
    code = main(["baselines", "--corpus", str(corpus), "--census", "2000",
                 "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: line 1: publication P1: field_ids repeats 'f'"
    ]


HOSTILE_CONFIG_VALUES = [
    ("fields", "rate", float("nan")),
    ("fields", "rate", float("inf")),
    ("fields", "rate", 1e20),
    ("fields", "field_id", ""),
    ("units", "unit_id", 5),
    ("units", "quality", float("nan")),
    (None, "dispersion", float("inf")),
    (None, "dispersion", 1e200),
    (None, "same_year_damping", float("nan")),
    (None, "seed", float("inf")),
    ("units", "n_pubs", 2.7),
    ("units", "n_pubs", True),
    (None, "seed", 1.5),
    (None, "seed", "7"),
    (None, "first_year", 1e20),
    (None, "first_year", 0),
    (None, "census_year", 10 ** 20),
    (None, "census_year", "2009"),
    ("fields", "rate", "2.5"),
    ("units", "quality", "1"),
    (None, "dispersion", "0.5"),
    (None, "same_year_damping", False),
    (None, "seeds", 1),
    ("fields", "weight", 1),
    ("units", "country", "NL"),
    (None, "fields", 5),
    (None, "units", None),
    (None, "dispersion", 10 ** 400),
    ("fields", "rate", 10 ** 400),
    ("units", "quality", -10 ** 400),
]


@pytest.mark.parametrize("section, key, value", HOSTILE_CONFIG_VALUES,
                         ids=[f"{key}={value!r:.30}" for _, key, value in HOSTILE_CONFIG_VALUES])
def test_hostile_simulation_config_is_one_line_error(tmp_path, capsys, section, key, value):
    config = json.loads(json.dumps(CONFIG))
    (config if section is None else config[section][0])[key] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))  # NaN and Infinity as JSON extensions
    code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "c.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err


def _outcome(build) -> str | None:
    """The message ``build()`` raises as a ValidationError, or None if it raises none."""
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


CONFIG_KEYS = {f.name for spec in (SimulationConfig, FieldSpec, UnitSpec) for f in fields(spec)}
KNOWN_KEY_VALUES = [case for case in HOSTILE_CONFIG_VALUES if case[1] in CONFIG_KEYS]


@pytest.mark.parametrize("section, key, value", KNOWN_KEY_VALUES,
                         ids=[f"{key}={value!r:.30}" for _, key, value in KNOWN_KEY_VALUES])
def test_config_built_in_code_is_checked_as_its_json(section, key, value):
    # the dataclasses are the one schema: a value the reader rejects, the constructor
    # rejects in the same words, and one the reader lets through, so does the constructor
    config = json.loads(json.dumps(CONFIG))
    (config if section is None else config[section][0])[key] = value
    valid = config_from_dict(CONFIG)
    if section is None:
        changed = {key: value}
    else:
        specs = getattr(valid, section)
        changed = {section: (replace(specs[0], **{key: value}), *specs[1:])}
    in_code = _outcome(lambda: replace(valid, **changed))
    from_json = _outcome(lambda: config_from_dict(config))
    assert from_json == (None if in_code is None else f"bad simulation config: {in_code}")


def test_config_integer_beyond_digit_limit_is_one_line_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG).replace('"seed": 11', '"seed": ' + "1" * 5001))
    code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "c.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: bad simulation config: "), err


def test_census_inferring_run_reads_each_line_once(workdir, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    lines = (workdir / "corpus.jsonl").read_text().splitlines()
    corpus.write_text("\n".join(lines[:5] + ["", "  "] + lines[5:]) + "\n")
    loads, decoded = json.loads, []

    def counting_loads(*args, **kwargs):
        decoded.append(loads(*args, **kwargs))
        return decoded[-1]

    monkeypatch.setattr(json, "loads", counting_loads)
    assert main(["trajectory", "--corpus", str(corpus), "--field", "fast", "--pub-year", "2000",
                 "--out", str(tmp_path / "traj.csv")]) == 0
    # every call decoded a batch (the per-line reader returns no list), one record per line
    assert all(type(records) is list for records in decoded)
    assert sum(map(len, decoded)) == len(lines)


def test_each_command_loads_only_the_modules_it_runs(workdir, tmp_path):
    # the citnorm modules each command loads, as an equal set, so that a library import
    # added at the top of a module shows up here; only simulate loads numpy
    corpus, config = str(workdir / "corpus.jsonl"), str(workdir / "config.json")
    baselines, scores = str(tmp_path / "baselines.csv"), str(tmp_path / "scores.csv")
    commands = [
        (["--help"], set()),
        (["simulate", "--config", config, "--out", str(tmp_path / "corpus.jsonl")],
         {"corpus", "simulate"}),
        (["baselines", "--corpus", corpus, "--census", "2009", "--out", baselines],
         {"corpus", "baseline"}),
        (["score", "--corpus", corpus, "--census", "2009", "--units", "all",
          "--baselines", baselines, "--out", scores], {"corpus", "baseline", "indicators"}),
        (["trajectory", "--corpus", corpus, "--census", "2009", "--field", "slow",
          "--pub-year", "2003", "--out", str(tmp_path / "trajectory.csv")], {"corpus", "stats"}),
        (["age-corr", "--corpus", corpus, "--field", "slow", "--pub-year", "2003",
          "--out", str(tmp_path / "age.csv")], {"corpus", "stats"}),
        (["rank", "--scores", scores, "--by", "mncs2", "--top", "2"],
         {"baseline", "indicators", "report"}),
        (["plot", "--scores", scores, "--x", "cpp_fcsm", "--y", "mncs1",
          "--out", str(tmp_path / "scatter.svg")], {"baseline", "indicators", "report"}),
        (["correlate", "--scores", scores, "--out", str(tmp_path / "correlations.csv")],
         {"baseline", "indicators", "stats"}),
    ]
    for argv, modules in commands:
        imported = _imported_modules(argv)
        assert {m for m in imported if m.split(".")[0] == "citnorm"} == {
            "citnorm", "citnorm.cli", "citnorm.errors", "citnorm._files",
            *(f"citnorm.{m}" for m in modules)}, argv[0]
        assert ("numpy" in imported) == (argv[0] == "simulate"), f"{argv[0]} and numpy"


def test_the_parser_lists_the_indicator_names_defined_once():
    commands = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    choices = [action.choices
               for name, option in (("plot", "--x"), ("plot", "--y"), ("rank", "--by"))
               for action in commands[name]._actions if option in action.option_strings]
    assert len(choices) == 3 and all(names is INDICATOR_NAMES for names in choices)


# ``python -m citnorm`` that lists sys.modules on stderr at exit: unlike -X importtime, this
# also sees the modules that importlib.import_module loads
_LIST_MODULES_AT_EXIT = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: sys.stderr.write(''.join(f'module {m}\\n' for m in sys.modules)))\n"
    "runpy.run_module('citnorm', run_name='__main__', alter_sys=True)\n"
)


def _imported_modules(argv: list[str]) -> set[str]:
    """Every module ``python -m citnorm <argv>`` has imported when it exits, which must be 0."""
    proc = run_module("-c", _LIST_MODULES_AT_EXIT, *argv)
    assert proc.returncode == 0, (argv[0], proc.stderr[-500:])
    return {line.removeprefix("module ") for line in proc.stderr.splitlines()
            if line.startswith("module ")}


@pytest.mark.usefixtures("outputs")
def test_plot_does_not_import_html(workdir, tmp_path):
    # the SVG's text is escaped through a table: html was an import of every command
    imported = _imported_modules(["plot", "--scores", str(workdir / "scores.csv"), "--x",
                                  "cpp_fcsm", "--y", "mncs1", "--out", str(tmp_path / "s.svg")])
    assert "citnorm.report" in imported and "html" not in imported


def test_every_option_has_help():
    commands = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    undescribed = [(name, action.option_strings[0]) for name, parser in commands.items()
                   for action in parser._actions if not action.help]
    assert len(commands) == 8 and undescribed == []


def private_citnorm_names(source: str) -> set[str]:
    """The ``_``-prefixed names ``source`` imports from a citnorm module, or reads as an
    attribute of one it imports."""
    tree, modules, private = ast.parse(source), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("citnorm")):
            names = [alias.name for alias in node.names]
            private.update(name for name in names if name.startswith("_"))
            if node.module in (None, "citnorm"):  # from . import corpus: modules by name
                modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                           if alias.name.split(".")[0] == "citnorm")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                private.add(node.attr)
    return private


def test_each_command_calls_only_public_library_names():
    assert private_citnorm_names(
        "from . import corpus\nfrom .stats import _a, b\nimport citnorm.report as r\n"
        "import sys\ncorpus._b(sys._getframe(), r._c, r.d)\nargs._e") == {"_a", "_b", "_c"}
    source = Path(cli_module.__file__).read_text(encoding="utf-8")
    assert private_citnorm_names(source) == set()
    # every import is at module level, and the library is reached through the package's names
    tree, statement = ast.parse(source), (ast.Import, ast.ImportFrom)
    assert ([ast.unparse(n) for n in ast.walk(tree) if isinstance(n, statement)]
            == [ast.unparse(n) for n in tree.body if isinstance(n, statement)]
            == ["from __future__ import annotations", "import argparse", "import sys",
                "import citnorm", "from ._files import INDICATOR_NAMES",
                "from .errors import ValidationError"])


def test_deeply_nested_config_is_one_line_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG).replace('"seed": 11', '"seed": ' + "[" * 100_000))
    code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "c.jsonl")])
    assert code == 1
    assert capsys.readouterr().err == "error: bad simulation config: malformed JSON: nesting too deep\n"


SCORES_CSV = (b"unit_id,n_total,n_mncs2,n_excluded_zero_e,cpp_fcsm,mncs1,mncs2\n"
              b"u1,3,3,0,1.2000,1.1000,0.9000\nu2,2,2,0,0.7000,0.8000,0.8000\n")
BASELINES_CSV = b"field_id,pub_year,mean_citations,cell_size\nf1,2005,1.500000,2\n"
CSV_COMMANDS = {
    "rank": ["rank", "--scores", "{scores}", "--by", "mncs1", "--top", "2"],
    "correlate": ["correlate", "--scores", "{scores}", "--out", "{out}"],
    "plot": ["plot", "--scores", "{scores}", "--x", "mncs1", "--y", "mncs2", "--out", "{out}"],
    "score --baselines": ["score", "--corpus", "{corpus}", "--census", "2009", "--units", "all",
                          "--baselines", "{baselines}", "--out", "{out}"],
}


def _csv_command(tmp_path, command: str, scores: bytes, baselines: bytes) -> list[str]:
    paths = {"scores": tmp_path / "scores.csv", "baselines": tmp_path / "baselines.csv",
             "corpus": tmp_path / "corpus.jsonl", "out": tmp_path / "out"}
    paths["scores"].write_bytes(scores)
    paths["baselines"].write_bytes(baselines)
    paths["corpus"].write_text(json.dumps({
        "id": "P1", "unit_ids": ["u1"], "field_ids": ["f1"], "pub_year": 2005,
        "doc_type": "article", "citations_total": 2}) + "\n", encoding="utf-8")
    return [arg.format(**paths) for arg in CSV_COMMANDS[command]]


@pytest.mark.parametrize("command", CSV_COMMANDS)
@pytest.mark.parametrize("bad, message", [
    (b"\xff", "not valid UTF-8"),
    (b'"' + b"y" * 200_000, "field larger than field limit (131072)"),  # an unclosed quote
], ids=["not-utf8", "field-limit"])
def test_csv_row_the_reader_rejects_is_one_line_error(tmp_path, capsys, command, bad, message):
    scores = SCORES_CSV.replace(b"\nu1,", b"\n" + bad + b"u1,")
    baselines = BASELINES_CSV.replace(b"\nf1,", b"\n" + bad + b"f1,")
    assert main(_csv_command(tmp_path, command, scores, baselines)) == 1
    table = "baseline" if command == "score --baselines" else "scores"
    assert capsys.readouterr().err.splitlines() == [f"error: {table} CSV row 2: {message}"]


def _simulate(tmp_path, config) -> int:
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "c.jsonl")])


def _limit_address_space() -> None:
    """Runs in the child before it execs Python: 512 MiB of address space, which numpy and
    citnorm import well within, so an allocation per drawn publication fails at once."""
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29))


@pytest.mark.parametrize("section, key, value", [
    ("units", "n_pubs", 2 ** 64),  # more draws than numpy can shape an array for
    ("fields", "rate", 1e308),  # rate × quality × heterogeneity overflows to inf
])
def test_draws_numpy_cannot_make_are_one_line_error(tmp_path, monkeypatch, section, key, value):
    # in a child process with bounded memory: a simulator that allocated per publication
    # before numpy refused the size would fail this test rather than exhaust the machine
    import numpy as np

    config = json.loads(json.dumps(CONFIG))
    config[section][0][key] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # no per-thread buffers to reserve
    proc = run_module("-m", "citnorm", "simulate", "--config", str(config_path),
                      "--out", str(tmp_path / "c.jsonl"), preexec_fn=_limit_address_space)
    if key == "rate":
        reason = "lam value is not finite"
    else:
        with pytest.raises(ValueError) as refused:  # raised before numpy allocates anything
            np.random.default_rng(0).integers(0, 2, size=value)
        reason = str(refused.value)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [f"error: unit 'u_big': cannot draw citations: {reason}"]
    assert not (tmp_path / "c.jsonl").exists()


def test_draws_beyond_memory_are_one_line_error(tmp_path, capsys, monkeypatch):
    import numpy as np

    class NoMemory:
        """A generator that fails as numpy's does for more draws than memory holds."""

        def __init__(self, seed):
            pass

        def integers(self, low, high, size):
            raise MemoryError

    monkeypatch.setattr(np.random, "default_rng", NoMemory)
    config = json.loads(json.dumps(CONFIG))
    config["units"][0]["n_pubs"] = 10 ** 10
    assert _simulate(tmp_path, config) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: unit 'u_big': cannot draw citations: out of memory"
    ]


LATE_FAULT_CONFIG = {
    "fields": [{"field_id": "f", "rate": 1.0}],
    # the calm unit fills the first 1,024-line piece and more; even a damped first year of
    # the loud unit draws about 1e16 > 2**53 - 1
    "units": [{"unit_id": "calm", "quality": 1.0, "n_pubs": 1100},
              {"unit_id": "loud", "quality": 1e17, "n_pubs": 3}],
    "first_year": 2000, "census_year": 2009,
}


def _late_fault() -> str:
    """The error line for LATE_FAULT_CONFIG: the fault generate_corpus reports."""
    with pytest.raises(ValidationError) as fault:
        generate_corpus(config_from_dict(LATE_FAULT_CONFIG))
    assert str(fault.value) == "publication 00001100: citations_total exceeds 2**53 - 1"
    return f"error: {fault.value}"


@pytest.mark.parametrize("target", ["new", "existing"])
def test_a_draw_fault_after_the_first_piece_leaves_no_file(tmp_path, capsys, target):
    out = tmp_path / "c.jsonl"
    if target == "existing":
        out.write_bytes(b"an older corpus\n")
    assert _simulate(tmp_path, LATE_FAULT_CONFIG) == 1
    assert capsys.readouterr().err.splitlines() == [_late_fault()]
    assert sorted(os.listdir(tmp_path)) == ["c.jsonl", "config.json"][target == "new":]
    if target == "existing":
        assert out.read_bytes() == b"an older corpus\n"


def test_a_draw_fault_after_the_first_piece_ends_a_stream_after_its_lines(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(LATE_FAULT_CONFIG))
    proc = run_module("-m", "citnorm", "simulate", "--config", str(config_path),
                      "--out", "/dev/stdout")
    assert proc.returncode == 1 and proc.stderr.splitlines() == [_late_fault()]
    calm = config_from_dict({**LATE_FAULT_CONFIG, "units": LATE_FAULT_CONFIG["units"][:1]})
    assert proc.stdout == "".join(corpus_to_jsonl(generate_corpus(calm)).splitlines(True)[:1024])


def test_an_unwritable_target_is_found_before_a_late_draw_fault(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(LATE_FAULT_CONFIG))
    out = tmp_path / "missing" / "c.jsonl"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_simulate_holds_a_block_of_draws_not_the_corpus(tmp_path):
    import citnorm.simulate  # noqa: F401  numpy and the simulator load before the trace

    config_path, out = tmp_path / "config.json", tmp_path / "c.jsonl"
    config_path.write_text(json.dumps({
        "fields": [{"field_id": "f1", "rate": 2.0}, {"field_id": "f2", "rate": 0.5}],
        "units": [{"unit_id": "u1", "quality": 1.0, "n_pubs": 50_000}],
        "first_year": 1999, "census_year": 2008, "dispersion": 0.8, "seed": 5}))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding the corpus to write it took about 15 MB; a block of draws, a piece of text and
    # the unit's per-publication arrays take under 5 MB
    assert out.stat().st_size > 8e6
    assert peak - before < 6.5e6


RECORD = {"id": "P1", "unit_ids": ["u1"], "field_ids": ["f1"], "pub_year": 2005,
          "doc_type": "article", "citations_total": 2}
CORPUS_ARGS = ["--corpus", "{corpus}", "--census", "2009", "--out", "{out}"]
LINE_BREAK_ERRORS = {
    "corpus key": ({**RECORD, "bad\nkey": 1}, ["baselines", *CORPUS_ARGS],
                   r"error: line 1: unknown key 'bad\nkey'"),
    "field id": ({**RECORD, "field_ids": ["f\ng"]},
                 ["score", *CORPUS_ARGS, "--units", "all", "--baselines", "{baselines}"],
                 r"error: no baseline cell for field 'f\ng', year 2005"),
    "unit id": (RECORD, ["score", *CORPUS_ARGS, "--units", "x\ny\u2028z"],
                r"error: unit 'x\ny\u2028z' has no publications"),
    "config key": (RECORD, ["simulate", "--config", "{config}", "--out", "{out}"],
                   r"error: bad simulation config: unknown key 'fi\rst_year' in the config"),
    "argument": (RECORD, ["baselines", *CORPUS_ARGS, "x\ny"],
                 r"usage error: unrecognized arguments: x\ny"),
}


@pytest.mark.parametrize("record, command, line", LINE_BREAK_ERRORS.values(),
                         ids=LINE_BREAK_ERRORS)
def test_error_naming_a_line_break_is_one_line(tmp_path, capsys, record, command, line):
    paths = {name: tmp_path / name for name in ("corpus", "baselines", "config", "out")}
    paths["corpus"].write_text(json.dumps(record) + "\n", encoding="utf-8")
    paths["baselines"].write_bytes(BASELINES_CSV)
    paths["config"].write_text(json.dumps(  # the config's first_year key, with a carriage return
        {("fi\rst_year" if key == "first_year" else key): value for key, value in CONFIG.items()}))
    assert main([arg.format(**paths) for arg in command]) == 1
    assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize("mean", ["1e-300", "1e308"])
def test_baseline_mean_compute_baselines_cannot_write_is_one_line_error(tmp_path, capsys, mean):
    corpus, baselines, out = tmp_path / "corpus.jsonl", tmp_path / "b.csv", tmp_path / "s.csv"
    corpus.write_text("".join(json.dumps({
        **RECORD, "id": pid, "unit_ids": [unit], "field_ids": ["g"], "pub_year": 2000,
        "citations_total": total}) + "\n" for pid, unit, total in [("P1", "v", 10 ** 9),
                                                                    ("P2", "w", 1)]))
    baselines.write_text(f"field_id,pub_year,mean_citations,cell_size\ng,2000,{mean},2\n")
    assert main(["score", "--corpus", str(corpus), "--census", "2009", "--units", "all",
                 "--baselines", str(baselines), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: baseline CSV row 2: invalid cell"]
    assert not out.exists()


@pytest.mark.parametrize("axis_max", ["nan", "inf", "-inf", "0"])
def test_plot_axis_max_not_finite_and_positive_is_one_line_error(tmp_path, capsys, axis_max):
    scores, out = tmp_path / "scores.csv", tmp_path / "scatter.svg"
    scores.write_bytes(SCORES_CSV)
    assert main(["plot", "--scores", str(scores), "--x", "mncs1", "--y", "mncs2",
                 f"--axis-max={axis_max}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: axis_max must be finite and > 0: got {float(axis_max)}"]
    assert not out.exists()


@pytest.mark.parametrize("unit", ["\x01", "\ufffe"])
def test_plot_of_a_unit_id_xml_forbids_is_one_line_error(tmp_path, capsys, unit):
    corpus, scores, out = tmp_path / "corpus.jsonl", tmp_path / "scores.csv", tmp_path / "p.svg"
    corpus.write_text("".join(json.dumps({**RECORD, "id": pid, "unit_ids": [uid]}) + "\n"
                              for pid, uid in [("P1", "ok"), ("P2", unit)]))
    assert main(["score", "--corpus", str(corpus), "--census", "2009", "--units", "all",
                 "--out", str(scores)]) == 0
    assert main(["plot", "--scores", str(scores), "--x", "cpp_fcsm", "--y", "mncs1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: unit id {unit!r} holds a character XML 1.0 forbids"]
    assert not out.exists()


def test_score_of_an_empty_units_list_is_one_line_error(workdir, tmp_path, capsys):
    out = tmp_path / "scores.csv"
    assert main(["score", "--corpus", str(workdir / "corpus.jsonl"), "--census", "2009",
                 "--units", ",", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --units got an empty list"]
    assert not out.exists()


@pytest.mark.parametrize("section, value, message", [
    (None, 2 ** 64, "seed must be a 64-bit unsigned integer"),
    (None, -1, "seed must be a 64-bit unsigned integer"),
    ("units", 5, "units[0] must be a JSON object"),
    # a repeated id would draw both specs' records under that one id
    ("fields", {"field_id": "slow", "rate": 9.0}, "field 'slow' is listed twice"),
    ("units", CONFIG["units"][1], "unit 'u_mid' is listed twice"),
    # a key fault names the key and where it is missing; a None value leaves the key out
    pytest.param("fields", None, "missing key 'fields' in the config", id="no-fields"),
    pytest.param("fields", {"rate": 9.0}, "missing key 'field_id' in fields[0]", id="no-field-id"),
    # bytes are the seed's literal as written: its fault reads as in a corpus line
    pytest.param(None, b"\xff", "not valid UTF-8", id="not-utf8"),
    pytest.param(None, b"1" * 5001,
                 f"integer literal longer than {sys.get_int_max_str_digits()} digits",
                 id="over-long-integer"),
])
def test_config_out_of_range_is_one_line_error(tmp_path, capsys, section, value, message):
    config = json.loads(json.dumps(CONFIG))
    if value is None:
        del config[section]
    elif section is not None:
        config[section][0] = value
    elif type(value) is not bytes:
        config["seed"] = value
    data = json.dumps(config).encode()
    if type(value) is bytes:
        data = data.replace(b'"seed": 11', b'"seed": ' + value)
    config_path, out = tmp_path / "config.json", tmp_path / "c.jsonl"
    config_path.write_bytes(data)
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: bad simulation config: {message}"]
    assert not out.exists()


def test_rank_of_a_unit_id_stdout_cannot_encode_is_one_line_error(tmp_path, monkeypatch):
    scores = tmp_path / "scores.csv"
    scores.write_bytes(SCORES_CSV.replace(b"u1,", "\u00e9lan,".encode()))
    args = ("-m", "citnorm", "rank", "--scores", str(scores), "--by", "mncs1", "--top", "2")
    monkeypatch.setenv("PYTHONIOENCODING", "utf-8")
    written = run_module(*args)
    assert written.returncode == 0 and "\u00e9lan" in written.stdout, written.stderr
    monkeypatch.setenv("PYTHONIOENCODING", "ascii")
    refused = run_module(*args)
    assert refused.returncode == 1
    assert refused.stdout == ""
    # stderr escapes what it cannot encode, so the message stays one line
    assert refused.stderr.splitlines() == [r"error: cannot write '\xe9' to stdout as ascii"]
