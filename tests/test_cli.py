"""End-to-end CLI coverage: every subcommand, exit codes, output formats."""
from __future__ import annotations

import json

import pytest

from citnorm.cli import main

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

    # external baselines carry 6-decimal means, so scores may shift a hair
    full = {line.split(",")[0]: line for line in
            (workdir / "scores.csv").read_text().splitlines()[1:]}
    subset = {line.split(",")[0]: line for line in lines[1:]}
    for uid, row in subset.items():
        own = full[uid].split(",")
        ext = row.split(",")
        assert own[:4] == ext[:4]
        for a, b in zip(own[4:], ext[4:]):
            assert float(a) == pytest.approx(float(b), abs=2e-4)


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
def test_first_year_bounds_every_pub_year(workdir, tmp_path, capsys, command):
    corpus = workdir / "corpus.jsonl"
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    line, first = next((n, r) for n, r in enumerate(records, 1) if r["pub_year"] == 2000)
    out = tmp_path / "out.csv"
    argv = [command[0], "--corpus", str(corpus), "--census", "2009", *command[1:],
            "--out", str(out)]
    assert main([*argv, "--first-year", "2001"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: line {line}: publication {first['id']}: pub_year 2000 outside [2001, 2009]"
    ]
    assert not out.exists()
    assert main([*argv, "--first-year", "2000"]) == 0  # the earliest pub_year in the file
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
]


@pytest.mark.parametrize("section, key, value", HOSTILE_CONFIG_VALUES,
                         ids=[f"{key}={value!r}" for _, key, value in HOSTILE_CONFIG_VALUES])
def test_hostile_simulation_config_is_one_line_error(tmp_path, capsys, section, key, value):
    config = json.loads(json.dumps(CONFIG))
    (config if section is None else config[section][0])[key] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))  # NaN and Infinity as JSON extensions
    code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "c.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_config_integer_beyond_digit_limit_is_one_line_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG).replace('"seed": 11', '"seed": ' + "1" * 5001))
    code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "c.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: malformed config JSON: "), err


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


def test_numpy_free_commands_do_not_import_numpy(workdir, tmp_path):
    corpus = str(workdir / "corpus.jsonl")
    baselines, scores = str(tmp_path / "baselines.csv"), str(tmp_path / "scores.csv")
    commands = [
        ["--help"],
        ["trajectory", "--corpus", corpus, "--census", "2009", "--field", "slow",
         "--pub-year", "2003", "--out", str(tmp_path / "trajectory.csv")],
        ["baselines", "--corpus", corpus, "--census", "2009", "--out", baselines],
        ["score", "--corpus", corpus, "--census", "2009", "--units", "all",
         "--baselines", baselines, "--out", scores],
        ["plot", "--scores", scores, "--x", "cpp_fcsm", "--y", "mncs1",
         "--out", str(tmp_path / "scatter.svg")],
        ["rank", "--scores", scores, "--by", "mncs2", "--top", "2"],
        ["correlate", "--scores", scores, "--out", str(tmp_path / "correlations.csv")],
        ["age-corr", "--corpus", corpus, "--field", "slow", "--pub-year", "2003",
         "--out", str(tmp_path / "age.csv")],
    ]
    for argv in commands:
        imported = _imported_modules(argv)
        assert "citnorm.cli" in imported
        assert "numpy" not in imported, f"{argv[0]} imported numpy"


def _imported_modules(argv: list[str]) -> set[str]:
    """Every module ``python -m citnorm <argv>`` imports, which must exit 0."""
    # -X importtime lists every module the run imports on stderr
    proc = run_module("-X", "importtime", "-m", "citnorm", *argv)
    assert proc.returncode == 0, (argv[0], proc.stderr[-500:])
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.usefixtures("outputs")
def test_plot_does_not_import_html(workdir, tmp_path):
    # the SVG's text is escaped through a table: html was an import of every command
    imported = _imported_modules(["plot", "--scores", str(workdir / "scores.csv"), "--x",
                                  "cpp_fcsm", "--y", "mncs1", "--out", str(tmp_path / "s.svg")])
    assert "citnorm.report" in imported and "html" not in imported


def test_deeply_nested_config_is_one_line_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG).replace('"seed": 11', '"seed": ' + "[" * 100_000))
    code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "c.jsonl")])
    assert code == 1
    assert capsys.readouterr().err == "error: malformed config JSON: nesting too deep\n"


SCORES_CSV = (b"unit_id,n_total,n_mncs2,n_excluded_zero_e,cpp_fcsm,mncs1,mncs2\n"
              b"u1,3,3,0,1.2000,1.1000,0.9000\nu2,2,2,0,NA,0.8000,0.8000\n")
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


@pytest.mark.parametrize("section, key, value", [
    ("units", "n_pubs", 2 ** 64),  # more draws than numpy can shape an array for
    ("fields", "rate", 1e308),  # rate × quality × heterogeneity overflows to inf
])
def test_draws_numpy_cannot_make_are_one_line_error(tmp_path, capsys, section, key, value):
    config = json.loads(json.dumps(CONFIG))
    config[section][0][key] = value
    assert _simulate(tmp_path, config) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unit 'u_big': cannot draw citations: ")
    if key == "rate":
        assert err[0].endswith(": lam value is not finite")


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
])
def test_config_out_of_range_is_one_line_error(tmp_path, capsys, section, value, message):
    config = json.loads(json.dumps(CONFIG))
    if section is None:
        config["seed"] = value
    else:
        config[section][0] = value
    config_path, out = tmp_path / "config.json", tmp_path / "c.jsonl"
    config_path.write_text(json.dumps(config))
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
