"""Command-line interface.

One binary with subcommands covering the full pipeline: simulate or ingest a
corpus, compute baselines, score units, correlate indicators, export
trajectories and age-correlation matrices, plot scatter figures, and print
rankings. Exit codes: 0 success, 1 validation error, 2 I/O error. All
randomness is seed-controlled through the simulation config; no environment
variables are consulted.
"""
from __future__ import annotations

import argparse
import sys

from . import baseline, corpus, indicators, report, stats
from .errors import ValidationError


# The characters str.splitlines breaks a line at, each mapped to its escape,
# so an error naming a user's string stays one line
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # treat bad usage as a validation error
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="citnorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("baselines", help="compute the expected-citations table")
    p.add_argument("--corpus", required=True, help="publication JSONL file")
    p.add_argument("--census", required=True, type=int, help="census year")
    p.add_argument("--first-year", type=int, default=None,
                   help="earliest admissible publication year (default: min in file)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("score", help="score units (CPP/FCSm, MNCS1, MNCS2)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--census", required=True, type=int)
    p.add_argument("--first-year", type=int, default=None)
    p.add_argument("--units", required=True,
                   help="'all' or a comma-separated list of unit ids")
    p.add_argument("--baselines", default=None,
                   help="optional baseline CSV; default: compute from the corpus")
    p.add_argument("--out", required=True)

    p = sub.add_parser("correlate", help="indicator cross-correlations over a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--min-pubs", type=int, default=0,
                   help="ignore units with fewer total publications")
    p.add_argument("--out", required=True)

    for name, help_ in (("trajectory", "mean cumulative citations per year for a field cohort"),
                        ("age-corr", "cross-year citation-count correlation matrix")):
        p = sub.add_parser(name, help=help_)  # the two cohort commands take the same arguments
        p.add_argument("--corpus", required=True)
        p.add_argument("--census", type=int, default=None,
                       help="census year (default: inferred from the file)")
        p.add_argument("--first-year", type=int, default=None)
        p.add_argument("--field", required=True)
        p.add_argument("--pub-year", required=True, type=int)
        p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic corpus")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--out", required=True, help="output corpus JSONL")

    p = sub.add_parser("plot", help="scatter plot of two indicators as SVG")
    p.add_argument("--scores", required=True)
    p.add_argument("--x", required=True, choices=indicators.INDICATOR_NAMES)
    p.add_argument("--y", required=True, choices=indicators.INDICATOR_NAMES)
    p.add_argument("--threshold", type=int, default=50,
                   help="red-square cutoff on publications with a full citation year")
    p.add_argument("--axis-max", type=float, default=None,
                   help="cap both axes; units beyond it are omitted and tallied")
    p.add_argument("--out", required=True)

    p = sub.add_parser("rank", help="print the top units by one indicator as CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--by", required=True, choices=indicators.INDICATOR_NAMES)
    p.add_argument("--top", required=True, type=int)

    return parser


def _load_corpus(args) -> corpus.Corpus:
    return corpus.parse_corpus(args.corpus, census_year=args.census, first_year=args.first_year)


def _run(args) -> None:
    if args.command == "baselines":
        table = baseline.compute_baselines(_load_corpus(args))
        baseline.write_baselines(table, args.out)

    elif args.command == "score":
        data = _load_corpus(args)
        if args.baselines is not None:
            table = baseline.read_baselines(args.baselines)
        else:
            table = baseline.compute_baselines(data)
        unit_ids = None if args.units == "all" else [
            u for u in args.units.split(",") if u
        ]
        if unit_ids is not None and not unit_ids:
            raise ValidationError("--units got an empty list")
        scores = indicators.score_units(data, table, unit_ids)
        indicators.write_scores(scores, args.out)

    elif args.command == "correlate":
        scores = indicators.read_scores(args.scores)
        report_ = stats.correlate_indicators(scores, min_pubs=args.min_pubs)
        stats.write_correlation_report(report_, args.out)

    elif args.command == "trajectory":
        traj = stats.trajectory(_load_corpus(args), args.field, args.pub_year)
        stats.write_trajectory(traj, args.out)

    elif args.command == "age-corr":
        cohort = corpus.select_cohort(_load_corpus(args), args.field, args.pub_year)
        if not cohort:
            raise ValidationError(f"no publications in field '{args.field}', year {args.pub_year}")
        stats.write_age_matrix(stats.age_correlation_matrix(cohort), args.out)

    elif args.command == "simulate":
        from . import simulate  # numpy loads only for the commands that use it
        config = simulate.load_config(args.config)
        corpus.write_corpus(simulate.generate_corpus(config), args.out)

    elif args.command == "plot":
        scores = indicators.read_scores(args.scores)
        spec = report.ScatterSpec(x_indicator=args.x, y_indicator=args.y,
                                  threshold=args.threshold, axis_max=args.axis_max)
        corpus._write_text(args.out, report.render_scatter(scores, spec))

    elif args.command == "rank":
        scores = indicators.read_scores(args.scores)
        try:  # the stream encodes the whole text before it writes any of it
            sys.stdout.write(report.render_ranking(scores, by=args.by, top=args.top))
        except UnicodeEncodeError as exc:
            raise ValidationError(
                f"cannot write {exc.object[exc.start]!r} to stdout as {exc.encoding}") from None

    else:  # pragma: no cover - argparse enforces the choices
        raise ValidationError(f"unknown command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _run(args)
    except _UsageError as exc:
        print(f"usage error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
