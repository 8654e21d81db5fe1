#!/usr/bin/env python3
"""Desk-scale comparison of ratio-of-averages vs average-of-ratios indicators.

Simulates a seeded corpus of heterogeneous research groups, scores every
group, and writes the full comparison bundle into an output directory:

    corpus.jsonl        synthetic corpus
    baselines.csv       expected-citations table
    scores.csv          per-group indicator bundles
    correlations.csv    Pearson/Spearman between the indicator pairs
    ranking_<ind>.csv   top groups per indicator
    scatter_mncs1.svg   cpp_fcsm vs mncs1
    scatter_mncs2.svg   cpp_fcsm vs mncs2

Usage:
    python scripts/compare_indicators.py --out-dir out/compare --seed 0
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from citnorm.baseline import compute_baselines, write_baselines
from citnorm.corpus import write_corpus
from citnorm.indicators import INDICATOR_NAMES, score_units, write_scores
from citnorm.report import ScatterSpec, render_ranking, write_scatter
from citnorm.simulate import FieldSpec, SimulationConfig, UnitSpec, generate_corpus
from citnorm.stats import correlate_indicators, write_correlation_report

FIELDS = (
    FieldSpec("biochem", 3.0),
    FieldSpec("cardiac", 2.2),
    FieldSpec("chem", 1.4),
    FieldSpec("econ", 0.9),
    FieldSpec("math", 0.35),
    FieldSpec("physics", 1.0),
    FieldSpec("surgery", 1.3),
)


def build_config(seed: int, n_groups: int) -> SimulationConfig:
    rng = np.random.default_rng(2024)  # group roster fixed across seeds
    qualities = rng.uniform(0.6, 1.8, size=n_groups)
    sizes = rng.integers(50, 211, size=n_groups)
    units = tuple(
        UnitSpec(f"group{i:03d}", float(qualities[i]), int(sizes[i]))
        for i in range(n_groups)
    )
    return SimulationConfig(fields=FIELDS, units=units, first_year=1991,
                            census_year=2000, dispersion=0.8, seed=seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/compare")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--groups", type=int, default=158)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    config = build_config(args.seed, args.groups)
    corpus = generate_corpus(config)
    write_corpus(corpus, out / "corpus.jsonl")

    table = compute_baselines(corpus)
    write_baselines(table, out / "baselines.csv")

    scores = score_units(corpus, table)
    write_scores(scores, out / "scores.csv")

    report = correlate_indicators(scores)
    write_correlation_report(report, out / "correlations.csv")
    for pair in report.pairs:
        print(f"{pair.label_x} vs {pair.label_y}: "
              f"pearson {pair.pearson:.3f}  spearman {pair.spearman:.3f}  n={pair.n}")

    for indicator in INDICATOR_NAMES:
        (out / f"ranking_{indicator}.csv").write_text(
            render_ranking(scores, by=indicator, top=10), encoding="utf-8"
        )

    for y_indicator in ("mncs1", "mncs2"):
        spec = ScatterSpec(x_indicator="cpp_fcsm", y_indicator=y_indicator, threshold=50)
        write_scatter(scores, spec, out / f"scatter_{y_indicator}.svg")

    print(f"wrote comparison bundle to {out}")


if __name__ == "__main__":
    main()
