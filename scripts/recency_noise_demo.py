#!/usr/bin/env python3
"""Show why recent publications are noisy: trajectories and age correlations.

Simulates one low-rate and one high-rate field, then prints (and exports) the
mean citation trajectory of each field's first-year cohort together with the
matrix of correlations between cumulative counts at different ages. Low-rate
fields barely get cited early, so their year-1 counts predict year-10 counts
poorly; that is the mechanism that makes unfiltered means of citation ratios
volatile for fresh publications.

Usage:
    python scripts/recency_noise_demo.py --out-dir out/recency --seed 0
"""
from __future__ import annotations

import argparse
from pathlib import Path

from citnorm.corpus import select_cohort
from citnorm.simulate import FieldSpec, SimulationConfig, UnitSpec, generate_corpus
from citnorm.stats import (
    age_correlation_matrix,
    trajectory,
    write_age_matrix,
    write_trajectory,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/recency")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pubs", type=int, default=42_000)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    config = SimulationConfig(
        fields=(FieldSpec("math", 0.35), FieldSpec("biochem", 3.0)),
        units=(UnitSpec("all", 1.0, args.pubs),),
        first_year=1999,
        census_year=2008,
        dispersion=0.8,
        seed=args.seed,
    )
    corpus = generate_corpus(config)

    for fid in ("math", "biochem"):
        cohort = select_cohort(corpus, fid, 1999)
        traj = trajectory(cohort, fid, 1999)
        matrix = age_correlation_matrix(cohort)
        write_trajectory(traj, out / f"trajectory_{fid}.csv")
        write_age_matrix(matrix, out / f"age_corr_{fid}.csv")

        means = "  ".join(f"{m:5.1f}" for _, m in traj.means)
        print(f"{fid:8s} n={traj.n_pubs}  mean cumulative counts: {means}")
        first_last = matrix.entries[0][-1]
        print(f"{fid:8s} corr(year 1, year {len(matrix.years)}) = {first_last:.2f}")

    print(f"wrote trajectories and matrices to {out}")


if __name__ == "__main__":
    main()
