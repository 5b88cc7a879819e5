#!/usr/bin/env python3
"""Sweep sequencing-error rate p and fit the log-log slope of pe_hat.

With dM tolerated bad reads the leading error term scales between p^dM and
p^(dM+1), so the fitted slope should land in that window once pe_hat is
resolved (use enough trials that every point has errors).
"""

import argparse

import numpy as np

from dnareads import SimParams
from dnareads.cli import one_line_errors
from dnareads.harness import SWEEP_HEADER, ExperimentConfig, sweep_p, write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=20)
    ap.add_argument("--k", type=int, default=64)
    ap.add_argument("--v", type=int, default=8)
    ap.add_argument("--dm", type=int, default=1)
    ap.add_argument("--theta", type=float, default=0.25)
    ap.add_argument("--read-cap", type=int, default=200)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--p", type=float, nargs="+", default=[0.05, 0.1, 0.2])
    ap.add_argument("--adversary", default="uniform")
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args()

    params = SimParams(
        m=args.m, k=args.k, v=args.v, p=args.p[0], dm=args.dm,
        theta=args.theta, read_cap=args.read_cap, seed=args.seed,
    )
    cfg = ExperimentConfig(params=params, adversary=args.adversary, trials=args.trials)
    rows = sweep_p(cfg, args.p)
    write_csv(args.out, SWEEP_HEADER, rows)
    for row in rows:
        print(f"p={row[0]:g} pe_hat={row[1]:.6g} bound={row[2]:.6g} dp={row[3]:.6g}")
    pe = [r[1] for r in rows]
    if all(x > 0 for x in pe) and len(pe) >= 2:
        slope = float(np.polyfit(np.log(args.p), np.log(pe), 1)[0])
        print(f"fitted slope {slope:.3f} (expect within [{args.dm}, {args.dm + 1}])")
    else:
        print("some pe_hat are zero; raise --trials to resolve the slope")


if __name__ == "__main__":
    with one_line_errors():
        main()
