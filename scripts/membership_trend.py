#!/usr/bin/env python3
"""Track how often a random read prefix lands in the good partition set S.

For each molecule count M the read horizon is hM = c*M and the survivor
budget is derived from the midpoint rate; the member fraction should rise
with M whenever the converse condition c*exp(-c) > delta holds.
"""

import argparse

from dnareads.analysis import coverage_for_exponent
from dnareads.cli import one_line_errors
from dnareads.harness import SMEMBERSHIP_HEADER, s_membership_experiment, write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, nargs="+", default=[50, 100, 200, 400])
    ap.add_argument("--r0", type=float, default=0.3)
    ap.add_argument("--delta", type=float, default=0.05)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="smembership.csv")
    args = ap.parse_args()

    c = coverage_for_exponent(args.r0, args.delta)
    print(f"coverage c={c:.6f} for R0={args.r0}, delta={args.delta}")
    rows = s_membership_experiment(args.m, c, args.delta, args.trials, args.seed)
    write_csv(args.out, SMEMBERSHIP_HEADER, rows)
    for row in rows:
        print(
            f"M={row[0]} hM={row[1]} dM={row[2]} R'M={row[3]} "
            f"member={row[5]:.4f} sufficient={row[6]:.4f}"
        )


if __name__ == "__main__":
    with one_line_errors():
        main()
