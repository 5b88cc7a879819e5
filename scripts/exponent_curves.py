#!/usr/bin/env python3
"""Emit achievable-exponent curves delta(c, R0) with converse flags.

Writes one CSV over a coverage grid for a handful of rates; the converse_ok
column flips where c*exp(-c) crosses the requested exponent.
"""

import argparse

import numpy as np

from dnareads.cli import one_line_errors
from dnareads.harness import CURVES_HEADER, csv_text, emit_exponent_curves, write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rates", type=float, nargs="+", default=[0.2, 0.3, 0.5])
    ap.add_argument("--c-min", type=float, default=0.05)
    ap.add_argument("--c-max", type=float, default=5.0)
    ap.add_argument("--points", type=int, default=400)
    ap.add_argument("--out", default="curves.csv")
    args = ap.parse_args()

    if args.points < 1:
        raise ValueError("--points out of range")
    grid = np.linspace(args.c_min, args.c_max, args.points)
    rows = emit_exponent_curves(args.rates, grid)
    write_csv(args.out, CURVES_HEADER, rows)
    for r0 in args.rates:
        sub = [r for r in rows if r[0] == r0]
        if not sub:
            print(f"R0={r0}: no c in the grid reaches a nonnegative exponent")
            continue
        best = max(r[2] for r in sub)
        cross = next((r[1] for a, r in zip(sub, sub[1:]) if a[3] and not r[3]), None)
        print(f"R0={r0}: max delta {best:.6f}, converse boundary near c={cross}")
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    with one_line_errors():
        main()
