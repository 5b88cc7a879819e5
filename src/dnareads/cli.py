"""Command line front end.

Each subcommand takes only the flags it reads.  A flag's dest is its config
key, so `--config FILE.json` and the flags name each parameter alike: the
file's values, overridden by the flags given, go through
harness.config_from_dict, and every default is a field default of SimParams
or ExperimentConfig.  --delta sets the consistency slack dm = floor(delta*m),
and an explicit --delta replaces a file's dm.  Bad input, library errors and
file errors end the run with a one-line "dnareads: <message>" instead of a
traceback.  sweep-p, curves and converse print a summary to stderr after
their CSV; stdout holds the CSV alone when --out is omitted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import harness
from .channel import ADVERSARIES
from .codebook import (
    construct_greedy,
    intersection_threshold,
    save_codebook,
    verify_intersections,
)
from .core import SimParams


# dest: add_argument keywords, plus the flag where it is not --<dest with dashes>
_FLAGS = {
    "m": dict(type=int, help="molecules per codeword"),
    "k": dict(type=int, help="number of messages"),
    "v": dict(type=int, help="payloads per index"),
    "p": dict(type=float, help="sequencing-error probability"),
    "delta": dict(type=float, help="slack fraction; dm = floor(delta*m)"),
    "theta": dict(type=float, help="pairwise-intersection budget fraction"),
    "adversary": dict(choices=ADVERSARIES),
    "trials": dict(type=int),
    "seed": dict(type=int),
    "read_cap": dict(type=int),
    "out": dict(help="output file; stdout when omitted"),
    "config": dict(help="JSON config file"),
    "h_m": dict(flag="--hm", type=int, help="horizon (strong adversary)"),
    "r_prime_m": dict(flag="--rprimem", type=int, help="untouched-index budget (strong, weak)"),
}


def _subcommand(sub, name: str, summary: str, flags) -> argparse.ArgumentParser:
    """A subcommand taking the named _FLAGS.  Abbreviations are off, so that
    a flag it does not take (--m) is an error, not a prefix of one it does
    (--m-list)."""
    sp = sub.add_parser(name, help=summary, allow_abbrev=False)
    for dest in flags:
        kw = dict(_FLAGS[dest])
        flag = kw.pop("flag", "--" + dest.replace("_", "-"))
        sp.add_argument(flag, dest=dest, **kw)
    return sp


def _config_dict(args: argparse.Namespace) -> dict:
    """The --config file's keys, overridden by the config flags given."""
    d = {}
    if args.config:
        with open(args.config) as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"config file {args.config}: {exc}") from None
        if not isinstance(d, dict):
            raise ValueError(f"config file {args.config} does not hold a JSON object")
    flags = {
        k: v for k, v in vars(args).items() if k in _FLAGS and k != "config" and v is not None
    }
    if "delta" in flags:
        d.pop("dm", None)
    return {**d, **flags}


def _emit(out: str | None, header: tuple[str, ...], rows) -> None:
    if out:
        harness.write_csv(out, header, rows)
    else:
        sys.stdout.write(harness.csv_text(header, rows))


def _list(kind):
    """argparse type for a non-empty comma-separated list of kind; argparse
    reports a bad element or an empty list as an "invalid <kind> list value"
    of the flag."""

    def parse(text: str) -> list:
        values = [kind(x) for x in text.split(",") if x.strip()]
        if not values:
            raise ValueError("empty list")
        return values

    parse.__name__ = f"{kind.__name__} list"
    return parse


def _finite(text: str) -> float:
    """argparse type for a finite float; argparse reports nan or inf as an
    "invalid finite float value" of the flag."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError("not finite")
    return x


_finite.__name__ = "finite float"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dnareads")
    sub = ap.add_subparsers(dest="command", required=True)
    codebook = ("m", "k", "v", "theta", "seed", "out", "config")
    _subcommand(sub, "codebook", "construct a codebook and save it", codebook)
    _subcommand(sub, "simulate", "Monte Carlo error-rate run", _FLAGS)
    sweep = [f for f in _FLAGS if f != "p"]
    sp = _subcommand(sub, "sweep-p", "error rate and bounds across p values", sweep)
    sp.add_argument(
        "--p-list", dest="p_list", type=_list(_finite), required=True,
        help="comma-separated p values",
    )
    sp = _subcommand(sub, "curves", "exponent/coverage trade-off table", ("out", "config"))
    sp.add_argument("--r0-list", dest="r0_list", type=_list(_finite), required=True)
    sp.add_argument("--c-min", dest="c_min", type=_finite, required=True)
    sp.add_argument("--c-max", dest="c_max", type=_finite, required=True)
    sp.add_argument("--c-points", dest="c_points", type=int, default=100)
    smembership = ("delta", "trials", "seed", "out", "config")
    sp = _subcommand(sub, "smembership", "partition-test membership trend", smembership)
    sp.add_argument("--m-list", dest="m_list", type=_list(int), required=True)
    sp.add_argument("--coverage", type=_finite, required=True, help="coverage factor c")
    _subcommand(sub, "converse", "adversary mechanics experiment", _FLAGS)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a ValueError, RuntimeError or OSError ends the run as one
    # "dnareads: <message>" line on stderr and exit status 1
    try:
        return _run(args)
    except (ValueError, RuntimeError, OSError) as exc:
        raise SystemExit(f"dnareads: {exc}") from None


def _run(args: argparse.Namespace) -> int:
    d = _config_dict(args)
    if args.command in ("curves", "smembership"):
        # no code parameters, so no ExperimentConfig: check what is read
        harness.check_dict(d)
    else:
        cfg = harness.config_from_dict(d)

    if args.command == "codebook":
        cb = construct_greedy(cfg.params)
        worst = verify_intersections(cb)
        if cfg.out:
            save_codebook(cb, cfg.out)
        print(
            f"codebook m={cfg.params.m} k={cfg.params.k} v={cfg.params.v} "
            f"max_intersection={worst} threshold={intersection_threshold(cfg.params)}"
        )
        return 0

    if args.command == "simulate":
        summary = harness.run_trials(cfg)
        _emit(cfg.out, harness.SIMULATE_HEADER, [harness.simulate_row(cfg, summary)])
        return 0

    if args.command == "sweep-p":
        rows = harness.sweep_p(cfg, args.p_list)
        _emit(cfg.out, harness.SweepRow._fields, rows)
        # least-squares slope of log pe_hat on log p; p = 0 has no logarithm
        fit = [(r.p, r.pe_hat) for r in rows if r.p > 0]
        if len({p for p, _ in fit}) >= 2:
            if all(pe > 0 for _, pe in fit):
                slope, dm = np.polyfit(*np.log(fit).T, 1)[0], cfg.params.dm
                line = f"fitted slope {slope:.3f} (expect within [{dm}, {dm + 1}])"
            else:
                line = "some pe_hat are zero; raise --trials to resolve the slope"
            print(line, file=sys.stderr)
        return 0

    if args.command == "curves":
        if args.c_points < 1:
            raise ValueError("--c-points out of range")
        grid = np.linspace(args.c_min, args.c_max, args.c_points)
        rows = harness.emit_exponent_curves(args.r0_list, grid)
        _emit(d.get("out"), harness.CurveRow._fields, rows)
        for r0 in args.r0_list:
            sub = sorted((r for r in rows if r.R0 == r0), key=lambda r: r.c)
            best = max((r.delta for r in sub), default=0.0)
            cross = [b.c for a, b in zip(sub, sub[1:]) if a.converse_ok and not b.converse_ok]
            if not sub:
                line = "no c in the grid reaches a nonnegative exponent"
            elif cross:
                line = f"max delta {best:.6f}, converse boundary near c={cross[0]}"
            else:
                line = f"max delta {best:.6f}, no converse boundary in the grid"
            print(f"R0={r0}: {line}", file=sys.stderr)
        return 0

    if args.command == "smembership":
        if "delta" not in d:
            raise ValueError("smembership needs --delta")
        rows = harness.s_membership_experiment(
            args.m_list,
            args.coverage,
            d["delta"],
            d.get("trials", harness.ExperimentConfig.trials),
            d.get("seed", SimParams.seed),
        )
        _emit(d.get("out"), harness.MembershipRow._fields, rows)
        return 0

    if args.command == "converse":
        rows, summary = harness.converse_experiment(cfg)
        _emit(cfg.out, harness.ConverseRow._fields, rows)
        print(
            "converse adversary={adversary} trials={trials} "
            "activation_rate={activation_rate:.6g} n_conditions={n_conditions} "
            "conditional_error_rate={conditional_error_rate:.6g} "
            "error_rate={error_rate:.6g} converse_factor={converse_factor:.6g}".format(
                **summary
            ),
            file=sys.stderr,
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
