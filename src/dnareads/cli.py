"""Command line front end.

Subcommands: codebook, simulate, sweep-p, curves, smembership, converse.
Each takes only the flags it reads, out of --m --k --v --p --delta --theta
--adversary --trials --seed --read-cap --out --config.  --config points at a
JSON file whose keys mirror SimParams field names plus
delta/adversary/trials/h_m/r_prime_m/out, the same keys in every
subcommand; explicit flags override file values, and an unknown key is an
error.  --delta sets the consistency slack dm = floor(delta*m).  Errors
raised by the library end the run with a one-line "dnareads: <message>"
instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import harness
from .channel import ADVERSARIES
from .codebook import (
    construct_greedy,
    intersection_threshold,
    save_codebook,
    verify_intersections,
)
from .core import check_fields


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
}


def _subcommand(sub, name: str, summary: str, flags) -> argparse.ArgumentParser:
    """A subcommand taking the named _FLAGS.  Abbreviations are off, so that
    a flag it does not take (--m) is an error, not a prefix of one it does
    (--m-list)."""
    sp = sub.add_parser(name, help=summary, allow_abbrev=False)
    for flag in flags:
        sp.add_argument("--" + flag.replace("_", "-"), dest=flag, **_FLAGS[flag])
    return sp


_DEFAULTS = {
    "p": 0.0,
    "theta": 0.5,
    "seed": 0,
    "adversary": "uniform",
    "trials": 1000,
}


def _merge_config(args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        check_fields(loaded, harness.CONFIG_KEYS + ("delta",))
        merged.update(loaded)
    for key in (
        "m",
        "k",
        "v",
        "p",
        "theta",
        "adversary",
        "trials",
        "seed",
        "read_cap",
        "out",
        "hm",
        "rprimem",
    ):
        val = getattr(args, key, None)
        if val is not None:
            merged[{"hm": "h_m", "rprimem": "r_prime_m"}.get(key, key)] = val
    if getattr(args, "delta", None) is not None:
        # an explicit --delta overrides a dm taken from the config file
        merged["delta"] = args.delta
        merged.pop("dm", None)
    return merged


def _build_config(merged: dict) -> harness.ExperimentConfig:
    for field in ("m", "k", "v"):
        if field not in merged:
            raise SystemExit(f"missing required parameter --{field}")
    delta = merged.pop("delta", 0.0)
    merged.setdefault("dm", math.floor(delta * merged["m"]))
    return harness.config_from_dict(merged)


def _emit(cfg_out: str | None, text: str) -> None:
    if cfg_out:
        with open(cfg_out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dnareads")
    sub = ap.add_subparsers(dest="command", required=True)

    _subcommand(
        sub,
        "codebook",
        "construct a codebook and save it",
        ("m", "k", "v", "theta", "seed", "out", "config"),
    )

    sp = _subcommand(sub, "simulate", "Monte Carlo error-rate run", _FLAGS)
    sp.add_argument("--hm", type=int, help="horizon for converse adversaries")
    sp.add_argument("--rprimem", type=int, help="untouched-index budget")

    sp = _subcommand(
        sub, "sweep-p", "error rate and bounds across p values", [f for f in _FLAGS if f != "p"]
    )
    sp.add_argument("--p-list", dest="p_list", required=True, help="comma-separated p values")

    sp = _subcommand(sub, "curves", "exponent/coverage trade-off table", ("out", "config"))
    sp.add_argument("--r0-list", dest="r0_list", required=True)
    sp.add_argument("--c-min", dest="c_min", type=float, required=True)
    sp.add_argument("--c-max", dest="c_max", type=float, required=True)
    sp.add_argument("--c-points", dest="c_points", type=int, default=100)

    sp = _subcommand(
        sub,
        "smembership",
        "partition-test membership trend",
        ("delta", "trials", "seed", "out", "config"),
    )
    sp.add_argument("--m-list", dest="m_list", required=True)
    sp.add_argument("--coverage", type=float, required=True, help="coverage factor c")

    sp = _subcommand(sub, "converse", "adversary mechanics experiment", _FLAGS)
    sp.add_argument("--hm", type=int, required=True)
    sp.add_argument("--rprimem", type=int, required=True)

    args = ap.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"dnareads: {exc}") from None


def _run(args: argparse.Namespace) -> int:
    if args.command == "codebook":
        cfg = _build_config(_merge_config(args))
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
        cfg = _build_config(_merge_config(args))
        summary = harness.run_trials(cfg)
        text = harness.csv_text(
            harness.SIMULATE_HEADER, [harness.simulate_row(cfg, summary)]
        )
        _emit(cfg.out, text)
        return 0

    if args.command == "sweep-p":
        cfg = _build_config(_merge_config(args))
        rows = harness.sweep_p(cfg, _float_list(args.p_list))
        _emit(cfg.out, harness.csv_text(harness.SWEEP_HEADER, rows))
        return 0

    if args.command == "curves":
        import numpy as np

        merged = _merge_config(args)
        grid = np.linspace(args.c_min, args.c_max, args.c_points)
        rows = harness.emit_exponent_curves(_float_list(args.r0_list), grid)
        _emit(merged.get("out"), harness.csv_text(harness.CURVES_HEADER, rows))
        return 0

    if args.command == "smembership":
        merged = _merge_config(args)
        if "delta" not in merged:
            raise SystemExit("smembership needs --delta")
        rows = harness.s_membership_experiment(
            _int_list(args.m_list),
            args.coverage,
            merged["delta"],
            merged["trials"],
            merged["seed"],
        )
        _emit(merged.get("out"), harness.csv_text(harness.SMEMBERSHIP_HEADER, rows))
        return 0

    if args.command == "converse":
        cfg = _build_config(_merge_config(args))
        rows, summary = harness.converse_experiment(cfg)
        _emit(cfg.out, harness.csv_text(harness.CONVERSE_HEADER, rows))
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

    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
