"""Command line front end.

Subcommands: codebook, simulate, sweep-p, curves, smembership, converse.
Shared flags: --m --k --v --p --delta --theta --adversary --trials --seed
--read-cap --out --config.  --config points at a JSON file whose keys mirror
SimParams field names plus adversary/trials/h_m/r_prime_m/out; explicit flags
override file values.  --delta sets the consistency slack dm = floor(delta*m).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis, harness
from .channel import ADVERSARIES
from .codebook import construct_greedy, save_codebook, verify_intersections
from .core import SimParams


def _add_shared(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--m", type=int, help="molecules per codeword")
    sp.add_argument("--k", type=int, help="number of messages")
    sp.add_argument("--v", type=int, help="payloads per index")
    sp.add_argument("--p", type=float, help="sequencing-error probability")
    sp.add_argument("--delta", type=float, help="slack fraction; dm = floor(delta*m)")
    sp.add_argument("--theta", type=float, help="pairwise-intersection budget fraction")
    sp.add_argument("--adversary", choices=ADVERSARIES)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--read-cap", type=int, dest="read_cap")
    sp.add_argument("--out", help="output file; stdout when omitted")
    sp.add_argument("--config", help="JSON config file")


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
            merged.update(json.load(fh))
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
    if "dm" not in merged:
        delta = merged.get("delta", 0.0)
        merged["dm"] = math.floor(delta * merged["m"])
    params = SimParams(
        m=merged["m"],
        k=merged["k"],
        v=merged["v"],
        p=merged["p"],
        dm=merged["dm"],
        theta=merged["theta"],
        read_cap=merged.get("read_cap"),
        seed=merged["seed"],
        alpha=merged.get("alpha"),
        beta=merged.get("beta"),
        r_in=merged.get("r_in"),
    )
    return harness.ExperimentConfig(
        params=params,
        adversary=merged["adversary"],
        trials=merged["trials"],
        h_m=merged.get("h_m"),
        r_prime_m=merged.get("r_prime_m"),
        out=merged.get("out"),
    )


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

    sp = sub.add_parser("codebook", help="construct a codebook and save it")
    _add_shared(sp)

    sp = sub.add_parser("simulate", help="Monte Carlo error-rate run")
    _add_shared(sp)
    sp.add_argument("--hm", type=int, help="horizon for converse adversaries")
    sp.add_argument("--rprimem", type=int, help="untouched-index budget")

    sp = sub.add_parser("sweep-p", help="error rate and bounds across p values")
    _add_shared(sp)
    sp.add_argument("--p-list", dest="p_list", required=True, help="comma-separated p values")

    sp = sub.add_parser("curves", help="exponent/coverage trade-off table")
    _add_shared(sp)
    sp.add_argument("--r0-list", dest="r0_list", required=True)
    sp.add_argument("--c-min", dest="c_min", type=float, required=True)
    sp.add_argument("--c-max", dest="c_max", type=float, required=True)
    sp.add_argument("--c-points", dest="c_points", type=int, default=100)

    sp = sub.add_parser("smembership", help="partition-test membership trend")
    _add_shared(sp)
    sp.add_argument("--m-list", dest="m_list", required=True)
    sp.add_argument("--coverage", type=float, required=True, help="coverage factor c")

    sp = sub.add_parser("converse", help="adversary mechanics experiment")
    _add_shared(sp)
    sp.add_argument("--hm", type=int, required=True)
    sp.add_argument("--rprimem", type=int, required=True)

    args = ap.parse_args(argv)

    if args.command == "codebook":
        cfg = _build_config(_merge_config(args))
        cb = construct_greedy(cfg.params)
        worst = verify_intersections(cb)
        if cfg.out:
            save_codebook(cb, cfg.out)
        print(
            f"codebook m={cfg.params.m} k={cfg.params.k} v={cfg.params.v} "
            f"max_intersection={worst} threshold={math.ceil(cfg.params.theta * cfg.params.m)}"
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
        if cfg.out:
            harness.write_csv(cfg.out, harness.CONVERSE_HEADER, rows)
        else:
            sys.stdout.write(harness.csv_text(harness.CONVERSE_HEADER, rows))
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
