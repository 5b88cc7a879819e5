"""Experiment configuration, Monte Carlo aggregation, sweeps, and CSV output."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import analysis, simulate
from .channel import ADVERSARIES
from .codebook import Codebook, construct_greedy
from .core import PARAM_RULES, SimParams, VerdictKind, check_rules, derive_trial_rng

CSV_VERSION = "dnareads 0.2.0"


class RunSummary(NamedTuple):
    """Aggregated outcomes of one experiment, the tail of a simulate row.

    errors counts wrong Decided verdicts; failures and truncated are the
    other two non-success verdicts; pe_hat pools all three, and [pe_lo,
    pe_hi] is its 95% Wilson interval.  mean_reads and stderr_reads cover
    every trial regardless of verdict.
    """

    trials: int
    errors: int
    failures: int
    truncated: int
    pe_hat: float
    pe_lo: float
    pe_hi: float
    mean_reads: float
    stderr_reads: float


# The CSV rows: each type's fields are its CSV's header.
class SweepRow(NamedTuple):
    p: float
    pe_hat: float
    bound: float
    dp: float


class CurveRow(NamedTuple):
    R0: float
    c: float
    delta: float
    converse_ok: bool


class MembershipRow(NamedTuple):
    m: int
    h_m: int
    d_m: int
    r_prime_m: int
    trials: int
    member_frac: float
    suff_frac: float
    mean_z: float
    expected_z: float
    mean_z1: float
    expected_z1: float


class ConverseRow(NamedTuple):
    """One trial of a strong or weak adversary; absent ids are -1 and kind
    is a VerdictKind value.  converse_experiment returns its columns."""

    trial: int
    message: int
    m_prime: int
    psi: bool
    active: bool
    conditions: bool
    kind: int
    decoded: int
    n_reads: int
    errored: bool


@dataclass(frozen=True)
class ExperimentConfig:
    """SimParams plus run plumbing.  h_m and r_prime_m are the horizon and
    untouched-index budget of the converse experiments.  Building one checks
    every field against CONFIG_RULES, as SimParams checks its own."""

    params: SimParams
    adversary: str = "uniform"
    trials: int = 1000
    h_m: int | None = None
    r_prime_m: int | None = None
    out: str | None = None

    def __post_init__(self):
        check_rules(vars(self), CONFIG_RULES)


# the config keys beside the SimParams fields and delta
CONFIG_KEYS = tuple(f for f in ExperimentConfig.__dataclass_fields__ if f != "params")
# ExperimentConfig's fields and delta, as PARAM_RULES states SimParams'.
CONFIG_RULES = {
    "adversary": ("a string", lambda x, r: x in ADVERSARIES),
    "trials": ("an integer", lambda x, r: x >= 1),
    "h_m": ("an integer or null", lambda x, r: x is None or x >= 1),
    "r_prime_m": ("an integer or null", lambda x, r: x is None or 0 <= x <= r["params"].m),
    "out": ("a string or null", None),
    "delta": ("a number", lambda x, r: 0.0 <= x <= 1.0),
}


def check_dict(d: dict) -> None:
    """Check that every key of a flat config dict has a rule, the kind of
    every value and the range of delta, before anything computes with them;
    the other ranges wait for config_from_dict."""
    rules = {**PARAM_RULES, **CONFIG_RULES}
    extra = set(d) - set(rules)
    if extra:
        raise ValueError(f"unknown parameter fields: {sorted(extra)}")
    check_rules(d, rules, ranges=False)
    check_rules(d, {"delta": CONFIG_RULES["delta"]})


def config_from_dict(d: dict) -> ExperimentConfig:
    """The validated config of a flat dict: SimParams fields, CONFIG_KEYS and
    delta, which sets dm = floor(delta*m) unless d also holds dm.  m, k and v
    are required; every other key defaults as in SimParams and
    ExperimentConfig."""
    check_dict(d)
    for name in ("m", "k", "v"):
        if name not in d:
            raise ValueError(f"missing required parameter {name}")
    d = dict(d)
    if "delta" in d:
        d.setdefault("dm", math.floor(d.pop("delta") * d["m"]))
    extras = {k: d.pop(k) for k in CONFIG_KEYS if k in d}
    return ExperimentConfig(params=SimParams(**d), **extras)


_Z95 = 1.96  # the standard normal quantile of a two-sided 95% interval


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval; valid at zero and small counts."""
    if n <= 0:
        raise ValueError("n out of range")
    phat = successes / n
    denom = 1.0 + _Z95 * _Z95 / n
    center = (phat + _Z95 * _Z95 / (2 * n)) / denom
    half = (_Z95 / denom) * math.sqrt(phat * (1.0 - phat) / n + _Z95 * _Z95 / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def _errored(res) -> np.ndarray:
    """Per trial, whether it errs: it does unless Decided on its own message."""
    return (res.kind != VerdictKind.DECIDED.value) | (res.decoded != res.message)


def _summarize(batch: simulate.BatchResult) -> RunSummary:
    trials = len(batch.message)
    bad = int(_errored(batch).sum())
    failures = int((batch.kind == VerdictKind.FAILED.value).sum())
    truncated = int((batch.kind == VerdictKind.TRUNCATED.value).sum())
    mean_reads = float(np.mean(batch.n_reads))
    stderr = float(np.std(batch.n_reads, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return RunSummary(
        trials, bad - failures - truncated, failures, truncated, bad / trials,
        *wilson_interval(bad, trials), mean_reads, stderr,
    )


def run_trials(cfg: ExperimentConfig) -> RunSummary:
    """Construct the codebook from cfg.params.seed and run cfg.trials trials.

    Message-blind adversaries go through simulate.run_batch; the clairvoyant
    and causal ones through simulate.run_converse.  Both consume identical
    random streams, so the summary is engine-independent.
    """
    return _run_on(cfg, construct_greedy(cfg.params))


def _run_on(cfg: ExperimentConfig, cb: Codebook) -> RunSummary:
    """cfg.trials trials of cfg.adversary on a codebook built for cfg.params."""
    if cfg.adversary in simulate.BATCH_ADVERSARIES:
        return _summarize(simulate.run_batch(cb, cfg.adversary, cfg.trials))
    return _summarize(simulate.run_converse(cb, cfg.adversary, cfg.trials, cfg.h_m, cfg.r_prime_m))


def sweep_p(cfg: ExperimentConfig, p_list) -> list[SweepRow]:
    """One run per p with common random numbers.

    The codebook does not depend on p, so it is built once and shared.
    """
    if not len(p_list):
        raise ValueError("p_list empty")
    subs = [replace(cfg, params=replace(cfg.params, p=float(p))) for p in p_list]
    # the domain of the analytic columns, checked before any trial runs
    m, dm = cfg.params.m, cfg.params.dm
    thr = analysis.ones_threshold(cfg.params)
    if max(p_list) >= 1.0:
        raise ValueError(f"--p-list holds p = {max(p_list)!r}; the union bound needs p < 1")
    if thr >= m:
        raise ValueError(
            f"ones threshold ceil(theta*m) + dm = {thr} is not below m = {m}; "
            "lower --theta or --delta, or raise --m"
        )
    matrix = construct_greedy(subs[0].params).matrix
    rows = []
    for sub in subs:
        p = sub.params.p
        summary = _run_on(sub, Codebook(sub.params, matrix))
        bound = analysis.error_prob_upper_bound(m, p, dm, thr)
        dp = analysis.race_dp(m, p, dm, thr)
        rows.append(SweepRow(p, summary.pe_hat, bound, dp))
    return rows


def emit_exponent_curves(r0_list, c_grid) -> list[CurveRow]:
    """The exponent and converse regime at each (r0, c); c below the
    zero-exponent boundary of an r0 contributes no row for that r0."""
    rows = []
    for r0 in r0_list:
        if not 0.0 < r0 < 1.0:
            raise ValueError("r0 out of range")
        boundary = math.log(1.0 / (1.0 - r0))
        for c in c_grid:
            if c < boundary - 1e-12:
                continue
            delta = analysis.achievable_exponent(float(c), float(r0))
            ok = analysis.converse_valid(float(c), delta)
            rows.append(CurveRow(float(r0), float(c), delta, ok))
    return rows


_MEMBERSHIP_BYTES = 2_000_000


def _membership_row_bytes(m: int, h_m: int) -> int:
    """Bytes s_membership_experiment holds per row of a chunk: the int64 draw
    and its flat index (h_m each), index_counts' int64 bincount and the
    multiplicity table narrowed from it (m each; the table's itemsize is that
    of the narrowest dtype holding h_m, and a row sum's bool mask later takes
    the bincount's place), and a few int64 per-row counters."""
    return 16 * h_m + (8 + np.min_scalar_type(h_m).itemsize) * m + 128


def s_membership_experiment(m_list, c, delta, trials, seed: int = 0) -> list[MembershipRow]:
    """Empirical partition-test membership rate per M, against the exact
    greedy decision, with coupon statistics alongside their expectations.

    Per M: horizon floor(0.9*c*M), slack floor(delta*M), and the untouched
    budget from the midpoint of the feasibility window at reduced coverage
    0.9*c.
    """
    if trials < 1:
        raise ValueError("trials out of range")
    if not analysis.converse_valid(c, delta):
        raise ValueError("converse condition violated")
    r0 = 1.0 - delta - math.exp(-c)
    if not 0.0 < r0 < 1.0:
        raise ValueError(f"coverage {c!r} and delta {delta!r} give no rate in (0, 1)")
    cpp = 0.9 * c
    window = analysis.rprime_window(cpp, delta, r0)
    if window is None:
        raise ValueError("empty window")
    mid = 0.5 * (window[0] + window[1])
    for m in m_list:
        if m < 1:
            raise ValueError(f"m_list value {m} out of range: M must be at least 1")
        if math.floor(cpp * m) < 1:
            raise ValueError(f"horizon floor(0.9*c*M) is 0 at M={m}")
    rows = []
    for m in m_list:
        h_m = math.floor(cpp * m)
        d_m = math.floor(delta * m)
        rpm = math.floor(mid * m)
        rng = derive_trial_rng(seed, m)
        chunk = max(1, _MEMBERSHIP_BYTES // _membership_row_bytes(m, h_m))
        members = sufficient = z_sum = z1_sum = 0
        for lo in range(0, trials, chunk):
            draws = rng.integers(0, m, size=(min(chunk, trials - lo), h_m))
            stats = analysis.partition_stats(analysis.index_counts(draws, m), d_m, rpm)
            members += int(stats.in_s.sum())
            sufficient += int(stats.sufficient.sum())
            z_sum += int(stats.z.sum())
            z1_sum += int(stats.z1.sum())
        rows.append(
            MembershipRow(
                int(m), h_m, d_m, rpm, int(trials), members / trials, sufficient / trials,
                z_sum / trials, analysis.expected_z(m, h_m),
                z1_sum / trials, analysis.expected_z1(m, h_m),
            )
        )
    return rows


def converse_experiment(cfg: ExperimentConfig) -> tuple[tuple[np.ndarray, ...], dict]:
    """Per-trial adversary diagnostics with the guaranteed-error implication
    checked on every trial.

    Returns (columns, summary), an array per ConverseRow field.  Raises if
    any trial whose premises hold fails to decode to m_prime by the horizon.
    """
    if cfg.adversary not in ("strong", "weak"):
        raise ValueError("converse experiment needs the strong or weak adversary")
    res = simulate.run_converse(
        construct_greedy(cfg.params), cfg.adversary, cfg.trials, cfg.h_m, cfg.r_prime_m
    )
    errored = _errored(res)
    columns = (np.arange(cfg.trials), res.message, res.m_prime, res.psi, res.active,
               res.conditions, res.kind, res.decoded, res.n_reads, errored)
    n_active = int(res.active.sum())
    n_cond = int(res.conditions.sum())
    p, dm, m = cfg.params.p, cfg.params.dm, cfg.params.m
    factor = (
        analysis.strong_converse_factor(p, dm)
        if cfg.adversary == "strong"
        else analysis.weak_converse_factor(m, p, dm)
    )
    summary = {
        "adversary": cfg.adversary,
        "trials": cfg.trials,
        "n_active": n_active,
        "activation_rate": n_active / cfg.trials,
        "n_conditions": n_cond,
        # every trial whose premises hold errs, or run_converse has raised
        "conditional_error_rate": 1.0 if n_cond else float("nan"),
        "error_rate": int(errored.sum()) / cfg.trials,
        "converse_factor": factor,
    }
    return columns, summary


# CSV cell text by a column's dtype kind; any other kind (text, uint64 or
# object) is str
_CELL_FORMATS = {"b": ("false", "true").__getitem__, "i": str, "f": "{:.9g}".format}


def csv_text(header: list[str], columns) -> str:
    """The CSV of these columns (sequences or arrays); rows pass as zip(*rows)."""
    cells = []
    for column in columns:
        column = np.asarray(column)
        cells.append(map(_CELL_FORMATS.get(column.dtype.kind, str), column.tolist()))
    lines = [f"# {CSV_VERSION}", ",".join(header), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: list[str], columns) -> None:
    with open(path, "w") as fh:
        fh.write(csv_text(header, columns))


SIMULATE_HEADER = ("adversary", *(f.name for f in fields(SimParams)), *RunSummary._fields)


def simulate_row(cfg: ExperimentConfig, s: RunSummary) -> tuple:
    return (cfg.adversary, *astuple(cfg.params), *s)
