"""Experiment configuration, Monte Carlo aggregation, sweeps, and CSV output."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, simulate
from .channel import ADVERSARIES
from .codebook import Codebook, construct_greedy, intersection_threshold
from .core import PARAM_RULES, SimParams, VerdictKind, check_rules, derive_trial_rng, validate

CSV_VERSION = "dnareads 0.1.0"


@dataclass(frozen=True)
class RunSummary:
    """Aggregated outcomes of one experiment.

    errors counts wrong Decided verdicts; failures and truncated are the
    other two non-success verdicts; pe_hat pools all three.  mean_reads and
    stderr_reads cover every trial regardless of verdict.
    """

    trials: int
    errors: int
    failures: int
    truncated: int
    pe_hat: float
    pe_ci95: tuple[float, float]
    mean_reads: float
    stderr_reads: float


@dataclass(frozen=True)
class ExperimentConfig:
    """SimParams plus run plumbing.  h_m and r_prime_m are the horizon and
    untouched-index budget of the converse experiments."""

    params: SimParams
    adversary: str = "uniform"
    trials: int = 1000
    h_m: int | None = None
    r_prime_m: int | None = None
    out: str | None = None


# the config keys beside the SimParams fields and delta
CONFIG_KEYS = tuple(f for f in ExperimentConfig.__dataclass_fields__ if f != "params")
# ExperimentConfig's fields and delta, as PARAM_RULES states SimParams'.
CONFIG_RULES = {
    "adversary": ("a string", lambda x, r: x in ADVERSARIES),
    "trials": ("an integer", lambda x, r: x >= 1),
    "h_m": ("an integer or null", lambda x, r: x is None or 1 <= x <= r["params"].read_cap),
    "r_prime_m": ("an integer or null", lambda x, r: x is None or 0 <= x <= r["params"].m),
    "out": ("a string or null", None),
    "delta": ("a number", lambda x, r: 0.0 <= x <= 1.0),
}


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    validate(cfg.params)
    check_rules(vars(cfg), CONFIG_RULES)
    return cfg


def check_dict(d: dict) -> None:
    """Check that every key of a flat config dict has a rule, and the kind of
    every value, before anything computes with them; ranges wait for
    config_from_dict."""
    rules = {**PARAM_RULES, **CONFIG_RULES}
    extra = set(d) - set(rules)
    if extra:
        raise ValueError(f"unknown parameter fields: {sorted(extra)}")
    check_rules(d, rules, ranges=False)


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
        delta = d.pop("delta")
        check_rules({"delta": delta}, CONFIG_RULES)
        d.setdefault("dm", math.floor(delta * d["m"]))
    extras = {k: d.pop(k) for k in CONFIG_KEYS if k in d}
    return validate_config(ExperimentConfig(params=SimParams(**d), **extras))


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval; valid at zero and small counts."""
    if n <= 0:
        raise ValueError("n out of range")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def _summarize(message, kind, decoded, n_reads) -> RunSummary:
    trials = len(message)
    errors = int(((kind == 0) & (decoded != message)).sum())
    failures = int((kind == 1).sum())
    truncated = int((kind == 2).sum())
    bad = errors + failures + truncated
    mean_reads = float(np.mean(n_reads))
    stderr = float(np.std(n_reads, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return RunSummary(
        trials=trials,
        errors=errors,
        failures=failures,
        truncated=truncated,
        pe_hat=bad / trials,
        pe_ci95=wilson_interval(bad, trials),
        mean_reads=mean_reads,
        stderr_reads=stderr,
    )


_KIND_CODE = {VerdictKind.DECIDED: 0, VerdictKind.FAILED: 1, VerdictKind.TRUNCATED: 2}


def run_trials(cfg: ExperimentConfig) -> RunSummary:
    """Construct the codebook from cfg.params.seed and run cfg.trials trials.

    Message-blind adversaries go through the vectorized engine; the
    clairvoyant and causal ones through the per-trial engine.  Both consume
    identical random streams, so the summary is engine-independent.
    """
    validate_config(cfg)
    return _run_on(cfg, construct_greedy(cfg.params))


def _run_on(cfg: ExperimentConfig, cb: Codebook) -> RunSummary:
    """cfg.trials trials of cfg.adversary on a codebook built for cfg.params."""
    if cfg.adversary in ("honest", "uniform", "uniform-index"):
        batch = simulate.run_batch(cb, cfg.adversary, cfg.trials)
        return _summarize(batch.message, batch.kind, batch.decoded, batch.n_reads)
    outcomes = [
        simulate.run_trial(cb, cfg.adversary, t, cfg.h_m, cfg.r_prime_m)[0]
        for t in range(cfg.trials)
    ]
    message = np.array([o.message for o in outcomes])
    kind = np.array([_KIND_CODE[o.verdict.kind] for o in outcomes])
    decoded = np.array(
        [o.verdict.decoded if o.verdict.decoded is not None else -1 for o in outcomes]
    )
    n_reads = np.array([o.verdict.n_reads for o in outcomes])
    return _summarize(message, kind, decoded, n_reads)


def ones_threshold(params: SimParams) -> int:
    """Race threshold used for the analytic columns of sweep_p: the distinct
    clean molecules that settle decoding, the intersection threshold plus dm."""
    return intersection_threshold(params) + params.dm


def sweep_p(cfg: ExperimentConfig, p_list) -> list[tuple]:
    """One run per p with common random numbers; rows (p, pe_hat, bound, dp).

    The codebook does not depend on p, so it is built once and shared.
    """
    if not len(p_list):
        raise ValueError("p_list empty")
    subs = [replace(cfg, params=replace(cfg.params, p=float(p))) for p in p_list]
    for sub in subs:
        validate_config(sub)
    matrix = construct_greedy(subs[0].params).matrix
    m, dm = cfg.params.m, cfg.params.dm
    thr = ones_threshold(cfg.params)
    rows = []
    for sub in subs:
        p = sub.params.p
        summary = _run_on(sub, Codebook(sub.params, matrix))
        bound = analysis.error_prob_upper_bound(m, p, dm, thr)
        dp = analysis.race_dp(m, p, dm, thr)
        rows.append((p, summary.pe_hat, bound, dp))
    return rows


def emit_exponent_curves(r0_list, c_grid) -> list[tuple]:
    """Rows (r0, c, delta, converse_ok); c below the zero-exponent boundary of
    an r0 contributes no row for that r0."""
    rows = []
    for r0 in r0_list:
        if not 0.0 < r0 < 1.0:
            raise ValueError("r0 out of range")
        boundary = math.log(1.0 / (1.0 - r0))
        for c in c_grid:
            if c < boundary - 1e-12:
                continue
            delta = analysis.achievable_exponent(float(c), float(r0))
            rows.append((float(r0), float(c), delta, analysis.converse_valid(float(c), delta)))
    return rows


_MEMBERSHIP_BYTES = 2_000_000


def _membership_row_bytes(m: int, h_m: int) -> int:
    """Bytes s_membership_experiment holds per row of a chunk: the int64 draw
    and its flat index (h_m each), the int64 multiplicity table and one bool
    mask over it (m each), and a few int64 per-row counters."""
    return 16 * h_m + 9 * m + 128


def s_membership_experiment(m_list, c, delta, trials, seed: int = 0) -> list[tuple]:
    """Empirical partition-test membership rate per M, against the exact
    greedy decision, with coupon statistics alongside their expectations.

    Per M: horizon floor(0.9*c*M), slack floor(delta*M), and the untouched
    budget from the midpoint of the feasibility window at reduced coverage
    0.9*c.  Rows: (m, h_m, d_m, r_prime_m, trials, member_frac, suff_frac,
    mean_z, expected_z, mean_z1, expected_z1).
    """
    if trials < 1:
        raise ValueError("trials out of range")
    if not analysis.converse_valid(c, delta):
        raise ValueError("converse condition violated")
    r0 = 1.0 - delta - math.exp(-c)
    cpp = 0.9 * c
    window = analysis.rprime_window(cpp, delta, r0)
    if window is None:
        raise ValueError("empty window")
    mid = 0.5 * (window[0] + window[1])
    for m in m_list:
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
            (
                int(m),
                h_m,
                d_m,
                rpm,
                int(trials),
                members / trials,
                sufficient / trials,
                z_sum / trials,
                analysis.expected_z(m, h_m),
                z1_sum / trials,
                analysis.expected_z1(m, h_m),
            )
        )
    return rows


def converse_experiment(cfg: ExperimentConfig) -> tuple[list[tuple], dict]:
    """Per-trial adversary diagnostics with the guaranteed-error implication
    checked on every trial.

    Returns (rows, summary).  Row: (trial, message, m_prime, psi, active,
    conditions, kind, decoded, n_reads, errored).  Raises if any trial whose
    premises hold fails to decode to m_prime by the horizon.
    """
    validate_config(cfg)
    if cfg.adversary not in ("strong", "weak"):
        raise ValueError("converse experiment needs the strong or weak adversary")
    if cfg.h_m is None or cfg.r_prime_m is None:
        raise ValueError("converse experiment needs h_m and r_prime_m")
    cb = construct_greedy(cfg.params)
    rows = []
    n_active = n_cond = cond_errors = total_errors = 0
    for t in range(cfg.trials):
        outcome, _ = simulate.run_trial(cb, cfg.adversary, t, cfg.h_m, cfg.r_prime_m)
        v = outcome.verdict
        errored = v.kind is not VerdictKind.DECIDED or v.decoded != outcome.message
        if outcome.conditions:
            ok = (
                v.kind is VerdictKind.DECIDED
                and v.decoded == outcome.m_prime
                and v.decoded != outcome.message
                and v.n_reads == outcome.expected_stop
                and v.n_reads <= cfg.h_m
            )
            if not ok:
                raise RuntimeError(
                    f"guaranteed-error implication violated on trial {t}: "
                    f"expected Decided({outcome.m_prime}, {outcome.expected_stop}), "
                    f"got {v}"
                )
            cond_errors += 1
        n_active += bool(outcome.active)
        n_cond += bool(outcome.conditions)
        total_errors += errored
        rows.append(
            (
                t,
                outcome.message,
                -1 if outcome.m_prime is None else outcome.m_prime,
                bool(outcome.psi),
                bool(outcome.active),
                bool(outcome.conditions),
                _KIND_CODE[v.kind],
                -1 if v.decoded is None else v.decoded,
                v.n_reads,
                errored,
            )
        )
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
        "conditional_errors": cond_errors,
        "conditional_error_rate": cond_errors / n_cond if n_cond else float("nan"),
        "error_rate": total_errors / cfg.trials,
        "converse_factor": factor,
        "p": p,
    }
    return rows, summary


def format_cell(x) -> str:
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.9g}"
    return str(x)


def csv_text(header: list[str], rows) -> str:
    lines = [f"# {CSV_VERSION}", ",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(csv_text(header, rows))


SWEEP_HEADER = ["p", "pe_hat", "bound", "dp"]
CURVES_HEADER = ["R0", "c", "delta", "converse_ok"]
SMEMBERSHIP_HEADER = [
    "m",
    "h_m",
    "d_m",
    "r_prime_m",
    "trials",
    "member_frac",
    "suff_frac",
    "mean_z",
    "expected_z",
    "mean_z1",
    "expected_z1",
]
CONVERSE_HEADER = [
    "trial",
    "message",
    "m_prime",
    "psi",
    "active",
    "conditions",
    "kind",
    "decoded",
    "n_reads",
    "errored",
]
SIMULATE_HEADER = [
    "adversary",
    "m",
    "k",
    "v",
    "p",
    "dm",
    "theta",
    "read_cap",
    "seed",
    "trials",
    "errors",
    "failures",
    "truncated",
    "pe_hat",
    "pe_lo",
    "pe_hi",
    "mean_reads",
    "stderr_reads",
]


def simulate_row(cfg: ExperimentConfig, s: RunSummary) -> tuple:
    p = cfg.params
    return (
        cfg.adversary,
        p.m,
        p.k,
        p.v,
        p.p,
        p.dm,
        p.theta,
        p.read_cap,
        p.seed,
        s.trials,
        s.errors,
        s.failures,
        s.truncated,
        s.pe_hat,
        s.pe_ci95[0],
        s.pe_ci95[1],
        s.mean_reads,
        s.stderr_reads,
    )
