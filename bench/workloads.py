"""The benchmark's workloads: fixed CLI arguments, trial counts, the code
parameters whose construction counts as set-up, and the output checks.

The checks are statistical, not digests, so they hold at any seed and survive
a change of the random-number contract.  The Monte Carlo reference values are
means over CLI seeds 0-11 (8000 trials per p for the sweep, 5000 trials for
decode-wide) and 0-39 (20000 trials per M for smembership), measured on the
code that introduced this benchmark; tolerances are Z_TOL standard errors of
the difference between the run's estimate and the reference's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

P_LIST = (0.05, 0.1, 0.2)
M_LIST = (50, 100, 200, 400)
# Sigmas allowed between a Monte Carlo estimate and its reference value.
Z_TOL = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    # One cli.main argv per invocation, without --trials/--seed/--out.
    argvs: tuple[tuple[str, ...], ...]
    # Default --trials for each invocation.
    trials: tuple[int, ...]
    # Trials completed per --trials unit of each invocation.
    trials_factor: tuple[int, ...]
    # Code parameters built during set-up; None when there is no codebook.
    code: dict | None
    check: Callable[[list[str], tuple[int, ...]], list[str]]

    def trials_done(self, trials: tuple[int, ...]) -> int:
        return sum(t * f for t, f in zip(trials, self.trials_factor))


def parse_csv(text: str, header: list[str]) -> list[dict]:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# dnareads"):
        raise ValueError("missing version stamp")
    if lines[1].split(",") != header:
        raise ValueError(f"unexpected header {lines[1]!r}")
    rows = []
    for ln in lines[2:]:
        rows.append(dict(zip(header, ln.split(","))))
    return rows


def _binomial_problem(label: str, got: float, ref: float, n: int, n_ref: int) -> str | None:
    """got, a rate over n trials, against ref, a rate over n_ref trials."""
    tol = Z_TOL * math.sqrt(ref * (1.0 - ref) * (1.0 / n + 1.0 / n_ref))
    if abs(got - ref) > tol:
        return f"{label}={got} outside {ref}+-{tol:.3g}"
    return None


def _slope(xs, ys) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


# pe_hat per p, and the analytic (bound, dp) columns, which are exact.
SWEEP_PE_REF = (0.0141, 0.0518, 0.1734)
SWEEP_REF_TRIALS = 12 * 8000
SWEEP_ANALYTIC = ((9.62406015, 0.297889669), (20.3174603, 0.514918266), (45.7142857, 0.781140599))


def check_sweep(csvs: list[str], trials: tuple[int, ...]) -> list[str]:
    rows = parse_csv(csvs[0], ["p", "pe_hat", "bound", "dp"])
    if [float(r["p"]) for r in rows] != list(P_LIST):
        return [f"sweep rows {rows!r} do not cover p={P_LIST}"]
    problems = []
    pes = [float(r["pe_hat"]) for r in rows]
    for p, pe, ref, (bound, dp), row in zip(P_LIST, pes, SWEEP_PE_REF, SWEEP_ANALYTIC, rows):
        if pe <= 0.0:
            problems.append(f"pe_hat at p={p} is {pe}, not > 0")
        problems.append(_binomial_problem(f"pe_hat(p={p})", pe, ref, trials[0], SWEEP_REF_TRIALS))
        for col, want in (("bound", bound), ("dp", dp)):
            if not math.isclose(float(row[col]), want, rel_tol=1e-6):
                problems.append(f"{col} at p={p} is {row[col]}, expected {want}")
    if all(pe > 0.0 for pe in pes):
        slope = _slope([math.log(p) for p in P_LIST], [math.log(pe) for pe in pes])
        if not 0.8 <= slope <= 2.2:
            problems.append(f"log-log slope {slope:.3f} outside [0.8, 2.2]")
    return [p for p in problems if p]


WIDE_PE_REF = 0.00282
WIDE_REF_TRIALS = 12 * 5000
WIDE_READS_REF = 25.957
# Standard error of WIDE_READS_REF itself (12 seeds x 5000 trials).
WIDE_READS_REF_SE = 0.017


def check_wide(csvs: list[str], trials: tuple[int, ...]) -> list[str]:
    header = (
        "adversary,m,k,v,p,dm,theta,read_cap,seed,trials,errors,failures,truncated,"
        "pe_hat,pe_lo,pe_hi,mean_reads,stderr_reads"
    ).split(",")
    rows = parse_csv(csvs[0], header)
    if len(rows) != 1:
        return [f"expected one simulate row, got {len(rows)}"]
    row = rows[0]
    n = trials[0]
    problems = []
    if int(row["trials"]) != n:
        problems.append(f"trials column {row['trials']} != {n}")
    bad = int(row["errors"]) + int(row["failures"]) + int(row["truncated"])
    if not math.isclose(bad / n, float(row["pe_hat"]), rel_tol=1e-6, abs_tol=1e-12):
        problems.append(f"pe_hat {row['pe_hat']} disagrees with {bad} bad of {n}")
    problems.append(_binomial_problem("pe_hat", float(row["pe_hat"]), WIDE_PE_REF, n, WIDE_REF_TRIALS))
    reads, se = float(row["mean_reads"]), float(row["stderr_reads"])
    tol = Z_TOL * math.hypot(se, WIDE_READS_REF_SE)
    if abs(reads - WIDE_READS_REF) > tol:
        problems.append(f"mean_reads={reads} outside {WIDE_READS_REF}+-{tol:.3g}")
    return [p for p in problems if p]


CONVERSE_P = 0.3
CONVERSE_HEADER = (
    "trial,message,m_prime,psi,active,conditions,kind,decoded,n_reads,errored".split(",")
)


def check_converse(csvs: list[str], trials: tuple[int, ...]) -> list[str]:
    problems = []
    for label, text, n in zip(("strong", "weak"), csvs, trials):
        rows = parse_csv(text, CONVERSE_HEADER)
        if [int(r["trial"]) for r in rows] != list(range(n)):
            problems.append(f"{label}: trial column is not 0..{n - 1}")
            continue
        active = sum(r["active"] == "true" for r in rows) / n
        limit = CONVERSE_P + 3.0 * math.sqrt(CONVERSE_P * (1.0 - CONVERSE_P) / n)
        if active > limit:
            problems.append(f"{label}: activation rate {active} > {limit:.4f}")
        for r in rows:
            if r["conditions"] == "true" and (
                r["errored"] != "true" or r["decoded"] != r["m_prime"]
            ):
                problems.append(f"{label}: trial {r['trial']} met the premises but {r}")
                break
    return problems


# Partition-test membership rate per M: means over seeds 0-39 at 20000 trials.
# These are Monte Carlo values too; the 0.6528/0.8187/0.8949/0.9323 of
# acceptance criterion 6 are one 10000-trial run at seed 0, and at M=50 that
# run sits 15 standard errors of this mean above it.
MEMBER_REF = (0.6457, 0.8156, 0.8952, 0.9331)
MEMBER_REF_TRIALS = 40 * 20000


def _var_z(m: int, n: int) -> float:
    """Variance of the number of distinct values in n uniform draws from m."""
    q1 = (1.0 - 1.0 / m) ** n
    q2 = (1.0 - 2.0 / m) ** n
    return m * (m - 1) * q2 + m * q1 - (m * q1) ** 2


def check_smembership(csvs: list[str], trials: tuple[int, ...]) -> list[str]:
    header = (
        "m,h_m,d_m,r_prime_m,trials,member_frac,suff_frac,mean_z,expected_z,"
        "mean_z1,expected_z1"
    ).split(",")
    rows = parse_csv(csvs[0], header)
    n = trials[0]
    if [int(r["m"]) for r in rows] != list(M_LIST):
        return [f"smembership rows do not cover M={M_LIST}"]
    problems = []
    fracs = [float(r["member_frac"]) for r in rows]
    if any(b < a for a, b in zip(fracs, fracs[1:])):
        problems.append(f"member_frac {fracs} is not nondecreasing in M")
    for r, frac, ref in zip(rows, fracs, MEMBER_REF):
        m, h_m = int(r["m"]), int(r["h_m"])
        problems.append(_binomial_problem(f"member_frac(M={m})", frac, ref, n, MEMBER_REF_TRIALS))
        z, ez = float(r["mean_z"]), float(r["expected_z"])
        tol = Z_TOL * math.sqrt(_var_z(m, h_m) / n)
        if abs(z - ez) > tol:
            problems.append(f"mean_z(M={m})={z} outside expected_z {ez}+-{tol:.3g}")
    return [p for p in problems if p]


def _split(text: str) -> tuple[str, ...]:
    return tuple(text.split())


_CONVERSE = "converse --m 10 --k 16 --v 2 --p 0.3 --delta 0.2 --theta 0.7 --read-cap 400"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uniform-sweep",
            argvs=(
                _split(
                    "sweep-p --m 20 --k 64 --v 8 --delta 0.05 --theta 0.25 --read-cap 200 "
                    "--adversary uniform --p-list " + ",".join(str(p) for p in P_LIST)
                ),
            ),
            trials=(32000,),
            trials_factor=(len(P_LIST),),
            code=dict(m=20, k=64, v=8, theta=0.25, delta=0.05, read_cap=200),
            check=check_sweep,
        ),
        Workload(
            name="decode-wide",
            argvs=(
                _split(
                    "simulate --m 64 --k 1024 --v 2 --p 0.05 --delta 0.05 --theta 0.7 "
                    "--read-cap 640 --adversary uniform"
                ),
            ),
            trials=(5000,),
            trials_factor=(1,),
            code=dict(m=64, k=1024, v=2, theta=0.7, delta=0.05, read_cap=640),
            check=check_wide,
        ),
        Workload(
            name="converse",
            argvs=(
                _split(_CONVERSE + " --adversary strong --hm 20 --rprimem 5"),
                _split(_CONVERSE + " --adversary weak --hm 20 --rprimem 3"),
            ),
            trials=(2000, 4000),
            trials_factor=(1, 1),
            code=dict(m=10, k=16, v=2, theta=0.7, delta=0.2, read_cap=400),
            check=check_converse,
        ),
        Workload(
            name="smembership",
            argvs=(
                _split(
                    "smembership --m-list " + ",".join(str(m) for m in M_LIST)
                    + " --coverage 0.430783 --delta 0.05"
                ),
            ),
            trials=(20000,),
            trials_factor=(len(M_LIST),),
            code=None,
            check=check_smembership,
        ),
    )
}
