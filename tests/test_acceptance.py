"""Acceptance gate: one test per criterion, each emitting a single
"criterion N: PASS/FAIL" line with the measured quantities."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from dnareads import SimParams
from dnareads.analysis import (
    achievable_exponent,
    converse_valid,
    coverage_for_exponent,
    error_prob_upper_bound,
    expected_reads_upper_bound,
    expected_z,
    expected_z1,
    race_dp,
    race_step_odds,
    s_membership,
)
from dnareads.codebook import (
    agreeing,
    construct_greedy,
    intersection_threshold,
    verify_intersections,
)
from dnareads.harness import (
    ExperimentConfig,
    converse_experiment,
    csv_text,
    emit_exponent_curves,
    s_membership_experiment,
    sweep_p,
    SweepRow,
)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_zero_error_regime():
    params = SimParams(m=100, k=200, v=64, p=0.0, dm=10, theta=0.3, seed=0)
    cfg = ExperimentConfig(params=params, adversary="honest", trials=10_000)
    from dnareads.harness import run_trials

    start = time.perf_counter()
    summary = run_trials(cfg)
    elapsed = time.perf_counter() - start
    bound = expected_reads_upper_bound(100, 0.0, 41)
    clean = summary.errors == 0 and summary.failures == 0 and summary.truncated == 0
    reads_ok = summary.mean_reads <= bound + 3 * summary.stderr_reads
    ok = clean and reads_ok and elapsed < 30.0
    _report(
        1,
        ok,
        f"errors={summary.errors} failures={summary.failures} "
        f"truncated={summary.truncated} mean_reads={summary.mean_reads:.3f} "
        f"bound={bound:.3f} elapsed={elapsed:.1f}s",
    )


def test_criterion_02_harmonic_sum_oracle():
    got = expected_reads_upper_bound(10, 0.0, 5)
    exact = sum(Fraction(10, 10 - k) for k in range(5))
    oracle_ok = abs(got - float(exact)) <= 1e-6
    # time to 5 distinct out of 10 is a sum of independent geometric waits
    rng = np.random.default_rng(12)
    n = 100_000
    waits = np.zeros(n)
    for j in range(5):
        waits += rng.geometric(1.0 - j / 10.0, size=n)
    mean = float(waits.mean())
    se = float(waits.std(ddof=1)) / math.sqrt(n)
    mc_ok = mean - 3 * se <= got
    ok = oracle_ok and mc_ok
    _report(
        2,
        ok,
        f"bound={got:.9f} exact={float(exact):.9f} mc_mean={mean:.4f} se={se:.4f}",
    )


def test_criterion_03_coupon_statistics():
    m = n = 10
    rng = np.random.default_rng(13)
    trials = 100_000
    draws = rng.integers(0, m, size=(trials, n))
    cnt = np.zeros((trials, m), dtype=np.int64)
    np.add.at(cnt, (np.arange(trials)[:, None], draws), 1)
    z = (cnt > 0).sum(axis=1)
    z1 = (cnt == 1).sum(axis=1)
    ez, ez1 = expected_z(m, n), expected_z1(m, n)
    se_z = float(z.std(ddof=1)) / math.sqrt(trials)
    se_z1 = float(z1.std(ddof=1)) / math.sqrt(trials)
    ok = abs(float(z.mean()) - ez) <= 3 * se_z and abs(float(z1.mean()) - ez1) <= 3 * se_z1
    _report(
        3,
        ok,
        f"mean_z={z.mean():.5f} (exact {ez:.6f}, se {se_z:.5f}) "
        f"mean_z1={z1.mean():.5f} (exact {ez1:.6f}, se {se_z1:.5f})",
    )


def test_criterion_04_race_dp_vs_monte_carlo():
    m, p, dm, thr = 20, 0.2, 2, 10
    exact = race_dp(m, p, dm, thr)
    rng = np.random.default_rng(14)
    n = 1_000_000
    zeros = np.zeros(n, dtype=np.int64)
    ones = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for t in range(dm + thr):
        q0 = race_step_odds(m, p, t)
        draw = rng.random(n) < q0
        zeros[alive & draw] += 1
        ones[alive & ~draw] += 1
        alive &= (zeros < dm) & (ones < thr)
    p_hat = float((zeros >= dm).mean())
    sigma = math.sqrt(exact * (1.0 - exact) / n)
    mc_ok = abs(p_hat - exact) <= 3 * sigma
    dominated = True
    for mm, pp, dd in itertools.product((10, 20, 40), (0.001, 0.01, 0.05, 0.1, 0.2), (1, 2, 4)):
        for tt in (1, mm // 4, mm // 2):
            bound = error_prob_upper_bound(mm, pp, dd, tt)
            if bound <= 1.0 and race_dp(mm, pp, dd, tt) > bound + 1e-12:
                dominated = False
    ok = mc_ok and dominated
    _report(
        4,
        ok,
        f"dp={exact:.9f} mc={p_hat:.6f} sigma={sigma:.6f} union_bound_dominates={dominated}",
    )


def test_criterion_05_error_probability_scaling():
    params = SimParams(m=20, k=64, v=8, p=0.05, dm=1, theta=0.25, read_cap=200, seed=11)
    cfg = ExperimentConfig(params=params, adversary="uniform", trials=1_000_000)
    p_list = [0.05, 0.1, 0.2]
    rows = sweep_p(cfg, p_list)
    pe = [r[1] for r in rows]
    slope = float(np.polyfit(np.log(p_list), np.log(pe), 1)[0])
    ok = all(x > 0 for x in pe) and 0.8 <= slope <= 2.2
    _report(5, ok, f"pe={['%.6g' % x for x in pe]} slope={slope:.3f} (window [0.8, 2.2])")


def test_criterion_06_s_membership_trend():
    c = coverage_for_exponent(0.3, 0.05)
    start = time.perf_counter()
    rows = s_membership_experiment([50, 100, 200, 400], c, 0.05, trials=10_000, seed=0)
    elapsed = time.perf_counter() - start
    member = [r[5] for r in rows]
    nondecreasing = all(b >= a for a, b in zip(member, member[1:]))
    final_ok = member[-1] >= 0.95
    ok = nondecreasing and final_ok and elapsed < 60.0
    _report(
        6,
        ok,
        f"member_frac={['%.4f' % x for x in member]} nondecreasing={nondecreasing} "
        f"final>=0.95={final_ok} elapsed={elapsed:.1f}s",
    )


def _brute_force_in_s(f, dm, rpm):
    h_m = len(f)
    vals = sorted(set(f))
    occ = np.zeros(len(vals), dtype=np.int64)
    for j, x in enumerate(f):
        occ[vals.index(x)] |= 1 << j
    masks = [0]
    for r in range(1, dm + 1):
        for combo in itertools.combinations(range(h_m), r):
            masks.append(sum(1 << j for j in combo))
    masks = np.array(masks, dtype=np.int64)
    survivors = ((occ[None, :] & ~masks[:, None]) != 0).sum(axis=1)
    return bool((survivors <= rpm).any())


def test_criterion_07_exact_combinatorics():
    rng = np.random.default_rng(15)
    agree = True
    for _ in range(10_000):
        h_m = int(rng.integers(1, 13))
        m = int(rng.integers(1, 9))
        dm = int(rng.integers(0, 4))
        rpm = int(rng.integers(0, m + 1))
        f = [int(x) for x in rng.integers(0, m, size=h_m)]
        part = s_membership(f, h_m, dm, rpm)
        if part.in_s != _brute_force_in_s(f, dm, rpm):
            agree = False
            break
        if part.in_s:
            survivors = {f[j] for j in range(h_m) if not part.t1[j]}
            if part.t1.sum() > dm or len(survivors) > rpm:
                agree = False
                break
    restr_ok = True
    for _ in range(40):
        k = int(rng.integers(2, 101))
        m = int(rng.integers(2, 8))
        v = int(rng.integers(2, 4))
        from dnareads.codebook import Codebook

        cb = Codebook(
            SimParams(m=m, k=k, v=v, p=0.0, dm=0, theta=1.0, seed=0),
            rng.integers(0, v, size=(k, m)),
        )
        size = int(rng.integers(0, m + 1))
        iset = rng.choice(m, size=size, replace=False)
        mask = agreeing(cb, np.arange(k), np.tile(iset, (k, 1)))
        got = {i for i in range(k) if not mask[i].any()}
        restr = [tuple(row[sorted(iset)]) for row in cb.matrix]
        brute = {
            i
            for i in range(k)
            if all(restr[j] != restr[i] for j in range(k) if j != i)
        }
        if got != brute:
            restr_ok = False
            break
    ok = agree and restr_ok
    _report(7, ok, f"partition_search_agree={agree} unique_restriction_agree={restr_ok}")


def test_criterion_08_converse_mechanics():
    params = SimParams(m=10, k=16, v=2, p=0.3, dm=2, theta=0.7, read_cap=400, seed=3)
    trials = 4000
    sigma = math.sqrt(params.p * (1.0 - params.p) / trials)
    cap = params.p + 3 * sigma
    # converse_experiment raises if any trial whose premises hold fails to
    # produce Decided(m', t_{m'}) with t_{m'} <= h_m, so reaching the summary
    # certifies the per-trial implication for both adversaries
    _, strong = converse_experiment(
        ExperimentConfig(params=params, adversary="strong", trials=trials, h_m=20, r_prime_m=5)
    )
    _, weak = converse_experiment(
        ExperimentConfig(params=params, adversary="weak", trials=trials, h_m=20, r_prime_m=3)
    )
    freq_ok = strong["activation_rate"] <= cap and weak["activation_rate"] <= cap
    ok = freq_ok
    _report(
        8,
        ok,
        f"strong: active={strong['n_active']} conditions={strong['n_conditions']}; "
        f"weak: active={weak['n_active']} conditions={weak['n_conditions']} "
        f"activation_rate={weak['activation_rate']:.4f} <= p+3sigma={cap:.4f}",
    )


def test_criterion_09_codebook_invariant():
    settings = [
        SimParams(m=50, k=1000, v=16, p=0.0, dm=0, theta=0.5, seed=0),
        SimParams(m=20, k=64, v=8, p=0.0, dm=1, theta=0.25, seed=11),
        SimParams(m=10, k=16, v=2, p=0.0, dm=2, theta=0.7, seed=3),
        SimParams(m=100, k=200, v=64, p=0.0, dm=10, theta=0.3, seed=0),
    ]
    start = time.perf_counter()
    worst = []
    ok = True
    for params in settings:
        cb = construct_greedy(params)
        w = verify_intersections(cb)
        worst.append(w)
        if w >= intersection_threshold(params):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(9, ok, f"max_intersections={worst} elapsed={elapsed:.2f}s")


def test_criterion_10_exponent_formulas():
    worst = 0.0
    points = 0
    for r0 in np.linspace(0.05, 0.9, 40):
        for frac in np.linspace(0.02, 0.95, 25):
            delta = float(frac * (1.0 - r0))
            c = coverage_for_exponent(float(r0), delta)
            worst = max(worst, abs(achievable_exponent(c, float(r0)) - delta))
            points += 1
    round_trip_ok = worst <= 1e-12 and points >= 1000

    grid = np.linspace(0.05, 5.0, 500)
    rows = emit_exponent_curves([0.2, 0.3, 0.5], grid)
    shape_ok = True
    flips_ok = True
    for r0 in (0.2, 0.3, 0.5):
        sub = [r for r in rows if r[0] == r0]
        deltas = [r[2] for r in sub]
        oks = [r[3] for r in sub]
        if any(b < a - 1e-12 for a, b in zip(deltas, deltas[1:])):
            shape_ok = False
        second = np.diff(deltas, 2)
        if second.size and second.max() > 1e-9:
            shape_ok = False
        flips = sum(a != b for a, b in zip(oks, oks[1:]))
        if flips != 1 or not oks[0] or oks[-1]:
            flips_ok = False
    ok = round_trip_ok and shape_ok and flips_ok
    _report(
        10,
        ok,
        f"round_trip_worst={worst:.2e} over {points} points; "
        f"monotone_concave={shape_ok} single_flip={flips_ok}",
    )


def test_criterion_11_deterministic_output(tmp_path):
    params = SimParams(m=8, k=8, v=4, p=0.05, dm=1, theta=0.5, read_cap=120, seed=6)
    cfg = ExperimentConfig(params=params, adversary="uniform", trials=500)
    text_a = csv_text(SweepRow._fields, zip(*sweep_p(cfg, [0.05, 0.1])))
    text_b = csv_text(SweepRow._fields, zip(*sweep_p(cfg, [0.05, 0.1])))
    api_ok = text_a == text_b

    from dnareads.cli import main

    args = [
        "simulate",
        "--m", "8", "--k", "8", "--v", "4",
        "--p", "0.1", "--delta", "0.125", "--theta", "0.5",
        "--adversary", "uniform", "--trials", "300", "--seed", "6",
    ]
    f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    main(args + ["--out", str(f1)])
    main(args + ["--out", str(f2)])
    cli_ok = f1.read_bytes() == f2.read_bytes()
    ok = api_ok and cli_ok
    _report(11, ok, f"api_rerun_identical={api_ok} cli_rerun_identical={cli_ok}")
