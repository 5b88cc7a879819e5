"""Exact S-membership probability by an occupancy DP, checked against brute
force and against s_membership_experiment.

A head of h uniform draws from M indices has occupancy profile n_j (the
indices drawn exactly j times), with d = sum n_j distinct indices, with
probability M^-h h! M! / ((M-d)! prod_j n_j! (j!)^n_j).  The greedy of
greedy_removals reads the profile level by level, j = 1, 2, ...: at level j
it takes min(n_j, budget // j) groups.  So the DP walks the levels in that
order with state (draws used s, distinct d, removals, budget left); the
factor h!/(h-s)! M^-s M!/(M-d)! rides in each state's weight, which makes
every transition factor local.  Once the budget is below the next level the
greedy takes nothing more, and the budget is dropped from the state.
"""

import itertools
import math

import numpy as np
import pytest

from dnareads.analysis import index_counts, partition_stats
from dnareads.harness import s_membership_experiment


def exact_membership(m: int, h: int, dm: int, r_prime_m: int, mass: bool = False) -> float:
    """P(z - removed <= r_prime_m) for a head of h uniform draws from m
    indices at slot budget dm; with mass=True, the total probability of all
    profiles instead, which is 1 up to rounding."""
    s_axis, d_axis = np.arange(h + 1), np.arange(min(m, h) + 1)
    # (removed, budget) -> weights over (draws used, distinct)
    states = {(0, dm): np.zeros((h + 1, len(d_axis)))}
    states[(0, dm)][0, 0] = 1.0
    for j in range(1, h + 1):
        # level j with n groups: h!/(h-s)! M^-s gains (h-s)!/(h-s-jn)! M^-jn,
        # M!/(M-d)! gains (M-d)!/(M-d-n)!, and the profile's own n! (j!)^n
        # divides; M^-n goes with the second factor, so neither overflows
        factors = []
        for n in range(h // j + 1):
            a = np.array([
                math.perm(h - s, j * n) / (m ** ((j - 1) * n) * math.factorial(n)
                                           * math.factorial(j) ** n)
                if s + j * n <= h else 0.0
                for s in s_axis
            ])
            b = np.array([math.perm(m - d, n) / m**n for d in d_axis])
            if not a.any() or not b.any():
                break
            factors.append((n, a[: h + 1 - j * n, None] * b[None, : len(d_axis) - n]))
        nxt = {}
        for (removed, budget), w in states.items():
            for n, f in factors:
                take = min(n, budget // j)
                left = budget - j * take
                key = (removed + take, left if left > j else 0)
                moved = np.zeros_like(w)
                moved[j * n:, n:] = w[: h + 1 - j * n, : len(d_axis) - n] * f
                nxt[key] = nxt.get(key, 0.0) + moved
        states = nxt
    total = 0.0
    for (removed, _), w in states.items():
        keep = np.ones(len(d_axis), bool) if mass else d_axis - removed <= r_prime_m
        total += float(w[h, keep].sum())
    return total


def _brute_force(m: int, h: int, dm: int, r_prime_m: int) -> float:
    """The membership rate over all m^h heads, through partition_stats."""
    heads = np.array(list(itertools.product(range(m), repeat=h)))
    return float(partition_stats(index_counts(heads, m), dm, r_prime_m).in_s.mean())


@pytest.mark.parametrize(
    "m,h",
    [(1, 4), (2, 7), (3, 6), (4, 5), (5, 4), (6, 5)],
)
def test_exact_membership_matches_brute_force(m, h):
    for dm in range(h + 2):
        for r_prime_m in range(min(m, h) + 1):
            want = _brute_force(m, h, dm, r_prime_m)
            assert exact_membership(m, h, dm, r_prime_m) == pytest.approx(want, abs=1e-12)


def test_smembership_lies_near_the_exact_value():
    # criterion 6's constants: R0 = 0.3, delta = 0.05
    trials = 20_000
    rows = s_membership_experiment([50, 100, 200], 0.430783, 0.05, trials, seed=0)
    exact = {50: 0.645655, 100: 0.814919, 200: 0.894822}
    for row in rows:
        p = exact_membership(row.m, row.h_m, row.d_m, row.r_prime_m)
        assert exact_membership(row.m, row.h_m, row.d_m, row.r_prime_m, mass=True) == (
            pytest.approx(1.0, abs=1e-11)
        )
        assert p == pytest.approx(exact[row.m], abs=5e-7)
        assert abs(row.member_frac - p) <= 5 * math.sqrt(p * (1 - p) / trials)
