"""Exact S-membership probability by an occupancy DP, checked against brute
force and against s_membership_experiment.

A head of h uniform draws from M indices has occupancy profile n_j (the
indices drawn exactly j times), with d = sum n_j distinct indices, with
probability h! M! / (M^h (M-d)!) times prod_j 1 / (n_j! (j!)^n_j).  The DP
walks the levels j = 1, 2, ... and sums that product times h^s M^(d-s) over
the profiles that reach each (draws used s, distinct d): n groups at level j
multiply it by (h^j / (M^(j-1) j!))^n / n! and move (s, d) by (jn, n).  The
rest, h! M! / ((M-d)! h^h M^d), depends on d alone and is applied at s = h.
The scaling keeps every weight below e^(h + h^2 / M), so nothing overflows.

The greedy of greedy_removals takes min(n_j, budget // j) groups at level j.
While every level has fitted the budget, it has removed every group, so
removed = d and budget = dm - s: (s, d) is the whole state.  The first level
whose n groups do not fit, because s + jn > dm, takes (dm - s) // j of them
and leaves less budget than any later level needs, so from there the
removals stay fixed: those weights are kept per removed count r, in rows
s > dm.

The (s, d) plane is stored flat, h + 1 cells a row.  Since d <= s, n groups
of size j keep d + n inside its row, so they move a weight by n (j (h+1) + 1)
cells and every weight of a level moves by one slice.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from dnareads.analysis import index_counts, partition_stats
from dnareads.harness import s_membership_experiment


@functools.cache
def removal_law(m: int, h: int, dm: int) -> np.ndarray:
    """P(removed = r, z = d) over (r, d) in [0, dm] x [0, h], for a head of
    h uniform draws from m indices at slot budget dm."""
    w = h + 1
    s_of, d_of = np.divmod(np.arange(w * w), w)
    # fitted: every group so far removed; stopped[r]: removals stopped at r
    fitted = np.zeros(w * w)
    fitted[0] = 1.0
    stopped = np.zeros((dm + 1, w * w))
    low = (dm + 1) * w  # stopped weights lie in rows s > dm
    for j in range(1, h + 1):
        fitted_next, stopped_next = fitted.copy(), stopped.copy()
        g, c = h**j / (m ** (j - 1) * math.factorial(j)), 1.0
        for n in range(1, h // j + 1):
            c *= g / n
            shift = n * (j * w + 1)
            stopped_next[:, low + shift:] += c * stopped[:, low:-shift]
            cells = np.flatnonzero(fitted[:-shift])
            cap = (dm - s_of[cells]) // j
            fits = cap >= n
            fitted_next[cells[fits] + shift] += c * fitted[cells[fits]]
            over = cells[~fits]
            stopped_next[d_of[over] + cap[~fits], over + shift] += c * fitted[over]
        fitted, stopped = fitted_next, stopped_next
    law = stopped[:, h * w:].copy()
    k = np.arange(min(h, dm) + 1)
    law[k, k] += fitted[h * w + k]
    law *= [math.factorial(h) * math.perm(m, d) / (h**h * m**d) for d in range(w)]
    law.flags.writeable = False
    return law


def exact_membership(m: int, h: int, dm: int, r_prime_m: int) -> float:
    """P(z - removed <= r_prime_m) for a head of h uniform draws from m
    indices at slot budget dm."""
    law = removal_law(m, h, dm)
    r, d = np.indices(law.shape)
    return float(law[d - r <= r_prime_m].sum())


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
    rows = s_membership_experiment([50, 100, 200, 400], 0.430783, 0.05, trials, seed=0)
    exact = {50: 0.645655, 100: 0.814919, 200: 0.894822, 400: 0.932752}
    for row in rows:
        p = exact_membership(row.m, row.h_m, row.d_m, row.r_prime_m)
        assert removal_law(row.m, row.h_m, row.d_m).sum() == pytest.approx(1.0, abs=1e-11)
        assert p == pytest.approx(exact[row.m], abs=5e-7)
        assert abs(row.member_frac - p) <= 5 * math.sqrt(p * (1 - p) / trials)
