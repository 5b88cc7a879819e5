"""Closed-form quantities for the variable-read system: coverage/exponent
trade-off, read-count and error bounds, the ones-race recursion, coupon
statistics of index sequences, and the partition test behind the converse
adversaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codebook import intersection_threshold
from .core import SimParams

_BOUNDARY_EPS = 1e-12


def coverage_for_exponent(r0: float, delta: float) -> float:
    """Coverage factor c = ln(1/(1-r0-delta)) needed for exponent delta at rate r0."""
    if not 0.0 < r0 < 1.0:
        raise ValueError("r0 out of range")
    if not 0.0 < delta < 1.0 - r0:
        raise ValueError("delta out of range")
    return math.log(1.0 / (1.0 - r0 - delta))


def achievable_exponent(c: float, r0: float) -> float:
    """Error exponent delta = 1 - r0 - e^{-c}; inverse of coverage_for_exponent.

    Needs c >= ln(1/(1-r0)) for a nonnegative exponent; values within 1e-12
    of that boundary clamp to exactly 0 so grid endpoints stay stable.
    """
    if not c > 0.0:
        raise ValueError("c out of range")
    if not 0.0 < r0 < 1.0:
        raise ValueError("r0 out of range")
    delta = 1.0 - r0 - math.exp(-c)
    if delta < 0.0:
        if delta > -_BOUNDARY_EPS:
            return 0.0
        raise ValueError("exponent nonpositive")
    return delta


def converse_valid(c: float, delta: float) -> bool:
    """True when delta < c * e^{-c}, the regime where the matching converse holds."""
    if not c > 0.0:
        raise ValueError("c out of range")
    return delta < c * math.exp(-c)


def rprime_window(cpp: float, delta: float, r0: float) -> tuple[float, float] | None:
    """Open interval of rates r' < r0 at which the reduced-coverage partition
    test succeeds with probability tending to one, or None when empty.

    cpp is the reduced coverage c''; the lower end is the larger of
    1-e^{-cpp}-delta and 1-e^{-cpp}-cpp*e^{-cpp}.
    """
    if not cpp > 0.0:
        raise ValueError("cpp out of range")
    if not 0.0 < r0 < 1.0:
        raise ValueError("r0 out of range")
    if not delta >= 0.0:
        raise ValueError("delta out of range")
    e = math.exp(-cpp)
    lo = max(1.0 - e - delta, 1.0 - e - cpp * e)
    if lo >= r0:
        return None
    return (lo, r0)


def ones_threshold(params: SimParams) -> int:
    """Race threshold of the read-count and error bounds: the distinct clean
    molecules that settle decoding, the intersection threshold plus dm."""
    return intersection_threshold(params) + params.dm


def expected_reads_upper_bound(m: int, p: float, threshold: int) -> float:
    """Upper bound on mean reads until `threshold` distinct molecules have been
    seen: sum over k < threshold of 1 / ((1-p) (1 - k/m))."""
    if m < 1:
        raise ValueError("m out of range")
    if not 0.0 <= p < 1.0:
        raise ValueError("p out of range")
    if not 0 <= threshold <= m:
        raise ValueError("threshold out of range")
    k = np.arange(threshold)
    return float(np.sum(1.0 / ((1.0 - p) * (1.0 - k / m))))


def error_prob_upper_bound(m: int, p: float, dm: int, ones_threshold: int) -> float:
    """Union-style bound 2^{dm + ones_threshold} * (p / ((1-p)(1 - ones_threshold/m)))^{dm}.

    May exceed 1 (vacuous) for large p; callers compare, never clip.
    """
    if m < 1:
        raise ValueError("m out of range")
    if not 0.0 <= p < 1.0:
        raise ValueError("p out of range")
    if dm < 0:
        raise ValueError("dm out of range")
    if not 0 <= ones_threshold < m:
        raise ValueError("ones_threshold out of range")
    ratio = p / ((1.0 - p) * (1.0 - ones_threshold / m))
    return 2.0 ** (dm + ones_threshold) * ratio**dm


def race_step_odds(m: int, p: float, k: int) -> float:
    """Conditional probability q0(k) that the next string extension is a zero
    (a sequencing error) rather than a fresh error-free molecule, given k
    symbols so far.  Pessimistically k counts every extension as occupying a
    distinct molecule; at k >= m no error-free extension remains, so q0 = 1.
    """
    if k >= m:
        return 1.0
    return p / (p + (1.0 - p) * (1.0 - k / m))


def race_dp(m: int, p: float, dm: int, ones_threshold: int) -> float:
    """Probability that dm zeros are collected before ones_threshold ones in
    the sampling race: zeros mark sequencing errors, ones mark fresh
    error-free molecules, and the per-extension zero odds are q0(k) with
    k = zeros + ones so far.

    Exact value of the coupled race that error_prob_upper_bound bounds from
    above by a union bound; not the protocol error probability itself.
    """
    if m < 1:
        raise ValueError("m out of range")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p out of range")
    if dm < 0 or ones_threshold < 0:
        raise ValueError("threshold out of range")
    if dm == 0:
        return 1.0  # zero zeros needed: lost before any extension
    if p == 0.0:
        return 0.0
    if ones_threshold == 0:
        return 0.0
    # prob[z0] = mass of unabsorbed states with z0 zeros after t extensions;
    # the ones count is t - z0
    prob = np.zeros(dm)
    prob[0] = 1.0
    lost = 0.0
    z0 = np.arange(dm)
    for t in range(dm + ones_threshold - 1):
        q0 = race_step_odds(m, p, t)
        moved = prob * q0
        lost += moved[dm - 1]
        stay = prob * (1.0 - q0)
        stay[(t + 1) - z0 >= ones_threshold] = 0.0  # ones side wins
        prob = np.zeros(dm)
        prob[1:] = moved[:-1]
        prob += stay
        if not prob.any():
            break
    return float(lost)


def expected_z(m: int, n: int) -> float:
    """Mean number of distinct indices in n uniform draws from m."""
    if m < 1 or n < 0:
        raise ValueError("m or n out of range")
    return m * (1.0 - (1.0 - 1.0 / m) ** n)


def expected_z1(m: int, n: int) -> float:
    """Mean number of indices drawn exactly once in n uniform draws from m."""
    if m < 1 or n < 0:
        raise ValueError("m or n out of range")
    return n * (1.0 - 1.0 / m) ** (n - 1) if n > 0 else 0.0


def index_counts(draws, m: int) -> np.ndarray:
    """Per-row multiplicity table of a (rows, h) block of indices in [0, m):
    counts[r, i] is how often row r drew index i, from one bincount over
    r*m + index.  The table is in the narrowest unsigned dtype that holds h
    (uint8 up to h = 255), which the passes over it read far faster than
    int64."""
    draws = np.asarray(draws)
    rows, h = draws.shape
    # the flat indices are freed before the narrow copy is made
    counts = np.bincount((draws + (m * np.arange(rows))[:, None]).ravel(), minlength=rows * m)
    return counts.astype(np.min_scalar_type(h)).reshape(rows, m)


def _row_sum(mask: np.ndarray) -> np.ndarray:
    """Per row, the True entries of a mask over a multiplicity table: summed
    in the narrowest dtype that holds the row width, then widened to int64 so
    that no later arithmetic runs in a narrow dtype."""
    acc = np.min_scalar_type(mask.shape[-1])
    return mask.sum(axis=-1, dtype=acc).astype(np.int64)


def greedy_removals(counts, dm: int, z1=None):
    """Per row, the largest number of whole value-groups whose total
    multiplicity fits the dm-slot budget.  The last axis of counts lists the
    group multiplicities; zeros are no group, so a multiplicity table from
    index_counts works as is.  The result drops the last axis and is int64.
    z1, the per-row count of multiplicity-1 groups, spares the scan its first
    level when the caller has counted it already.

    Exact maximizer: a group costs its full multiplicity and saves exactly
    one distinct value, so an optimal selection takes the cheapest groups.
    Taking min(#groups of multiplicity j, budget // j) for j = 1, 2, ... is
    that ascending scan: once some multiplicity is not fully affordable, the
    budget left is below it and no larger group fits.  Each level j is one
    compare-and-sum pass over the table.
    """
    counts = np.asarray(counts)
    budget, removed = dm, np.zeros(counts.shape[:-1], dtype=np.int64)
    for j in range(1, dm + 1):
        level = z1 if j == 1 and z1 is not None else _row_sum(counts == j)
        take = np.minimum(level, budget // j)
        removed = removed + take
        budget = budget - j * take
        if (budget <= j).all():
            break
    return removed


class PartitionStats(NamedTuple):
    """Per-row partition-test statistics of index-sequence heads: z distinct
    indices, z1 indices drawn exactly once, the greedy removals, membership
    in S (z - removed <= r_prime_m) and the weaker closed-form test
    (z - min(z1, dm) <= r_prime_m)."""

    z: np.ndarray
    z1: np.ndarray
    removed: np.ndarray
    in_s: np.ndarray
    sufficient: np.ndarray


def partition_stats(counts, dm: int, r_prime_m: int) -> PartitionStats:
    """The partition test on every row of a multiplicity table such as
    index_counts returns; a 1-D table is a single row.  z, z1 and removed
    are int64 whatever the table's dtype, and the singletons are counted
    once, for both z1 and the greedy's first level."""
    z = _row_sum(counts > 0)
    z1 = _row_sum(counts == 1)
    removed = greedy_removals(counts, dm, z1)
    return PartitionStats(
        z, z1, removed, z - removed <= r_prime_m, z - np.minimum(z1, dm) <= r_prime_m
    )


@dataclass(frozen=True)
class SPartition:
    """Result of the bounded-slack partition test on an index-sequence prefix.

    t1 is a bool mask over the h_m prefix: entry j is read time j+1, and the
    times it leaves out form t2.  in_s is True when t1 (at most dm times)
    leaves a t2 whose draws hit at most r_prime_m distinct indices.
    """

    in_s: bool | np.ndarray
    t1: np.ndarray


def s_membership(f, h_m: int, dm: int, r_prime_m: int) -> SPartition:
    """Decide membership and exhibit a witness partition of one index
    sequence, or of each row of a (rows, h) block, in O(h_m) memory a row at
    any m: the t1 mask marks every draw of the removed value-groups, the
    lowest index first among equal multiplicities; membership means the
    unmarked draws hit at most r_prime_m distinct indices."""
    f = np.asarray(f)
    head = np.atleast_2d(f[..., :h_m])
    if head.shape[1] != h_m:
        raise ValueError("sequence shorter than h_m")
    if dm < 0 or r_prime_m < 0:
        raise ValueError("budget out of range")
    rows = np.arange(len(head))[:, None]
    order = np.argsort(head, axis=1, kind="stable")
    # group g of a row holds the draws of its g-th smallest distinct index
    group = np.cumsum(np.diff(head[rows, order], axis=1, prepend=-1) != 0, axis=1) - 1
    counts = index_counts(group, h_m)
    stats = partition_stats(counts, dm, r_prime_m)
    # each group's rank by multiplicity, then by index; empty groups go last:
    # in the table's unsigned dtype, which holds h_m, counts - 1 wraps an empty
    # group's 0 to the dtype's maximum, above every nonempty group's key
    by_size = np.argsort(counts - 1, axis=1, kind="stable")
    removed = np.argsort(by_size, axis=1) < stats.removed[:, None]
    t1 = np.empty(head.shape, dtype=bool)
    t1[rows, order] = removed[rows, group]
    if f.ndim == 1:
        return SPartition(in_s=bool(stats.in_s[0]), t1=t1[0])
    return SPartition(in_s=stats.in_s, t1=t1)


def strong_converse_factor(p: float, dm: int) -> float:
    """Probability scale p^{dm+1} at which the clairvoyant adversary forces errors."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p out of range")
    if dm < 0:
        raise ValueError("dm out of range")
    return p ** (dm + 1)


def weak_converse_factor(m: int, p: float, dm: int) -> float:
    """Probability scale 2^{-m} p^{dm+1} achieved by the causal adversary."""
    if m < 1:
        raise ValueError("m out of range")
    return 2.0 ** (-m) * strong_converse_factor(p, dm)
