import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnareads.analysis import (
    SPartition,
    achievable_exponent,
    converse_valid,
    coverage_for_exponent,
    error_prob_upper_bound,
    expected_reads_upper_bound,
    expected_z,
    expected_z1,
    greedy_removals,
    index_counts,
    partition_stats,
    race_dp,
    race_step_odds,
    rprime_window,
    s_membership,
    strong_converse_factor,
    weak_converse_factor,
)
from dnareads.channel import sample_error_flags


def test_coverage_for_exponent_value():
    assert coverage_for_exponent(0.5, 0.2) == pytest.approx(
        1.2039728043259361, abs=1e-12
    )
    with pytest.raises(ValueError, match="r0 out of range"):
        coverage_for_exponent(1.2, 0.1)
    with pytest.raises(ValueError, match="delta out of range"):
        coverage_for_exponent(0.5, 0.5)


def test_achievable_exponent_value():
    assert achievable_exponent(math.log(2.0), 0.25) == pytest.approx(0.25, abs=1e-12)
    # exactly at the zero-exponent boundary: clamps to 0
    assert achievable_exponent(math.log(1 / 0.75), 0.25) == 0.0
    with pytest.raises(ValueError, match="exponent nonpositive"):
        achievable_exponent(0.1, 0.25)
    with pytest.raises(ValueError, match="r0 out of range"):
        achievable_exponent(1.0, 0.0)


@given(
    st.floats(0.05, 0.9),
    st.floats(0.01, 0.99),
)
def test_coverage_exponent_round_trip(r0, frac):
    delta = frac * (1.0 - r0) * 0.98 + 1e-6
    if not delta < 1.0 - r0:
        return
    c = coverage_for_exponent(r0, delta)
    assert achievable_exponent(c, r0) == pytest.approx(delta, abs=1e-12)


def test_converse_valid_examples():
    assert converse_valid(0.430783, 0.05)
    assert not converse_valid(1.0, 0.5)
    with pytest.raises(ValueError, match="c out of range"):
        converse_valid(0.0, 0.1)


def test_rprime_window_values():
    lo, hi = rprime_window(0.4, 0.1, 0.45)
    assert lo == pytest.approx(0.22967995396436067, abs=1e-12)
    assert hi == 0.45
    # when even the best r' reaches r0 the window is empty
    assert rprime_window(0.05, 0.0, 0.04) is None
    with pytest.raises(ValueError, match="cpp out of range"):
        rprime_window(0.0, 0.1, 0.4)


_NAN = float("nan")


@pytest.mark.parametrize(
    "call,args,named",
    [
        (converse_valid, (_NAN, 0.1), "c"),
        (rprime_window, (_NAN, 0.05, 0.3), "cpp"),
        (rprime_window, (0.4, _NAN, 0.3), "delta"),
        (achievable_exponent, (_NAN, 0.3), "c"),
    ],
    ids=["converse_valid-c", "rprime_window-cpp", "rprime_window-delta",
         "achievable_exponent-c"],
)
def test_nan_argument_is_out_of_range(call, args, named):
    # each guard is written so that NaN fails it, not passes it
    with pytest.raises(ValueError, match=f"^{named} out of range$"):
        call(*args)


@pytest.mark.parametrize(
    "call,args,named",
    [
        (rprime_window, (0.4, 0.1, 1.0), "r0"),
        (expected_reads_upper_bound, (0, 0.0, 0), "m"),
        (error_prob_upper_bound, (0, 0.1, 1, 0), "m"),
        (error_prob_upper_bound, (10, 1.0, 1, 5), "p"),
        (error_prob_upper_bound, (10, 0.1, -1, 5), "dm"),
        (race_dp, (0, 0.1, 1, 1), "m"),
        (race_dp, (10, 1.5, 1, 1), "p"),
        (expected_z, (0, 5), "m or n"),
        (expected_z1, (5, -1), "m or n"),
        (strong_converse_factor, (0.1, -1), "dm"),
        (weak_converse_factor, (0, 0.1, 1), "m"),
        (sample_error_flags, (1.5, 10, np.random.default_rng(0)), "p"),
    ],
    ids=["rprime_window-r0", "expected_reads_upper_bound-m", "error_prob_upper_bound-m",
         "error_prob_upper_bound-p", "error_prob_upper_bound-dm", "race_dp-m", "race_dp-p",
         "expected_z-m", "expected_z1-n", "strong_converse_factor-dm",
         "weak_converse_factor-m", "sample_error_flags-p"],
)
def test_guard_names_its_field(call, args, named):
    with pytest.raises(ValueError, match=f"^{named} out of range$"):
        call(*args)


def test_expected_reads_bound_against_rational_oracle():
    got = expected_reads_upper_bound(10, 0.0, 5)
    exact = sum(Fraction(1, 1) / (Fraction(10 - k, 10)) for k in range(5))
    assert got == pytest.approx(float(exact), abs=1e-9)
    assert got == pytest.approx(6.4563492063492065, abs=1e-12)
    assert expected_reads_upper_bound(10, 0.1, 5) == pytest.approx(
        7.173721340388006, abs=1e-12
    )
    assert expected_reads_upper_bound(10, 0.0, 0) == 0.0
    # summed in numpy's order: the loop it replaced, to a float64 tolerance
    loop = sum(1.0 / (0.9 * (1.0 - k / 70001)) for k in range(42001))
    assert expected_reads_upper_bound(70001, 0.1, 42001) == pytest.approx(loop, rel=1e-12)
    with pytest.raises(ValueError, match="threshold out of range"):
        expected_reads_upper_bound(10, 0.0, 11)
    with pytest.raises(ValueError, match="p out of range"):
        expected_reads_upper_bound(10, 1.0, 5)


def test_error_prob_upper_bound_value():
    got = error_prob_upper_bound(40, 0.001, 4, 20)
    assert got == pytest.approx(2.695118875566794e-4, rel=1e-12)
    # vacuous above one is allowed and must not be clipped
    assert error_prob_upper_bound(10, 0.4, 2, 5) > 1.0
    with pytest.raises(ValueError, match="ones_threshold out of range"):
        error_prob_upper_bound(10, 0.1, 2, 10)


def test_race_step_odds():
    assert race_step_odds(10, 0.2, 10) == 1.0
    assert race_step_odds(10, 0.2, 12) == 1.0
    assert race_step_odds(10, 0.2, 0) == pytest.approx(0.2, abs=1e-15)
    # k=5 of m=10: half the fresh mass is gone
    assert race_step_odds(10, 0.2, 5) == pytest.approx(0.2 / (0.2 + 0.8 * 0.5), abs=1e-15)


def test_race_dp_edge_cases():
    # dm=0: no zeros are needed, the loss is immediate regardless of p
    assert race_dp(10, 0.5, 0, 5) == 1.0
    assert race_dp(10, 0.0, 0, 5) == 1.0
    # no errors can ever appear
    assert race_dp(10, 0.0, 2, 5) == 0.0
    # ones win before any extension happens
    assert race_dp(10, 0.5, 2, 0) == 0.0
    with pytest.raises(ValueError, match="threshold out of range"):
        race_dp(10, 0.5, -1, 5)


def test_race_dp_hand_value():
    # dm=1, threshold 1: one extension decides; zero odds are q0(0)
    assert race_dp(2, 0.1, 1, 1) == pytest.approx(0.1, abs=1e-15)
    assert race_dp(20, 0.2, 2, 10) == pytest.approx(0.8174778515756442, abs=1e-12)


def test_race_dp_probability_range():
    for m, p, dm, thr in itertools.product(
        (5, 20), (0.01, 0.2, 0.9), (0, 1, 3), (0, 1, 4)
    ):
        val = race_dp(m, p, dm, thr)
        assert 0.0 <= val <= 1.0


def test_race_dp_monte_carlo():
    # direct simulation of the zero/one extension race
    m, p, dm, thr = 6, 0.2, 2, 3
    rng = np.random.default_rng(8)
    n = 200_000
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
    exact = race_dp(m, p, dm, thr)
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(p_hat - exact) < 4 * sigma


def test_race_dp_below_union_bound():
    for m, p, dm in itertools.product((10, 40), (0.001, 0.01, 0.1), (1, 2, 4)):
        for thr in (1, m // 4, m // 2):
            bound = error_prob_upper_bound(m, p, dm, thr)
            if bound <= 1.0:
                assert race_dp(m, p, dm, thr) <= bound + 1e-12


def test_expected_z_values():
    assert expected_z(10, 10) == pytest.approx(6.513215599, abs=1e-9)
    assert expected_z1(10, 10) == pytest.approx(3.874204890000001, abs=1e-12)
    assert expected_z(5, 0) == 0.0
    assert expected_z1(5, 0) == 0.0
    assert expected_z1(5, 1) == 1.0


def test_expected_z_monte_carlo():
    m, n = 5, 8
    rng = np.random.default_rng(9)
    trials = 50_000
    draws = rng.integers(0, m, size=(trials, n))
    cnt = np.zeros((trials, m), dtype=np.int64)
    np.add.at(cnt, (np.arange(trials)[:, None], draws), 1)
    assert np.array_equal(index_counts(draws, m), cnt)
    z = (cnt > 0).sum(axis=1)
    z1 = (cnt == 1).sum(axis=1)
    assert abs(z.mean() - expected_z(m, n)) < 4 * z.std(ddof=1) / math.sqrt(trials)
    assert abs(z1.mean() - expected_z1(m, n)) < 4 * z1.std(ddof=1) / math.sqrt(trials)


def test_partition_stats_z_examples():
    # one block, one row per example: z distinct indices, z1 drawn once
    stats = partition_stats(index_counts([[1, 2, 3, 1], [0, 0, 0, 0]], 4), 1, 2)
    assert stats.z.tolist() == [3, 1]
    assert stats.z1.tolist() == [2, 0]
    assert stats.removed.tolist() == [1, 0]
    assert stats.in_s.tolist() == [True, True]
    assert stats.sufficient.tolist() == [True, True]


def test_s_membership_block_witness_example():
    # row 0 has groups {1: 2 draws, 2: 1, 5: 3}: at dm = 3 the greedy takes
    # the single 2, then one group of two (index 1); the 5s stay in t2.
    # Row 1 reads one index, whose group of 6 does not fit dm and is in t2.
    part = s_membership(np.array([[5, 1, 5, 5, 1, 2], [0, 0, 0, 0, 0, 0]]), 6, 3, 1)
    assert part.in_s.tolist() == [True, True]
    assert part.t1.tolist() == [
        [False, True, False, False, True, True],
        [False] * 6,
    ]
    # at dm = 2 only the single 2 fits, and two distinct indices stay in t2
    part = s_membership(np.array([[5, 1, 5, 5, 1, 2]]), 6, 2, 1)
    assert part.in_s.tolist() == [False]
    assert part.t1.tolist() == [[False, False, False, False, False, True]]


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 12),
    h=st.integers(1, 16),
    dm=st.integers(0, 5),
    rpm=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_s_membership_block_in_s_like_index_counts(m, h, dm, rpm, seed):
    draws = np.random.default_rng(seed).integers(0, m, size=(20, h))
    part = s_membership(draws, h, dm, rpm)
    assert np.array_equal(part.in_s, partition_stats(index_counts(draws, m), dm, rpm).in_s)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_s_membership_block_equals_row_calls(data):
    # h_m at or below dm, heads of one repeated index and r' = 0 included
    m = data.draw(st.integers(1, 8), label="m")
    h_m = data.draw(st.integers(1, 12), label="h_m")
    dm = data.draw(st.integers(0, 4) | st.just(h_m), label="dm")
    rpm = data.draw(st.just(0) | st.integers(0, m), label="rpm")
    rows = data.draw(st.integers(1, 6), label="rows")
    width = h_m + data.draw(st.integers(0, 3), label="past the head")
    index = st.integers(0, m - 1)
    row = st.lists(index, min_size=width, max_size=width) | index.map(lambda i: [i] * width)
    f = np.array(data.draw(st.lists(row, min_size=rows, max_size=rows), label="f"))
    part = s_membership(f, h_m, dm, rpm)
    assert part.in_s.shape == (rows,) and part.t1.shape == (rows, h_m)
    for r in range(rows):
        one = s_membership(f[r], h_m, dm, rpm)
        assert one.in_s is bool(part.in_s[r])
        assert np.array_equal(one.t1, part.t1[r])


def test_s_membership_witness_example():
    part = s_membership([1, 2, 3, 1], 4, 1, 2)
    assert part.in_s
    # t1 is read time 2 alone; times 1, 3 and 4 form t2
    assert part.t1.tolist() == [False, True, False, False]
    assert partition_stats(np.bincount([1, 2, 3, 1]), 1, 2).sufficient


def test_s_membership_negative_example():
    part = s_membership([1, 1, 2, 2], 4, 1, 1)
    assert not part.in_s
    assert not partition_stats(np.bincount([1, 1, 2, 2]), 1, 1).sufficient


def test_s_membership_validates():
    with pytest.raises(ValueError, match="budget out of range"):
        s_membership([0, 1], 2, -1, 1)
    with pytest.raises(ValueError, match="sequence shorter"):
        s_membership([0], 2, 1, 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_s_membership_witness_is_valid(data):
    h_m = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(1, 6))
    f = data.draw(st.lists(st.integers(0, m - 1), min_size=h_m, max_size=h_m))
    dm = data.draw(st.integers(0, 3))
    rpm = data.draw(st.integers(0, m))
    part = s_membership(f, h_m, dm, rpm)
    assert part.t1.dtype == bool and part.t1.shape == (h_m,)
    assert part.t1.sum() <= dm
    # t1 takes whole value-groups: no index is read both in t1 and in t2
    t1_indices = {f[j] for j in range(h_m) if part.t1[j]}
    survivors = {f[j] for j in range(h_m) if not part.t1[j]}
    assert not t1_indices & survivors
    if part.in_s:
        assert len(survivors) <= rpm
    # the closed-form test is the weaker one
    if partition_stats(np.bincount(f), dm, rpm).sufficient:
        assert part.in_s


def _best_removals(counts, dm):
    """Brute force: the most value-groups whose multiplicities fit dm."""
    groups = [c for c in counts if c]
    best = 0
    for r in range(len(groups) + 1):
        if any(sum(comb) <= dm for comb in itertools.combinations(groups, r)):
            best = r
    return best


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 5), min_size=7, max_size=7), min_size=1, max_size=6),
    st.integers(0, 6),
)
def test_greedy_removals_is_optimal(block, dm):
    # one row alone, then the whole block at once, each row against brute force
    assert greedy_removals(block[0], dm) == _best_removals(block[0], dm)
    got = greedy_removals(np.array(block), dm)
    assert got.shape == (len(block),)
    assert got.tolist() == [_best_removals(row, dm) for row in block]


def _reference_partition(row, dm, r_prime_m):
    """Pure-Python partition test of one head: its value-groups sorted by
    (multiplicity, index), the greedy taking them in that order while they
    fit the budget, and t1 marking every draw of a taken group."""
    sizes = {}
    for i in row:
        sizes[i] = sizes.get(i, 0) + 1
    budget, taken = dm, set()
    for size, i in sorted((size, i) for i, size in sizes.items()):
        if size > budget:
            break
        budget -= size
        taken.add(i)
    z, z1 = len(sizes), sum(size == 1 for size in sizes.values())
    return {
        "z": z,
        "z1": z1,
        "removed": len(taken),
        "in_s": z - len(taken) <= r_prime_m,
        "sufficient": z - min(z1, dm) <= r_prime_m,
        "t1": [i in taken for i in row],
    }


@pytest.mark.parametrize("h_m", [254, 255, 256])
def test_s_membership_at_the_table_dtype_boundary(h_m):
    # At h_m <= 255 the tables are uint8, at 256 uint16, and the one-index
    # row's count reaches h_m; empty groups must still rank last, and the row
    # sums must not wrap at 255 or 256.
    m = h_m + 44
    rng = np.random.default_rng(h_m)
    block = [
        *rng.integers(0, 40, size=(12, h_m)),  # <= 40 groups: most group slots empty
        rng.permutation(m)[:h_m],  # h_m groups of one draw each
        np.full(h_m, 7),  # one group of h_m draws
        np.r_[np.full(h_m - 1, 3), [5]],  # groups of h_m - 1 and 1
        np.r_[np.full(h_m - 2, 1), [0, 2]],
    ]
    block = np.array(block)
    assert index_counts(block, m).dtype == np.min_scalar_type(h_m)
    for dm, r_prime_m in [(3, 30), (40, 20), (h_m - 1, 1), (h_m, 0), (h_m + 5, 2)]:
        part = s_membership(block, h_m, dm, r_prime_m)
        stats = partition_stats(index_counts(block, m), dm, r_prime_m)
        for field in ("z", "z1", "removed"):
            assert getattr(stats, field).dtype == np.int64
        for r, row in enumerate(block):
            want = _reference_partition(row.tolist(), dm, r_prime_m)
            assert part.t1[r].tolist() == want["t1"]
            assert bool(part.in_s[r]) == want["in_s"]
            for field in ("z", "z1", "removed", "in_s", "sufficient"):
                assert getattr(stats, field)[r] == want[field]


def test_converse_factors():
    assert strong_converse_factor(0.1, 2) == pytest.approx(1e-3, rel=1e-12)
    assert weak_converse_factor(10, 0.1, 2) == pytest.approx(9.765625e-7, rel=1e-12)
    with pytest.raises(ValueError, match="p out of range"):
        strong_converse_factor(1.5, 1)
