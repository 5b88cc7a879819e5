import itertools

import numpy as np
import pytest

from dnareads import SimParams
from dnareads.channel import (
    ADVERSARIES,
    StrongAdversaryPlan,
    WeakAdversaryPlan,
    observe_honest,
    observe_strong,
    observe_uniform,
    observe_weak,
    sample_error_flags,
    sample_index_sequence,
    strong_prepare,
    weak_prepare,
)
from dnareads.codebook import Codebook, construct_greedy
from dnareads.core import TrialStream, Verdict, derive_trial_rng
from dnareads.decoder import run, stopping_time_no_errors
from dnareads.simulate import _observe_trial, run_trial
from dnareads.analysis import s_membership


def test_adversary_names():
    assert ADVERSARIES == ("honest", "uniform", "uniform-index", "strong", "weak")


def test_index_sequence_single_index():
    rng = np.random.default_rng(0)
    assert not sample_index_sequence(1, 50, rng).any()


def test_index_sequence_frequencies():
    rng = np.random.default_rng(1)
    f = sample_index_sequence(10, 100_000, rng)
    counts = np.bincount(f, minlength=10)
    sigma = np.sqrt(100_000 * 0.1 * 0.9)
    assert (np.abs(counts - 10_000) < 3.5 * sigma).all()


def test_index_sequence_deterministic():
    a = sample_index_sequence(7, 100, np.random.default_rng(3))
    b = sample_index_sequence(7, 100, np.random.default_rng(3))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_index_sequence(7, 0, np.random.default_rng(3))


def test_error_flags_degenerate():
    rng = np.random.default_rng(0)
    assert not sample_error_flags(0.0, 100, rng).any()
    assert sample_error_flags(1.0, 100, np.random.default_rng(0)).all()


def test_error_flags_rate():
    flags = sample_error_flags(0.1, 100_000, np.random.default_rng(2))
    sigma = np.sqrt(100_000 * 0.1 * 0.9)
    assert abs(int(flags.sum()) - 10_000) < 3.5 * sigma


def test_error_flags_common_random_numbers():
    # same generator state: flags at lower p are a subset of flags at higher p
    lo = sample_error_flags(0.1, 1000, np.random.default_rng(7))
    hi = sample_error_flags(0.2, 1000, np.random.default_rng(7))
    assert (~lo | hi).all()


def test_observe_honest_identity():
    true_ids = np.array([12, 1, 7])
    flags = np.array([True, False, True])
    assert observe_honest(true_ids, np.array([3, 0, 1]), flags) is true_ids


def _uniform_rows(literal_codebook, adversary, m, v, n):
    """One trial of n reads as simulate._observe_trial draws it at p = 1, so
    every read is erroneous, for a one-word code over m indices and v
    payloads."""
    cb = literal_codebook([[0] * m], dm=0, v=v, p=1.0, read_cap=n)
    obs = _observe_trial(cb, adversary, 0)
    assert obs.flags.all()
    return obs


def test_observe_uniform_singleton_space(literal_codebook):
    assert not _uniform_rows(literal_codebook, "uniform", 1, 1, 5).observed.any()


def test_observe_uniform_frequencies(literal_codebook):
    # all m*v molecules equally likely, independent of the sampled molecule
    n = 100_000
    obs = _uniform_rows(literal_codebook, "uniform", 4, 4, n)
    counts = np.bincount(obs.observed, minlength=16)
    expected = n / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 40.0  # df=15; far tail cutoff


def test_observe_uniform_index_preserving(literal_codebook):
    obs = _uniform_rows(literal_codebook, "uniform-index", 4, 4, 20_000)
    assert (obs.observed // 4 == obs.true_ids // 4).all()
    pays = np.bincount(obs.observed % 4, minlength=4)
    sigma = np.sqrt(20_000 * 0.25 * 0.75)
    assert (np.abs(pays - 5000) < 4 * sigma).all()


def test_observe_uniform_maps_erroneous_reads():
    true_ids = np.array([[1, 2, 3], [4, 5, 6]])
    flags = np.array([[True, False, True], [False, False, True]])
    replacement = np.array([[7, 8, 9], [10, 11, 12]])
    row = observe_uniform(true_ids[0], flags[0], replacement[0])
    assert row.tolist() == [7, 2, 9]
    block = observe_uniform(true_ids, flags, replacement)
    assert block.tolist() == [[7, 2, 9], [4, 5, 12]]


@pytest.fixture
def strong_setup(small_codebook):
    params = small_codebook.params
    rng = derive_trial_rng(99, 0)
    f = sample_index_sequence(params.m, 40, rng)
    flags = sample_error_flags(params.p, 40, rng)
    part = s_membership(f, 20, params.dm, 5)
    return small_codebook, f, flags, part


def test_strong_prepare_psi_false_inactive(strong_setup):
    cb, f, flags, part = strong_setup
    plan = strong_prepare(cb, 0, f, flags, 20, part, psi=False)
    assert not plan.active and plan.m_prime is None


def test_strong_prepare_no_errors_inactive(strong_setup):
    cb, f, flags, part = strong_setup
    if not part.t1.any():
        pytest.skip("witness partition has empty t1 for this draw")
    plan = strong_prepare(cb, 0, f, np.zeros(40, dtype=bool), 20, part, psi=True)
    assert not plan.active


def test_strong_prepare_u_partition(strong_setup):
    cb, f, flags, part = strong_setup
    plan = strong_prepare(cb, 0, f, flags, 20, part, psi=True)
    # m_prime is the smallest t2-agreeing candidate that stops by the
    # horizon, stop is its error-free stopping time, and each such stop
    # decodes to the candidate
    gate = part.in_s and flags[:20][part.t1].all()
    t2 = f[:20][~part.t1]
    stops = {}
    for msg in range(len(cb)):
        t = stopping_time_no_errors(cb, msg, f, 20)
        agrees = msg != 0 and (cb.matrix[msg, t2] == cb.matrix[0, t2]).all()
        if t is not None:
            assert t <= 20
            assert run(cb, cb.word_ids[msg][f[:t]].tolist(), t) == Verdict.decided(msg, t)
            if gate and agrees:
                stops[msg] = t
    assert plan.m_prime == min(stops, default=None)
    assert plan.stop == stops.get(plan.m_prime)
    assert plan.active == (plan.m_prime is not None)


def _strong_plan(m_prime, t1):
    """A plan whose t1 mask marks the given 0-based read positions; active
    unless m_prime is None.  observe_strong does not read stop."""
    return StrongAdversaryPlan(
        m_prime=m_prime, stop=None, t1=np.asarray(t1, dtype=bool), psi=True
    )


def test_observe_strong_substitution(literal_codebook):
    cb = literal_codebook([[0, 0, 0], [1, 1, 0]], dm=0)
    f = np.array([1, 1, 1])
    true_ids = cb.word_ids[0][f]  # molecule (1, 0), id 2
    # time 1: erroneous read outside t1 passes through; time 2: erroneous
    # read at a t1 time becomes codeword 1's molecule (1, 1); time 3: clean
    # read at a t1 time passes through
    flags = np.array([True, True, False])
    row = observe_strong(_strong_plan(1, [False, True, True]), cb, true_ids, f, flags)
    assert row.tolist() == [2, 3, 2]
    # a mask over a shorter prefix leaves the later reads alone
    row = observe_strong(_strong_plan(1, [True, True]), cb, true_ids, f, np.ones(3, bool))
    assert row.tolist() == [3, 3, 2]
    inactive = _strong_plan(None, [False, True, True])
    assert observe_strong(inactive, cb, true_ids, f, np.ones(3, dtype=bool)).tolist() == [2, 2, 2]


def _stream(seed, trial):
    """Trial trial's draws by the draw rule, as the per-trial engine reads them."""
    return TrialStream(derive_trial_rng(seed, trial))


def test_weak_prepare_empty_restriction_uniform():
    # rpm=0: every other message qualifies and is picked uniformly
    params = SimParams(m=6, k=9, v=4, p=0.5, dm=1, theta=0.6, read_cap=50, seed=2)
    cb = construct_greedy(params)
    counts = np.zeros(9, dtype=np.int64)
    n = 9000
    for t in range(n):
        plan = weak_prepare(cb, 3, 0, _stream(0, t))
        counts[plan.m_prime] += 1
    assert counts[3] == 0
    expected = n / 8
    sigma = np.sqrt(n * (1 / 8) * (7 / 8))
    assert (np.abs(np.delete(counts, 3) - expected) < 4 * sigma).all()


def test_weak_prepare_floyd_sets_and_picks_are_uniform():
    # m 5, r' 2: each of the C(5, 2) = 10 index sets within 5 standard
    # errors of 1/10, and within each set every candidate within 5 standard
    # errors of 1/n for its n candidates
    params = SimParams(m=5, k=12, v=2, p=0.5, dm=0, theta=1.0, read_cap=8, seed=0)
    cb = Codebook(params, np.random.default_rng(5).integers(0, 2, (12, 5)))
    n = 20000
    sets, picks = {}, {}
    for t in range(n):
        plan = weak_prepare(cb, 0, 2, _stream(7, t))
        key = tuple(plan.index_set.tolist())
        sets[key] = sets.get(key, 0) + 1
        picks[key, plan.m_prime] = picks.get((key, plan.m_prime), 0) + 1
    assert sorted(sets) == sorted(itertools.combinations(range(5), 2))
    sigma = np.sqrt(n * 0.1 * 0.9)
    assert all(abs(count - n / 10) < 5 * sigma for count in sets.values())
    several = 0
    for key, count in sets.items():
        cands = np.flatnonzero((cb.matrix[:, key] == cb.matrix[0, key]).all(axis=1))
        cands = [int(c) for c in cands if c != 0]
        got = {m_prime: picks[key2, m_prime] for key2, m_prime in picks if key2 == key}
        assert set(got) == (set(cands) or {None})
        for hits in got.values():
            share = 1 / len(got)
            assert abs(hits - count * share) <= 5 * np.sqrt(count * share * (1 - share))
        several += len(cands) > 1
    assert several >= 3


def test_weak_prepare_full_restriction_none(small_codebook):
    # distinct codewords restricted to all indices leave no confusable message
    m = small_codebook.params.m
    for t in range(20):
        plan = weak_prepare(small_codebook, 0, m, _stream(1, t))
        assert plan.m_prime is None
        assert not plan.active
        assert len(plan.index_set) == m


def test_weak_prepare_validates_budget(small_codebook):
    with pytest.raises(ValueError, match="r_prime_m out of range"):
        weak_prepare(small_codebook, 0, small_codebook.params.m + 1, _stream(0, 0))


def test_weak_prepare_candidates_match_restriction(small_codebook):
    # any picked m' really does agree with m on the untouched set
    w = small_codebook.matrix
    hits = 0
    for t in range(200):
        plan = weak_prepare(small_codebook, 2, 3, _stream(5, t))
        if plan.m_prime is None:
            continue
        hits += 1
        idx = plan.index_set
        assert idx.tolist() == sorted(set(idx.tolist())) and len(idx) == 3
        assert (w[plan.m_prime, idx] == w[2, idx]).all()
        assert plan.m_prime != 2
    assert hits > 0


def test_observe_weak_substitution(literal_codebook):
    cb = literal_codebook([[0, 0, 1], [0, 1, 1]], dm=0)
    plan = WeakAdversaryPlan(index_set=np.array([0]), m_prime=1, psi=True)
    assert plan.active
    f = np.array([1, 2, 1])
    true_ids = cb.word_ids[0][f]  # molecules (1, 0), (2, 1), (1, 0)
    flags = np.array([True, True, False])
    # substitution at a differing index, no-op at index 2 where the codewords
    # agree, and the clean read passes through
    assert observe_weak(plan, cb, true_ids, f, flags).tolist() == [3, 5, 2]
    dormant = WeakAdversaryPlan(index_set=np.array([0]), m_prime=1, psi=False)
    assert not dormant.active
    assert observe_weak(dormant, cb, true_ids, f, np.ones(3, dtype=bool)).tolist() == [2, 5, 2]


def _rows_of_every_adversary(cb, f, flags):
    true_ids = cb.word_ids[0][f]
    weak = WeakAdversaryPlan(index_set=np.array([], dtype=np.int64), m_prime=1, psi=True)
    strong = _strong_plan(1, np.ones(len(f), dtype=bool))
    m, v, n = cb.params.m, cb.params.v, len(f)
    rng = np.random.default_rng(0)
    pay = rng.integers(0, v, size=n)
    return true_ids, {
        "honest": observe_honest(true_ids, f, flags),
        "uniform": observe_uniform(true_ids, flags, rng.integers(0, m, size=n) * v + pay),
        "uniform-index": observe_uniform(true_ids, flags, f * v + pay),
        "strong": observe_strong(strong, cb, true_ids, f, flags),
        "weak": observe_weak(weak, cb, true_ids, f, flags),
    }


def test_clean_reads_never_corrupted(literal_codebook):
    # error=false implies observed == sampled for every adversary
    cb = literal_codebook([[0, 0], [1, 1]], dm=0)
    f = np.array([0, 1, 0, 1, 1])
    true_ids, rows = _rows_of_every_adversary(cb, f, np.zeros(5, dtype=bool))
    assert set(rows) == set(ADVERSARIES)
    for name, row in rows.items():
        assert np.array_equal(row, true_ids), name


def test_index_preserved_by_targeted_adversaries(literal_codebook):
    # strong, weak, and the index-preserving uniform variant keep the index
    cb = literal_codebook([[0, 0], [1, 1]], dm=0)
    f = np.array([1, 0, 1, 1])
    true_ids, rows = _rows_of_every_adversary(cb, f, np.ones(4, dtype=bool))
    for name in ("strong", "weak", "uniform-index"):
        assert np.array_equal(rows[name] // 2, f), name
    # the targeted adversaries really substituted codeword 1's molecules
    assert np.array_equal(rows["weak"], cb.word_ids[1][f])
    assert np.array_equal(rows["strong"], cb.word_ids[1][f])


@pytest.mark.parametrize("adversary", ADVERSARIES)
def test_trace_replays_and_matches_adversary_row(small_codebook, adversary):
    # A trace is the consumed prefix of the adversary's observed row, and
    # running the decoder on that prefix alone reproduces the verdict.  The
    # row is re-derived here from the documented per-trial draw order,
    # without the observe_* functions.
    cb = small_codebook
    m, v, cap = cb.params.m, cb.params.v, cb.params.read_cap
    h_m, r_prime_m = 20, 3 if adversary == "weak" else 5
    for trial in range(25):
        outcome, trace = run_trial(cb, adversary, trial, h_m, r_prime_m, collect_trace=True)
        assert run(cb, trace.observed, len(trace.observed)) == outcome.verdict
        rng = _stream(cb.params.seed, trial)
        message = int(rng.integers(cb.params.k))
        # the per-trial draws, then the per-read ones in blocks of 8 reads
        if adversary == "weak":
            plan = weak_prepare(cb, message, r_prime_m, rng)
        elif adversary == "strong":
            psi = bool(rng.random() < cb.params.p)
        blocks = []
        for lo in range(0, cap, 8):
            size = min(8, cap - lo)
            block = [sample_index_sequence(m, size, rng), sample_error_flags(cb.params.p, size, rng)]
            if adversary == "uniform":
                block.append(rng.integers(m, size=size))
            if adversary in ("uniform", "uniform-index"):
                block.append(rng.integers(v, size=size))
            blocks.append(block)
        f, flags = (np.concatenate(draw) for draw in list(zip(*blocks))[:2])
        true_ids = cb.word_ids[message][f]
        replacement = true_ids
        if adversary == "uniform":
            rep_idx, rep_pay = (np.concatenate(draw) for draw in list(zip(*blocks))[2:])
            replacement = rep_idx * v + rep_pay
        elif adversary == "uniform-index":
            replacement = f * v + np.concatenate([block[2] for block in blocks])
        elif adversary == "weak":
            if plan.active:
                replacement = cb.word_ids[plan.m_prime][f]
        elif adversary == "strong":
            part = s_membership(f, h_m, cb.params.dm, r_prime_m)
            plan = strong_prepare(cb, message, f, flags, h_m, part, psi)
            if plan.active:
                at_t1 = np.zeros(cap, dtype=bool)
                at_t1[:h_m] = plan.t1
                replacement = np.where(at_t1, cb.word_ids[plan.m_prime][f], true_ids)
        row = np.where(flags, replacement, true_ids)
        n = outcome.verdict.n_reads
        assert trace.true_message == message
        assert trace.observed == tuple(row[:n].tolist())
        assert trace.sampled == tuple(true_ids[:n].tolist())
        assert trace.errors == tuple(flags[:n].tolist())
