import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnareads import SimParams, core, decoder, simulate
from dnareads.codebook import Codebook, agreeing, construct_greedy
from dnareads.analysis import s_membership
from dnareads.channel import ADVERSARIES, StrongAdversaryPlan, WeakAdversaryPlan, strong_prepare
from dnareads.core import VerdictKind
from dnareads.decoder import stopping_time_no_errors
from dnareads.harness import ConverseRow, ExperimentConfig, converse_experiment
from dnareads.simulate import BATCH_ADVERSARIES, run_batch, run_trial


def _assert_matches_serial(cb, adversary, batch, collect_trace=False, start=0):
    """Compare a batch trial by trial with the int64 per-trial engine."""
    traces = []
    for t in range(len(batch.message)):
        outcome, trace = run_trial(cb, adversary, start + t, collect_trace=collect_trace)
        assert batch.message[t] == outcome.message
        assert batch.kind[t] == outcome.verdict.kind.value
        assert batch.n_reads[t] == outcome.verdict.n_reads
        if outcome.verdict.kind is VerdictKind.DECIDED:
            assert batch.decoded[t] == outcome.verdict.decoded
        traces.append(trace)
    return traces


def _decoded_shapes(monkeypatch):
    """Record the shape of every observation table _decode_batch receives."""
    real, shapes = simulate._decode_batch, []

    def spying(cb, obs):
        shapes.append(obs.shape)
        return real(cb, obs)

    monkeypatch.setattr(simulate, "_decode_batch", spying)
    return shapes


def _same_batches(a, b):
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("message", "kind", "decoded", "n_reads")
    )


@pytest.mark.parametrize("adversary", ["honest", "uniform", "uniform-index"])
@pytest.mark.parametrize("p", [0.0, 0.15])
def test_batched_engine_matches_serial(adversary, p):
    params = SimParams(m=8, k=8, v=4, p=p, dm=1, theta=0.5, read_cap=120, seed=6)
    cb = construct_greedy(params)
    _assert_matches_serial(cb, adversary, run_batch(cb, adversary, 200))


@pytest.fixture(scope="module")
def wide_codebook():
    # 256 binary codewords, zero slack, heavy errors: many Fail verdicts
    params = SimParams(m=16, k=256, v=2, p=0.3, dm=0, theta=0.9, read_cap=160, seed=4)
    return construct_greedy(params)


@pytest.mark.parametrize("adversary", ["uniform", "uniform-index"])
def test_batched_engine_matches_serial_wide_code(wide_codebook, adversary):
    batch = run_batch(wide_codebook, adversary, 150)
    _assert_matches_serial(wide_codebook, adversary, batch)
    kinds = set(batch.kind.tolist())
    assert {0, 1} <= kinds  # both Decided and Fail verdicts were compared


def test_batched_engine_chunking_is_invisible(wide_codebook, monkeypatch):
    trials = 300
    whole = run_batch(wide_codebook, "uniform", trials)
    width = simulate._prefix_width(wide_codebook, "uniform")
    monkeypatch.setattr(simulate, "_BATCH_BYTES", simulate._row_bytes(wide_codebook, width) * 70)
    shapes = _decoded_shapes(monkeypatch)
    assert _same_batches(run_batch(wide_codebook, "uniform", trials), whole)
    # the prefix pass decodes its 300 rows in five blocks
    assert [s for s in shapes if s[1] == width] == [(70, width)] * 4 + [(20, width)]


def test_batched_counts_do_not_wrap_past_255():
    # A and B differ at dm + 1 indices and C is A's complement.  While the
    # truth is A or B, both stay consistent until every differing index has
    # been read, by which time C contradicts more than 255 distinct molecules.
    # A counter that wrapped, in a byte or in its bit planes, instead of
    # sticking in the dead plane would let C back in, delaying the decision.
    m, dm = 300, 60
    a = np.random.default_rng(0).integers(0, 2, size=m)
    b = a.copy()
    b[: dm + 1] ^= 1
    params = SimParams(m=m, k=3, v=2, p=0.0, dm=dm, theta=1.0, seed=2)
    cb = Codebook(params, np.stack([a, b, 1 - a]))
    batch = run_batch(cb, "honest", 12)
    traces = _assert_matches_serial(cb, "honest", batch, collect_trace=True)
    distinct = [len(set(tr.observed)) for tr in traces]
    assert max(distinct) > 255
    assert (batch.kind == 0).all() and (batch.decoded == batch.message).all()


@pytest.mark.parametrize("dm", [0, 1, 2, 3, 4, 7, 8])
@pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 130])
def test_bit_planes_match_serial_at_their_edges(k, dm):
    # k at the 64-bit word edges and dm at the plane-count edges (dm + 1 a
    # power of two, or one past one).  Heavy errors fail rows, clean reads
    # decode every message, the last word's among them, and a read cap of
    # dm + 1 truncates rows.  A single codeword stops at its first fresh
    # read: it fails only at dm = 0 and is never truncated.
    matrix = np.random.default_rng([k, dm]).integers(0, 8, size=(k, 16))
    kinds, last_word = set(), False
    for p, read_cap, trials in ((0.6, 40, 100), (0.0, 40, 200), (0.1, dm + 1, 100)):
        params = SimParams(
            m=16, k=k, v=8, p=p, dm=dm, theta=1.0, read_cap=read_cap, seed=10 * k + dm
        )
        cb = Codebook(params, matrix)
        batch = run_batch(cb, "uniform", trials)
        _assert_matches_serial(cb, "uniform", batch)
        kinds |= set(batch.kind.tolist())
        decided = batch.decoded[batch.kind == VerdictKind.DECIDED.value]
        last_word |= bool((decided >= 64 * ((k - 1) // 64)).any())
    assert last_word
    assert (VerdictKind.FAILED.value in kinds) == (k > 1 or dm == 0)
    assert (VerdictKind.TRUNCATED.value in kinds) == (k > 1)


def test_batch_memory_stays_within_budget(monkeypatch):
    # k = 4096 codewords: the bit planes of the outside counts and their step
    # temporaries, not the observation table, dominate each row, and every
    # per-row array counts against the budget.
    budget = 2_000_000
    monkeypatch.setattr(simulate, "_BATCH_BYTES", budget)
    matrix = np.random.default_rng(1).integers(0, 2, size=(4096, 24))
    params = SimParams(m=24, k=4096, v=2, p=0.1, dm=1, theta=1.0, read_cap=200, seed=3)
    cb = Codebook(params, matrix)
    _ = cb.packed_mismatch, cb.word_ids  # per-codebook tables, built before tracing
    shapes = _decoded_shapes(monkeypatch)
    tracemalloc.start()
    try:
        run_batch(cb, "uniform", 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * budget
    # both passes: the prefix, and the full read cap for the rows it leaves live
    assert {width for _, width in shapes} == {
        simulate._prefix_width(cb, "uniform"), cb.params.read_cap
    }
    for rows, width in shapes:
        assert simulate._row_bytes(cb, width) * rows <= budget


def test_batched_engine_offset_start(easy_codebook):
    # trials are addressed absolutely: batch starting at 50 equals the tail
    full = run_batch(easy_codebook, "uniform", 80)
    tail = run_batch(easy_codebook, "uniform", 30, start=50)
    assert np.array_equal(full.message[50:], tail.message)
    assert np.array_equal(full.kind[50:], tail.kind)
    assert np.array_equal(full.n_reads[50:], tail.n_reads)


def test_batched_engine_rejects_negative_start(easy_codebook):
    with pytest.raises(ValueError, match="trial out of range"):
        run_batch(easy_codebook, "uniform", 3, start=-1)


def test_batched_engine_crosses_spawn_key_word(slow_codebook, monkeypatch):
    # trials from 2**32 on have a two-word spawn-key entry; they are decoded
    # from raw words like the others, up to the last trial, 2**64 - 1, in
    # both passes, and only the first-row checks (one per decode block of
    # each pass) reach the per-trial engine
    real_observe, observed = simulate._observe_trial, []

    def observing(cb, adversary, trial, *args):
        observed.append(trial)
        return real_observe(cb, adversary, trial, *args)

    width = simulate._prefix_width(slow_codebook, "uniform")
    for start in (2**32 - 2, 2**64 - 4):
        observed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_observe_trial", observing)
            batch = run_batch(slow_codebook, "uniform", 4, start=start)
        live = np.flatnonzero(batch.n_reads > width)
        assert live.size > 0
        assert observed == [start, start + int(live[0])]
        _assert_matches_serial(slow_codebook, "uniform", batch, start=start)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_columnar_rows_match_reference_draws(data):
    m = data.draw(st.integers(1, 70), label="m")
    k = data.draw(st.integers(1, 40), label="k")
    v = data.draw(st.integers(1, 9) | st.sampled_from([2**31 + 1, 2**32 - 1]), label="v")
    cap = data.draw(st.integers(1, 300), label="read_cap")
    p = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), label="p")
    adversary = data.draw(st.sampled_from(["honest", "uniform", "uniform-index"]))
    start = data.draw(st.integers(0, 10**6), label="start")
    seed = data.draw(st.integers(-(2**65), 2**65), label="seed")
    trials = data.draw(st.integers(1, 6), label="trials")
    width = data.draw(st.just(cap) | st.integers(1, cap), label="width")
    # 1 byte puts every row in a sub-block of its own
    budget = data.draw(st.sampled_from([1, simulate._BATCH_BYTES // 16]), label="budget")
    matrix = np.random.default_rng(data.draw(st.integers(0, 2**32))).integers(0, v, (k, m))
    params = SimParams(m=m, k=k, v=v, p=p, dm=0, theta=1.0, read_cap=cap, seed=seed)
    cb = Codebook(params, matrix)
    layout = simulate._Layout(cb, adversary, width)
    rows = np.arange(trials)
    message, obs, plan = simulate._draw_rows(cb, adversary, layout, start, rows, budget)
    assert plan is None
    assert obs.shape == (trials, width)
    for r in range(trials):
        ref = simulate._observe_trial(cb, adversary, start + r)
        assert message[r] == ref.message
        assert np.array_equal(obs[r], ref.observed[:width])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decode_kernel_matches_decoder_run(data):
    # random id tables, duplicates and all; a table narrower than read_cap
    # leaves its undecided rows TRUNCATED at read_cap, as a short stream does
    m = data.draw(st.integers(1, 8), label="m")
    k = data.draw(st.integers(1, 12), label="k")
    v = data.draw(st.integers(1, 4), label="v")
    dm = data.draw(st.integers(0, m), label="dm")
    cap = data.draw(st.integers(1, 40), label="read_cap")
    width = data.draw(st.just(cap) | st.integers(0, cap), label="width")
    rows = data.draw(st.integers(1, 8), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="rng"))
    params = SimParams(m=m, k=k, v=v, p=0.0, dm=dm, theta=1.0, read_cap=cap, seed=0)
    cb = Codebook(params, rng.integers(0, v, (k, m)))
    obs = rng.integers(0, m * v, (rows, width)).astype(simulate._id_dtype(cb))
    kind, decoded, n_reads = simulate._decode_batch(cb, obs)
    for r in range(rows):
        verdict = decoder.run(cb, obs[r].tolist(), cap)
        assert kind[r] == verdict.kind.value
        assert n_reads[r] == verdict.n_reads
        if verdict.kind is VerdictKind.DECIDED:
            assert decoded[r] == verdict.decoded


@pytest.fixture(scope="module")
def slow_codebook():
    # close random binary words decoded with slack: most rows outlive the
    # 8-read prefix and some reach read_cap undecided
    matrix = np.random.default_rng(2).integers(0, 2, (30, 12))
    params = SimParams(m=12, k=30, v=2, p=0.1, dm=1, theta=0.25, read_cap=30, seed=8)
    return Codebook(params, matrix)


@pytest.mark.parametrize("budget", [1, simulate._BATCH_BYTES])
@pytest.mark.parametrize("adversary", BATCH_ADVERSARIES)
def test_rows_outliving_the_prefix_match_serial(slow_codebook, adversary, budget, monkeypatch):
    # a 1-byte budget decodes every row, and redraws every live row, alone
    monkeypatch.setattr(simulate, "_BATCH_BYTES", budget)
    width = simulate._prefix_width(slow_codebook, adversary)
    assert width == 8
    batch = run_batch(slow_codebook, adversary, 200)
    assert (batch.n_reads > width).sum() > 100
    assert (batch.kind == VerdictKind.TRUNCATED.value).sum() > 0
    _assert_matches_serial(slow_codebook, adversary, batch)


def test_only_the_strong_screen_widens_the_prefix(small_codebook):
    # h_m is the strong screen's head: the weak adversary never reads it, so
    # its first pass keeps the width of its own bound
    cb = small_codebook
    assert simulate._prefix_width(cb, "weak", 100) == simulate._prefix_width(cb, "weak") < 100
    assert simulate._prefix_width(cb, "strong", 100) >= 100


def test_batch_self_check_names_numpy(easy_codebook, monkeypatch):
    # a batch engine that read the high half of a raw first would shift
    # every draw
    real = core.stream_words

    def high_first(raws):
        words = real(raws)
        return np.stack([words[..., 1::2], words[..., 0::2]], axis=-1).reshape(words.shape)

    monkeypatch.setattr(core, "stream_words", high_first)
    with pytest.raises(RuntimeError, match=r"trial 5 .* numpy \d"):
        run_batch(easy_codebook, "uniform", 3, start=5)


def test_column_drift_fails_loudly(easy_codebook, monkeypatch):
    # a wrong multiplier word in the columnar LCG alters every raw of a
    # sweep-sized block: the first-row check must stop the run, not let it
    # return other verdicts
    monkeypatch.setattr(core, "_MULT_LO", core._MULT_LO ^ np.uint64(4))
    with pytest.raises(RuntimeError, match=r"trial 0 .* numpy \d"):
        run_batch(easy_codebook, "uniform", 2048)


def test_full_width_drift_fails_loudly(slow_codebook, monkeypatch):
    # a change that shifted only draws past the prefix would alter
    # only the rows the full-width pass decodes; the first-row check of its
    # draws must catch it
    params = slow_codebook.params
    real = simulate._draw_columnar

    def drifting(cb, adversary, layout, states, message, obs):
        bad = real(cb, adversary, layout, states, message, obs)
        if layout.width == params.read_cap:
            obs[:, -1] = (obs[:, -1] + 1) % (params.m * params.v)
        return bad

    monkeypatch.setattr(simulate, "_draw_columnar", drifting)
    with pytest.raises(RuntimeError, match=r"differ from the per-trial engine: numpy \d"):
        run_batch(slow_codebook, "uniform", 50)
    # the draw checks its own blocks, whoever asks for them
    layout = simulate._Layout(slow_codebook, "uniform", params.read_cap)
    with pytest.raises(RuntimeError, match=r"trial 0 .* numpy \d"):
        simulate._draw_rows(slow_codebook, "uniform", layout, 0, np.arange(50), 1)


def test_strong_psi_drift_fails_loudly(small_codebook, monkeypatch):
    # a psi read from the wrong raw would alter the strong plan columns of the
    # rows the screen passes; the first-row check of the draw must catch it.
    # The screen passes trial 0's row, whose psi holds.
    cb = small_codebook
    assert run_trial(cb, "strong", 0, 20, 5)[0].plan.psi
    layout = simulate._Layout(cb, "strong", simulate._prefix_width(cb, "strong", 20), 5, 20)
    states = core.trial_states(cb.params.seed, np.zeros(1, dtype=np.uint64))
    obs = np.empty((1, layout.width), dtype=simulate._id_dtype(cb))
    assert not simulate._draw_columnar(cb, "strong", layout, states, np.empty(1, int), obs)[0][0]
    real = simulate._draw_columnar

    def drifting(cb, adversary, layout, states, message, obs):
        bad, (m_prime, psi) = real(cb, adversary, layout, states, message, obs)
        psi[0] = ~psi[0]
        return bad, (m_prime, psi)

    monkeypatch.setattr(simulate, "_draw_columnar", drifting)
    with pytest.raises(RuntimeError, match=r"draws of trial 0 .* numpy \d"):
        simulate.run_converse(small_codebook, "strong", 30, 20, 5)


def _spied_weak_rows(cb, r_prime_m, start, trials, patch, budget=None, width=None):
    """The weak rows _draw_rows gives for trials start..start+trials-1, at
    width (read_cap by default) and in sub-blocks of budget bytes (run_batch's
    by default): (message, obs, m_prime, psi, index_set, observed), where
    index_set is what _weak_plan computed for every row and observed lists
    the trials drawn by _observe_trial."""
    real_plan, real_observe = simulate._weak_plan, simulate._observe_trial
    index_sets, observed = [], []

    def planning(*args):
        out = real_plan(*args)
        index_sets.append(out[0])
        return out

    def observing(cb, adversary, trial, *args):
        observed.append(trial)
        return real_observe(cb, adversary, trial, *args)

    patch.setattr(simulate, "_weak_plan", planning)
    patch.setattr(simulate, "_observe_trial", observing)
    layout = simulate._Layout(cb, "weak", width or cb.params.read_cap, r_prime_m)
    message, obs, (m_prime, psi) = simulate._draw_rows(
        cb, "weak", layout, start, np.arange(trials), budget or simulate._BATCH_BYTES // 16
    )
    return message, obs, m_prime, psi, np.concatenate(index_sets), observed


def _check_weak_rows(cb, r_prime_m, start, trials, budget=None, width=None) -> set:
    """Assert that the weak rows of trials start.. at width (read_cap by
    default) equal _observe_trial's, index sets included, and that only the
    first-row check draws a row per trial; returns the (candidate count,
    Floyd draw size parity) pairs seen, the count capped at 2."""
    with pytest.MonkeyPatch.context() as patch:
        message, obs, m_prime, psi, index_set, observed = _spied_weak_rows(
            cb, r_prime_m, start, trials, patch, budget, width
        )
    assert observed == [start]
    seen = set()
    for r in range(trials):
        ref = simulate._observe_trial(cb, "weak", start + r, None, r_prime_m)
        plan = ref.plan
        assert message[r] == ref.message
        assert np.array_equal(obs[r], ref.observed[: obs.shape[1]])
        assert m_prime[r] == (-1 if plan.m_prime is None else plan.m_prime)
        assert psi[r] == plan.psi
        assert np.array_equal(index_set[r], plan.index_set)
        seen.add((min(_n_cands(cb, ref.plan, ref.message), 2), r_prime_m % 2))
    return seen


def _n_cands(cb, plan, message) -> int:
    """The candidate count of a weak plan's index set."""
    return int(agreeing(cb, np.array([message]), plan.index_set[None]).sum())


# (m, k, v, r', read_cap, p): one index, r' = 0 and r' = m, Floyd draws of
# both parities, and codes with no, one and many candidates
_WEAK_CODES = [
    (1, 5, 2, 1, 7, 0.5),
    (1, 5, 2, 0, 7, 0.5),
    (6, 12, 2, 2, 9, 0.5),
    (6, 12, 2, 2, 10, 0.5),
    (6, 12, 2, 6, 10, 0.7),
    (10, 16, 2, 3, 400, 0.3),
    (7, 3, 2, 2, 8, 1.0),
    (5, 1, 3, 2, 6, 0.5),
    (8, 40, 1, 4, 5, 0.5),
]


def test_weak_columns_cover_every_plan_shape():
    seen = set()
    for m, k, v, r_prime_m, cap, p in _WEAK_CODES:
        params = SimParams(m=m, k=k, v=v, p=p, dm=0, theta=1.0, read_cap=cap, seed=m + k)
        cb = Codebook(params, np.random.default_rng(k).integers(0, v, (k, m)))
        seen |= _check_weak_rows(cb, r_prime_m, 0, 60)
    assert seen == {(n, parity) for n in range(3) for parity in range(2)}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_weak_columns_match_reference_plans(data):
    m = data.draw(st.integers(1, 40), label="m")
    k = data.draw(st.integers(1, 30), label="k")
    v = data.draw(st.integers(1, 3), label="v")
    r_prime_m = data.draw(st.integers(0, m) | st.sampled_from([0, m]), label="r_prime_m")
    cap = data.draw(st.integers(1, 40), label="read_cap")
    p = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), label="p")
    start = data.draw(st.integers(0, 10**6) | st.just(2**32 - 3), label="start")
    seed = data.draw(st.integers(-(2**65), 2**65), label="seed")
    trials = data.draw(st.integers(1, 6), label="trials")
    budget = data.draw(st.sampled_from([1, simulate._BATCH_BYTES // 16]), label="budget")
    # a prefix width cuts the per-read draws only, never the plan's
    width = data.draw(st.just(cap) | st.integers(1, cap), label="width")
    matrix = np.random.default_rng(data.draw(st.integers(0, 2**32))).integers(0, v, (k, m))
    params = SimParams(m=m, k=k, v=v, p=p, dm=0, theta=1.0, read_cap=cap, seed=seed)
    _check_weak_rows(Codebook(params, matrix), r_prime_m, start, trials, budget, width)


@pytest.mark.parametrize("r_prime_m", [201, 202])
def test_weak_rows_at_large_m_are_drawn_in_columns(r_prime_m):
    # m > 10000, with r' on both sides of m // 50, where numpy's choice would
    # switch from Floyd's sample to shuffling a tail of arange(m): the plan
    # is Floyd's on every row, drawn in columns, and run_converse's rows are
    # run_trial's
    params = SimParams(m=10050, k=3, v=2, p=0.5, dm=0, theta=1.0, read_cap=12, seed=4)
    cb = Codebook(params, np.random.default_rng(4).integers(0, 2, (3, 10050)))
    _check_weak_rows(cb, r_prime_m, 7, 5)
    res = simulate.run_converse(cb, "weak", 6, None, r_prime_m)
    for t in range(6):
        outcome, _ = run_trial(cb, "weak", t, None, r_prime_m)
        v = outcome.verdict
        assert (res.message[t], res.kind[t], res.n_reads[t]) == (
            outcome.message, v.kind.value, v.n_reads)
        assert (res.m_prime[t], res.psi[t]) == simulate._plan_columns(outcome.plan)


@pytest.fixture(scope="module")
def picking_codebook():
    # m = 6, k = 12, v = 2 and r' = 3: the Floyd ranges are 4, 5, 6, and a
    # third of the rows have several candidates
    params = SimParams(m=6, k=12, v=2, p=0.5, dm=0, theta=1.0, read_cap=9, seed=2)
    return Codebook(params, np.random.default_rng(6).integers(0, 2, (12, 6)))


def test_weak_plan_drift_fails_loudly(picking_codebook, monkeypatch):
    # a psi read from the wrong raw would alter the plans; the first-row
    # check of the draw must catch it
    real = simulate._weak_plan

    def drifting(*args):
        index_set, m_prime, psi = real(*args)
        return index_set, m_prime, ~psi

    monkeypatch.setattr(simulate, "_weak_plan", drifting)
    params = picking_codebook.params
    cfg = ExperimentConfig(params=params, adversary="weak", trials=30, h_m=5, r_prime_m=3)
    with pytest.raises(RuntimeError, match=r"trial 0 .* numpy \d"):
        converse_experiment(cfg)


# (params, h_m, r_prime_m): the picking code, whose weak rows can read a pick
# word; Floyd draws of odd size, which leave a high half unread; and codes
# with one index and with one message, whose pick has range 0
_WALK_CODES = [
    (SimParams(m=6, k=12, v=2, p=0.5, dm=0, theta=1.0, read_cap=9, seed=2), 4, 3),
    (SimParams(m=7, k=11, v=5, p=0.3, dm=1, theta=1.0, read_cap=10, seed=5), 6, 2),
    (SimParams(m=1, k=3, v=3, p=0.4, dm=0, theta=1.0, read_cap=5, seed=1), 3, 1),
    (SimParams(m=5, k=1, v=1, p=0.4, dm=0, theta=1.0, read_cap=4, seed=3), 2, 2),
]


@pytest.mark.parametrize("adversary", ADVERSARIES)
def test_walk_leaves_the_stream_where_numpy_does(adversary, monkeypatch):
    # numpy itself counts the raws: after _observe_trial's draws, the
    # trial's PCG64 has made exactly the raws the read_cap layout places,
    # whatever values it drew, and holds no pending half of its own.  Weak
    # rows with no candidate and with one read their pick word too.
    real, made = simulate.derive_trial_rng, []

    def capturing(seed, trial):
        made.append(real(seed, trial))
        return made[-1]

    monkeypatch.setattr(simulate, "derive_trial_rng", capturing)
    counts = set()
    weak = adversary == "weak"
    for params, h_m, r_prime_m in _WALK_CODES:
        matrix = np.random.default_rng(params.seed).integers(0, params.v, (params.k, params.m))
        cb = Codebook(params, matrix)
        n_raw = simulate._Layout(cb, adversary, params.read_cap, r_prime_m, h_m).n_raw
        for t in range(40):
            obs = simulate._observe_trial(cb, adversary, t, h_m, r_prime_m)
            fresh = real(params.seed, t).bit_generator
            fresh.advance(n_raw)
            state = made[-1].bit_generator.state
            assert state["state"] == fresh.state["state"]
            assert state["has_uint32"] == 0
            counts.add(min(_n_cands(cb, obs.plan, obs.message), 2) if weak else 0)
    assert counts == ({0, 1, 2} if weak else {0})


# _WALK_CODES, then the uniform-sweep benchmark's code and the converse
# benchmark's
_RUN_CODES = _WALK_CODES + [
    (SimParams(m=20, k=64, v=8, p=0.1, dm=2, theta=0.25, read_cap=200, seed=1), 20, 3),
    (SimParams(m=10, k=16, v=2, p=0.3, dm=1, theta=0.7, read_cap=400, seed=0), 20, 3),
]


def _walked(cb, adversary, r_prime_m, reads) -> tuple[dict, int]:
    """(columns, raws): name -> the columns the draws of that name read in a
    trial's first `reads` read positions, by a plain walk of the schedule
    with each draw from a fresh raw: stream-word columns for a bounded
    draw, raw columns for random()'s; and the raws walked."""
    columns, raw = {}, 0
    for name, n, size in simulate._schedule(cb, adversary, r_prime_m, reads):
        cols = np.arange(raw, raw + size) if n is None else np.arange(2 * raw, 2 * raw + size)
        raw += size if n is None else -(-size // 2)
        columns[name] = np.concatenate((columns[name], cols)) if name in columns else cols
    return columns, raw


def _expanded(layout) -> dict:
    """A _Layout's decoded columns by draw name, in _walked's units,
    expanded over the blocks of its segments."""
    columns = {}
    places = [(name, n, size, raw0) for name, (n, size, raw0) in layout.head.items()]
    for seg in layout.segments:
        places += [(name, n, size, seg.raw0 + b * seg.stride + raw0)
                   for b in range(seg.count) for name, n, size, raw0 in seg.draws]
    for name, n, size, raw0 in places:
        cols = np.arange(size) + (raw0 if n is None else 2 * raw0)
        columns[name] = np.concatenate((columns[name], cols)) if name in columns else cols
    return columns


@pytest.mark.parametrize("code", range(len(_RUN_CODES)))
@pytest.mark.parametrize("adversary", ADVERSARIES)
def test_layout_runs_are_the_walk_columns(adversary, code):
    # At the prefix width and at read_cap, the layout's draws, expanded over
    # its blocks, read the columns a plain walk of the schedule gives the
    # pass's whole blocks (module docstring): each decoded draw's, with no
    # column lost or gained at a block boundary; its raws end with the
    # pass's last block.
    params, h_m, r_prime_m = _RUN_CODES[code]
    matrix = np.random.default_rng(params.seed).integers(0, params.v, (params.k, params.m))
    cb = Codebook(params, matrix)
    true_rows = adversary in BATCH_ADVERSARIES and (adversary == "honest" or params.p == 0)
    for width in {simulate._prefix_width(cb, adversary, h_m), params.read_cap}:
        layout = simulate._Layout(cb, adversary, width, r_prime_m, h_m)
        assert layout.reads == min(-(-width // simulate.BLOCK) * simulate.BLOCK, params.read_cap)
        want, n_raw = _walked(cb, adversary, r_prime_m, layout.reads)
        assert layout.n_raw == n_raw
        for name in ("u", "rep_idx", "rep_pay") if true_rows else ():
            want.pop(name, None)
        got = _expanded(layout)
        assert got.keys() == want.keys()
        for name, cols in want.items():
            assert np.array_equal(got[name], cols), (name, width)


# (code, adversary, h_m, r_prime_m, width, raws a row then, raws a row over
# read_cap, raws a row before blocks): the benchmark's prefix passes, the
# sweep's at its widths 8 and 16, decode-wide's and converse's
_BENCH_LAYOUTS = [
    (dict(m=20, k=64, v=8, p=0.1, dm=1, theta=0.25, read_cap=200), "uniform", None, None, 8,
     21, 501, 405),
    (dict(m=20, k=64, v=8, p=0.2, dm=1, theta=0.25, read_cap=200), "uniform", None, None, 16,
     41, 501, 409),
    (dict(m=64, k=1024, v=2, p=0.05, dm=3, theta=0.7, read_cap=640), "uniform", None, None, 128,
     321, 1601, 1345),
    (dict(m=10, k=16, v=2, p=0.3, dm=2, theta=0.7, read_cap=400), "strong", 20, 5, 32,
     50, 602, 602),
    (dict(m=10, k=16, v=2, p=0.3, dm=2, theta=0.7, read_cap=400), "weak", 20, 3, 32,
     53, 605, 605),
]


# Test ids of the layouts above.  Each id ends with the figures the layout
# had under CSV 0.2.0, its raws a row then before blocks and the words it
# tested for rejection, rather than the ones above: a case keeps its name
# when the contract changes.
_BENCH_IDS = ["code0-uniform-None-None-8-21-405-16", "code1-uniform-None-None-16-41-409-32",
              "code2-uniform-None-None-128-321-1345-0", "code3-strong-20-5-32-50-602-32",
              "code4-weak-20-3-32-53-605-38"]


@pytest.mark.parametrize("code,adversary,h_m,r_prime_m,width,n_raw,full,old", _BENCH_LAYOUTS,
                         ids=_BENCH_IDS)
def test_prefix_passes_draw_their_blocks_alone(code, adversary, h_m, r_prime_m, width, n_raw,
                                               full, old):
    # A prefix pass of width W draws ceil(W / 8) blocks and the per-trial
    # draws before them: at the benchmark's codes 21 to 321 raws a row, where
    # the layout of whole read-length draws before blocks needed `old`, 405
    # to 1345.  Both passes draw as many raws as under CSV 0.2.0, so
    # core._by_columns makes the same choice on every benchmark block.
    params = SimParams(seed=0, **code)
    cb = Codebook(params, np.zeros((params.k, params.m), dtype=np.int64))
    assert simulate._prefix_width(cb, adversary, h_m) == width
    assert simulate._Layout(cb, adversary, width, r_prime_m, h_m).n_raw == n_raw < old
    assert simulate._Layout(cb, adversary, params.read_cap, r_prime_m, h_m).n_raw == full


def test_batched_engine_rejects_planning_adversaries(easy_codebook):
    with pytest.raises(ValueError, match="batched engine"):
        run_batch(easy_codebook, "strong", 10)


def test_trial_deterministic(easy_codebook):
    a, trace_a = run_trial(easy_codebook, "uniform", 11, collect_trace=True)
    b, trace_b = run_trial(easy_codebook, "uniform", 11, collect_trace=True)
    assert a == b
    assert trace_a == trace_b


def test_trace_matches_outcome(easy_codebook):
    outcome, trace = run_trial(easy_codebook, "uniform", 2, collect_trace=True)
    assert trace.true_message == outcome.message
    assert trace.verdict == outcome.verdict
    n = outcome.verdict.n_reads
    assert len(trace.sampled) == len(trace.errors) == len(trace.observed) == n
    for sampled, error, observed in zip(trace.sampled, trace.errors, trace.observed):
        if not error:
            assert observed == sampled


def test_honest_error_flags_irrelevant():
    # honest adversary: identical verdicts at p=0.5 and p=0 (same trial stream)
    base = SimParams(m=8, k=8, v=4, p=0.5, dm=1, theta=0.5, read_cap=120, seed=5)
    cb_noisy = construct_greedy(base)
    cb_clean = construct_greedy(replace(base, p=0.0))
    for t in range(40):
        noisy, _ = run_trial(cb_noisy, "honest", t)
        clean, _ = run_trial(cb_clean, "honest", t)
        assert noisy.verdict == clean.verdict


def test_unknown_adversary_rejected(easy_codebook):
    with pytest.raises(ValueError, match="unknown adversary"):
        run_trial(easy_codebook, "byzantine", 0)


def test_converse_adversaries_need_plan_budgets(small_codebook):
    with pytest.raises(ValueError, match="weak adversary needs r_prime_m"):
        run_trial(small_codebook, "weak", 0)
    with pytest.raises(ValueError, match="strong adversary needs h_m and r_prime_m"):
        run_trial(small_codebook, "strong", 0)
    with pytest.raises(ValueError, match="h_m exceeds read_cap"):
        run_trial(small_codebook, "strong", 0, h_m=10_000, r_prime_m=3)


@pytest.mark.parametrize("adversary", ["strong", "weak"])
def test_converse_row_0_drift_fails_loudly(small_codebook, adversary, monkeypatch):
    # a decode kernel that moves row 0's n_reads in the first block: the run
    # must compare its row of trial 0 with run_trial's and name the drift
    real, kinds = simulate._decode_batch, []

    def drifting(cb, obs):
        kind, decoded, n_reads = real(cb, obs)
        if not kinds:
            kinds.append(kind[0])
            n_reads[0] += 1
        return kind, decoded, n_reads

    monkeypatch.setattr(simulate, "_decode_batch", drifting)
    expected = "batch converse row of trial 0 differs from the per-trial engine: numpy"
    with pytest.raises(RuntimeError, match=expected):
        simulate.run_converse(small_codebook, adversary, 50, 20, 5)
    # row 0 stopped in the first pass, so no later pass overwrote the drift
    assert kinds and kinds[0] != VerdictKind.TRUNCATED.value


def test_converse_rejects_blind_adversaries(small_codebook):
    with pytest.raises(ValueError, match="converse engine does not support adversary 'uniform'"):
        simulate.run_converse(small_codebook, "uniform", 10, 20, 5)


def test_weak_trial_diagnostics(small_codebook):
    # activation requires psi plus a confusable message; every active trial
    # records its m', and activation cannot outpace the psi coin
    n = 400
    n_active = n_psi = 0
    for t in range(n):
        outcome, _ = run_trial(small_codebook, "weak", t, h_m=20, r_prime_m=3)
        plan = outcome.plan
        assert isinstance(plan, WeakAdversaryPlan) and outcome.m_prime == plan.m_prime
        n_psi += plan.psi
        n_active += plan.active
        if plan.active:
            assert plan.psi and plan.m_prime is not None
    assert n_active <= n_psi
    assert n_active > 0
    # the premises cannot hold (test_weak_premises_cannot_hold)
    cfg = ExperimentConfig(small_codebook.params, "weak", n, h_m=20, r_prime_m=3)
    columns, _ = converse_experiment(cfg)
    fields = dict(zip(ConverseRow._fields, columns))
    assert fields["active"].sum() == n_active
    assert not fields["conditions"].any()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_weak_premises_cannot_hold(data):
    # The weak adversary's premises ask for a pair a != b that agree on every
    # index read at a t2 time of the membership witness, and for b to stop by
    # the horizon on its error-free stream.  The t1 times cover at most dm
    # distinct indices, and a disagrees with b only there, so a keeps at most
    # dm outside molecules on that stream and b is never alone: b never stops.
    # The strong adversary's candidates are such b, so its plan is never
    # active, even with psi and every read in error.
    m = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(2, 6))
    v = data.draw(st.integers(2, 3))
    dm = data.draw(st.integers(0, min(3, m)))
    h = data.draw(st.integers(1, 12))
    matrix = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, v - 1), min_size=m, max_size=m),
                min_size=k,
                max_size=k,
            )
        ),
        dtype=np.int64,
    )
    f = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=h, max_size=h)))
    rpm = data.draw(st.integers(0, m))
    cb = Codebook(SimParams(m=m, k=k, v=v, p=0.0, dm=dm, theta=1.0, seed=0), matrix)
    part = s_membership(f, h, dm, rpm)
    t2_indices = np.unique(f[~part.t1])
    for a in range(k):
        for b in range(k):
            if a != b and (matrix[a, t2_indices] == matrix[b, t2_indices]).all():
                assert stopping_time_no_errors(cb, b, f, h) is None
        plan = strong_prepare(cb, a, f, np.ones(h, dtype=bool), h, part, psi=True)
        assert plan.active is False and plan.m_prime is None and plan.stop is None


def test_strong_trial_diagnostics(small_codebook):
    # an active plan carries m' and its error-free stop by the horizon, and
    # its premises hold exactly when it is active
    for t in range(100):
        outcome, _ = run_trial(small_codebook, "strong", t, h_m=20, r_prime_m=5)
        plan = outcome.plan
        assert isinstance(plan, StrongAdversaryPlan) and outcome.m_prime == plan.m_prime
        assert plan.active == (plan.stop is not None)
        if plan.active:
            assert plan.stop <= 20
    cfg = ExperimentConfig(small_codebook.params, "strong", 100, h_m=20, r_prime_m=5)
    columns, _ = converse_experiment(cfg)
    fields = dict(zip(ConverseRow._fields, columns))
    assert np.array_equal(fields["conditions"], fields["active"])


@pytest.mark.parametrize("adversary", BATCH_ADVERSARIES)
def test_blind_adversaries_have_no_plan(easy_codebook, adversary):
    for t in range(5):
        outcome, _ = run_trial(easy_codebook, adversary, t)
        assert outcome.plan is None and outcome.m_prime is None


def test_uniform_index_preserves_index(easy_codebook):
    _, trace = run_trial(easy_codebook, "uniform-index", 7, collect_trace=True)
    v = easy_codebook.params.v
    for sampled, observed in zip(trace.sampled, trace.observed):
        assert observed // v == sampled // v
