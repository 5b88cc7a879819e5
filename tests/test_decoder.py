import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnareads import SimParams, simulate
from dnareads.codebook import Codebook, construct_greedy
from dnareads.core import Trace, Verdict, VerdictKind
from dnareads.decoder import (
    new_state,
    run,
    save_trace,
    step,
    stopping_time_no_errors,
    stopping_times_all,
)


def error_free_run(cb, msg, f, horizon):
    """decoder.run on message msg's error-free stream of molecule ids along f."""
    v = cb.params.v
    truth = cb.matrix[msg]
    return run(cb, (int(i) * v + int(truth[i]) for i in f[:horizon]), horizon)


def outside_count(seen, payloads: tuple[int, ...]) -> int:
    """From-scratch oracle: (index, payload) pairs in seen lying outside the
    codeword whose payload at index j is payloads[j]."""
    return sum(payloads[index] != payload for index, payload in seen)


def test_outside_count_examples():
    w = (0, 1, 0, 1)
    assert outside_count([(0, 0), (1, 1)], w) == 0
    assert outside_count([(0, 1)], w) == 1
    seen = [(i, 0) for i in range(4)] + [(0, 1), (1, 1)]
    # w matches four of the six distinct molecules
    assert outside_count(seen, (0, 0, 0, 0)) == 2


def test_step_hand_trace(literal_codebook):
    # two codewords differing in the last two positions, slack 1: the second
    # mismatch settles it
    cb = literal_codebook([[0, 0, 0, 0], [0, 0, 1, 1]], dm=1)
    state = new_state(cb)
    assert step(state, cb, 0 * 2 + 0) is None
    assert step(state, cb, 2 * 2 + 1) is None
    assert step(state, cb, 3 * 2 + 1) == Verdict.decided(1, 3)
    assert state.reads == 3


def test_step_duplicate_is_noop(literal_codebook):
    cb = literal_codebook([[0, 0], [1, 1]], dm=0)
    state = new_state(cb)
    step(state, cb, 0)
    seen_before = set(state.seen)
    outside_before = state.outside.copy()
    assert step(state, cb, 0) is None
    assert state.seen == seen_before
    assert np.array_equal(state.outside, outside_before)
    assert state.reads == 2


def test_step_stops_at_first_distinguishing_read(literal_codebook):
    # with zero slack and fully disjoint codewords, one read suffices
    cb = literal_codebook([[0, 0], [1, 1]], dm=0)
    state = new_state(cb)
    assert step(state, cb, 0) == Verdict.decided(0, 1)
    assert state.reads == 1


def test_step_fail_when_no_consistent_word(literal_codebook):
    # payload 2 at index 1 lies outside both codewords
    cb = literal_codebook([[0, 0], [0, 1]], dm=0, v=3)
    state = new_state(cb)
    assert step(state, cb, 0 * 3 + 0) is None
    assert step(state, cb, 1 * 3 + 2) == Verdict.failed(2)
    assert state.reads == 2


def test_step_rejects_molecule_outside_code_space(literal_codebook):
    # ids live in [0, m*v) = [0, 4); id 4 would be molecule (2, 0) of a
    # longer code, and a negative id would index word_ids from its end
    cb = literal_codebook([[0, 0], [0, 1]], dm=0, v=2)
    state = new_state(cb)
    with pytest.raises(ValueError, match="out of range"):
        step(state, cb, 4)
    with pytest.raises(ValueError, match="out of range"):
        step(state, cb, -1)
    assert state.reads == 0 and not state.seen


def test_run_zero_error_decides_truth(easy_codebook):
    params = easy_codebook.params
    rng = np.random.default_rng(0)
    for msg in range(len(easy_codebook)):
        f = rng.integers(0, params.m, size=params.read_cap)
        verdict = run(easy_codebook, easy_codebook.word_ids[msg][f].tolist(), params.read_cap)
        assert verdict.kind is VerdictKind.DECIDED
        assert verdict.decoded == msg
        assert verdict.n_reads <= params.read_cap


def test_run_zero_cap_truncates(easy_codebook):
    verdict = run(easy_codebook, iter([]), 0)
    assert verdict.kind is VerdictKind.TRUNCATED and verdict.n_reads == 0


def test_run_consumes_exactly_decided_prefix(easy_codebook):
    params = easy_codebook.params
    rng = np.random.default_rng(1)
    f = rng.integers(0, params.m, size=params.read_cap)
    consumed = []

    def stream():
        for i in easy_codebook.word_ids[0][f].tolist():
            consumed.append(i)
            yield i

    verdict = run(easy_codebook, stream(), params.read_cap)
    assert verdict.kind is VerdictKind.DECIDED
    assert len(consumed) == verdict.n_reads


def test_run_reads_no_packed_table(monkeypatch, small_codebook):
    # the per-read decoder states the rule from word_ids, so it gives the
    # kernel's verdicts with the kernel's packed table gone, and a fault in
    # that table cannot pass as agreement between the two engines
    cb, p = small_codebook, small_codebook.params
    rng = np.random.default_rng(4)
    f = rng.integers(0, p.m, size=(40, p.read_cap))
    obs = cb.word_ids[np.arange(40)[:, None] % len(cb), f]
    noisy = rng.random(obs.shape) < p.p
    obs[noisy] = rng.integers(0, p.m * p.v, size=int(noisy.sum()))
    want = list(zip(*(c.tolist() for c in simulate._decode_batch(cb, obs))))

    def gone(self):
        raise RuntimeError("no packed table")

    monkeypatch.setattr(Codebook, "packed_mismatch", property(gone))
    verdicts = [run(cb, row, p.read_cap) for row in obs.tolist()]
    got = [(v.kind.value, -1 if v.decoded is None else v.decoded, v.n_reads) for v in verdicts]
    assert got == want and len({v.kind for v in verdicts}) > 1
    with pytest.raises(RuntimeError, match="no packed table"):
        simulate._decode_batch(cb, obs)


def test_stopping_time_hand_trace(literal_codebook):
    # disjoint pair with slack 1: the second index read pushes word 0 out
    cb = literal_codebook([[0, 0, 0, 0], [1, 1, 1, 1]], dm=1)
    assert stopping_time_no_errors(cb, 1, [0, 1, 2, 3], 4) == 2
    assert error_free_run(cb, 1, [0, 1, 2, 3], 4) == Verdict.decided(1, 2)


def test_stopping_time_no_stop(literal_codebook):
    # constant index where the codewords agree: the pair is never separated
    cb = literal_codebook([[0, 0, 1], [0, 1, 0]], dm=0)
    assert stopping_time_no_errors(cb, 0, [0] * 10, 10) is None


def test_stopping_time_immediate_on_disjoint_pair(literal_codebook):
    # zero slack and disjoint codewords: the very first read settles it
    cb = literal_codebook([[0, 0], [1, 1]], dm=0, v=3)
    assert stopping_time_no_errors(cb, 0, [0, 1], 2) == 1
    assert error_free_run(cb, 0, [0, 1], 2) == Verdict.decided(0, 1)


def test_stopping_times_all_matches_scalar(small_codebook):
    params = small_codebook.params
    rng = np.random.default_rng(2)
    for _ in range(20):
        horizon = int(rng.integers(1, 40))
        f = rng.integers(0, params.m, size=horizon)
        table = stopping_times_all(small_codebook, f, horizon, range(len(small_codebook)))
        for msg in range(len(small_codebook)):
            scalar = stopping_time_no_errors(small_codebook, msg, f, horizon)
            if scalar is None:
                assert msg not in table
            else:
                assert table[msg] == scalar


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stopping_times_all_never_fail(data):
    # on its own error-free stream codeword a never gains an outside count,
    # so row a either never stops or stops at an int time, where decoder.run
    # on that stream decides a
    m = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(2, 6))
    v = data.draw(st.integers(2, 3))
    dm = data.draw(st.integers(0, 2))
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
    from dnareads.codebook import Codebook

    cb = Codebook(SimParams(m=m, k=k, v=v, p=0.0, dm=dm, theta=1.0, seed=0), matrix)
    horizon = data.draw(st.integers(1, 15))
    f = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=horizon, max_size=horizon)))
    stops = stopping_times_all(cb, f, horizon, range(k))
    for a in range(k):
        verdict = error_free_run(cb, a, f, horizon)
        if a not in stops:
            assert verdict.kind is VerdictKind.TRUNCATED
            continue
        t = stops[a]
        assert isinstance(t, int) and 1 <= t <= horizon
        assert verdict == Verdict.decided(a, t)


def test_no_error_decoding_is_correct_when_feasible(small_codebook):
    # ceil(theta*m)+dm < m: every message decodes to itself with no errors
    params = small_codebook.params
    rng = np.random.default_rng(3)
    f = rng.integers(0, params.m, size=200)
    for msg in range(len(small_codebook)):
        t = stopping_time_no_errors(small_codebook, msg, f, 200)
        assert error_free_run(small_codebook, msg, f, 200) == Verdict.decided(msg, t)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_incremental_outside_matches_scratch(data):
    m = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(2, 5))
    v = data.draw(st.integers(2, 3))
    dm = data.draw(st.integers(0, 2))
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
    from dnareads.codebook import Codebook

    params = SimParams(m=m, k=k, v=v, p=0.0, dm=dm, theta=1.0, seed=0)
    cb = Codebook(params, matrix)
    n_reads = data.draw(st.integers(1, 12))
    words = [tuple(row) for row in matrix.tolist()]
    state = new_state(cb)
    for _ in range(n_reads):
        index, payload = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, v - 1))
        res = step(state, cb, index * v + payload)
        seen = [divmod(i, v) for i in state.seen]
        for msg in range(k):
            assert state.outside[msg] == outside_count(seen, words[msg])
        if res is not None:
            break


def saved_text(cb, trace, tmp_path) -> str:
    """The text save_trace writes for trace."""
    path = tmp_path / "trace.txt"
    save_trace(cb, trace, str(path))
    return path.read_text()


def test_trace_round_trip(tmp_path, literal_codebook):
    # word 0 holds ids 0, 5, 7 and word 1 ids 1, 5, 6 (v = 3), so each id
    # splits into (id // 3, id % 3).  An error turning molecule (2, 1) into
    # (2, 0), which only word 1 holds, decides 1; molecule (0, 2) lies in
    # neither word and fails.
    cb = literal_codebook([[0, 2, 1], [1, 2, 0]], dm=0, v=3)
    cases = [
        (Trace(0, (5, 7), (False, True), (5, 6), Verdict.decided(1, 2)),
         "message 0\n1 1 2 0 1 2\n2 2 1 1 2 0\nverdict decided 1 2\n"),
        (Trace(1, (1,), (True,), (2,), Verdict.failed(1)),
         "message 1\n1 0 1 1 0 2\nverdict failed 1\n"),
    ]
    for trace, text in cases:
        assert saved_text(cb, trace, tmp_path) == text
        assert run(cb, trace.observed, len(trace.observed)) == trace.verdict


def test_trace_round_trip_truncated(tmp_path, literal_codebook):
    cb = literal_codebook([[0, 0, 1], [0, 1, 0]], dm=0, read_cap=3)
    trace = Trace(0, (0, 0, 0), (False, False, False), (0, 0, 0), Verdict.truncated(3))
    assert saved_text(cb, trace, tmp_path) == (
        "message 0\n1 0 0 0 0 0\n2 0 0 0 0 0\n3 0 0 0 0 0\nverdict truncated 3\n"
    )
    assert run(cb, trace.observed, len(trace.observed)) == trace.verdict

