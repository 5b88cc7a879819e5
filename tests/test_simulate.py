import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dnareads import SimParams, simulate
from dnareads.codebook import Codebook, construct_greedy
from dnareads.core import VerdictKind
from dnareads.simulate import run_batch, run_trial

_KIND = {VerdictKind.DECIDED: 0, VerdictKind.FAILED: 1, VerdictKind.TRUNCATED: 2}


def _assert_matches_serial(cb, adversary, batch, collect_trace=False):
    """Compare a batch trial by trial with the int64 per-trial engine."""
    traces = []
    for t in range(len(batch.message)):
        outcome, trace = run_trial(cb, adversary, t, collect_trace=collect_trace)
        assert batch.message[t] == outcome.message
        assert batch.kind[t] == _KIND[outcome.verdict.kind]
        assert batch.n_reads[t] == outcome.verdict.n_reads
        if outcome.verdict.kind is VerdictKind.DECIDED:
            assert batch.decoded[t] == outcome.verdict.decoded
        traces.append(trace)
    return traces


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
    monkeypatch.setattr(simulate, "_BATCH_BYTES", simulate._row_bytes(wide_codebook) * 70)
    assert simulate._rows_per_batch(wide_codebook, trials) == 70  # five chunks
    assert _same_batches(run_batch(wide_codebook, "uniform", trials), whole)


def test_batched_counts_do_not_wrap_past_255():
    # A and B differ at dm + 1 indices and C is A's complement.  While the
    # truth is A or B, both stay consistent until every differing index has
    # been read, by which time C contradicts more than 255 distinct molecules.
    # A uint8 counter would wrap and let C back in, delaying the decision.
    m, dm = 300, 60
    a = np.random.default_rng(0).integers(0, 2, size=m)
    b = a.copy()
    b[: dm + 1] ^= 1
    params = SimParams(m=m, k=3, v=2, p=0.0, dm=dm, theta=1.0, seed=2)
    cb = Codebook(params, np.stack([a, b, 1 - a]))
    batch = run_batch(cb, "honest", 12)
    traces = _assert_matches_serial(cb, "honest", batch, collect_trace=True)
    distinct = [len({r.observed for r in tr.records}) for tr in traces]
    assert max(distinct) > 255
    assert (batch.kind == 0).all() and (batch.decoded == batch.message).all()


def test_batch_memory_stays_within_budget(monkeypatch):
    # k = 4096 codewords: the outside counts, not the observation table,
    # dominate each row, and every per-row array counts against the budget.
    budget = 2_000_000
    monkeypatch.setattr(simulate, "_BATCH_BYTES", budget)
    matrix = np.random.default_rng(1).integers(0, 2, size=(4096, 24))
    params = SimParams(m=24, k=4096, v=2, p=0.1, dm=1, theta=1.0, read_cap=200, seed=3)
    cb = Codebook(params, matrix)
    rows = simulate._rows_per_batch(cb, 1000)
    assert simulate._row_bytes(cb) * rows <= budget
    _ = cb.mismatch, cb.word_ids  # per-codebook tables, built before tracing
    tracemalloc.start()
    try:
        run_batch(cb, "uniform", 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * budget


def test_batched_engine_offset_start(easy_codebook):
    # trials are addressed absolutely: batch starting at 50 equals the tail
    full = run_batch(easy_codebook, "uniform", 80)
    tail = run_batch(easy_codebook, "uniform", 30, start=50)
    assert np.array_equal(full.message[50:], tail.message)
    assert np.array_equal(full.kind[50:], tail.kind)
    assert np.array_equal(full.n_reads[50:], tail.n_reads)


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
    assert len(trace.records) == outcome.verdict.n_reads
    for t, rec in enumerate(trace.records):
        assert rec.time == t + 1
        if not rec.error:
            assert rec.observed == rec.sampled


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


def test_weak_trial_diagnostics(small_codebook):
    # activation requires psi plus a confusable message; every active trial
    # records its m', and activation cannot outpace the psi coin
    n = 400
    n_active = n_psi = 0
    for t in range(n):
        outcome, _ = run_trial(small_codebook, "weak", t, h_m=20, r_prime_m=3)
        n_psi += bool(outcome.psi)
        n_active += bool(outcome.active)
        if outcome.active:
            assert outcome.psi and outcome.m_prime is not None
        if outcome.conditions:
            assert outcome.active and outcome.expected_stop is not None
    assert n_active <= n_psi
    assert n_active > 0


def test_strong_trial_diagnostics(small_codebook):
    for t in range(100):
        outcome, _ = run_trial(small_codebook, "strong", t, h_m=20, r_prime_m=5)
        assert outcome.conditions == outcome.active
        if outcome.active:
            assert outcome.m_prime is not None and outcome.expected_stop <= 20


def test_uniform_index_preserves_index(easy_codebook):
    _, trace = run_trial(easy_codebook, "uniform-index", 7, collect_trace=True)
    for rec in trace.records:
        assert rec.observed.index == rec.sampled.index
