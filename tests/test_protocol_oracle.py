"""Exact outcome law of the protocol on tiny codes, against the batch engine.

Under the honest, uniform and uniform-index adversaries the reads of a trial
are i.i.d. given its message w: id x = index*v + payload is read with
probability (1 - p)[x in w]/m + p/(m v) (both uniform adversaries have this
marginal), or [x in w]/m when honest.  The decoder's state is its set of
distinct molecules seen, so a forward pass over the 2**(m v) seen-sets, with
the sets where the decoder stops absorbed at the read that reaches them,
gives P(wrong), P(failed), P(truncated) and E[reads] exactly.  It shares no
code with the engines beyond the codebook.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dnareads import SimParams
from dnareads.codebook import construct_greedy
from dnareads.core import VerdictKind
from dnareads.simulate import run_batch

_MAX_IDS = 12


def _exact_outcomes(cb, adversary: str) -> dict:
    """P(wrong), P(failed), P(truncated) and E[reads] of a trial whose
    message is uniform over the book, by a forward pass over seen-sets."""
    p = cb.params
    n_ids = p.m * p.v
    assert n_ids <= _MAX_IDS, "seen-sets of more than 12 ids are out of reach"
    masks = np.arange(1 << n_ids)
    words = [sum(1 << int(x) for x in row) for row in cb.word_ids]
    # outside counts of every seen-set against every codeword
    outside = np.stack([np.bitwise_count(masks & ~w) for w in words])
    live = outside <= p.dm
    n_live = live.sum(axis=0)
    stops = n_live <= 1
    decided = np.where(n_live == 1, live.argmax(axis=0), -1)
    totals = dict(wrong=0.0, failed=0.0, truncated=0.0, reads=0.0)
    for message, word in enumerate(words):
        clean = np.array([(word >> x) & 1 for x in range(n_ids)], dtype=float) / p.m
        noise = 0.0 if adversary == "honest" else p.p
        prob = (1 - noise) * clean + noise / n_ids
        state = np.zeros(len(masks))
        state[0] = 1.0
        for t in range(1, p.read_cap + 1):
            nxt = np.zeros_like(state)
            for x in np.flatnonzero(prob):
                np.add.at(nxt, masks | (1 << int(x)), state * prob[x])
            done = stops & (nxt > 0)
            mass = nxt[done]
            totals["wrong"] += mass[(decided[done] >= 0) & (decided[done] != message)].sum()
            totals["failed"] += mass[decided[done] < 0].sum()
            totals["reads"] += t * mass.sum()
            nxt[done] = 0.0
            state = nxt
        totals["truncated"] += state.sum()
        totals["reads"] += p.read_cap * state.sum()
    return {name: value / len(words) for name, value in totals.items()}


# (params, adversary): the codes of ROADMAP item 5, the second with mass on
# truncation, and an honest one
_CODES = [
    (SimParams(m=4, k=6, v=3, p=0.2, dm=1, theta=1.0, seed=1), "uniform"),
    (SimParams(m=3, k=4, v=4, p=0.35, dm=1, theta=1.0, read_cap=12, seed=2), "uniform-index"),
    (SimParams(m=6, k=6, v=2, p=0.1, dm=1, theta=1.0, read_cap=120, seed=3), "uniform"),
    (SimParams(m=4, k=3, v=3, p=0.3, dm=0, theta=0.5, seed=4), "honest"),
]


@pytest.mark.parametrize("params,adversary", _CODES)
def test_run_batch_matches_the_exact_law(params, adversary):
    # each rate within 5 standard errors of its exact value, and the mean
    # reads within 5 standard errors of its exact mean
    trials = 40_000
    cb = construct_greedy(params)
    exact = _exact_outcomes(cb, adversary)
    batch = run_batch(cb, adversary, trials)
    decided = batch.kind == VerdictKind.DECIDED.value
    got = dict(
        wrong=np.mean(decided & (batch.decoded != batch.message)),
        failed=np.mean(batch.kind == VerdictKind.FAILED.value),
        truncated=np.mean(batch.kind == VerdictKind.TRUNCATED.value),
    )
    for name, rate in got.items():
        q = exact[name]
        assert abs(rate - q) <= 5 * math.sqrt(q * (1 - q) / trials) + 1e-12, (name, rate, q)
    se = batch.n_reads.std() / math.sqrt(trials)
    assert abs(batch.n_reads.mean() - exact["reads"]) <= 5 * se + 1e-12
    if adversary == "honest":
        assert exact["wrong"] == exact["failed"] == 0.0
    if params.read_cap == 12:
        assert exact["truncated"] > 0.001
