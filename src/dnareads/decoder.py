"""Sequential decoder that keeps reading until exactly one codeword stays
within the dm-slack consistency budget, plus the error-free stopping times
that the clairvoyant adversary needs."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from .codebook import Codebook
from .core import Trace, Verdict, VerdictKind


@dataclass
class DecoderState:
    """seen holds the distinct observed molecule ids; outside[c] counts the
    members of seen that codeword c does not contain.  Maintained
    incrementally, always re-derivable from seen alone."""

    seen: set[int]
    outside: np.ndarray
    reads: int = 0


def new_state(cb: Codebook) -> DecoderState:
    return DecoderState(seen=set(), outside=np.zeros(len(cb), dtype=np.int64))


def step(state: DecoderState, cb: Codebook, observed: int) -> Verdict | None:
    """Consume one read, given as its molecule id index*v + payload (the ids
    of Codebook.word_ids and of every observe_* row).  Duplicates leave the
    state unchanged; a new distinct molecule bumps the outside count of every
    codeword whose molecule at its index (word_ids) is another.  Returns
    Decided when exactly one codeword has outside <= dm, Failed when none
    does, and None to keep reading.  Raises ValueError for an id outside
    [0, m*v)."""
    params = cb.params
    if not 0 <= observed < params.m * params.v:
        raise ValueError(f"observed id {observed} out of range [0, {params.m * params.v})")
    state.reads += 1
    if observed in state.seen:
        return None
    state.seen.add(observed)
    state.outside += cb.word_ids[:, observed // params.v] != observed
    consistent = state.outside <= params.dm
    n = int(consistent.sum())
    if n == 1:
        return Verdict.decided(int(np.argmax(consistent)), state.reads)
    if n == 0:
        return Verdict.failed(state.reads)
    return None


def run(cb: Codebook, reads: Iterable[int], read_cap: int) -> Verdict:
    """The first verdict step gives on the observed molecule ids, or
    Truncated at read_cap.

    Consumption halts at the verdict, so the decision depends only on the
    observed prefix.  A stream shorter than read_cap that never resolves
    yields Truncated.
    """
    state = new_state(cb)
    for observed in islice(reads, read_cap):
        verdict = step(state, cb, observed)
        if verdict is not None:
            return verdict
    return Verdict.truncated(read_cap)


def stopping_time_no_errors(cb: Codebook, m: int, f, horizon: int) -> int | None:
    """Stop time of the decoder on the error-free stream of message m along
    index sequence f, or None when it has not stopped by the horizon.

    Codeword m never contradicts its own molecules, so the stream cannot
    Fail, and a stop leaves m as the one consistent codeword: the output of
    a stop is always m itself.
    """
    stream = cb.word_ids[m][np.asarray(f)[:horizon]].tolist()
    verdict = run(cb, stream, horizon)
    return None if verdict.kind is VerdictKind.TRUNCATED else verdict.n_reads


def stopping_times_all(cb: Codebook, f, horizon: int, messages) -> dict[int, int]:
    """stopping_time_no_errors for each of messages, skipping NoStop ones."""
    stops = ((a, stopping_time_no_errors(cb, a, f, horizon)) for a in messages)
    return {a: t for a, t in stops if t is not None}


def save_trace(cb: Codebook, trace: Trace, path: str) -> None:
    """Write a trial's reads for a person to read: a 'message <id>' header,
    one line per read 'time index payload errorFlag observedIndex
    observedPayload', with each of cb's molecule ids split into its
    (index, payload) pair, then a verdict trailer."""
    v = cb.params.v
    lines = [f"message {trace.true_message}"]
    reads = zip(trace.sampled, trace.errors, trace.observed)
    for t, (sampled, error, seen) in enumerate(reads, 1):
        lines.append(f"{t} {sampled // v} {sampled % v} {int(error)} {seen // v} {seen % v}")
    verdict = trace.verdict
    decoded = f" {verdict.decoded}" if verdict.kind is VerdictKind.DECIDED else ""
    lines.append(f"verdict {verdict.kind.name.lower()}{decoded} {verdict.n_reads}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
