"""Sequential decoder that keeps reading until exactly one codeword stays
within the dm-slack consistency budget, plus the error-free stopping times
that the clairvoyant adversary needs."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from .codebook import Codebook
from .core import Trace, Verdict, VerdictKind, parse_field


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
    codeword it contradicts.  Returns Decided when exactly one codeword has
    outside <= dm, Failed when none does, and None to keep reading.  Raises
    ValueError for an id outside [0, m*v)."""
    params = cb.params
    if not 0 <= observed < params.m * params.v:
        raise ValueError(f"observed id {observed} out of range [0, {params.m * params.v})")
    state.reads += 1
    if observed in state.seen:
        return None
    state.seen.add(observed)
    state.outside += cb.mismatch[observed]
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
    """Replay file: 'message <id>' header, one line per read
    'time index payload errorFlag observedIndex observedPayload', with each
    of cb's molecule ids split into its (index, payload) pair, then a
    verdict trailer."""
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


# a trailer's kind token: the VerdictKind name in lower case
_KIND_TOKENS = {kind.name.lower(): kind for kind in VerdictKind}

_READ_FIELDS = ("time", "index", "payload", "error", "observed index", "observed payload")


def load_trace(path: str, cb: Codebook) -> Trace:
    """Parse a save_trace file written for cb.  Raises a one-line ValueError
    naming the line for a malformed header, read line or trailer, a
    non-integer field, a message or decoded id outside [0, k), an error flag
    other than 0 or 1, a molecule outside cb's m x v space, read times other
    than 1..n, or a verdict whose n_reads is not the number of reads n."""
    m, k, v = cb.params.m, cb.params.k, cb.params.v
    with open(path) as fh:
        lines = [(no, ln.split()) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1][0] != "message" or len(lines[0][1]) != 2:
        raise ValueError("malformed trace header")
    no, header = lines[0]
    true_message = parse_field(header[1], f"trace line {no}", "message")
    if not 0 <= true_message < k:
        raise ValueError(f"trace line {no}: message {true_message} outside [0, {k})")
    end, trailer = lines[-1]
    if trailer[0] != "verdict":
        raise ValueError("missing verdict trailer")
    token = trailer[1] if len(trailer) > 1 else ""
    kind = _KIND_TOKENS.get(token)
    if kind is None:
        raise ValueError(f"unknown verdict kind {token!r}")
    decided = kind is VerdictKind.DECIDED
    if len(trailer) != (4 if decided else 3):
        raise ValueError(f"trace line {end}: malformed verdict trailer")
    n_reads = parse_field(trailer[-1], f"trace line {end}", "n_reads")
    decoded = parse_field(trailer[2], f"trace line {end}", "decoded") if decided else None
    if decided and not 0 <= decoded < k:
        raise ValueError(f"trace line {end}: decoded {decoded} outside [0, {k})")
    sampled, errors, observed = [], [], []
    for no, parts in lines[1:-1]:
        where = f"trace line {no}"
        if len(parts) != 6:
            raise ValueError(f"{where}: malformed read line {' '.join(parts)!r}")
        t, si, sp, err, oi, op = (parse_field(x, where, f) for x, f in zip(parts, _READ_FIELDS))
        if t != len(observed) + 1:
            raise ValueError(f"{where}: read time {t}, expected {len(observed) + 1}")
        if parts[3] not in ("0", "1"):
            raise ValueError(f"{where}: error {parts[3]!r} is not 0 or 1")
        if not (0 <= si < m and 0 <= oi < m and 0 <= sp < v and 0 <= op < v):
            raise ValueError(f"{where}: a molecule outside the {m} x {v} code space")
        sampled.append(si * v + sp)
        errors.append(err == 1)
        observed.append(oi * v + op)
    if n_reads != len(observed):
        raise ValueError(
            f"trace line {end}: verdict n_reads {n_reads}, but the trace holds "
            f"{len(observed)} reads"
        )
    verdict = Verdict(kind, n_reads, decoded)
    return Trace(true_message, tuple(sampled), tuple(errors), tuple(observed), verdict)


def replay(cb: Codebook, trace: Trace) -> Verdict:
    """Re-run the decoder on a trace's observed ids; reproduces the recorded
    verdict since the trace is exactly the consumed prefix.  step raises
    ValueError for an id outside [0, m*v)."""
    return run(cb, trace.observed, len(trace.observed))
