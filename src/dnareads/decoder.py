"""Sequential decoder that keeps reading until exactly one codeword stays
within the dm-slack consistency budget, plus the error-free stopping times
that the clairvoyant adversary needs."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable

import numpy as np

from .codebook import Codebook
from .core import Molecule, ReadRecord, Trace, Verdict, VerdictKind


class StepKind(Enum):
    CONTINUE = "continue"
    STOP = "stop"
    FAIL = "fail"


@dataclass(frozen=True)
class StepResult:
    kind: StepKind
    decoded: int | None = None


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


def step(state: DecoderState, cb: Codebook, observed: int) -> StepResult:
    """Consume one read, given as its molecule id index*v + payload (the ids
    of Codebook.word_ids and of every observe_* row).  Duplicates leave the
    state unchanged; a new distinct molecule bumps the outside count of every
    codeword it contradicts.  Stops when exactly one codeword has outside <=
    dm, fails when none does.  Raises ValueError for an id outside [0, m*v)."""
    params = cb.params
    if not 0 <= observed < params.m * params.v:
        raise ValueError(f"observed id {observed} out of range [0, {params.m * params.v})")
    state.reads += 1
    if observed in state.seen:
        return StepResult(StepKind.CONTINUE)
    state.seen.add(observed)
    state.outside += cb.mismatch[observed]
    consistent = state.outside <= params.dm
    n = int(consistent.sum())
    if n == 1:
        return StepResult(StepKind.STOP, int(np.argmax(consistent)))
    if n == 0:
        return StepResult(StepKind.FAIL)
    return StepResult(StepKind.CONTINUE)


def run(cb: Codebook, reads: Iterable[int], read_cap: int) -> Verdict:
    """Feed observed molecule ids through step until Stop, Fail, or read_cap.

    Consumption halts at the verdict, so the decision depends only on the
    observed prefix.  A stream shorter than read_cap that never resolves
    yields Truncated.
    """
    state = new_state(cb)
    for observed in islice(reads, read_cap):
        res = step(state, cb, observed)
        if res.kind is StepKind.STOP:
            return Verdict.decided(res.decoded, state.reads)
        if res.kind is StepKind.FAIL:
            return Verdict.failed(state.reads)
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
    if verdict.kind is VerdictKind.TRUNCATED:
        return None
    return verdict.n_reads


def stopping_times_all(cb: Codebook, f, horizon: int, messages) -> dict[int, int]:
    """stopping_time_no_errors for each of messages, skipping NoStop ones."""
    stops = ((a, stopping_time_no_errors(cb, a, f, horizon)) for a in messages)
    return {a: t for a, t in stops if t is not None}


def save_trace(trace: Trace, path: str) -> None:
    """Replay file: 'message <id>' header, one line per read
    'time index payload errorFlag observedIndex observedPayload', then a
    verdict trailer."""
    lines = [f"message {trace.true_message}"]
    for r in trace.records:
        lines.append(
            f"{r.time} {r.sampled.index} {r.sampled.payload} {int(r.error)} "
            f"{r.observed.index} {r.observed.payload}"
        )
    v = trace.verdict
    if v.kind is VerdictKind.DECIDED:
        lines.append(f"verdict decided {v.decoded} {v.n_reads}")
    elif v.kind is VerdictKind.FAILED:
        lines.append(f"verdict failed {v.n_reads}")
    else:
        lines.append(f"verdict truncated {v.n_reads}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_READ_FIELDS = ("time", "index", "payload", "error", "observed index", "observed payload")


def _int_field(text: str, lineno: int, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"trace line {lineno}: {field} {text!r} is not an integer") from None


def load_trace(path: str) -> Trace:
    """Parse a save_trace file.  Raises a one-line ValueError naming the line
    for a malformed header, read line or trailer, a non-integer field, read
    times other than 1..n, or a verdict whose n_reads is not the number of
    reads n."""
    with open(path) as fh:
        lines = [(no, ln.split()) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1][0] != "message" or len(lines[0][1]) != 2:
        raise ValueError("malformed trace header")
    no, header = lines[0]
    true_message = _int_field(header[1], no, "message")
    end, trailer = lines[-1]
    if trailer[0] != "verdict":
        raise ValueError("missing verdict trailer")
    kind = trailer[1] if len(trailer) > 1 else ""
    if kind not in ("decided", "failed", "truncated"):
        raise ValueError(f"unknown verdict kind {kind!r}")
    if len(trailer) != (4 if kind == "decided" else 3):
        raise ValueError(f"trace line {end}: malformed verdict trailer")
    n_reads = _int_field(trailer[-1], end, "n_reads")
    if kind == "decided":
        verdict = Verdict.decided(_int_field(trailer[2], end, "decoded"), n_reads)
    elif kind == "failed":
        verdict = Verdict.failed(n_reads)
    else:
        verdict = Verdict.truncated(n_reads)
    records = []
    for no, parts in lines[1:-1]:
        if len(parts) != 6:
            raise ValueError(f"trace line {no}: malformed read line {' '.join(parts)!r}")
        t, si, sp, err, oi, op = (
            _int_field(x, no, field) for x, field in zip(parts, _READ_FIELDS)
        )
        if t != len(records) + 1:
            raise ValueError(f"trace line {no}: read time {t}, expected {len(records) + 1}")
        records.append(
            ReadRecord(
                time=t,
                sampled=Molecule(si, sp),
                error=bool(err),
                observed=Molecule(oi, op),
            )
        )
    if n_reads != len(records):
        raise ValueError(
            f"trace line {end}: verdict n_reads {n_reads}, but the trace holds "
            f"{len(records)} reads"
        )
    return Trace(true_message=true_message, records=tuple(records), verdict=verdict)


def replay(cb: Codebook, trace: Trace) -> Verdict:
    """Re-run the decoder on a trace's observed molecules; reproduces the
    recorded verdict since the record list is exactly the consumed prefix.
    Raises ValueError for a molecule outside the codebook's m x v space."""
    m, v = cb.params.m, cb.params.v
    for r in trace.records:
        for mol in (r.sampled, r.observed):
            if not (0 <= mol.index < m and 0 <= mol.payload < v):
                raise ValueError(
                    f"trace read {r.time}: molecule {mol} outside the {m} x {v} code space"
                )
    return run(cb, [r.observed.id(v) for r in trace.records], len(trace.records))
