"""Sequential decoder that keeps reading until exactly one codeword stays
within the dm-slack consistency budget, plus the error-free stopping times
that the clairvoyant adversary needs."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .codebook import Codebook
from .core import Molecule, OuterCodeword, ReadRecord, Trace, Verdict, VerdictKind


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
    """seen holds distinct observed molecules; outside[m] counts members of
    seen that codeword m does not contain.  Maintained incrementally, always
    re-derivable from seen alone."""

    seen: set[Molecule]
    outside: np.ndarray
    reads: int = 0


def new_state(cb: Codebook) -> DecoderState:
    return DecoderState(seen=set(), outside=np.zeros(len(cb), dtype=np.int64))


def outside_count(seen: Iterable[Molecule], w: OuterCodeword) -> int:
    """From-scratch count of molecules in seen lying outside codeword w."""
    return sum(w.payloads[mol.index] != mol.payload for mol in seen)


def step(state: DecoderState, cb: Codebook, observed: Molecule) -> StepResult:
    """Consume one read.  Duplicates leave the state unchanged; a new distinct
    molecule bumps the outside count of every codeword it contradicts.  Stops
    when exactly one codeword has outside <= dm, fails when none does.
    Raises ValueError for a molecule outside the codebook's m x v space."""
    params = cb.params
    if not (0 <= observed.index < params.m and 0 <= observed.payload < params.v):
        raise ValueError(f"observed molecule {observed} out of range")
    state.reads += 1
    if observed in state.seen:
        return StepResult(StepKind.CONTINUE)
    state.seen.add(observed)
    state.outside += cb.mismatch[observed.id(params.v)]
    consistent = state.outside <= params.dm
    n = int(consistent.sum())
    if n == 1:
        return StepResult(StepKind.STOP, int(np.argmax(consistent)))
    if n == 0:
        return StepResult(StepKind.FAIL)
    return StepResult(StepKind.CONTINUE)


def run(cb: Codebook, reads: Iterable[Molecule], read_cap: int) -> Verdict:
    """Feed observed molecules through step until Stop, Fail, or read_cap.

    Consumption halts at the verdict, so the decision depends only on the
    observed prefix.  A stream shorter than read_cap that never resolves
    yields Truncated.
    """
    state = new_state(cb)
    it: Iterator[Molecule] = iter(reads)
    for _ in range(read_cap):
        try:
            observed = next(it)
        except StopIteration:
            break
        res = step(state, cb, observed)
        if res.kind is StepKind.STOP:
            return Verdict.decided(res.decoded, state.reads)
        if res.kind is StepKind.FAIL:
            return Verdict.failed(state.reads)
    return Verdict.truncated(read_cap)


def stopping_time_no_errors(
    cb: Codebook, m: int, f, horizon: int
) -> tuple[int, int | None] | None:
    """Stop time and output of the decoder on the error-free stream of message
    m along index sequence f, or None when it has not stopped by the horizon.

    The output id is None for a Fail stop.  Only first occurrences of an
    index matter, so the work is O(min(horizon, m) * k).
    """
    truth = cb.word_ids[m]
    dm = cb.params.dm
    outside = np.zeros(len(cb), dtype=np.int64)
    seen_idx = np.zeros(cb.params.m, dtype=bool)
    for j in range(horizon):
        i = int(f[j])
        if seen_idx[i]:
            continue
        seen_idx[i] = True
        outside += cb.mismatch[truth[i]]
        consistent = outside <= dm
        n = int(consistent.sum())
        if n == 1:
            return (j + 1, int(np.argmax(consistent)))
        if n == 0:
            return (j + 1, None)
    return None


def stopping_times_all(cb: Codebook, f, horizon: int) -> dict[int, tuple[int, int | None]]:
    """stopping_time_no_errors for every message at once, skipping NoStop ones.

    Vectorized over messages: row a of outside holds the outside counts when
    a is the true message, so a fresh index i adds the mismatch rows of every
    codeword's molecule at i in one (k, k) update.
    """
    k = len(cb)
    dm = cb.params.dm
    head = np.asarray(f[:horizon])
    _, first_pos = np.unique(head, return_index=True)
    outside = np.zeros((k, k), dtype=np.int64)
    alive = np.ones(k, dtype=bool)
    out: dict[int, tuple[int, int | None]] = {}
    for pos in np.sort(first_pos):
        outside += cb.mismatch[cb.word_ids[:, int(head[pos])]]
        if not alive.any():
            break
        consistent = outside[alive] <= dm
        counts = consistent.sum(axis=1)
        rows = np.flatnonzero(alive)
        t = int(pos) + 1
        for slot, r in enumerate(rows):
            if counts[slot] == 1:
                out[int(r)] = (t, int(np.argmax(consistent[slot])))
                alive[r] = False
            elif counts[slot] == 0:
                out[int(r)] = (t, None)
                alive[r] = False
    return out


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


def load_trace(path: str) -> Trace:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("message "):
        raise ValueError("malformed trace header")
    true_message = int(lines[0].split()[1])
    trailer = lines[-1].split()
    if trailer[0] != "verdict":
        raise ValueError("missing verdict trailer")
    if trailer[1] == "decided":
        verdict = Verdict.decided(int(trailer[2]), int(trailer[3]))
    elif trailer[1] == "failed":
        verdict = Verdict.failed(int(trailer[2]))
    elif trailer[1] == "truncated":
        verdict = Verdict.truncated(int(trailer[2]))
    else:
        raise ValueError(f"unknown verdict kind {trailer[1]!r}")
    records = []
    for ln in lines[1:-1]:
        parts = ln.split()
        if len(parts) != 6:
            raise ValueError(f"malformed read line: {ln!r}")
        t, si, sp, err, oi, op = (int(x) for x in parts)
        records.append(
            ReadRecord(
                time=t,
                sampled=Molecule(si, sp),
                error=bool(err),
                observed=Molecule(oi, op),
            )
        )
    return Trace(true_message=true_message, records=tuple(records), verdict=verdict)


def replay(cb: Codebook, trace: Trace) -> Verdict:
    """Re-run the decoder on a trace's observed molecules; reproduces the
    recorded verdict since the record list is exactly the consumed prefix."""
    return run(cb, (r.observed for r in trace.records), len(trace.records))
