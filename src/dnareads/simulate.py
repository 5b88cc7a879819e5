"""Trial execution.

Every trial consumes its private random stream in one fixed order:

  1. message: one integers(k) draw
  2. index sequence f: integers(0, m, size=read_cap)
  3. error uniforms u: random(read_cap), flags = u < p
  4. adversary draws:
       honest        none
       uniform       replacement indices integers(0, m, size=read_cap),
                     then replacement payloads integers(0, v, size=read_cap)
       uniform-index replacement payloads integers(0, v, size=read_cap)
       weak          weak_prepare's draws (index set, m' pick, psi)
       strong        one random() for psi

Replacement tables are drawn for every read position and consulted only on
erroneous reads, so sweeps over p reuse common random numbers, and the
serial and batched engines are draw-for-draw identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel, decoder
from .analysis import s_membership
from .codebook import Codebook
from .core import Molecule, ReadRecord, Trace, Verdict, VerdictKind, derive_trial_rng


@dataclass(frozen=True)
class TrialOutcome:
    """Verdict of one trial plus adversary diagnostics.

    conditions marks trials where the relevant guaranteed-error premises held
    (strong: plan active; weak: membership, t1 error coverage, t2 indices
    inside the untouched set, confusable m' self-decoding by the horizon, and
    psi).  expected_stop is the error-free stopping time of m_prime when
    conditions hold.
    """

    message: int
    verdict: Verdict
    psi: bool | None = None
    active: bool | None = None
    conditions: bool | None = None
    m_prime: int | None = None
    expected_stop: int | None = None


def _draw_common(cb: Codebook, trial: int):
    p = cb.params.p
    cap = cb.params.read_cap
    rng = derive_trial_rng(cb.params.seed, trial)
    message = int(rng.integers(cb.params.k))
    f = channel.sample_index_sequence(cb.params.m, cap, rng)
    flags = channel.sample_error_flags(p, cap, rng)
    return rng, message, f, flags


def run_trial(
    cb: Codebook,
    adversary: str,
    trial: int,
    h_m: int | None = None,
    r_prime_m: int | None = None,
    collect_trace: bool = False,
) -> tuple[TrialOutcome, Trace | None]:
    """Reference engine: one trial, any adversary, optional full trace."""
    if adversary not in channel.ADVERSARIES:
        raise ValueError(f"unknown adversary {adversary!r}")
    params = cb.params
    m, v, cap = params.m, params.v, params.read_cap
    rng, message, f, flags = _draw_common(cb, trial)

    rep_idx = rep_pay = None
    weak_plan = strong_plan = None
    if adversary == "uniform":
        rep_idx = rng.integers(0, m, size=cap)
        rep_pay = rng.integers(0, v, size=cap)
    elif adversary == "uniform-index":
        rep_pay = rng.integers(0, v, size=cap)
    elif adversary == "weak":
        if r_prime_m is None:
            raise ValueError("weak adversary needs r_prime_m")
        weak_plan = channel.weak_prepare(cb, message, r_prime_m, rng)
    elif adversary == "strong":
        if h_m is None or r_prime_m is None:
            raise ValueError("strong adversary needs h_m and r_prime_m")
        if h_m > cap:
            raise ValueError("h_m exceeds read_cap")
        psi = bool(rng.random() < params.p)
        part = s_membership(f, h_m, params.dm, r_prime_m)
        strong_plan = channel.strong_prepare(cb, message, f, flags, h_m, part, psi)

    truth = cb.matrix[message]
    state = decoder.new_state(cb)
    records: list[ReadRecord] = []
    verdict = None
    for t in range(cap):
        idx = int(f[t])
        sampled = Molecule(idx, int(truth[idx]))
        error = bool(flags[t])
        if not error:
            observed = sampled
        elif adversary == "honest":
            observed = channel.observe_honest(sampled)
        elif adversary == "uniform":
            observed = Molecule(int(rep_idx[t]), int(rep_pay[t]))
        elif adversary == "uniform-index":
            observed = Molecule(idx, int(rep_pay[t]))
        elif adversary == "weak":
            observed = channel.observe_weak(weak_plan, cb, sampled, error)
        else:
            observed = channel.observe_strong(strong_plan, cb, t + 1, sampled, error)
        res = decoder.step(state, cb, observed)
        if collect_trace:
            records.append(ReadRecord(t + 1, sampled, error, observed))
        if res.kind is decoder.StepKind.STOP:
            verdict = Verdict.decided(res.decoded, state.reads)
            break
        if res.kind is decoder.StepKind.FAIL:
            verdict = Verdict.failed(state.reads)
            break
    if verdict is None:
        verdict = Verdict.truncated(cap)

    outcome = _classify(
        cb, adversary, message, f, flags, h_m, r_prime_m, weak_plan, strong_plan, verdict
    )
    trace = Trace(message, tuple(records), verdict) if collect_trace else None
    return outcome, trace


def _classify(
    cb, adversary, message, f, flags, h_m, r_prime_m, weak_plan, strong_plan, verdict
) -> TrialOutcome:
    if adversary == "strong":
        plan = strong_plan
        expected = plan.stop_times.get(plan.m_prime) if plan.active else None
        return TrialOutcome(
            message=message,
            verdict=verdict,
            psi=plan.psi,
            active=plan.active,
            conditions=plan.active,
            m_prime=plan.m_prime,
            expected_stop=expected,
        )
    if adversary == "weak":
        plan = weak_plan
        conditions = False
        expected = None
        if plan.active and h_m is not None:
            part = s_membership(f, h_m, cb.params.dm, r_prime_m)
            if part.in_s:
                t1_covered = all(bool(flags[j - 1]) for j in part.t1)
                t2_inside = {int(f[j - 1]) for j in part.t2} <= plan.index_set.indices
                if t1_covered and t2_inside:
                    stop = decoder.stopping_time_no_errors(cb, plan.m_prime, f, h_m)
                    if stop is not None and stop[1] == plan.m_prime:
                        conditions = True
                        expected = stop[0]
        return TrialOutcome(
            message=message,
            verdict=verdict,
            psi=plan.psi,
            active=plan.active,
            conditions=conditions,
            m_prime=plan.m_prime,
            expected_stop=expected,
        )
    return TrialOutcome(message=message, verdict=verdict)


@dataclass
class BatchResult:
    """Columnar outcomes: kind codes 0=decided, 1=failed, 2=truncated."""

    message: np.ndarray
    kind: np.ndarray
    decoded: np.ndarray
    n_reads: np.ndarray

    def errored(self) -> np.ndarray:
        return (self.kind != 0) | (self.decoded != self.message)


_BATCH_BYTES = 32_000_000


def _id_dtype(cb: Codebook) -> np.dtype:
    """Narrowest dtype for the observation table's molecule ids."""
    return np.min_scalar_type(cb.params.m * cb.params.v - 1)


def _count_dtype(cb: Codebook) -> np.dtype:
    """Narrowest dtype for an outside count.  A codeword contradicts at most
    the m*(v-1) molecules it does not store, and the uniform adversary can
    show every one of them, so m alone is too small: a count that wraps reads
    as consistent again."""
    return np.min_scalar_type(cb.params.m * (cb.params.v - 1))


def _row_bytes(cb: Codebook) -> int:
    """Bytes run_batch holds per trial row: its observation table, seen set
    and outside counts, plus one step's gathered counts, mismatch rows and
    consistency flags."""
    p = cb.params
    width = _count_dtype(cb).itemsize
    return (
        _id_dtype(cb).itemsize * p.read_cap + p.m * p.v + len(cb) * (2 * width + 2)
    )


def _rows_per_batch(cb: Codebook, trials: int) -> int:
    return max(1, min(trials, _BATCH_BYTES // _row_bytes(cb)))


def run_batch(cb: Codebook, adversary: str, trials: int, start: int = 0) -> BatchResult:
    """Vectorized engine for the message-blind adversaries, draw-for-draw
    identical to run_trial over trials start..start+trials-1."""
    if adversary not in ("honest", "uniform", "uniform-index"):
        raise ValueError(f"batched engine does not support adversary {adversary!r}")
    params = cb.params
    m, v, k, cap = params.m, params.v, params.k, params.read_cap
    word_ids = cb.word_ids
    message = np.empty(trials, dtype=np.int64)
    kind = np.full(trials, 2, dtype=np.int8)
    decoded = np.full(trials, -1, dtype=np.int64)
    n_reads = np.full(trials, cap, dtype=np.int64)
    rows_per_batch = _rows_per_batch(cb, trials)
    id_dtype = _id_dtype(cb)
    for lo in range(0, trials, rows_per_batch):
        b = min(rows_per_batch, trials - lo)
        obs = np.empty((b, cap), dtype=id_dtype)
        for r in range(b):
            rng, msg, f, flags = _draw_common(cb, start + lo + r)
            true_ids = word_ids[msg][f]
            if adversary == "honest":
                obs[r] = true_ids
            elif adversary == "uniform":
                rep_idx = rng.integers(0, m, size=cap)
                rep_pay = rng.integers(0, v, size=cap)
                obs[r] = np.where(flags, rep_idx * v + rep_pay, true_ids)
            else:
                rep_pay = rng.integers(0, v, size=cap)
                obs[r] = np.where(flags, f * v + rep_pay, true_ids)
            message[lo + r] = msg
        _decode_batch(
            cb, obs, kind[lo : lo + b], decoded[lo : lo + b], n_reads[lo : lo + b]
        )
    return BatchResult(message=message, kind=kind, decoded=decoded, n_reads=n_reads)


def _decode_batch(cb, obs, kind, decoded, n_reads):
    b, cap = obs.shape
    params = cb.params
    dm = params.dm
    # Bools are added and summed as 0/1 bytes: numpy's bool-to-integer loops
    # are slower, and a narrow accumulator that holds k suffices for counts.
    mismatch = cb.mismatch.view(np.uint8)
    count_acc = np.min_scalar_type(len(cb))
    seen = np.zeros((b, params.m * params.v), dtype=bool)
    outside = np.zeros((b, len(cb)), dtype=_count_dtype(cb))
    alive = np.ones(b, dtype=bool)
    for t in range(cap):
        rows = np.flatnonzero(alive)
        if rows.size == 0:
            break
        ids = obs[rows, t]
        fresh = ~seen[rows, ids]
        rows = rows[fresh]
        if rows.size == 0:
            continue
        ids = ids[fresh]
        seen[rows, ids] = True
        o = outside[rows]
        o += mismatch[ids]
        outside[rows] = o
        consistent = o <= dm
        counts = consistent.view(np.uint8).sum(axis=1, dtype=count_acc)
        stopped = counts == 1
        if stopped.any():
            rr = rows[stopped]
            kind[rr] = 0
            decoded[rr] = np.argmax(consistent[stopped], axis=1)
            n_reads[rr] = t + 1
            alive[rr] = False
        failed = counts == 0
        if failed.any():
            rr = rows[failed]
            kind[rr] = 1
            n_reads[rr] = t + 1
            alive[rr] = False
