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
erroneous reads, so sweeps over p reuse common random numbers.  The
reference engine, run_trial, draws and observes a trial through
_observe_trial.

The batch engine reads the same streams as raw 64-bit PCG64 outputs, one
random_raw block per trial, and decodes a block of trials at once.  Bounded
draws (integers) read 32-bit words, the low half of a raw before its high
half, and a high half left pending carries over to the next bounded draw;
random() takes whole raws and leaves a pending half alone.  So a trial's
block is laid out as

  word 0                      message (none when k = 1)
  words 1..read_cap           f (none when m = 1)
  next read_cap whole raws    u, value (raw >> 11) * 2**-53
  following words             replacement indices, then payloads, the
                              first of them the pending high half, if any

A range of size 1 reads no word.  Each value is Lemire's (w * n) >> 32; a
row where numpy would have rejected a word and drawn again, a trial at or
past core.COLUMNAR_TRIALS and a range over 2**32 - 1 go through
_observe_trial instead.  The honest adversary, and any adversary at p = 0,
observes the true row, so its block stops after f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel, core, decoder
from .analysis import s_membership
from .codebook import Codebook
from .core import Molecule, ReadRecord, Trace, Verdict, VerdictKind, derive_trial_rng


@dataclass(frozen=True)
class TrialOutcome:
    """Verdict of one trial and the plan of its adversary: the strong or weak
    plan, None for the others.  message, m_prime and the verdict's decoded
    output are message ids in [0, k)."""

    message: int
    verdict: Verdict
    plan: channel.StrongAdversaryPlan | channel.WeakAdversaryPlan | None

    @property
    def m_prime(self) -> int | None:
        return None if self.plan is None else self.plan.m_prime


class _Observed(NamedTuple):
    message: int
    flags: np.ndarray
    true_ids: np.ndarray
    observed: np.ndarray
    plan: object


def _observe_trial(cb: Codebook, adversary: str, trial: int, h_m=None, r_prime_m=None):
    """Draw one trial in the stream order above and apply its adversary: the
    one draw-and-observe path of both engines.  plan is the strong or weak
    adversary's plan, None for the others."""
    params = cb.params
    rng = derive_trial_rng(params.seed, trial)
    message = int(rng.integers(params.k))
    f = channel.sample_index_sequence(params.m, params.read_cap, rng)
    flags = channel.sample_error_flags(params.p, params.read_cap, rng)
    true_ids = cb.word_ids[message][f]
    plan = None
    if adversary == "honest":
        observed = channel.observe_honest(true_ids, f, flags)
    elif adversary in ("uniform", "uniform-index"):
        cap = params.read_cap
        rep_idx = rng.integers(0, params.m, size=cap) if adversary == "uniform" else f
        rep_pay = rng.integers(0, params.v, size=cap)
        observed = channel.observe_uniform(true_ids, flags, rep_idx * params.v + rep_pay)
    elif adversary == "weak":
        plan = channel.weak_prepare(cb, message, r_prime_m, rng)
        observed = channel.observe_weak(plan, cb, true_ids, f, flags)
    else:
        psi = bool(rng.random() < params.p)
        part = s_membership(f, h_m, params.dm, r_prime_m)
        plan = channel.strong_prepare(cb, message, f, flags, h_m, part, psi)
        observed = channel.observe_strong(plan, cb, true_ids, f, flags)
    return _Observed(message, flags, true_ids, observed, plan)


def run_trial(
    cb: Codebook,
    adversary: str,
    trial: int,
    h_m: int | None = None,
    r_prime_m: int | None = None,
    collect_trace: bool = False,
) -> tuple[TrialOutcome, Trace | None]:
    """Reference engine: one trial, any adversary, optional full trace.

    The observed id row goes through decoder.run, the per-read decoder with
    int64 counts; the trace is the consumed prefix of the row."""
    if adversary not in channel.ADVERSARIES:
        raise ValueError(f"unknown adversary {adversary!r}")
    if adversary == "weak" and r_prime_m is None:
        raise ValueError("weak adversary needs r_prime_m")
    if adversary == "strong":
        if h_m is None or r_prime_m is None:
            raise ValueError("strong adversary needs h_m and r_prime_m")
        if h_m > cb.params.read_cap:
            raise ValueError("h_m exceeds read_cap")
    v, cap = cb.params.v, cb.params.read_cap
    obs = _observe_trial(cb, adversary, trial, h_m, r_prime_m)
    ids = obs.observed.tolist()
    verdict = decoder.run(cb, ids, cap)
    outcome = TrialOutcome(obs.message, verdict, obs.plan)
    if not collect_trace:
        return outcome, None
    n = verdict.n_reads
    reads = zip(obs.true_ids[:n].tolist(), obs.flags[:n].tolist(), ids)
    records = tuple(
        ReadRecord(t + 1, Molecule(*divmod(sampled, v)), error, Molecule(*divmod(seen, v)))
        for t, (sampled, error, seen) in enumerate(reads)
    )
    return outcome, Trace(obs.message, records, verdict)


@dataclass
class BatchResult:
    """Columnar outcomes; kind holds VerdictKind values."""

    message: np.ndarray
    kind: np.ndarray
    decoded: np.ndarray
    n_reads: np.ndarray


# The message-blind adversaries, which run_batch runs.
BATCH_ADVERSARIES = ("honest", "uniform", "uniform-index")

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
    """Bytes run_batch holds per trial row: its stream state, observation
    table, seen set and outside counts, plus one step's gathered counts,
    mismatch rows and consistency flags."""
    p = cb.params
    width = _count_dtype(cb).itemsize
    ids = _id_dtype(cb).itemsize * p.read_cap
    return 32 + ids + p.m * p.v + len(cb) * (2 * width + 2)


def _rows_per_batch(cb: Codebook, trials: int) -> int:
    return max(1, min(trials, _BATCH_BYTES // _row_bytes(cb)))


def run_batch(cb: Codebook, adversary: str, trials: int, start: int = 0) -> BatchResult:
    """Vectorized engine for the message-blind adversaries, draw-for-draw
    identical to run_trial over trials start..start+trials-1."""
    if adversary not in BATCH_ADVERSARIES:
        raise ValueError(f"batched engine does not support adversary {adversary!r}")
    if start < 0:
        raise ValueError("trial out of range")
    cap = cb.params.read_cap
    message = np.empty(trials, dtype=np.int64)
    kind = np.full(trials, VerdictKind.TRUNCATED.value, dtype=np.int8)
    decoded = np.full(trials, -1, dtype=np.int64)
    n_reads = np.full(trials, cap, dtype=np.int64)
    rows_per_batch = _rows_per_batch(cb, trials)
    id_dtype = _id_dtype(cb)
    layout = _Layout(cb, adversary)
    for lo in range(0, trials, rows_per_batch):
        b = min(rows_per_batch, trials - lo)
        obs = np.empty((b, cap), dtype=id_dtype)
        _draw_rows(cb, adversary, layout, start + lo, message[lo : lo + b], obs)
        if lo == 0:
            _check_first_row(cb, adversary, start, message[0], obs[0])
        _decode_batch(
            cb, obs, kind[lo : lo + b], decoded[lo : lo + b], n_reads[lo : lo + b]
        )
    return BatchResult(message=message, kind=kind, decoded=decoded, n_reads=n_reads)


# Bounded draws over a wider range take numpy's 64-bit path.
_MAX_RANGE = 2**32 - 1


class _Layout:
    """Where a trial's draws sit in its random_raw block (module docstring)."""

    def __init__(self, cb: Codebook, adversary: str):
        p = cb.params
        cap = p.read_cap
        self.noisy = adversary != "honest" and p.p > 0
        self.head_raws = (int(p.k > 1) + cap * (p.m > 1) + 1) // 2
        # words after the uniforms; the pending high half, if any, comes first
        tail = cap * (adversary == "uniform" and p.m > 1) + cap * (p.v > 1)
        pending = 2 * self.head_raws - int(p.k > 1) - cap * (p.m > 1)
        tail_raws = (max(0, tail - pending) + 1) // 2
        self.n_raw = self.head_raws + (cap + tail_raws if self.noisy else 0)
        self.columnar = max(p.k, p.m, p.v) <= _MAX_RANGE
        # The raws plus, per 32-bit word, its uint64 copy, product, value and
        # rejection flag, plus six int64 or float64 rows of read_cap (f, true
        # ids, u, the replacement indices, payloads and ids).
        words = 2 * self.head_raws + (pending + 2 * tail_raws if self.noisy else 0)
        self.row_bytes = 8 * self.n_raw + 25 * words + 48 * cap


def _integers(words: np.ndarray, n: int, size: int, bad: np.ndarray):
    """integers(0, n, size) for every row from its next words, and the words
    left.  A range of size 1 reads none.  Marks in bad the rows where numpy
    would have rejected a word."""
    if n == 1:
        return np.zeros((len(words), size), dtype=np.int64), words
    values, rejected = core.bounded(words[:, :size], n)
    bad |= rejected.any(axis=1)
    return values, words[:, size:]


def _draw_columnar(cb, adversary, layout, states, message, obs) -> np.ndarray:
    """Fill message and obs for the trials with these stream states from one
    random_raw block each.  Returns the mask of rows to redraw: those where
    numpy would have rejected a bounded draw, which shifts the rest."""
    p = cb.params
    cap = p.read_cap
    raws = core.trial_raws(states, layout.n_raw)
    bad = np.zeros(len(states), dtype=bool)
    words = core.raw_words(raws[:, : layout.head_raws])
    msg, words = _integers(words, p.k, 1, bad)
    f, words = _integers(words, p.m, cap, bad)
    message[:] = msg[:, 0]
    true_ids = cb.word_ids[msg, f]
    if not layout.noisy:
        obs[:] = true_ids
        return bad
    u = raws[:, layout.head_raws : layout.head_raws + cap]
    flags = (u >> 11) * 2.0**-53 < p.p
    words = np.concatenate(
        [words, core.raw_words(raws[:, layout.head_raws + cap :])], axis=1
    )
    if adversary == "uniform":
        rep_idx, words = _integers(words, p.m, cap, bad)
    else:
        rep_idx = f
    rep_pay, words = _integers(words, p.v, cap, bad)
    obs[:] = channel.observe_uniform(true_ids, flags, rep_idx * p.v + rep_pay)
    return bad


def _draw_rows(cb, adversary, layout, first, message, obs) -> None:
    """Draw and observe trials first..first+len(obs)-1 into message and obs.

    Trials below core.COLUMNAR_TRIALS are decoded from their raw blocks in
    sub-blocks of rows whose temporaries fit in _BATCH_BYTES // 16; the
    stream states are computed once for all of them."""
    b = len(obs)
    n_col = max(0, min(b, core.COLUMNAR_TRIALS - first)) if layout.columnar else 0
    states = core.trial_states(cb.params.seed, first, n_col)
    step = max(1, _BATCH_BYTES // 16 // layout.row_bytes)
    redo = [np.arange(n_col, b)]
    for lo in range(0, n_col, step):
        hi = min(lo + step, n_col)
        bad = _draw_columnar(cb, adversary, layout, states[lo:hi], message[lo:hi], obs[lo:hi])
        redo.append(np.flatnonzero(bad) + lo)
    for r in np.concatenate(redo).tolist():
        trial = _observe_trial(cb, adversary, first + r)
        message[r] = trial.message
        obs[r] = trial.observed


def _check_first_row(cb, adversary, trial, message, observed) -> None:
    """Compare one batch row with the reference engine's draws, so that a
    numpy whose internals no longer match the decoding fails loudly."""
    ref = _observe_trial(cb, adversary, trial)
    if message != ref.message or not np.array_equal(observed, ref.observed):
        raise RuntimeError(
            f"batch draws of trial {trial} differ from the per-trial engine: "
            f"numpy {np.__version__} no longer matches the raw-word decoding"
        )


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
            kind[rr] = VerdictKind.DECIDED.value
            decoded[rr] = np.argmax(consistent[stopped], axis=1)
            n_reads[rr] = t + 1
            alive[rr] = False
        failed = counts == 0
        if failed.any():
            rr = rows[failed]
            kind[rr] = VerdictKind.FAILED.value
            n_reads[rr] = t + 1
            alive[rr] = False
