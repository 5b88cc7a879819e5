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
random_raw block per trial and pass, and decodes a block of trials at once.
Each trial's PCG64 seeds itself from its row of core.trial_states.
It reads the block as core.stream_words, its 32-bit words in stream order:
the low half of a raw before its high half.  Each bounded draw (integers)
reads a range of consecutive words, and a high half left pending carries
over to the next bounded draw; random() takes whole raws, which the words
skip.  So a trial's stream is laid out as

  word 0                      message (none when k = 1)
  words 1..read_cap           f (none when m = 1)
  next read_cap whole raws    u, value (raw >> 11) * 2**-53
  following words             replacement indices, then payloads, the
                              first of them the pending high half, if any

and a draw is a fixed array of word columns: with head_raws the raws the
message and f take, a word from 2 * head_raws on sits 2 * read_cap columns
further right, past the uniforms.  A range of size 1 reads no word.  Each
value is Lemire's (w * n) >> 32.  The honest adversary, and any adversary at
p = 0, observes the true row, so its stream stops after f.

Prefix first: a decoder stops after a few reads, so run_batch decodes only
the first W read positions of each trial.  W is the smallest power of two
at or above analysis.expected_reads_upper_bound(m, p, ones_threshold) at the
p the layout observes (0 when honest), capped at read_cap, and read_cap where
that bound is undefined (p = 1, or a threshold over m).
Rows still undecided after W reads are drawn again and decoded over the full
read_cap.  A block holds the raws up to the last draw's prefix.  _draw_rows
checks the first row of every block it returns against _observe_trial, and
run_batch draws one block per decode block, in both passes.

Rejections stay exact: where numpy would have rejected a word and drawn
again, every later draw of the stream shifts.  Every draw is tested for
rejection over its whole length, except the stream's last one (payloads, or
f for a true row), whose later words shift nothing decoded and which is
tested on its prefix alone.  A rejected row goes through _observe_trial
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel, core, decoder
from .analysis import expected_reads_upper_bound, ones_threshold, s_membership
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


def _row_bytes(cb: Codebook, width: int) -> int:
    """Bytes run_batch holds per trial row decoded at this width: its stream
    state, observation table, seen set and outside counts, plus one step's
    gathered counts, mismatch rows and consistency flags."""
    p = cb.params
    count = _count_dtype(cb).itemsize
    return 32 + _id_dtype(cb).itemsize * width + p.m * p.v + len(cb) * (2 * count + 2)


def _prefix_width(cb: Codebook, adversary: str) -> int:
    """W, the read positions of the first pass (module docstring)."""
    p = cb.params
    p_obs = p.p if adversary != "honest" else 0.0
    try:
        bound = expected_reads_upper_bound(p.m, p_obs, ones_threshold(p))
    except ValueError:
        return p.read_cap
    return min(p.read_cap, 1 << (max(1, math.ceil(bound)) - 1).bit_length())


def run_batch(cb: Codebook, adversary: str, trials: int, start: int = 0) -> BatchResult:
    """Vectorized engine for the message-blind adversaries, draw-for-draw
    identical to run_trial over trials start..start+trials-1."""
    if adversary not in BATCH_ADVERSARIES:
        raise ValueError(f"batched engine does not support adversary {adversary!r}")
    if start < 0 or start + trials > 2**64:
        raise ValueError("trial out of range")
    out = BatchResult(
        message=np.empty(trials, dtype=np.int64),
        kind=np.empty(trials, dtype=np.int8),
        decoded=np.empty(trials, dtype=np.int64),
        n_reads=np.empty(trials, dtype=np.int64),
    )
    # the prefix pass writes every row, then the full pass redoes those it
    # left undecided
    rows = np.arange(trials)
    for width in sorted({_prefix_width(cb, adversary), cb.params.read_cap}):
        layout = _Layout(cb, adversary, width)
        step = max(1, _BATCH_BYTES // _row_bytes(cb, width))
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            out.message[block], obs = _draw_rows(cb, adversary, layout, start, block)
            out.kind[block], out.decoded[block], out.n_reads[block] = _decode_batch(cb, obs)
        rows = rows[out.kind[rows] == VerdictKind.TRUNCATED.value]
    return out


class _Layout:
    """Where the draws of a trial's first `width` read positions sit in its
    random_raw block, as columns of its stream_words view, and which words
    are tested for rejection (module docstring)."""

    def __init__(self, cb: Codebook, adversary: str, width: int):
        p = cb.params
        cap = p.read_cap
        self.width = width
        self.noisy = adversary != "honest" and p.p > 0
        self.head_raws = (int(p.k > 1) + cap * (p.m > 1) + 1) // 2
        # the bounded draws (name, range, size) in stream order
        head = [("message", p.k, 1), ("f", p.m, cap)]
        tail = [("rep_idx", p.m, cap)] * (adversary == "uniform") + [("rep_pay", p.v, cap)]
        draws = head + tail if self.noisy else head
        # the stream's last draw; in a noisy layout the uniforms follow f
        reading = [name for name, n, _ in (tail if self.noisy else head) if n > 1]
        last = reading[-1] if reading else None
        # name -> (range, values, decoded columns, tested columns).  A draw's
        # words are consecutive in the stream; a stream word from
        # 2 * head_raws on sits past the uniforms' read_cap raws.
        self.draws = {}
        n_raw = self.head_raws + width if self.noisy else 0
        word = tested = decoded = 0
        for name, n, size in draws:
            read = size if n > 1 else 0
            test = min(read, width) if name == last else read
            columns = np.arange(word, word + test)
            columns[columns >= 2 * self.head_raws] += 2 * cap
            self.draws[name] = (n, min(size, width), columns[: min(read, width)], columns)
            if test:
                n_raw = max(n_raw, int(columns[-1]) // 2 + 1)
            word += read
            tested += test
            decoded += min(read, width)
        self.n_raw = n_raw
        # The raws; per tested word its gathered copy, product and flag; per
        # decoded word its copy, uint64 copy and product; and six int64 or
        # float64 rows of width (true ids, u, its flags, the replacement and
        # observed ids).
        self.row_bytes = 8 * n_raw + 9 * tested + 20 * decoded + 48 * width


def _draw_columnar(cb, adversary, layout, states, message, obs) -> np.ndarray:
    """Fill message and obs for the trials with these stream states from one
    random_raw block each.  Returns the mask of rows to redraw: those where
    numpy would have rejected a bounded draw, which shifts the rest."""
    p = cb.params
    raws = core.trial_raws(states, layout.n_raw)
    words = core.stream_words(raws)
    bad = np.zeros(len(states), dtype=bool)
    drawn = {}
    for name, (n, size, decode, test) in layout.draws.items():
        bad |= core.rejected(words, n, test)
        if n == 1:
            drawn[name] = np.zeros((len(states), size), dtype=np.int64)
        else:
            drawn[name] = core.bounded(words[:, decode], n)
    msg, f = drawn["message"], drawn["f"]
    message[:] = msg[:, 0]
    true_ids = cb.word_ids[msg, f]
    if not layout.noisy:
        obs[:] = true_ids
        return bad
    u = raws[:, layout.head_raws : layout.head_raws + layout.width]
    flags = (u >> 11) * 2.0**-53 < p.p
    rep_idx = drawn.get("rep_idx", f)
    obs[:] = channel.observe_uniform(true_ids, flags, rep_idx * p.v + drawn["rep_pay"])
    return bad


def _draw_rows(cb, adversary, layout, start, rows):
    """Message and observation table (rows x layout.width) of trials
    start + rows.

    The rows are decoded from their raw blocks in sub-blocks whose
    temporaries fit in _BATCH_BYTES // 16.  Every row where numpy would have
    rejected a word goes through _observe_trial instead.  The first row is
    compared with _observe_trial, so that a numpy whose internals no longer
    match the decoding fails loudly."""
    b = len(rows)
    states = core.trial_states(cb.params.seed, rows.astype(np.uint64) + np.uint64(start))
    message = np.empty(b, dtype=np.int64)
    obs = np.empty((b, layout.width), dtype=_id_dtype(cb))
    step = max(1, _BATCH_BYTES // 16 // layout.row_bytes)
    for lo in range(0, b, step):
        hi = lo + step
        bad = _draw_columnar(cb, adversary, layout, states[lo:hi], message[lo:hi], obs[lo:hi])
        for r in (np.flatnonzero(bad) + lo).tolist():
            trial = _observe_trial(cb, adversary, start + int(rows[r]))
            message[r] = trial.message
            obs[r] = trial.observed[: layout.width]
    first = start + int(rows[0])
    ref = _observe_trial(cb, adversary, first)
    if message[0] != ref.message or not np.array_equal(obs[0], ref.observed[: layout.width]):
        raise RuntimeError(
            f"batch draws of trial {first} differ from the per-trial engine: "
            f"numpy {np.__version__} no longer matches the raw-word decoding"
        )
    return message, obs


def _decode_batch(cb, obs):
    """Verdicts (kind, decoded, n_reads) of the rows of an observation table,
    as decoder.run gives them.  A row still undecided after the table's last
    column is TRUNCATED at read_cap."""
    b, width = obs.shape
    params = cb.params
    kind = np.full(b, VerdictKind.TRUNCATED.value, dtype=np.int8)
    decoded = np.full(b, -1, dtype=np.int64)
    n_reads = np.full(b, params.read_cap, dtype=np.int64)
    dm = params.dm
    # Bools are added and summed as 0/1 bytes: numpy's bool-to-integer loops
    # are slower, and a narrow accumulator that holds k suffices for counts.
    mismatch = cb.mismatch.view(np.uint8)
    count_acc = np.min_scalar_type(len(cb))
    seen = np.zeros((b, params.m * params.v), dtype=bool)
    outside = np.zeros((b, len(cb)), dtype=_count_dtype(cb))
    alive = np.ones(b, dtype=bool)
    for t in range(width):
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
    return kind, decoded, n_reads
