"""Trial execution.

Every trial consumes its private random stream in the order _schedule
lists.  First come its per-trial draws: the message, then its adversary's
plan draws, psi for the strong adversary, and for the weak one the Floyd
sample, its shuffle, the m' pick and psi.  Then come its per-read draws, in
blocks of BLOCK = 8 read positions, the last block holding read_cap mod 8:
each block draws its index sequence f, its error uniforms u (flags u < p),
and for the uniform adversaries its replacement indices and payloads.
Replacement tables are drawn for every read position and consulted only on
erroneous reads, so sweeps over p reuse common random numbers.  The
reference engine, run_trial, draws and observes a trial through
_observe_trial, with numpy's Generator calls.  The batch engine, run_batch,
and the converse engine, run_converse, draw their rows from the raw words
(below); a row goes through _observe_trial only where they cannot give it.

The batch engine reads the same streams as raw 64-bit PCG64 outputs, one
random_raw block per trial and pass, and decodes a block of trials at once.
Each trial's PCG64 seeds itself from its row of core.trial_states.
It reads the block as core.stream_words, its 32-bit words in stream order:
the low half of a raw before its high half.  _walk gives every draw of the
schedule its columns by one rule, numpy's: a bounded value (integers) of
range over 1 reads the pending high half if there is one, or else the low
half of the next raw, whose high half is left pending; a value of range 1
reads nothing; random() reads the next whole raw, and leaves a pending half
pending.  A bounded value is Lemire's (w * n) >> 32, and random()'s is
(raw >> 11) * 2**-53.

A full block's bounded draws read 8 words each, an even count, so a block
leaves a pending half as it found it: every full block reads the same
columns of its raws as the first one, one stride of raws later.  A layout
reads each per-read draw of a pass as slices of a (rows, blocks, words per
block) reshape of the raw block, one slice per run of consecutive words in
a block (a draw after the error uniforms can read a half left pending
before them, then one run); the shorter last block is read the same way, as
a reshape of its own.  A row that observes its true row (the honest
adversary, and the uniform ones at p = 0) decodes f alone.

Prefix first: a decoder stops after a few reads, so both engines decode
only the first W read positions of each trial in a first pass (_passes).  W
is the smallest power of two at or above
analysis.expected_reads_upper_bound(m, p, ones_threshold) at the p the
layout observes (0 when honest), and for the strong adversary at least
its screen's h_m, capped at read_cap, and read_cap where that bound is
undefined (p = 1, or a threshold over m).  A pass of width W draws the
first ceil(W / 8) blocks, decodes them whole and keeps W read positions.
The rows still undecided after W reads are drawn again and decoded over
read_cap.  _draw_rows checks the first row of every block it returns
against _observe_trial, and _passes draws one block per decode block,
sized by _row_bytes, whose sub-blocks are sized by the layout's row_bytes,
each under its share of the engine's budget.

Rejections stay exact: where numpy would have rejected a word and drawn
again, every later draw of the stream shifts.  A pass tests every bounded
word its stream reads up to its last decoded word: all of the per-trial
draws, and in its blocks every draw up to the last one it decodes; a draw
after that one is tested on every block but the pass's last.  A rejection
in a later block shifts nothing the pass decodes, so the pass draws and
tests no word past its blocks; the read_cap pass tests every word.  A range
that never rejects (a power of two, or 1) is not tested.  A rejected row
goes through _observe_trial instead.

The weak plan is numpy's choice(m, r', replace=False) in its Floyd
regime: each Floyd value is taken unless already in the sample, and then j
itself is.  _weak_plan reproduces it on a rows x m mask.  The shuffle only
orders the sample, which weak_prepare sorts, but its words are consumed and
tested like the others.  The m' pick reads one word on every row, of range
max(n, 2) for n candidates, taken mod n, so psi's raw is the same on every
row.  Past m > 10000 and r' > m // 50 numpy shuffles a tail of arange(m)
instead, and that layout sends every row through _observe_trial.

The strong plan has a candidate only where the trial is in S, psi holds,
every t1 read errs and another codeword agrees with the true one at every
t2 index.  The strong layout tests all four on the block (s_membership,
channel.strong_premise, codebook.agreeing) and sends a row with a candidate
through _observe_trial, as it sends a rejected row; every other row keeps its
true row, m' -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel, core, decoder
from .analysis import expected_reads_upper_bound, ones_threshold, s_membership
from .codebook import Codebook, agreeing
from .core import Trace, Verdict, VerdictKind, derive_trial_rng


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
    """Draw one trial in _schedule's order with numpy's Generator calls, a
    block of reads at a time, and apply its adversary: the one
    draw-and-observe path of both engines.  plan is the strong or weak
    adversary's plan, None for the others."""
    params = cb.params
    m, v, cap = params.m, params.v, params.read_cap
    rng = derive_trial_rng(params.seed, trial)
    message = int(rng.integers(params.k))
    plan = psi = None
    if adversary == "weak":
        plan = channel.weak_prepare(cb, message, r_prime_m, rng)
    elif adversary == "strong":
        psi = bool(rng.random() < params.p)
    uniform = adversary in ("uniform", "uniform-index")
    f, flags, rep_idx, rep_pay = [], [], [], []
    for lo in range(0, cap, BLOCK):
        size = min(BLOCK, cap - lo)
        f.append(channel.sample_index_sequence(m, size, rng))
        flags.append(channel.sample_error_flags(params.p, size, rng))
        if uniform:
            rep_idx.append(rng.integers(0, m, size=size) if adversary == "uniform" else f[-1])
            rep_pay.append(rng.integers(0, v, size=size))
    f, flags = np.concatenate(f), np.concatenate(flags)
    true_ids = cb.word_ids[message][f]
    if adversary == "honest":
        observed = channel.observe_honest(true_ids, f, flags)
    elif uniform:
        replacement = np.concatenate(rep_idx) * v + np.concatenate(rep_pay)
        observed = channel.observe_uniform(true_ids, flags, replacement)
    elif adversary == "weak":
        observed = channel.observe_weak(plan, cb, true_ids, f, flags)
    else:
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
    obs = _observe_trial(cb, adversary, trial, h_m, r_prime_m)
    ids = obs.observed.tolist()
    verdict = decoder.run(cb, ids, cb.params.read_cap)
    outcome = TrialOutcome(obs.message, verdict, obs.plan)
    if not collect_trace:
        return outcome, None
    n = verdict.n_reads
    sampled, errors = tuple(obs.true_ids[:n].tolist()), tuple(obs.flags[:n].tolist())
    return outcome, Trace(obs.message, sampled, errors, tuple(ids[:n]), verdict)


@dataclass
class BatchResult:
    """Columnar outcomes; kind holds VerdictKind values."""

    message: np.ndarray
    kind: np.ndarray
    decoded: np.ndarray
    n_reads: np.ndarray


# BatchResult's column dtypes, in field order.
_BATCH_DTYPES = (np.int64, np.int8, np.int64, np.int64)

# The message-blind adversaries, which run_batch runs.
BATCH_ADVERSARIES = ("honest", "uniform", "uniform-index")

_BATCH_BYTES = 32_000_000


def _id_dtype(cb: Codebook) -> np.dtype:
    """Narrowest dtype for the observation table's molecule ids."""
    return np.min_scalar_type(cb.params.m * cb.params.v - 1)


def _row_bytes(cb: Codebook, width: int) -> int:
    """Bytes a decode block holds per trial row decoded at this width: its
    stream state, observation table, seen set, and _decode_batch's bit
    planes, plus one step's carry, overflow, gathered plane and live words,
    and the live words' bit counts."""
    p = cb.params
    words = -(-len(cb) // 64)
    planes = p.dm.bit_length() + 1
    return 32 + _id_dtype(cb).itemsize * width + p.m * p.v + words * (8 * (planes + 4) + 1)


def _prefix_width(cb: Codebook, adversary: str, h_m: int | None = None) -> int:
    """W, the read positions of the first pass (module docstring); for the
    strong adversary at least h_m, the head its screen reads."""
    p = cb.params
    p_obs = p.p if adversary != "honest" else 0.0
    try:
        bound = expected_reads_upper_bound(p.m, p_obs, ones_threshold(p))
    except ValueError:
        return p.read_cap
    width = 1 << (max(1, math.ceil(bound)) - 1).bit_length()
    if adversary == "strong":
        width = max(width, h_m or 0)
    return min(p.read_cap, width)


def run_batch(cb: Codebook, adversary: str, trials: int, start: int = 0) -> BatchResult:
    """Vectorized engine for the message-blind adversaries, draw-for-draw
    identical to run_trial over trials start..start+trials-1."""
    if adversary not in BATCH_ADVERSARIES:
        raise ValueError(f"batched engine does not support adversary {adversary!r}")
    if start < 0 or start + trials > 2**64:
        raise ValueError("trial out of range")
    out = BatchResult(*(np.empty(trials, dtype=d) for d in _BATCH_DTYPES))
    _passes(cb, adversary, out, start, (_BATCH_BYTES, _BATCH_BYTES // 16))
    return out


def _passes(cb, adversary, out, start, budgets, r_prime_m=None, h_m=None) -> None:
    """Fill out's columns for trials start.. in the two passes (module
    docstring), a decode block of budgets[0] // _row_bytes rows at a time,
    drawn in sub-blocks of budgets[1] // layout.row_bytes rows; the plan
    columns m_prime and psi too, where out has them."""
    rows = np.arange(len(out.message))
    for width in sorted({_prefix_width(cb, adversary, h_m), cb.params.read_cap}):
        layout = _Layout(cb, adversary, width, r_prime_m, h_m)
        step = max(1, budgets[0] // _row_bytes(cb, width))
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            out.message[block], obs, plan = _draw_rows(cb, adversary, layout, start, block,
                                                       budgets[1])
            if plan:
                out.m_prime[block], out.psi[block] = plan
            out.kind[block], out.decoded[block], out.n_reads[block] = _decode_batch(cb, obs)
            del obs  # the next block is drawn without this one
        rows = rows[out.kind[rows] == VerdictKind.TRUNCATED.value]


@dataclass
class ConverseResult(BatchResult):
    """BatchResult's columns plus the adversary's plan: m_prime (-1 when
    none), psi, active, and conditions, the rows whose guaranteed-error
    premises hold."""

    m_prime: np.ndarray
    psi: np.ndarray
    active: np.ndarray
    conditions: np.ndarray


# Bytes a converse run holds beside its columns; a fifth is the decode block's.
_CONVERSE_BYTES = 1_000_000


def run_converse(
    cb: Codebook, adversary: str, trials: int, h_m: int | None = None, r_prime_m: int | None = None
) -> ConverseResult:
    """The strong or weak adversary's trials 0..trials-1 as columns,
    draw-for-draw identical to run_trial, in run_batch's two passes (module
    docstring), plan columns included.  run_trial runs trial 0 first, which
    checks the arguments.  The guaranteed-error premises hold exactly where
    a strong plan is active, since a candidate needs them.  After both
    passes, each such row's plan is drawn again through _observe_trial, and
    the run raises when the row does not decode to m_prime, the wrong
    message, at its error-free stopping time by the horizon, or when trial
    0's row differs from run_trial's: numpy's internals drifted."""
    if adversary not in ("strong", "weak"):
        raise ValueError(f"converse engine does not support adversary {adversary!r}")
    ref, _ = run_trial(cb, adversary, 0, h_m, r_prime_m)
    v = ref.verdict
    first = (ref.message, v.kind.value, -1 if v.decoded is None else v.decoded, v.n_reads,
             *_plan_columns(ref.plan), ref.plan.active,
             _conditions(0, ref.message, ref.plan, v, h_m))
    dtypes = (*_BATCH_DTYPES, np.int64, bool, bool, bool)
    out = ConverseResult(*(np.empty(trials, dtype=d) for d in dtypes))
    block_bytes = _CONVERSE_BYTES // 5
    _passes(cb, adversary, out, 0, (block_bytes, _CONVERSE_BYTES - block_bytes), r_prime_m, h_m)
    out.active[:] = out.psi & (out.m_prime >= 0)
    out.conditions[:] = out.active & (adversary == "strong")
    for t in np.flatnonzero(out.conditions).tolist():
        plan = _observe_trial(cb, adversary, t, h_m, r_prime_m).plan
        kind, decoded, n_reads = (int(c[t]) for c in (out.kind, out.decoded, out.n_reads))
        verdict = Verdict(VerdictKind(kind), n_reads, None if decoded < 0 else decoded)
        out.conditions[t] = _conditions(t, int(out.message[t]), plan, verdict, h_m)
    if trials and tuple(c[0] for c in vars(out).values()) != first:
        raise RuntimeError(
            f"batch converse row of trial 0 differs from the per-trial engine: "
            f"numpy {np.__version__} no longer matches the raw-word decoding"
        )
    return out


def _conditions(t: int, message: int, plan, verdict: Verdict, h_m: int | None) -> bool:
    """Whether trial t's guaranteed-error premises hold: only an active strong
    plan's can (README "Tests").  Raises when they hold and the verdict is not
    Decided(m_prime, stop), a wrong message, by the horizon h_m."""
    held = isinstance(plan, channel.StrongAdversaryPlan) and plan.active
    if held and not (
        verdict == Verdict.decided(plan.m_prime, plan.stop)
        and verdict.decoded != message
        and verdict.n_reads <= h_m
    ):
        raise RuntimeError(
            f"guaranteed-error implication violated on trial {t}: "
            f"expected Decided({plan.m_prime}, {plan.stop}), got {verdict}"
        )
    return held


# Reads per block of a trial's per-read draws (module docstring): a constant
# of the draw contract, not a tunable.
BLOCK = 8

# The draws made once per read position, a block at a time.
_READ_DRAWS = ("f", "u", "rep_idx", "rep_pay")


def _schedule(cb: Codebook, adversary: str, r_prime_m: int | None, reads: int) -> list:
    """A trial's draws in stream order, as (name, range, size), up to its
    first `reads` read positions: the per-trial draws, then the per-read
    draws block by block, each block's of size BLOCK but the last.  A range
    is one number, one per value, or None for random()'s whole raws.  The
    weak pick's range is max(the row's candidate count, 2), at most
    max(k - 1, 2)."""
    p = cb.params
    draws = [("message", p.k, 1)]
    if adversary == "weak":
        r = r_prime_m
        floyd = np.arange(max(p.m - r, 1), p.m) + 1
        draws += [("floyd", floyd, len(floyd)), ("shuffle", np.arange(r, 1, -1), max(r - 1, 0)),
                  ("pick", max(p.k - 1, 2), 1), ("psi", None, 1)]
    elif adversary == "strong":
        draws += [("psi", None, 1)]
    block = [("f", p.m), ("u", None)]
    if adversary in ("uniform", "uniform-index"):
        block += [("rep_idx", p.m)] * (adversary == "uniform") + [("rep_pay", p.v)]
    for lo in range(0, reads, BLOCK):
        draws += [(name, n, min(BLOCK, reads - lo)) for name, n in block]
    return draws


def _walk(schedule, state=None) -> tuple[dict, tuple]:
    """(columns, state): name -> the columns the schedule's draws of that
    name read, in order, by the walk rule (module docstring): stream_words
    columns for a bounded draw, raw columns for random()'s.  state is the
    stream's after the schedule, (the pending high half's column, an array
    of none or one, and the raws generated); the walk starts from the given
    state, or from none pending and no raw."""
    pending, raw = state or (np.empty(0, dtype=np.intp), 0)
    columns = {}
    for name, n, size in schedule:
        if n is None:
            cols = np.arange(raw, raw + size)
            raw += size
        elif size and np.all(np.greater(n, 1)):
            cols = np.concatenate((pending, 2 * raw + np.arange(size - len(pending))))
            raw = max(raw, int(cols[-1]) // 2 + 1)
            pending = cols[-1:] + 1 if cols[-1] % 2 == 0 else cols[:0]
        else:
            cols = pending[:0]
        columns[name] = np.concatenate((columns[name], cols)) if name in columns else cols
    return columns, (pending, raw)


class _Segment(NamedTuple):
    """`count` blocks of `size` reads each, in a pass's raws from raw0 on,
    `stride` raws a block; their words are read from column word0, the first
    block's first word (the pending half it reads, if any), `span` words a
    block.  draws: name -> (range,
    runs), runs of a block's words for a bounded draw and of its raws for
    random()'s (range None), as (slice, range) pairs; tests: (slice, range,
    blocks) runs of words, each tested on the segment's first `blocks`
    blocks."""

    raw0: int
    word0: int
    count: int
    size: int
    stride: int
    span: int
    draws: dict
    tests: list


class _Layout:
    """Where the draws of a trial's first `width` read positions sit in its
    random_raw block, as _walk places them, in runs of consecutive columns,
    and which words are tested for rejection (module docstring): the
    per-trial draws, then the pass's blocks as one segment of full blocks
    and, where the pass reaches it, one of the shorter last block.  The weak
    adversary's layout also holds its plan's draws for an index set of
    r_prime_m; the strong one's, the h_m and r_prime_m of its screen's S
    test and witness."""

    def __init__(
        self, cb: Codebook, adversary: str, width: int,
        r_prime_m: int | None = None, h_m: int | None = None,
    ):
        p = cb.params
        self.width = width
        self.noisy = adversary != "honest" and p.p > 0
        self.r_prime, self.h_m = r_prime_m, h_m
        # numpy's tail-shuffle regime (module docstring)
        self.per_trial = adversary == "weak" and p.m > 10000 and r_prime_m > p.m // 50
        head = _schedule(cb, adversary, r_prime_m, 0)
        columns, (pending, head_raws) = _walk(head)
        # per-trial draws, all tested: bounded ones name -> (range, values,
        # runs, tested), each run a (slice, range) pair, and tested False
        # where the range never rejects; random()'s name -> its raws' slice
        self.draws, self.raws, tested, decoded = {}, {}, 0, 0
        for name, n, size in head:
            cols = columns[name]
            if n is None:
                self.raws[name] = slice(int(cols[0]), int(cols[-1]) + 1)
                continue
            # the pick's range is the row's candidate count (_weak_plan)
            test = name == "pick" or _rejects(n)
            self.draws[name] = (n, size, _runs(cols, n), test)
            tested, decoded = tested + test * len(cols), decoded + len(cols)
        # the pass's blocks, each decoded whole; a row that observes its true
        # row decodes f alone
        keep = 1 if adversary in BATCH_ADVERSARIES and not self.noisy else len(_READ_DRAWS)
        block = _schedule(cb, adversary, r_prime_m, BLOCK)[len(head):]
        _, (pending1, raw1) = _walk(block, (pending, head_raws))
        stride = raw1 - head_raws

        def state(j):  # the stream's before block j
            if j == 0:
                return pending, head_raws
            return pending1 + 2 * stride * (j - 1), raw1 + stride * (j - 1)

        def word0(j):  # block j's first word: the pending half, if any
            pending_j, raw_j = state(j)
            return int(pending_j[0]) if len(pending_j) else 2 * raw_j

        # blocks 1.. repeat one stride apart; block 0 joins them unless
        # random() raws part it from the pending half it reads (psi)
        n_blocks, (full, rest) = -(-width // BLOCK), divmod(p.read_cap, BLOCK)
        split = min(n_blocks, full) if word0(1) - word0(0) == 2 * stride else 1
        plan = [(0, min(split, n_blocks, full), BLOCK), (split, min(n_blocks, full) - split, BLOCK),
                (full, n_blocks - full, rest)]
        plan = [segment for segment in plan if segment[1] > 0]
        self.segments = []
        for i, (first, count, size) in enumerate(plan):
            start = state(first)
            reads = _schedule(cb, adversary, r_prime_m, size)[len(head):]
            cols, (_, end) = _walk(reads, start)
            draws, tests = {}, []
            for j, (name, n, _) in enumerate(reads):
                runs = _runs(cols[name] - (start[1] if n is None else word0(first)), n)
                if j < keep:
                    draws[name] = (n, runs)
                    decoded += count * len(cols[name]) * (n is not None)
                # a draw past the last decoded one is tested on every block
                # of the pass but its last
                blocks = count - (i == len(plan) - 1 and j >= keep)
                if n is not None and blocks and _rejects(n):
                    tests += [(run, n_run, blocks) for run, n_run in runs]
                    tested += blocks * len(cols[name])
            # repeated blocks are one stride of words apart; a lone block
            # reads words up to its last raw
            span = 2 * (end - start[1]) if count > 1 else 2 * end - word0(first)
            self.segments.append(
                _Segment(start[1], word0(first), count, size, end - start[1], span, draws, tests)
            )
        self.n_raw = n_raw = start[1] + count * (end - start[1])
        self.reads = min(n_blocks * BLOCK, p.read_cap)
        extra, words = 0, -(-p.k // 64)  # words of a packed_mismatch row
        if adversary == "weak":
            # Floyd's seen mask, the index set's two int64 copies, agreeing's
            # ids and packed rows per index, and per message its bits and mask
            # and the pick's int64 running count
            extra = p.m + (16 + 8 * words) * r_prime_m + 17 * p.k + 64
        elif adversary == "strong":
            # the screen's steps, one at a time over f's head: per read the
            # larger of s_membership's rows and agreeing's copies and packed
            # rows beside the witness; agreeing's bits and mask per message
            extra = max(56, 27 + 8 * words) * h_m + 2 * p.k + 16 * words + 64
        # The raws; per tested word its product and flag; per decoded word
        # its uint64 value and the copy that joins a draw's runs; and the
        # int64 or float64 rows of the pass's reads: six in a noisy layout
        # (true ids, u, its flags, the replacement and observed ids), which
        # bound the weak plan's rows too, three in the strong layout (true
        # ids, and u with the copy that joins its segments), and only the
        # true ids otherwise.
        rows = 3 if adversary == "strong" else 6 if self.noisy else 1
        self.row_bytes = 8 * n_raw + 5 * tested + 16 * decoded + 8 * rows * self.reads + extra


def _rejects(n) -> bool:
    """Whether a range, or one of an array of ranges, can reject a word:
    whether (2**32 - n) % n, the rejection threshold, is ever nonzero."""
    return bool(np.any((2**32 - np.asarray(n, dtype=np.int64)) % n))


def _runs(cols: np.ndarray, n) -> list:
    """The runs of consecutive columns in cols, in order, as (slice, range)
    pairs; an array of ranges, one per column, is cut with its columns."""
    cuts = (np.flatnonzero(np.diff(cols) != 1) + 1).tolist()
    return [
        (slice(int(cols[a]), int(cols[b - 1]) + 1), n[a:b] if isinstance(n, np.ndarray) else n)
        for a, b in zip([0, *cuts], [*cuts, len(cols)])
        if b > a
    ]


def _values(source: np.ndarray, runs, shape) -> np.ndarray:
    """One draw's values from its (slice, range) runs of source's last axis,
    joined in order: Lemire's bounded values of words, or the raws
    themselves where the range is None; zeros of shape where a bounded draw
    reads nothing (range 1)."""
    values = [source[..., run] if n is None else core.bounded(source[..., run], n)
              for run, n in runs]
    if not values:
        return np.zeros(shape, dtype=np.int64)
    return values[0] if len(values) == 1 else np.concatenate(values, axis=-1)


def _draw_columnar(cb, adversary, layout, states, message, obs):
    """Fill message and obs for the trials with these stream states from one
    random_raw block each.  Returns (bad, plan): bad masks the rows to
    redraw, those where numpy would have rejected a bounded draw, which
    shifts the rest, every row of a per-trial layout, and the strong rows
    whose plan has a candidate (module docstring); plan is the strong or weak
    adversary's (m_prime, psi) columns, None for the others."""
    p = cb.params
    b = len(states)
    if layout.per_trial:
        return np.ones(b, dtype=bool), None
    raws = core.trial_raws(states, layout.n_raw)
    words = core.stream_words(raws)
    bad = np.zeros(b, dtype=bool)
    drawn = {}
    for name, (n, size, runs, test) in layout.draws.items():
        if name == "pick":
            continue  # its range is per row (_weak_plan)
        for run, n_run in runs if test else ():
            bad |= core.rejected(words, n_run, run)
        drawn[name] = _values(words, runs, (b, size))
    # each per-read draw from its blocks, cut to the pass's width
    reads = {}
    for seg in layout.segments:
        w = words[:, seg.word0 : seg.word0 + seg.count * seg.span].reshape(b, seg.count, -1)
        r = raws[:, seg.raw0 : seg.raw0 + seg.count * seg.stride].reshape(b, seg.count, -1)
        for run, n, blocks in seg.tests:
            bad |= core.rejected(w[:, :blocks], n, run)
        for name, (n, runs) in seg.draws.items():
            values = _values(r if n is None else w, runs, (b, seg.count, seg.size))
            reads.setdefault(name, []).append(values.reshape(b, -1))
    for name, parts in reads.items():
        drawn[name] = (parts[0] if len(parts) == 1 else np.concatenate(parts, 1))[:, : layout.width]
    msg, f = drawn["message"], drawn["f"]
    message[:] = msg[:, 0]
    # the true rows, which the adversary then changes where it errs
    obs[:] = true_ids = cb.word_ids[msg, f]
    if adversary == "strong":
        # the rows whose plan has a candidate (module docstring)
        psi = _below(raws[:, layout.raws["psi"].start], p.p)
        part = s_membership(f, layout.h_m, p.dm, layout.r_prime)
        errs = _below(drawn["u"][:, : layout.h_m], p.p)
        rows = np.flatnonzero(channel.strong_premise(part, psi, errs))
        bad[rows] |= agreeing(cb, msg[rows, 0], f[rows, : layout.h_m], part.t1[rows]).any(axis=1)
        return bad, (np.full(b, -1), psi)
    if adversary == "weak":
        # channel.observe_weak on the rows whose plan is active
        _, m_prime, psi, picked_bad = _weak_plan(cb, layout, raws, words, drawn)
        active = np.flatnonzero(psi & (m_prime >= 0))
        if active.size:
            flags = _below(drawn["u"][active], p.p)
            swap = cb.word_ids[m_prime[active, None], f[active]]
            obs[active] = np.where(flags, swap, obs[active])
        return bad | picked_bad, (m_prime, psi)
    if layout.noisy:
        flags = _below(drawn["u"], p.p)
        rep_idx = drawn.get("rep_idx", f)
        obs[:] = channel.observe_uniform(true_ids, flags, rep_idx * p.v + drawn["rep_pay"])
    return bad, None


def _weak_plan(cb, layout, raws, words, drawn):
    """(index_set, m_prime, psi, rejected) of the rows of one raw block, as
    channel.weak_prepare draws them from its Generator (module docstring):
    index_set a rows x r_prime_m sorted array, m_prime -1 where there is no
    candidate, and rejected the rows whose pick word numpy would have drawn
    again.  drawn holds the message and the Floyd values."""
    p = cb.params
    b, r = len(raws), layout.r_prime
    rows = np.arange(b)
    # Floyd's sample: j itself where the value of range j + 1 is already
    # picked, and 0 for j = 0, which draws nothing
    seen = np.zeros((b, p.m), dtype=bool)
    seen[:, 0] = r == p.m
    for j, value in zip(range(max(p.m - r, 1), p.m), drawn["floyd"].T):
        value = np.where(seen[rows, value], j, value)
        seen[rows, value] = True
    # the shuffle only orders the sample, which weak_prepare sorts
    index_set = np.nonzero(seen)[1].reshape(b, r)
    agree = agreeing(cb, drawn["message"][:, 0], index_set)
    n_cands = agree.sum(axis=1)
    # one word of range max(n_cands, 2) on every row, taken mod n_cands
    n, [(column, _)] = np.maximum(n_cands, 2), layout.draws["pick"][2]
    bad = core.rejected(words, n[:, None], column)
    pick = core.bounded(words[:, column.start], n) % np.maximum(n_cands, 1)
    m_prime = np.where(n_cands > 0, (np.cumsum(agree, axis=1) <= pick[:, None]).sum(axis=1), -1)
    psi = _below(raws[:, layout.raws["psi"].start], p.p)
    return index_set, m_prime, psi, bad


def _below(raws: np.ndarray, p: float) -> np.ndarray:
    """random() < p for the whole raws random() reads: its value is
    (raw >> 11) * 2**-53."""
    return (raws >> 11) * 2.0**-53 < p


def _draw_rows(cb, adversary, layout, start, rows, budget):
    """Message, observation table (rows x layout.width) and plan of trials
    start + rows.  plan is the strong or weak adversary's pair of columns,
    m_prime (-1 when none) and psi, None for the others.

    The rows are decoded from their raw blocks in sub-blocks whose
    temporaries fit in budget bytes.  Every row where numpy would have
    rejected a word goes through _observe_trial instead.  The first row is
    compared with _observe_trial, so that a numpy whose internals no longer
    match the decoding fails loudly."""
    b = len(rows)
    states = core.trial_states(cb.params.seed, rows.astype(np.uint64) + np.uint64(start))
    message = np.empty(b, dtype=np.int64)
    obs = np.empty((b, layout.width), dtype=_id_dtype(cb))
    plan = None
    if adversary not in BATCH_ADVERSARIES:
        plan = (np.empty(b, dtype=np.int64), np.empty(b, dtype=bool))
    step = max(1, budget // layout.row_bytes)
    for lo in range(0, b, step):
        hi = lo + step
        bad, sub = _draw_columnar(cb, adversary, layout, states[lo:hi], message[lo:hi], obs[lo:hi])
        if sub:
            plan[0][lo:hi], plan[1][lo:hi] = sub
        for r in (np.flatnonzero(bad) + lo).tolist():
            trial = _observe_trial(cb, adversary, start + int(rows[r]), layout.h_m, layout.r_prime)
            message[r] = trial.message
            obs[r] = trial.observed[: layout.width]
            if plan:
                plan[0][r], plan[1][r] = _plan_columns(trial.plan)
    first = start + int(rows[0])
    ref = _observe_trial(cb, adversary, first, layout.h_m, layout.r_prime)
    if (
        message[0] != ref.message
        or not np.array_equal(obs[0], ref.observed[: layout.width])
        or (plan and (plan[0][0], plan[1][0]) != _plan_columns(ref.plan))
    ):
        raise RuntimeError(
            f"batch draws of trial {first} differ from the per-trial engine: "
            f"numpy {np.__version__} no longer matches the raw-word decoding"
        )
    return message, obs, plan


def _plan_columns(plan) -> tuple[int, bool]:
    """(m_prime, psi) of a strong or weak plan, m_prime -1 when none."""
    return (-1 if plan.m_prime is None else plan.m_prime), plan.psi


def _decode_batch(cb, obs):
    """Verdicts (kind, decoded, n_reads) of the rows of an observation table,
    as decoder.run gives them.  A row still undecided after the table's last
    column is TRUNCATED at read_cap.

    Bit-sliced (README "Determinism"): the outside counts are nb =
    dm.bit_length() bit planes of cb.packed_mismatch's layout from
    2**nb - (dm + 1), so a fresh read's packed row, rippled through as a
    carry, carries out at dm + 1 into a sticky dead plane; padding starts dead."""
    b, width = obs.shape
    params = cb.params
    kind = np.full(b, VerdictKind.TRUNCATED.value, dtype=np.int8)
    decoded = np.full(b, -1, dtype=np.int64)
    n_reads = np.full(b, params.read_cap, dtype=np.int64)
    words = cb.packed_mismatch.shape[1]
    nb = params.dm.bit_length()
    start = (1 << nb) - (params.dm + 1)
    planes = np.zeros((nb + 1, b, words), dtype=np.uint64)
    for j in range(nb):
        planes[j] = 2**64 - 1 if start >> j & 1 else 0
    planes[nb, :, -1] = 2**64 - (1 << (len(cb) - 64 * (words - 1)))
    # rows as single void items, which numpy indexes far faster than short rows
    void = np.dtype((np.void, 8 * words))
    packed, items = cb.packed_mismatch.view(void)[:, 0], [p.view(void)[:, 0] for p in planes]
    count_acc = np.min_scalar_type(len(cb))  # holds every live count
    seen = np.zeros((b, params.m * params.v), dtype=bool)
    alive = np.ones(b, dtype=bool)
    for t in range(width):
        rows = np.flatnonzero(alive)
        if rows.size == 0:
            break
        ids = obs[rows, t]
        fresh = ~seen[rows, ids]
        rows, ids = rows[fresh], ids[fresh]
        if rows.size == 0:
            continue
        seen[rows, ids] = True
        carry = packed[ids].view(np.uint64)
        for plane in items[:nb]:
            bits = plane[rows].view(np.uint64)
            overflow = bits & carry
            bits ^= carry
            plane[rows] = bits.view(void)
            carry = overflow
        bits = items[nb][rows].view(np.uint64)
        bits |= carry
        items[nb][rows] = bits.view(void)
        # a row stops when at most one codeword is live
        done = np.bitwise_count(~bits).reshape(-1, words).sum(axis=1, dtype=count_acc) <= 1
        n_reads[rows[done]] = t + 1
        alive[rows[done]] = False
    # a stopped row keeps the planes it stopped with: its one live codeword,
    # if any, is the set bit of its first nonzero live word
    stopped = np.flatnonzero(~alive)
    live = ~planes[nb, stopped]
    first = np.argmax(live != 0, axis=1)
    word = live[np.arange(len(stopped)), first]
    kind[stopped] = np.where(word != 0, VerdictKind.DECIDED.value, VerdictKind.FAILED.value)
    bit = np.bitwise_count(word - np.uint64(1))
    decoded[stopped] = np.where(word != 0, 64 * first + bit, -1)
    return kind, decoded, n_reads
