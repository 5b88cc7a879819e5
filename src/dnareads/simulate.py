"""Trial execution.

Every trial reads its private PCG64 stream by one draw rule (README
"Determinism"), in the order _schedule lists.  First come its per-trial
draws: the message, then psi for the strong adversary, and for the weak
one the Floyd values of its index set, the m' pick and psi.  Then come its
per-read draws, in ceil(read_cap / 8) whole blocks of BLOCK = 8 read
positions, the reads past read_cap drawn and never observed: each block
draws its index sequence f, its error flags u, and for the uniform
adversaries its replacement indices and payloads.  Replacement tables are
drawn for every read position and consulted only on erroneous reads, so
sweeps over p reuse common random numbers.  Each draw starts at a fresh
raw and reads the 32-bit words of the next ceil(s/2) raws for its s
values, low half first: a bounded value is (w * n) >> 32 with no
rejection, and a flag (u, psi) is set where w < p * 2**32.  So every draw
sits at fixed raws of its stream.

The reference engine, run_trial, draws a trial through _observe_trial,
which reads the rule one draw at a time (core.TrialStream).  The batch
engine, run_batch, and the converse engine, run_converse, make a block of
trials' raws at once (core.trial_raws), read each draw of a pass as a slice
of them (_Layout), and decode the block at once.  A row that observes its
true row (the honest adversary, and the uniform ones at p = 0) decodes f
alone.

Prefix first: a decoder stops after a few reads, so both engines decode
only the first W read positions of each trial in a first pass (_passes).  W
is the smallest power of two at or above
analysis.expected_reads_upper_bound(m, p, ones_threshold) at the p the
layout observes (0 when honest), and for the strong adversary at least
its screen's h_m, capped at read_cap, and read_cap where that bound is
undefined (p = 1, or a threshold over m).  A pass of width W draws the
per-trial draws and the first ceil(W / 8) blocks, decodes them whole and
keeps W read positions.  The rows still undecided after W reads are drawn
again and decoded over read_cap.  _draw_rows checks the first row of every
block it returns against _observe_trial, drawn over the pass's blocks
alone, and _passes draws one block per decode block, sized by _row_bytes,
whose sub-blocks are sized by the layout's row_bytes, each under its share
of the engine's budget.

The weak plan's Floyd sample runs on a rows x m mask (_weak_plan).  The
strong plan has a candidate only where the trial is in S, psi holds, every
t1 read errs and another codeword agrees with the true one at every t2
index.  The strong layout tests all four on the block (s_membership,
channel.strong_premise, codebook.agreeing) and sends a row with a
candidate through _observe_trial; every other row keeps its true row, m'
-1.
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


def _observe_trial(cb: Codebook, adversary: str, trial: int, h_m=None, r_prime_m=None,
                   reads=None):
    """Draw one trial in the draw rule's order (module docstring), one draw
    at a time from its stream's raws, a block of reads at a time, and apply
    its adversary: the one draw-and-observe path of both engines.  It draws
    the ceil(reads / 8) blocks that hold the first `reads` read positions
    (read_cap by default) and observes those; a strong trial needs reads >=
    h_m.  plan is the strong or weak adversary's plan, None for the
    others."""
    params = cb.params
    m, v = params.m, params.v
    reads = params.read_cap if reads is None else reads
    rng = core.TrialStream(derive_trial_rng(params.seed, trial))
    message = int(rng.integers(params.k))
    plan = psi = None
    if adversary == "weak":
        plan = channel.weak_prepare(cb, message, r_prime_m, rng)
    elif adversary == "strong":
        psi = bool(channel.sample_error_flags(params.p, 1, rng)[0])
    uniform = adversary in ("uniform", "uniform-index")
    f, flags, rep_idx, rep_pay = [], [], [], []
    for _ in range(-(-reads // BLOCK)):
        f.append(channel.sample_index_sequence(m, BLOCK, rng))
        flags.append(channel.sample_error_flags(params.p, BLOCK, rng))
        if uniform:
            rep_idx.append(rng.integers(m, size=BLOCK) if adversary == "uniform" else f[-1])
            rep_pay.append(rng.integers(v, size=BLOCK))
    f, flags = np.concatenate(f)[:reads], np.concatenate(flags)[:reads]
    true_ids = cb.word_ids[message][f]
    if adversary == "honest":
        observed = channel.observe_honest(true_ids, f, flags)
    elif uniform:
        replacement = (np.concatenate(rep_idx) * v + np.concatenate(rep_pay))[:reads]
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
    passes, each such row's plan is drawn again through _observe_trial over
    its h_m head, and the run raises when the row does not decode to
    m_prime, the wrong message, at its error-free stopping time by the
    horizon, or when trial 0's row differs from run_trial's."""
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
        plan = _observe_trial(cb, adversary, t, h_m, r_prime_m, h_m).plan
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


def _schedule(cb: Codebook, adversary: str, r_prime_m: int | None, reads: int) -> list:
    """A trial's draws in stream order, as (name, range, size), up to the
    whole blocks that hold its first `reads` read positions: the per-trial
    draws, then the per-read draws block by block.  A range is one number,
    one per value, or None for a flag draw (u and psi), whose values are its
    words themselves.  The weak pick's range is the row's candidate count,
    at most k - 1."""
    p = cb.params
    draws = [("message", p.k, 1)]
    if adversary == "weak":
        floyd = np.arange(p.m - r_prime_m, p.m) + 1
        draws += [("floyd", floyd, r_prime_m), ("pick", p.k - 1, 1), ("psi", None, 1)]
    elif adversary == "strong":
        draws += [("psi", None, 1)]
    block = [("f", p.m, BLOCK), ("u", None, BLOCK)]
    if adversary in ("uniform", "uniform-index"):
        block += [("rep_idx", p.m, BLOCK)] * (adversary == "uniform") + [("rep_pay", p.v, BLOCK)]
    return draws + block * -(-reads // BLOCK)


def _place(schedule) -> tuple[list, int]:
    """(placed, raws): the schedule's draws as (name, range, size, raw0),
    each from a fresh raw raw0 on (module docstring), and the raws they
    read."""
    placed, raw = [], 0
    for name, n, size in schedule:
        placed.append((name, n, size, raw))
        raw += -(-size // 2)
    return placed, raw


class _Layout:
    """Where the draws of a trial's first `width` read positions sit in its
    random_raw block (module docstring): the per-trial draws, head, name ->
    (range, size, raw0), then the pass's n_blocks whole blocks from raw
    raw0 on, stride raws a block, whose draws, block, are placed from the
    block's first raw.  The weak adversary's layout also holds r_prime_m,
    its index-set size; the strong one's, the h_m and r_prime_m of its
    screen's S test and witness."""

    def __init__(
        self, cb: Codebook, adversary: str, width: int,
        r_prime_m: int | None = None, h_m: int | None = None,
    ):
        p = cb.params
        self.width = width
        self.noisy = adversary != "honest" and p.p > 0
        self.r_prime, self.h_m = r_prime_m, h_m
        head, self.raw0 = _place(_schedule(cb, adversary, r_prime_m, 0))
        self.head = {name: (n, size, raw0) for name, n, size, raw0 in head}
        block, self.stride = _place(_schedule(cb, adversary, r_prime_m, 1)[len(head):])
        # a row that observes its true row decodes f alone
        self.block = block[: 1 if adversary in BATCH_ADVERSARIES and not self.noisy else None]
        self.n_blocks = -(-width // BLOCK)
        self.n_raw = self.raw0 + self.n_blocks * self.stride
        # bounded values decoded a row: the per-trial draws' and each kept
        # block draw's
        decoded = sum(size for _, n, size, _ in head if n is not None)
        decoded += self.n_blocks * sum(size for _, n, size, _ in self.block if n is not None)
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
        # The raws; per bounded value its uint64 value and one temporary as
        # large; and the 8-byte rows of the blocks' read positions: five in a
        # noisy layout (true ids, the copy of u's words with its flags, the
        # replacement and observed ids), which bound the weak plan's rows
        # too, two in the strong layout (true ids, and the copy of u's
        # words), and only the true ids otherwise.
        rows = 2 if adversary == "strong" else 5 if self.noisy else 1
        self.row_bytes = 8 * self.n_raw + 16 * decoded + 8 * rows * self.n_blocks * BLOCK + extra


def _values(words: np.ndarray, n, size: int, raw0: int) -> np.ndarray:
    """One draw's values from stream words, along the last axis: the size
    words from raw0's low half on, themselves where the range n is None (a
    flag draw) and otherwise their bounded values."""
    words = words[..., 2 * raw0 : 2 * raw0 + size]
    return words if n is None else core.bounded(words, n)


def _draw_columnar(cb, adversary, layout, states, message, obs):
    """Fill message and obs for the trials with these stream states from one
    random_raw block each.  Returns (sent, plan): sent masks the strong rows
    whose plan has a candidate, which _draw_rows sends through
    _observe_trial (module docstring), and is all False for the other
    adversaries; plan is the strong or weak adversary's (m_prime, psi)
    columns, None for the others."""
    p = cb.params
    b = len(states)
    words = core.stream_words(core.trial_raws(states, layout.n_raw))
    sent = np.zeros(b, dtype=bool)
    # the pick's range is per row (_weak_plan)
    drawn = {name: _values(words, *place) for name, place in layout.head.items() if name != "pick"}
    # each per-read draw from a (rows, blocks, words a block) view, cut to
    # the pass's width
    blocks = words[:, 2 * layout.raw0 :].reshape(b, layout.n_blocks, -1)
    for name, n, size, raw0 in layout.block:
        drawn[name] = _values(blocks, n, size, raw0).reshape(b, -1)[:, : layout.width]
    msg, f = drawn["message"], drawn["f"]
    message[:] = msg[:, 0]
    # the true rows, which the adversary then changes where it errs
    obs[:] = true_ids = cb.word_ids[msg, f]
    if adversary == "strong":
        # the rows whose plan has a candidate (module docstring)
        psi = _below(drawn["psi"][:, 0], p.p)
        part = s_membership(f, layout.h_m, p.dm, layout.r_prime)
        errs = _below(drawn["u"][:, : layout.h_m], p.p)
        rows = np.flatnonzero(channel.strong_premise(part, psi, errs))
        sent[rows] = agreeing(cb, msg[rows, 0], f[rows, : layout.h_m], part.t1[rows]).any(axis=1)
        return sent, (np.full(b, -1), psi)
    if adversary == "weak":
        # channel.observe_weak on the rows whose plan is active
        _, m_prime, psi = _weak_plan(cb, layout, words, drawn)
        active = np.flatnonzero(psi & (m_prime >= 0))
        if active.size:
            flags = _below(drawn["u"][active], p.p)
            swap = cb.word_ids[m_prime[active, None], f[active]]
            obs[active] = np.where(flags, swap, obs[active])
        return sent, (m_prime, psi)
    if layout.noisy:
        flags = _below(drawn["u"], p.p)
        rep_idx = drawn.get("rep_idx", f)
        obs[:] = channel.observe_uniform(true_ids, flags, rep_idx * p.v + drawn["rep_pay"])
    return sent, None


def _weak_plan(cb, layout, words, drawn):
    """(index_set, m_prime, psi) of the rows of one raw block, as
    channel.weak_prepare draws them: index_set a rows x r_prime_m sorted
    array, m_prime -1 where there is no candidate.  words are the block's
    stream words; drawn holds the message, the Floyd values and psi's
    word."""
    p = cb.params
    b, r = len(words), layout.r_prime
    rows = np.arange(b)
    # Floyd's sample: j itself where the value of range j + 1 is already in it
    seen = np.zeros((b, p.m), dtype=bool)
    for j, value in zip(range(p.m - r, p.m), drawn["floyd"].T):
        value = np.where(seen[rows, value], j, value)
        seen[rows, value] = True
    index_set = np.nonzero(seen)[1].reshape(b, r)
    agree = agreeing(cb, drawn["message"][:, 0], index_set)
    n_cands = agree.sum(axis=1)
    # one word of range n_cands on every row: the pick-th candidate
    pick = core.bounded(words[:, 2 * layout.head["pick"][2]], n_cands)
    m_prime = np.where(n_cands > 0, (np.cumsum(agree, axis=1) <= pick[:, None]).sum(axis=1), -1)
    return index_set, m_prime, _below(drawn["psi"][:, 0], p.p)


def _below(words: np.ndarray, p: float) -> np.ndarray:
    """The flags of a flag draw's words: w < p * 2**32 (module docstring)."""
    return words < p * 2.0**32


def _draw_rows(cb, adversary, layout, start, rows, budget):
    """Message, observation table (rows x layout.width) and plan of trials
    start + rows.  plan is the strong or weak adversary's pair of columns,
    m_prime (-1 when none) and psi, None for the others.

    The rows are decoded from their raw blocks in sub-blocks whose
    temporaries fit in budget bytes.  A strong row whose plan has a
    candidate goes through _observe_trial instead, drawn over the layout's
    blocks alone, and so is the first row, to be compared, so that raws or
    a layout that no longer match the per-trial reads fail loudly."""
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
        sent, sub = _draw_columnar(cb, adversary, layout, states[lo:hi], message[lo:hi], obs[lo:hi])
        if sub:
            plan[0][lo:hi], plan[1][lo:hi] = sub
        for r in (np.flatnonzero(sent) + lo).tolist():
            trial = _observe_trial(cb, adversary, start + int(rows[r]), layout.h_m,
                                   layout.r_prime, layout.width)
            message[r] = trial.message
            obs[r] = trial.observed
            plan[0][r], plan[1][r] = _plan_columns(trial.plan)
    first = start + int(rows[0])
    ref = _observe_trial(cb, adversary, first, layout.h_m, layout.r_prime, layout.width)
    if (
        message[0] != ref.message
        or not np.array_equal(obs[0], ref.observed)
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
