"""Shared domain types, parameter rules, and the per-trial RNG contract."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF

# Spawn-key domains keep trial streams and the codebook stream disjoint even
# when they share the same user seed.
_TRIAL_DOMAIN = 0
_CODEBOOK_DOMAIN = 1


def derive_trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one Monte Carlo trial.

    Streams for distinct (seed, trial) pairs never collide, and the stream
    for a given pair is identical across runs, platforms, and batch layouts.
    """
    if not 0 <= trial <= _MASK64:
        raise ValueError("trial out of range")
    ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(_TRIAL_DOMAIN, trial))
    return np.random.default_rng(ss)


# SeedSequence's hash constants, as numpy defines them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: np.ndarray, call: int) -> np.ndarray:
    """SeedSequence's call-th hashmix (from 0): XOR in the hash constant
    _INIT_A * _MULT_A**call, then multiply by the next one (mod 2**32)."""
    value = value ^ np.uint32(_INIT_A * pow(_MULT_A, call, 1 << 32) & _MASK32)
    value = value * np.uint32(_INIT_A * pow(_MULT_A, call + 1, 1 << 32) & _MASK32)
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


@functools.lru_cache(maxsize=8)
def _seed_pool(entropy: int) -> tuple:
    """The pool every trial_states row of this run entropy starts from, as
    read-only one-element columns: numpy's own SeedSequence pool for the run
    entropy and the spawn key (_TRIAL_DOMAIN,), which took 20 hashmix calls."""
    pool = np.random.SeedSequence(entropy, spawn_key=(_TRIAL_DOMAIN,)).pool.reshape(4, 1)
    pool.setflags(write=False)
    return tuple(pool)


def trial_states(seed: int, trials: np.ndarray) -> np.ndarray:
    """(len(trials), 4) uint64 rows, row r equal to the generate_state(4,
    uint64) of the SeedSequence derive_trial_rng makes for trial trials[r],
    where trials is a uint64 array of trial indices.

    The entropy is the run entropy (seed & _MASK64), then the spawn key
    (0, trial): the trial's low word, and last its high word if not zero.
    The pool starts from _seed_pool's words and mixes in the trial words
    as columns, as SeedSequence's calls 20-23 (low) and 24-27 (high) do."""
    pool = list(_seed_pool(seed & _MASK64))
    low = trials.astype(np.uint32)
    for dst in range(4):
        pool[dst] = _mix(pool[dst], _hashmix(low, 20 + dst))
    high = (trials >> np.uint64(32)).astype(np.uint32)
    if high.any():
        for dst in range(4):
            pool[dst] = np.where(high != 0, _mix(pool[dst], _hashmix(high, 24 + dst)), pool[dst])
    # 8 words from the cycled pool, paired little-endian into 4 uint64s
    out = np.zeros((len(trials), 4), dtype=np.uint64)
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        value = (value ^ (value >> np.uint32(16))).astype(np.uint64)
        out[:, i // 2] |= value << np.uint64(32 * (i % 2))
    return out


@functools.cache
def _state_row() -> type:
    """An ISeedSequence whose state is one trial_states row, made on first use
    so that importing this module leaves numpy.random unloaded."""

    class StateRow(np.random.bit_generator.ISeedSequence):
        __slots__ = ("row",)

        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words: int, dtype=None) -> np.ndarray:
            return self.row

    return StateRow


# PCG64's 128-bit LCG multiplier as uint64 words, and its low word's 32-bit
# halves for _pcg_step's mulhi (O'Neill, "PCG", HMC-CS-2014-0905).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_MULT_LO0, _MULT_LO1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)

# trial_raws steps the LCG by columns where rows >= _COLUMN_ROWS * n_raw and
# n_raw <= _COLUMN_RAWS.  A column step costs about 20 us of numpy calls plus
# 11 ns a row, against about 2 us a row to build one PCG64 and draw from it
# (2 cores, numpy 2.4.6): columns win from between 256 and 512 rows at 21
# raws, 512 and 1024 at 41, about 1024 at 64 and 2048 at 96 (BENCH_40.json).
_COLUMN_ROWS, _COLUMN_RAWS = 16, 64


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One step of PCG64's LCG, state * MULT + inc mod 2**128, on columns of
    (high, low) uint64 words.  The high word of lo * MULT's low word comes
    from 32-bit halves; every product wraps on uint64 arrays."""
    # with L0, L1 the halves of L = _MULT_LO, mulhi(lo, L) = lo1 * L1 + (t >> 32)
    # + (w >> 32), t = lo1 * L0 + (lo0 * L0 >> 32), w = (t & _MASK32) + lo0 * L1;
    # no sum overflows
    lo0, lo1 = lo & _MASK32, lo >> 32
    t = lo0 * _MULT_LO0
    t >>= 32
    t += lo1 * _MULT_LO0
    w = t & _MASK32
    w += lo0 * _MULT_LO1
    t >>= 32
    w >>= 32
    hi = hi * _MULT_LO
    hi += lo * _MULT_HI
    hi += inc_hi
    hi += lo1 * _MULT_LO1
    hi += t
    hi += w
    lo = lo * _MULT_LO
    lo += inc_lo
    hi += lo < inc_lo
    return hi, lo


def _columns(states: np.ndarray, n_raw: int) -> np.ndarray:
    """trial_raws for every row at once.  PCG64 seeds from a row s as
    inc = (s2:s3 << 1) | 1, state 0, one step, state += s0:s1, one step;
    each raw is then one step and XSL-RR: rotr64(hi ^ lo, hi >> 58)."""
    s0, s1, s2, s3 = states.T
    inc_hi = s2 << 1 | s3 >> 63
    inc_lo = s3 << 1 | 1
    lo = inc_lo + s1
    hi, lo = _pcg_step(inc_hi + s0 + (lo < s1), lo, inc_hi, inc_lo)
    out = np.empty((n_raw, len(states)), dtype=np.uint64)
    for j in range(n_raw):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        out[j] = x >> rot | x << (64 - rot & 63)
    return np.ascontiguousarray(out.T)


def _per_row(states: np.ndarray, n_raw: int) -> np.ndarray:
    """trial_raws one row at a time: numpy's PCG64 seeds itself from each
    row, through one StateRow that every row reuses."""
    out = np.empty((len(states), n_raw), dtype=np.uint64)
    seq, pcg64 = _state_row()(None), np.random.PCG64
    for r, row in enumerate(states):
        seq.row = row
        out[r] = pcg64(seq).random_raw(n_raw)
    return out


def _by_columns(rows: int, n_raw: int) -> bool:
    """Whether trial_raws steps this shape by columns, where it is cheaper."""
    return n_raw <= _COLUMN_RAWS and rows >= _COLUMN_ROWS * n_raw


def trial_raws(states: np.ndarray, n_raw: int) -> np.ndarray:
    """(len(states), n_raw) uint64: row r is the first n_raw random_raw
    outputs of the PCG64 that derive_trial_rng seeds, which seeds itself
    from states[r].  A block of many short rows (_by_columns) steps
    PCG64's LCG for every row at once; the others build numpy's PCG64 row
    by row."""
    return (_columns if _by_columns(len(states), n_raw) else _per_row)(states, n_raw)


def stream_words(raws: np.ndarray) -> np.ndarray:
    """The 32-bit words bounded integer draws read from raws, in stream
    order: the low half of each raw, then its high half.  The view is of
    explicitly little-endian raws, so the low half comes first on any host,
    and on a little-endian host it copies nothing."""
    return raws.astype("<u8", copy=False).view("<u4")


def bounded(words: np.ndarray, n) -> np.ndarray:
    """Bounded integers in [0, n) from uint32 words, by the draw rule's
    multiply-shift: value (w * n) >> 32, with no rejection (README
    "Determinism").  words may be a view, a slice of the stream words say.
    n is one range, or an array of ranges that broadcasts against words,
    one per word column say; a range of 1 or 0 gives 0."""
    value = words.astype(np.uint64)
    value *= np.uint64(n)
    value >>= np.uint64(32)
    return value.view(np.int64)


class TrialStream:
    """A trial's draws read in order from its PCG64 raws by the draw rule
    (README "Determinism"): each draw starts at a fresh raw; a bounded draw
    of s values reads the 32-bit words of the next ceil(s/2) raws, low half
    first, as (w * n) >> 32; random() reads one whole raw a value.  It takes
    numpy Generator's arguments, for a range from 0, and splits and scales
    its words itself, apart from the batch engine's stream_words and
    bounded."""

    def __init__(self, rng: np.random.Generator):
        self._raw = rng.bit_generator.random_raw

    def integers(self, n, size=None):
        """size values in [0, n), one per range if n is an array; one value
        when both are scalars."""
        count = np.size(n) if size is None else size
        raws = self._raw(-(-count // 2))
        words = np.column_stack((raws & _MASK32, raws >> 32)).ravel()[:count]
        values = (words * np.asarray(n, dtype=np.uint64) >> 32).astype(np.int64)
        return values[0] if size is None and np.ndim(n) == 0 else values

    def random(self, size=None):
        """size uniforms in [0, 1), (raw >> 11) * 2**-53; one when size is None."""
        values = (self._raw(1 if size is None else size) >> 11) * 2.0**-53
        return values[0] if size is None else values


def derive_codebook_rng(seed: int) -> np.random.Generator:
    """Stream used for codebook construction; disjoint from all trial streams."""
    ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(_CODEBOOK_DOMAIN, 0))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class SimParams:
    """Parameters of one simulated system.

    m       molecules per codeword (index space size)
    k       number of messages in the outer codebook
    v       payload alphabet size per index
    p       per-read corruption probability
    dm      decoder slack: tolerated count of distinct foreign molecules
    theta   pairwise-intersection budget fraction for codebook construction
    read_cap  truncation horizon in reads; defaults to 50 * m
    seed    master seed for codebook construction and trial streams

    Building one, directly or by dataclasses.replace, checks every field
    against PARAM_RULES: a ValueError names the first one not of its kind
    or out of its range.  A numpy scalar is kept as a Python number, which
    seeds the streams and saves as such.
    """

    m: int
    k: int
    v: int
    p: float = 0.0
    dm: int = 0
    theta: float = 0.5
    read_cap: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_rules(vars(self), PARAM_RULES)
        for name, x in vars(self).copy().items():
            object.__setattr__(self, name, x if x is None else int(x) if _is_int(x) else float(x))
        # the default follows from a checked m and is in range
        if self.read_cap is None:
            object.__setattr__(self, "read_cap", 50 * self.m)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


_KINDS = {
    "an integer": _is_int,
    "an integer or null": lambda x: x is None or _is_int(x),
    "a number": lambda x: _is_int(x) or isinstance(x, (float, np.floating)),
    "a string": lambda x: isinstance(x, str),
    "a string or null": lambda x: x is None or isinstance(x, str),
}

# field: (kind, range test on the value and the whole record); the tests are
# written so that NaN fails them.  read_cap may be null in a config file,
# where it means its default.  m, k and v are ranges of bounded draws, which
# the batch engine reads as 32-bit words.
PARAM_RULES = {
    "m": ("an integer", lambda x, r: 1 <= x <= _MASK32),
    "k": ("an integer", lambda x, r: 1 <= x <= _MASK32),
    "v": ("an integer", lambda x, r: 1 <= x <= _MASK32),
    "p": ("a number", lambda x, r: 0.0 <= x <= 1.0),
    "dm": ("an integer", lambda x, r: 0 <= x <= r["m"]),
    "theta": ("a number", lambda x, r: 0.0 < x <= 1.0),
    "read_cap": ("an integer or null", lambda x, r: x is None or x >= 1),
    "seed": ("an integer", None),
}


def check_rules(record, rules, ranges: bool = True) -> None:
    """Check every field of the record (a name -> value mapping) that rules
    lists, in the rules' order: a ValueError names the first one not of its
    kind or, when ranges is set, out of its range."""
    for name, (kind, in_range) in rules.items():
        if name not in record:
            continue
        x = record[name]
        if not _KINDS[kind](x):
            raise ValueError(f"{name} must be {kind}, got {x!r}")
        if ranges and in_range is not None and not in_range(x, record):
            raise ValueError(f"{name} out of range")


def parse_field(text: str, where: str, field: str, kind=int):
    """A file's field as kind (int or float), or a one-line ValueError
    "<where>: <field> '<text>' is not an integer" (or "a number")."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: {field} {text!r} is not {noun}") from None


class VerdictKind(Enum):
    """The values are the kind codes of the batch engine and the CSVs."""

    DECIDED = 0
    FAILED = 1
    TRUNCATED = 2


@dataclass(frozen=True)
class Verdict:
    """Terminal outcome of one decoding run.

    n_reads is the number of reads consumed.  decoded is the declared message
    id for DECIDED verdicts and None otherwise.
    """

    kind: VerdictKind
    n_reads: int
    decoded: int | None = None

    @staticmethod
    def decided(message: int, n_reads: int) -> "Verdict":
        return Verdict(VerdictKind.DECIDED, n_reads, message)

    @staticmethod
    def failed(n_reads: int) -> "Verdict":
        return Verdict(VerdictKind.FAILED, n_reads)

    @staticmethod
    def truncated(read_cap: int) -> "Verdict":
        return Verdict(VerdictKind.TRUNCATED, read_cap)


@dataclass(frozen=True)
class Trace:
    """Complete record of one trial: the consumed reads in read order, as the
    sampled and observed molecule ids (index*v + payload) and the error flags;
    decoder.run(cb, observed, len(observed)) gives the same verdict."""

    true_message: int
    sampled: tuple[int, ...]
    errors: tuple[bool, ...]
    observed: tuple[int, ...]
    verdict: Verdict
