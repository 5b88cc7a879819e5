"""Shared domain types, parameter rules, and the per-trial RNG contract."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

_MASK64 = (1 << 64) - 1

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
_MASK32 = 0xFFFFFFFF


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


def trial_raws(states: np.ndarray, n_raw: int) -> np.ndarray:
    """(len(states), n_raw) uint64: row r is the first n_raw random_raw
    outputs of the PCG64 that derive_trial_rng seeds, which PCG64 seeds
    itself from states[r], through one StateRow that each row reuses."""
    out = np.empty((len(states), n_raw), dtype=np.uint64)
    seq, pcg64 = _state_row()(None), np.random.PCG64
    for r, row in enumerate(states):
        seq.row = row
        out[r] = pcg64(seq).random_raw(n_raw)
    return out


def stream_words(raws: np.ndarray) -> np.ndarray:
    """The 32-bit words bounded integer draws read from raws, in stream
    order: the low half of each raw, then its high half.  The view is of
    explicitly little-endian raws, so the low half comes first on any host,
    and on a little-endian host it copies nothing."""
    return raws.astype("<u8", copy=False).view("<u4")


def bounded(words: np.ndarray, n) -> np.ndarray:
    """Lemire's bounded integers in [0, n) from uint32 words, as numpy's
    integers(0, n) makes them for 1 < n < 2**32: value (w * n) >> 32, for
    the words rejected() passes.  words may be a view, a slice of the stream
    words say.  n is one range, or an array of ranges that broadcasts
    against words, one per word column say.  (A range of 1 reads no word:
    numpy draws nothing for it.)"""
    value = words.astype(np.uint64)
    value *= np.uint64(n)
    value >>= np.uint64(32)
    return value.view(np.int64)


def rejected(words: np.ndarray, n, columns) -> np.ndarray:
    """Mask of the rows where numpy's integers(0, n) would have drawn again on
    one of the given word columns, a slice or an index array of words' last
    axis (a row may hold several blocks of words): the low half of w * n, a
    wrapping uint32 product, is below (2**32 - n) % n.  A rejected word
    shifts every later draw of its stream.  n is one range, or an array of
    ranges that broadcasts against words[..., columns]: one per column, or
    one per row as a column vector.  A power of two or 1 never rejects, and
    when no range can, no word is read."""
    if isinstance(n, np.ndarray):
        threshold = (2**32 - n.astype(np.int64)) % n
        rejects = threshold.any()
    else:
        n = int(n)
        threshold = rejects = (2**32 - n) % n
    if not rejects:
        return np.zeros(len(words), dtype=bool)
    flagged = words[..., columns] * np.uint32(n) < np.uint32(threshold)
    return flagged.reshape(len(words), -1).any(axis=1)


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
