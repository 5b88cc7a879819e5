"""Shared domain types, parameter rules, and the per-trial RNG contract."""

from __future__ import annotations

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
    if trial < 0:
        raise ValueError("trial out of range")
    ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(_TRIAL_DOMAIN, trial))
    return np.random.default_rng(ss)


# Trials below this have a one-word spawn-key trial entry; trial_states
# covers exactly them.
COLUMNAR_TRIALS = 1 << 32

# SeedSequence's hash constants and PCG64's multiplier, as numpy defines them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hashmix(value: np.ndarray, const: list) -> np.ndarray:
    """SeedSequence's hashmix; const holds the running hash constant, which
    every call advances."""
    value = value ^ np.uint32(const[0])
    const[0] = const[0] * _MULT_A & _MASK32
    value = value * np.uint32(const[0])
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def trial_states(seed: int, start: int, count: int) -> np.ndarray:
    """(count, 4) uint64 rows, row r equal to the generate_state(4, uint64)
    of trial start+r's SeedSequence in derive_trial_rng, for trials below
    COLUMNAR_TRIALS.

    The entropy is the run entropy (seed & _MASK64 as two 32-bit words,
    padded with zeros to the pool size of 4) followed by the spawn key
    (0, trial).  Only the last word depends on the trial, so the pool is
    mixed as in SeedSequence with the trial word as a column."""
    if start < 0 or start + count > COLUMNAR_TRIALS:
        raise ValueError("trial out of range")
    s = seed & _MASK64
    # one-element columns for the words every trial shares
    run = np.array([[s & _MASK32], [s >> 32], [0], [0]], dtype=np.uint32)
    trial = np.arange(start, start + count, dtype=np.uint64).astype(np.uint32)
    spawn = (np.array([_TRIAL_DOMAIN], dtype=np.uint32), trial)
    const = [_INIT_A]
    pool = [_hashmix(word, const) for word in run]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for word in spawn:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, const))
    # 8 words from the cycled pool, paired little-endian into 4 uint64s
    out = np.zeros((count, 4), dtype=np.uint64)
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        value = (value ^ (value >> np.uint32(16))).astype(np.uint64)
        out[:, i // 2] |= value << np.uint64(32 * (i % 2))
    return out


def trial_raws(states: np.ndarray, n_raw: int) -> np.ndarray:
    """(len(states), n_raw) uint64: row r is the first n_raw random_raw
    outputs of the PCG64 that derive_trial_rng seeds from states[r].

    PCG64 seeds its 128-bit LCG from a state row as inc = (s2:s3) << 1 | 1,
    state = (inc + (s0:s1)) * MULT + inc; one bit generator is set to each
    row's state in turn."""
    out = np.empty((len(states), n_raw), dtype=np.uint64)
    if n_raw == 0:
        return out
    bg = np.random.PCG64(0)
    lcg = {}
    full = {"bit_generator": "PCG64", "state": lcg, "has_uint32": 0, "uinteger": 0}
    for r, (s0, s1, s2, s3) in enumerate(states.tolist()):
        inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        lcg["inc"] = inc
        lcg["state"] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
        bg.state = full
        out[r] = bg.random_raw(n_raw)
    return out


def raw_words(raws: np.ndarray) -> np.ndarray:
    """The 32-bit words bounded integer draws read from raws, in order: the
    low half of each raw, then its high half.  Shifts, not a byte view, so
    the order holds on any host."""
    words = np.empty(raws.shape[:-1] + (2 * raws.shape[-1],), dtype=np.uint64)
    words[..., 0::2] = raws & np.uint64(_MASK32)
    words[..., 1::2] = raws >> np.uint64(32)
    return words


def bounded(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's bounded integers in [0, n) from 32-bit words, as numpy's
    integers(0, n) makes them for 1 < n < 2**32: value (w * n) >> 32, drawn
    again when the low half of w * n is below (2**32 - n) % n.  Returns the
    values and the mask of words numpy would have rejected; a rejected word
    shifts every later draw of its stream."""
    prod = words * np.uint64(n)
    values = (prod >> np.uint64(32)).view(np.int64)
    threshold = (2**32 - n) % n
    if threshold == 0:
        return values, np.zeros(words.shape, dtype=bool)
    return values, (prod & np.uint64(_MASK32)) < np.uint64(threshold)


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
    or out of its range.
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
        # the default follows from a checked m and is in range
        check_rules(vars(self), PARAM_RULES)
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
# where it means its default.
PARAM_RULES = {
    "m": ("an integer", lambda x, r: x >= 1),
    "k": ("an integer", lambda x, r: x >= 1),
    "v": ("an integer", lambda x, r: x >= 1),
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


@dataclass(frozen=True)
class Molecule:
    """One stored or observed molecule: an (index, payload) pair."""

    index: int
    payload: int

    def id(self, v: int) -> int:
        """Flat id in [0, m*v): index * v + payload."""
        return self.index * v + self.payload


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
class ReadRecord:
    """One read event: what was drawn, whether it was hit, what came out."""

    time: int  # 1-based read position
    sampled: Molecule
    error: bool
    observed: Molecule


@dataclass(frozen=True)
class Trace:
    """Complete record of one trial, sufficient for bit-exact replay."""

    true_message: int
    records: tuple[ReadRecord, ...]
    verdict: Verdict
