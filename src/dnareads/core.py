"""Shared domain types, parameter validation, and the per-trial RNG contract."""

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
    """

    m: int
    k: int
    v: int
    p: float
    dm: int
    theta: float
    read_cap: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.read_cap is None:
            object.__setattr__(self, "read_cap", 50 * self.m)


def validate(params: SimParams) -> SimParams:
    """Range-check every field; raises ValueError naming the offending field."""
    if not isinstance(params.m, (int, np.integer)) or params.m < 1:
        raise ValueError("m out of range")
    if not isinstance(params.k, (int, np.integer)) or params.k < 1:
        raise ValueError("k out of range")
    if not isinstance(params.v, (int, np.integer)) or params.v < 1:
        raise ValueError("v out of range")
    if not (0.0 <= params.p <= 1.0):
        raise ValueError("p out of range")
    if not isinstance(params.dm, (int, np.integer)) or not 0 <= params.dm <= params.m:
        raise ValueError("dm out of range")
    if not (0.0 < params.theta <= 1.0):
        raise ValueError("theta out of range")
    if not isinstance(params.read_cap, (int, np.integer)) or params.read_cap < 1:
        raise ValueError("read_cap out of range")
    return params


def check_fields(keys, allowed=()) -> None:
    """Raise ValueError naming every key that is neither a SimParams field
    nor in allowed."""
    extra = set(keys) - set(SimParams.__dataclass_fields__) - set(allowed)
    if extra:
        raise ValueError(f"unknown parameter fields: {sorted(extra)}")


def params_from_dict(d: dict) -> SimParams:
    check_fields(d)
    return SimParams(**d)


@dataclass(frozen=True)
class Molecule:
    """One stored or observed molecule: an (index, payload) pair."""

    index: int
    payload: int

    def id(self, v: int) -> int:
        """Flat id in [0, m*v): index * v + payload."""
        return self.index * v + self.payload


@dataclass(frozen=True)
class OuterCodeword:
    """Length-m payload assignment; entry j is the payload stored at index j."""

    payloads: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.payloads)


class VerdictKind(Enum):
    DECIDED = "decided"
    FAILED = "failed"
    TRUNCATED = "truncated"


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
