"""Greedy outer-codebook construction with a hard pairwise-intersection cap."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import OuterCodeword, SimParams, derive_codebook_rng, validate


@dataclass(frozen=True)
class IndexSet:
    """Subset of index positions [0, m)."""

    indices: frozenset[int]

    @classmethod
    def of(cls, it: Iterable[int]) -> "IndexSet":
        return cls(frozenset(int(i) for i in it))

    def sorted(self) -> list[int]:
        return sorted(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class Codebook:
    """k outer codewords over index space m and payload alphabet v.

    matrix is the (k, m) payload table; row i is codeword i.  Pairwise
    intersections are strictly below ceil(theta * m) by construction.
    """

    params: SimParams
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @cached_property
    def word_ids(self) -> np.ndarray:
        """(k, m) molecule ids: entry [c, i] is index*v + payload of codeword
        c's molecule at index i."""
        p = self.params
        ids = np.arange(p.m, dtype=np.int64) * p.v + self.matrix
        ids.setflags(write=False)
        return ids

    @cached_property
    def mismatch(self) -> np.ndarray:
        """(m*v, k) read-only contradiction table, built on first use.

        mismatch[id, c] is True when codeword c contradicts the molecule with
        id index*v + payload, i.e. stores another payload at that index.  It
        is the one statement of the decoder's outside-count rule; it costs
        m*v*k bytes.
        """
        p = self.params
        table = self.matrix.T[:, None, :] != np.arange(p.v)[:, None]
        table = table.reshape(p.m * p.v, len(self))
        table.setflags(write=False)
        return table

    @cached_property
    def words(self) -> tuple[OuterCodeword, ...]:
        return tuple(OuterCodeword(tuple(int(x) for x in row)) for row in self.matrix)

    def word(self, message: int) -> OuterCodeword:
        return self.words[message]

    def __len__(self) -> int:
        return self.matrix.shape[0]


def intersection_threshold(params: SimParams) -> int:
    """Candidates are accepted iff every pairwise intersection is < this."""
    return math.ceil(params.theta * params.m)


def intersection(a: OuterCodeword, b: OuterCodeword) -> int:
    """Number of index positions where the two codewords store the same payload."""
    if len(a) != len(b):
        raise ValueError("codeword lengths differ")
    return sum(x == y for x, y in zip(a.payloads, b.payloads))


def construct_greedy(params: SimParams, rng: np.random.Generator | None = None) -> Codebook:
    """Draw uniform candidates, keep those below the intersection threshold.

    Deterministic given params.seed when rng is omitted.  Gives up after
    1000 * k candidate draws.
    """
    validate(params)
    if rng is None:
        rng = derive_codebook_rng(params.seed)
    thr = intersection_threshold(params)
    words = np.empty((params.k, params.m), dtype=np.int64)
    accepted = 0
    budget = 1000 * params.k
    for _ in range(budget):
        cand = rng.integers(0, params.v, size=params.m)
        if accepted == 0 or int((words[:accepted] == cand).sum(axis=1).max()) < thr:
            words[accepted] = cand
            accepted += 1
            if accepted == params.k:
                return Codebook(params, words)
    raise RuntimeError(
        f"codebook budget exhausted: accepted {accepted} of {params.k} words "
        f"after {budget} candidates"
    )


def verify_intersections(cb: Codebook) -> int:
    """Exhaustive max pairwise intersection; 0 for fewer than two words."""
    k = len(cb)
    if k < 2:
        return 0
    best = 0
    w = cb.matrix
    for i in range(k - 1):
        best = max(best, int((w[i + 1 :] == w[i]).sum(axis=1).max()))
    return best


def restriction(word: OuterCodeword, index_set: IndexSet) -> tuple[int, ...]:
    """Payloads of the codeword at the given indices, in ascending index order."""
    return tuple(word.payloads[i] for i in index_set.sorted())


def unique_restriction_set(cb: Codebook, index_set: IndexSet) -> set[int]:
    """Messages whose restriction to index_set no other codeword shares."""
    idx = index_set.sorted()
    restr = [tuple(int(x) for x in row) for row in cb.matrix[:, idx]]
    counts = Counter(restr)
    return {i for i, r in enumerate(restr) if counts[r] == 1}


def save_codebook(cb: Codebook, path: str) -> None:
    """Write 'm k v theta seed' header plus one payload row per codeword."""
    p = cb.params
    lines = [f"{p.m} {p.k} {p.v} {p.theta!r} {p.seed}"]
    for row in cb.matrix:
        lines.append(" ".join(str(int(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_codebook(path: str) -> Codebook:
    """Inverse of save_codebook.  Fields absent from the file (p, dm, read_cap)
    come back at inert defaults; construction parameters round-trip exactly."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5:
            raise ValueError("malformed codebook header")
        m, k, v = int(header[0]), int(header[1]), int(header[2])
        theta = float(header[3])
        seed = int(header[4])
        matrix = np.empty((k, m), dtype=np.int64)
        for i in range(k):
            row = fh.readline().split()
            if len(row) != m:
                raise ValueError(f"malformed codebook row {i}")
            matrix[i] = [int(x) for x in row]
    params = SimParams(m=m, k=k, v=v, p=0.0, dm=0, theta=theta, seed=seed)
    cb = Codebook(params, matrix)
    for i, row in enumerate(cb.matrix):
        if not ((0 <= row) & (row < v)).all():
            raise ValueError(f"payload out of range in row {i}")
    return cb
