"""Greedy outer-codebook construction with a hard pairwise-intersection cap."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import SimParams, derive_codebook_rng, parse_field


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
        """(m*v, k) read-only bools of packed_mismatch, built on first use:
        mismatch[id, c] is True when codeword c contradicts the molecule with
        id index*v + payload.  The per-read decoder reads it, at m*v*k bytes."""
        packed = self.packed_mismatch.astype("<u8", copy=False).view(np.uint8)
        table = np.unpackbits(packed, axis=1, count=len(self), bitorder="little").view(bool)
        table.setflags(write=False)
        return table

    @cached_property
    def packed_mismatch(self) -> np.ndarray:
        """(m*v, ceil(k/64)) read-only contradiction bits, built on first use:
        bit c % 64 of word c // 64 of row index*v + payload is set when
        codeword c stores another payload at that index.  The one statement of
        the decoder's outside-count rule; m*v*ceil(k/64)*8 bytes."""
        p = self.params
        table = self.matrix.T[:, None, :] != np.arange(p.v)[:, None]
        bits = np.packbits(table, axis=-1, bitorder="little").reshape(p.m * p.v, -1)
        packed = np.zeros((p.m * p.v, -(-len(self) // 64) * 8), dtype=np.uint8)
        packed[:, : bits.shape[1]] = bits
        table = packed.view("<u8").astype(np.uint64, copy=False)
        table.setflags(write=False)
        return table

    def __len__(self) -> int:
        return self.matrix.shape[0]


def intersection_threshold(params: SimParams) -> int:
    """Candidates are accepted iff every pairwise intersection is < this."""
    return math.ceil(params.theta * params.m)


# Runs of construct_greedy's candidate budget before it gives up; a run that
# gets stuck on a maximal code starts over from the stream's next candidates.
_GREEDY_RUNS = 3

# Byte budget of construct_greedy: the words plus one block of candidates and
# every per-candidate temporary (see _greedy_row_bytes).
_GREEDY_BYTES = 1_000_000


def _greedy_dtypes(m: int, v: int) -> tuple[np.dtype, np.dtype]:
    """Narrowest dtypes of a payload and of an intersection count."""
    return np.min_scalar_type(v - 1), np.min_scalar_type(m)


def _greedy_row_bytes(m: int, k: int, v: int) -> int:
    """Bytes construct_greedy holds per candidate of a block: the int64 draw,
    its narrow copy and narrow transpose (m each), the counts against the
    accepted words and one bool compare row (k each) with their max and
    survivor mask, and the walk's narrow survivor row, its bool compare (m),
    count, filter flag and alive flag."""
    pay, cnt = (t.itemsize for t in _greedy_dtypes(m, v))
    return 8 * m + 3 * pay * m + (cnt + 1) * k + m + 2 * cnt + 3


def _greedy_block(m: int, k: int, v: int) -> int:
    """Candidates per block under _GREEDY_BYTES after the int64 words and
    their narrow transpose; at least one."""
    fixed = (8 + _greedy_dtypes(m, v)[0].itemsize) * k * m
    return max(1, (_GREEDY_BYTES - fixed) // _greedy_row_bytes(m, k, v))


def construct_greedy(params: SimParams) -> Codebook:
    """Draw uniform candidates, keep those below the intersection threshold.

    Deterministic given params.seed: candidates come from
    derive_codebook_rng(params.seed), and a candidate is accepted iff its
    intersection with every word accepted before it is below the threshold.
    A run that draws 1000 * k candidates without k words is dropped and the
    next starts from the stream's next candidate, up to _GREEDY_RUNS runs.

    Candidates are drawn in blocks, which equal the one-at-a-time draws: k
    rows first, doubling up to _greedy_block rows, so a small code draws
    little more than it uses.  Each block's intersections with the words
    accepted before it are counted in one pass over the m index positions.
    The survivors are then walked in order: the first is accepted and the
    later ones are filtered against it alone.
    """
    m, k, v = params.m, params.k, params.v
    pay, cnt = _greedy_dtypes(m, v)
    rng = derive_codebook_rng(params.seed)
    thr = intersection_threshold(params)
    words = np.empty((k, m), dtype=np.int64)
    words_t = np.empty((m, k), dtype=pay)
    budget = 1000 * k
    cap = _greedy_block(m, k, v)
    for _ in range(_GREEDY_RUNS):
        accepted = drawn = 0
        b = min(k, cap)
        while drawn < budget:
            b = min(b, budget - drawn)
            drawn += b
            cand = rng.integers(0, v, size=(b, m)).astype(pay)
            if accepted:
                cols = np.ascontiguousarray(cand.T)
                counts = np.zeros((b, accepted), dtype=cnt)
                for i in range(m):
                    counts += cols[i][:, None] == words_t[i, :accepted]
                cand = cand[counts.max(axis=1) < thr]
            alive = np.ones(len(cand), dtype=bool)
            for i in range(len(cand)):
                if not alive[i]:
                    continue
                words[accepted] = words_t[:, accepted] = cand[i]
                accepted += 1
                if accepted == k:
                    return Codebook(params, words)
                alive[i + 1 :] &= (cand[i + 1 :] == cand[i]).sum(axis=1, dtype=cnt) < thr
            b = min(2 * b, cap)
    raise RuntimeError(
        f"codebook budget exhausted: accepted {accepted} of {k} words "
        f"after {_GREEDY_RUNS} runs of {budget} candidates"
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


def agreeing(cb: Codebook, m: int, indices) -> list[int]:
    """Sorted ids of the messages other than m whose codewords store m's
    payload at every index in indices (repeats are harmless): the messages
    an impersonator can swap in for m without touching those indices."""
    w = cb.matrix
    agree = (w[:, indices] == w[m, indices]).all(axis=1)
    agree[m] = False
    return np.flatnonzero(agree).tolist()


def save_codebook(cb: Codebook, path: str) -> None:
    """Write 'm k v theta seed' header plus one payload row per codeword."""
    p = cb.params
    lines = [f"{p.m} {p.k} {p.v} {p.theta!r} {p.seed}"]
    for row in cb.matrix:
        lines.append(" ".join(str(int(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_codebook(path: str, params: SimParams) -> Codebook:
    """Inverse of save_codebook: the book the file holds, run at params.
    Raises a one-line ValueError "codebook <path> line <n>: ..." for a
    malformed header or row, a non-numeric value, a payload out of range or
    a row past the header's k (a file that ends early names the line after
    its last), and one naming the first of the header's m, k, v, theta and
    seed that differs from params, since the file does not hold the run
    parameters (p, dm, read_cap)."""
    with open(path) as fh:
        numbered = list(enumerate(fh, 1))
    # the end of the file, as a line with no fields
    lines = [(no, ln.split()) for no, ln in numbered if ln.strip()] + [(len(numbered) + 1, [])]
    where = f"codebook {path} line {lines[0][0]}"
    if len(lines[0][1]) != 5:
        raise ValueError(f"{where}: malformed header, want m k v theta seed")
    stored = {
        field: parse_field(x, where, field, float if field == "theta" else int)
        for field, x in zip(("m", "k", "v", "theta", "seed"), lines[0][1])
    }
    for field, x in stored.items():
        ran = getattr(params, field)
        if x != ran:
            raise ValueError(f"codebook {path}: {field} {x!r}, but the run has {ran!r}")
    m, k, v = params.m, params.k, params.v
    if len(lines) > k + 2:
        raise ValueError(f"codebook {path} line {lines[k + 1][0]}: row past k = {k}")
    matrix = np.empty((k, m), dtype=np.int64)
    for i, (no, row) in enumerate(lines[1 : k + 1]):
        where = f"codebook {path} line {no}"
        if len(row) != m:
            raise ValueError(f"{where}: malformed row, want m = {m} payloads, got {len(row)}")
        payloads = [parse_field(x, where, "payload") for x in row]
        if not all(0 <= x < v for x in payloads):
            raise ValueError(f"{where}: payload out of range [0, {v})")
        matrix[i] = payloads
    return Codebook(params, matrix)
