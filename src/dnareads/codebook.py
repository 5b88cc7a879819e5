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
    def packed_mismatch(self) -> np.ndarray:
        """(m*v, ceil(k/64)) read-only contradiction bits, built on first use:
        bit c % 64 of word c // 64 of row index*v + payload is set when
        codeword c stores another payload at that index.  The decode kernel's
        contradiction table, at m*v*ceil(k/64)*8 bytes, whose clear bits
        agreeing reads; the per-read decoder reads the rule from word_ids."""
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
# every temporary of its filter and walk (see _greedy_bytes).
_GREEDY_BYTES = 1_000_000


def _greedy_layout(m: int, v: int) -> tuple[np.dtype, int, np.dtype]:
    """(unit dtype, units a word, count dtype): how construct_greedy holds a
    word, for v <= 2 one bit an index in ceil(m/64) uint64 units, else one
    unit an index, the narrowest that holds a payload; and the dtype of an
    agreement count."""
    if v <= 2:
        return np.dtype(np.uint64), -(-m // 64), np.min_scalar_type(m)
    return np.min_scalar_type(v - 1), m, np.min_scalar_type(m)


def _held(cand: np.ndarray, v: int) -> np.ndarray:
    """The (n, m) payload rows as construct_greedy holds them, one word a
    column of _greedy_layout's units, with a bit string's padding clear."""
    unit, units, _ = _greedy_layout(cand.shape[1], v)
    if v > 2:
        return np.ascontiguousarray(cand.astype(unit).T)
    bits = np.packbits(cand, axis=1, bitorder="little")
    padded = np.zeros((len(cand), 8 * units), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return np.ascontiguousarray(padded.view(np.uint64).T)


def _agreements(rows: np.ndarray, cols: np.ndarray, m: int, v: int) -> np.ndarray:
    """(n, a) counts of the indices where each of the n held words rows
    agrees with each of the a held words cols: the payloads compared, or for
    v <= 2 m less the popcount of the words' XOR, a unit at a time or a
    column at a time, whichever takes fewer steps."""
    # per unit: whether the payloads agree, or how many bits differ
    per_unit = np.equal if v > 2 else lambda x, y: np.bitwise_count(x ^ y)
    counts = np.zeros((rows.shape[1], cols.shape[1]), dtype=_greedy_layout(m, v)[2])
    if len(rows) <= cols.shape[1]:
        for x, y in zip(rows, cols):
            counts += per_unit(x[:, None], y)
    else:
        for j, y in enumerate(cols.T):
            counts[:, j] = per_unit(rows, y[:, None]).sum(axis=0, dtype=counts.dtype)
    return counts if v > 2 else np.subtract(m, counts, out=counts)


def _greedy_bytes(m: int, k: int, v: int) -> tuple[int, int, int]:
    """(fixed, per candidate, per pair) bytes construct_greedy holds, a pair
    being a candidate of a block and one of the chunk of words, accepted or
    surviving, it is counted against.
    Fixed: the int64 words, the held ones, and numpy's buffers of a broadcast
    compare, 8192 units of each operand.  Per candidate: the int64 draw and
    as much again for packbits' copy of it, its survivor copy or a column
    step's compare; the held row, its transpose and survivor copy; a chunk's
    highest count and its compare; and the filter and alive flags.  Per
    pair: a count and its compare's temporary, a bool or for v <= 2 an XOR
    and its popcount, or at least the clash matrix with triu's mask and
    copy."""
    unit, units, cnt = _greedy_layout(m, v)
    held = unit.itemsize * units
    fixed = 8 * m * k + held * k + 2 * 8192 * unit.itemsize
    row = 17 * m + 3 * held + 2 * cnt.itemsize + 2
    return fixed, row, max(cnt.itemsize + (9 if v <= 2 else 1), 3)


def _greedy_block(m: int, k: int, v: int) -> int:
    """The most candidates per block under _GREEDY_BYTES, at least one, with
    chunks of as many words, or of k if fewer."""
    fixed, row, pair = _greedy_bytes(m, k, v)
    room = max(0, _GREEDY_BYTES - fixed)
    square = (math.isqrt(row * row + 4 * pair * room) - row) // (2 * pair)
    return max(1, square if square <= k else room // (row + k * pair))


def construct_greedy(params: SimParams) -> Codebook:
    """Draw uniform candidates, keep those below the intersection threshold.

    Deterministic given params.seed: candidates come from
    derive_codebook_rng(params.seed), and a candidate is accepted iff its
    intersection with every word accepted before it is below the threshold.
    A run that draws 1000 * k candidates without k words is dropped and the
    next starts from the stream's next candidate, up to _GREEDY_RUNS runs.

    Candidates are drawn in blocks, which equal the one-at-a-time draws: k
    rows first, doubling up to _greedy_block rows, so a small code draws
    little more than it uses.  Words are held as _held gives them, and
    _agreements counts a block's intersections with the words accepted before
    it, and then the pairwise ones of the block's survivors: its clash matrix.
    Both are counted a chunk of min(_greedy_block, k) words at a time.  The walk
    visits, in order, only the survivors that clash with a later one: each
    still alive removes the later ones it clashes with, and the survivors
    left alive are accepted.
    """
    m, k, v = params.m, params.k, params.v
    rng = derive_codebook_rng(params.seed)
    thr = intersection_threshold(params)
    words = np.empty((k, m), dtype=np.int64)
    unit, units, _ = _greedy_layout(m, v)
    held = np.empty((units, k), dtype=unit)
    budget = 1000 * k
    cap = _greedy_block(m, k, v)
    chunk = min(cap, k)
    for _ in range(_GREEDY_RUNS):
        accepted = drawn = 0
        b = min(k, cap)
        while drawn < budget:
            b = min(b, budget - drawn)
            drawn += b
            cand = rng.integers(0, v, size=(b, m))
            rows = _held(cand, v)
            seen, keep = held[:, :accepted], np.ones(b, dtype=bool)
            for lo in range(0, accepted, chunk):
                keep &= _agreements(rows, seen[:, lo : lo + chunk], m, v).max(axis=1) < thr
            cand, rows = cand[keep], rows[:, keep]
            alive = np.ones(len(cand), dtype=bool)
            for lo in range(0, len(cand), chunk):
                clash = np.triu(_agreements(rows[:, lo : lo + chunk], rows[:, lo:], m, v) >= thr, 1)
                for i in np.flatnonzero(clash.any(axis=1)):
                    if alive[lo + i]:
                        alive[lo:] &= ~clash[i]
            new = np.flatnonzero(alive)[: k - accepted]
            words[accepted : accepted + len(new)] = cand[new]
            held[:, accepted : accepted + len(new)] = rows[:, new]
            accepted += len(new)
            if accepted == k:
                return Codebook(params, words)
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


def agreeing(cb: Codebook, messages, indices, skip=None) -> np.ndarray:
    """(rows, k) bool mask: entry [r, c] is set when c is not messages[r] and
    codeword c stores messages[r]'s payload at every index of indices[r]
    whose skip entry, if any, is False, as packed_mismatch's clear bits say."""
    bits = cb.packed_mismatch[cb.word_ids[messages[:, None], indices]]
    if skip is not None:
        bits[skip] = 0
    clash = np.bitwise_or.reduce(bits, axis=1).astype("<u8").view(np.uint8)
    agree = np.unpackbits(clash, axis=1, count=len(cb), bitorder="little") == 0
    agree[np.arange(len(messages)), messages] = False
    return agree


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
