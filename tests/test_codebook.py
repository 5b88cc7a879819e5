import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dnareads import SimParams, codebook
from dnareads.codebook import (
    Codebook,
    agreeing,
    construct_greedy,
    intersection_threshold,
    load_codebook,
    save_codebook,
    verify_intersections,
)
from dnareads.core import derive_codebook_rng


def sequential_greedy(params, runs=3):
    """The one-candidate-at-a-time construction: the oracle of the block
    construction, draw for draw.  Each of the runs starts over from the
    stream's next candidate."""
    rng = derive_codebook_rng(params.seed)
    thr = intersection_threshold(params)
    words = np.empty((params.k, params.m), dtype=np.int64)
    budget = 1000 * params.k
    for _ in range(runs):
        accepted = 0
        for _ in range(budget):
            cand = rng.integers(0, params.v, size=params.m)
            if accepted == 0 or int((words[:accepted] == cand).sum(axis=1).max()) < thr:
                words[accepted] = cand
                accepted += 1
                if accepted == params.k:
                    return words
    raise RuntimeError(
        f"codebook budget exhausted: accepted {accepted} of {params.k} words "
        f"after {runs} runs of {budget} candidates"
    )


UNIFORM_SWEEP_CODE = dict(m=20, k=64, v=8, dm=1, theta=0.25)
DECODE_WIDE_CODE = dict(m=64, k=1024, v=2, dm=3, theta=0.7)
CONVERSE_CODE = dict(m=10, k=16, v=2, dm=2, theta=0.7)


def test_intersection_examples(literal_codebook):
    a = [0, 1, 2, 3]
    assert verify_intersections(literal_codebook([a, a], dm=0)) == 4
    assert verify_intersections(literal_codebook([a, [1, 2, 3, 0]], dm=0)) == 0
    assert verify_intersections(literal_codebook([a, [0, 1, 3, 2]], dm=0)) == 2


def test_intersection_threshold_ceiling():
    assert intersection_threshold(SimParams(m=10, k=2, v=2, p=0, dm=0, theta=0.25)) == 3
    assert intersection_threshold(SimParams(m=8, k=2, v=2, p=0, dm=0, theta=0.75)) == 6


def test_construct_deterministic():
    params = SimParams(m=12, k=8, v=4, p=0.0, dm=1, theta=0.5, seed=4)
    a = construct_greedy(params)
    b = construct_greedy(params)
    assert np.array_equal(a.matrix, b.matrix)
    # the book is the sequential draw from derive_codebook_rng(seed)
    assert np.array_equal(a.matrix, sequential_greedy(params))


@pytest.mark.parametrize(
    "code, seed",
    [
        (UNIFORM_SWEEP_CODE, 1000),
        (UNIFORM_SWEEP_CODE, 1001),
        (UNIFORM_SWEEP_CODE, 7),
        (DECODE_WIDE_CODE, 1000),
        (dict(m=7, k=20, v=3, dm=1, theta=0.5), 2),
        # bit strings that end inside, at and past a 64-bit word boundary,
        # at thresholds that reject candidates and clash within blocks
        (dict(m=63, k=40, v=2, dm=1, theta=0.6), 3),
        (dict(m=64, k=40, v=2, dm=1, theta=0.6), 4),
        (dict(m=65, k=40, v=2, dm=1, theta=0.6), 5),
        (dict(m=130, k=40, v=2, dm=1, theta=0.58), 6),
        (dict(m=5, k=1, v=1, dm=0, theta=0.5), 7),
        # a block of more survivors than k, walked a chunk of k at a time,
        # whose first chunk keeps too few of them alive
        (dict(m=9, k=6, v=3, dm=0, theta=0.4), 90),
    ],
    ids=[
        "uniform-sweep-1000", "uniform-sweep-1001", "uniform-sweep-7", "decode-wide", "odd-m",
        "binary-m63", "binary-m64", "binary-m65", "binary-m130", "unary", "chunked-walk",
    ],
)
def test_construct_matches_sequential(code, seed):
    params = SimParams(p=0.0, seed=seed, **code)
    assert np.array_equal(construct_greedy(params).matrix, sequential_greedy(params))


def test_stuck_first_run_is_started_over():
    # The converse code at seed 11 gets stuck on a maximal code of 15 words
    # in its first run; the second run builds all 16.
    params = SimParams(p=0.0, seed=11, **CONVERSE_CODE)
    with pytest.raises(RuntimeError, match="accepted 15 of 16 words after 1 runs"):
        sequential_greedy(params, runs=1)
    cb = construct_greedy(params)
    assert np.array_equal(cb.matrix, sequential_greedy(params))
    assert verify_intersections(cb) < intersection_threshold(params)


def test_construct_matches_sequential_across_capped_block(monkeypatch):
    # The second word must be the first one's complement.  Blocks of 2, 4,
    # ..., 512, 600 draw 1622 of the 2000 candidates, and the last block is
    # capped at 378.  Seed 14 accepts its second word at draw 1777, inside
    # that block.  Seed 47 would accept it at draw 2055, past the budget, so
    # its first run gives up.  Both constructions build the same words in the
    # second run, which starts at draw 2001, and, held to one run, give up
    # with the same message.
    monkeypatch.setattr(codebook, "_greedy_block", lambda m, k, v: 600)
    code = dict(m=10, k=2, v=2, p=0.0, dm=0, theta=0.1)
    for seed in (14, 47):
        params = SimParams(seed=seed, **code)
        assert np.array_equal(construct_greedy(params).matrix, sequential_greedy(params))
    monkeypatch.setattr(codebook, "_GREEDY_RUNS", 1)
    with pytest.raises(RuntimeError) as want:
        sequential_greedy(params, runs=1)
    with pytest.raises(RuntimeError) as got:
        construct_greedy(params)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "code",
    [
        DECODE_WIDE_CODE,
        dict(m=64, k=24, v=300, dm=0, theta=0.015),
        # blocks run at the cap and nearly every candidate survives, so the
        # survivors' clash matrix is the largest term of a block
        dict(m=64, k=512, v=2, dm=3, theta=0.7),
    ],
    ids=["decode-wide", "wide-alphabet", "binary-clash-matrix"],
)
def test_construct_memory_stays_within_budget(code):
    params = SimParams(p=0.0, seed=1, **code)
    construct_greedy(replace(params, k=2))  # warm imports
    tracemalloc.start()
    try:
        construct_greedy(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the byte cap binds: without it the blocks would grow to 1000*k rows
    assert codebook._greedy_block(params.m, params.k, params.v) < 1000 * params.k
    assert peak <= 1.25 * codebook._GREEDY_BYTES


def test_construct_respects_threshold():
    for seed in range(4):
        params = SimParams(m=16, k=12, v=2, p=0.0, dm=2, theta=0.75, seed=seed)
        cb = construct_greedy(params)
        assert verify_intersections(cb) < intersection_threshold(params)
        assert cb.matrix.shape == (12, 16)
        assert cb.matrix.min() >= 0 and cb.matrix.max() < 2


def test_construct_budget_exhausted(monkeypatch):
    # v=1 admits one distinct word; binary length-4 words at distance >= 3
    # admit two.  Both constructions give up with the same message, also in
    # blocks of at most 7, which do not fill the budget exactly, so the last
    # one is capped.
    for code in (dict(m=4, k=2, v=1), dict(m=4, k=3, v=2)):
        params = SimParams(p=0.0, dm=0, theta=0.5, seed=0, **code)
        with pytest.raises(RuntimeError, match="budget exhausted") as want:
            sequential_greedy(params)
        for block in (codebook._greedy_block(params.m, params.k, params.v), 7):
            monkeypatch.setattr(codebook, "_greedy_block", lambda m, k, v: block)
            with pytest.raises(RuntimeError) as got:
                construct_greedy(params)
            assert str(got.value) == str(want.value)


def test_single_word_book():
    params = SimParams(m=6, k=1, v=2, p=0.0, dm=0, theta=0.5, seed=0)
    cb = construct_greedy(params)
    assert len(cb) == 1
    assert verify_intersections(cb) == 0
    assert np.array_equal(cb.matrix, sequential_greedy(params))


def test_matrix_read_only():
    params = SimParams(m=6, k=3, v=4, p=0.0, dm=0, theta=0.5, seed=0)
    cb = construct_greedy(params)
    with pytest.raises(ValueError):
        cb.matrix[0, 0] = 99


def test_verify_intersections_hand_instance(literal_codebook):
    cb = literal_codebook([[0, 1, 2], [0, 2, 2], [1, 1, 1]], dm=0)
    assert verify_intersections(cb) == 2


def test_words_match_matrix(small_codebook):
    # word_ids[c, i] is the id index*v + payload of codeword c's molecule at i
    p = small_codebook.params
    ids = small_codebook.word_ids
    assert ids.shape == (p.k, p.m)
    assert np.array_equal(ids[3] // p.v, np.arange(p.m))
    assert np.array_equal(ids[3] % p.v, small_codebook.matrix[3])


def _agreeing_ids(cb, messages, indices, skip=None) -> list[list[int]]:
    """agreeing's mask as each row's sorted message ids."""
    return [np.flatnonzero(row).tolist() for row in agreeing(cb, messages, indices, skip)]


def test_agreeing_hand_instance(literal_codebook):
    cb = literal_codebook([[0, 0, 1], [0, 1, 1], [0, 0, 2]], dm=0)
    rows = np.arange(3)
    # on index 0 all words agree; on {1,2} each is distinct
    assert _agreeing_ids(cb, rows, np.zeros((3, 1), dtype=int)) == [[1, 2], [0, 2], [0, 1]]
    assert _agreeing_ids(cb, rows, np.tile([2, 1], (3, 1))) == [[], [], []]
    # index 2 alone: word 0 and 1 share payload 1, word 2 is alone; repeats
    # change nothing
    assert _agreeing_ids(cb, rows, np.full((3, 2), 2)) == [[1], [0], []]
    # skipping index 2 leaves index 1, where words 0 and 2 share payload 0
    skip = np.tile([True, False], (3, 1))
    assert _agreeing_ids(cb, rows, np.tile([2, 1], (3, 1)), skip) == [[2], [], [0]]


def test_agreeing_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = int(rng.integers(2, 12))
        m = int(rng.integers(2, 8))
        v = int(rng.integers(2, 4))
        params = SimParams(m=m, k=k, v=v, p=0.0, dm=0, theta=1.0, seed=0)
        cb = Codebook(params, rng.integers(0, v, size=(k, m)))
        size = int(rng.integers(0, m + 1))
        iset = rng.choice(m, size=size, replace=False)
        restr = [tuple(row[sorted(iset)]) for row in cb.matrix]
        # one block: every message against the same index set
        got = _agreeing_ids(cb, np.arange(k), np.tile(iset, (k, 1)))
        for i in range(k):
            brute = [j for j in range(k) if j != i and restr[j] == restr[i]]
            assert got[i] == brute
        # at most one message per restriction value agrees with no other
        unique = [i for i in range(k) if not got[i]]
        assert len(unique) <= v ** len(iset)


def test_agreeing_skip_brute_force():
    # each row its own message, index sequence (repeats and all) and skip
    # mask: a skipped entry drops out of that row's test
    rng = np.random.default_rng(1)
    for _ in range(30):
        k = int(rng.integers(2, 12))
        m = int(rng.integers(2, 8))
        v = int(rng.integers(2, 4))
        n = int(rng.integers(0, 10))
        params = SimParams(m=m, k=k, v=v, p=0.0, dm=0, theta=1.0, seed=0)
        cb = Codebook(params, rng.integers(0, v, size=(k, m)))
        rows = int(rng.integers(1, 8))
        messages = rng.integers(0, k, size=rows)
        indices = rng.integers(0, m, size=(rows, n))
        skip = rng.random((rows, n)) < 0.4
        got = _agreeing_ids(cb, messages, indices, skip)
        for r, a in enumerate(messages):
            kept = indices[r][~skip[r]]
            restr = cb.matrix[:, kept]
            brute = [j for j in range(k) if j != a and (restr[j] == restr[a]).all()]
            assert got[r] == brute
        # no skip is a skip mask of False everywhere
        assert _agreeing_ids(cb, messages, indices) == _agreeing_ids(
            cb, messages, indices, np.zeros((rows, n), dtype=bool)
        )


def test_empty_restriction_never_unique(small_codebook):
    # on no indices every other message agrees, so none is unique once k >= 2
    k = len(small_codebook)
    got = _agreeing_ids(small_codebook, np.arange(k), np.zeros((k, 0), dtype=int))
    assert got == [[j for j in range(k) if j != i] for i in range(k)]


def test_numpy_scalar_params_build_and_save_the_same_book(tmp_path):
    # numpy scalars pass PARAM_RULES; SimParams keeps Python numbers, so the
    # codebook stream seeds from them and the saved header reads back
    plain = SimParams(m=8, k=4, v=4, p=0.25, dm=1, theta=0.5, read_cap=100, seed=3)
    scalars = SimParams(
        m=np.int64(8), k=np.int32(4), v=np.uint8(4), p=np.float64(0.25), dm=np.int16(1),
        theta=np.float64(0.5), read_cap=np.uint64(100), seed=np.int64(3),
    )
    assert [type(x) for x in vars(scalars).values()] == [type(x) for x in vars(plain).values()]
    cb = construct_greedy(scalars)
    assert np.array_equal(cb.matrix, construct_greedy(plain).matrix)
    paths = tmp_path / "scalars.txt", tmp_path / "plain.txt"
    save_codebook(cb, str(paths[0]))
    save_codebook(construct_greedy(plain), str(paths[1]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert np.array_equal(load_codebook(str(paths[0]), scalars).matrix, cb.matrix)


def test_save_load_round_trip(tmp_path, small_codebook):
    path = tmp_path / "book.txt"
    save_codebook(small_codebook, str(path))
    back = load_codebook(str(path), small_codebook.params)
    assert np.array_equal(back.matrix, small_codebook.matrix)
    assert back.params == small_codebook.params
    # second save of the loaded book is byte-identical
    path2 = tmp_path / "book2.txt"
    save_codebook(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_malformed(tmp_path):
    params = SimParams(m=2, k=1, v=2, theta=0.5, seed=0)
    bad = tmp_path / "bad.txt"
    # every error names the file and its line; a file that ends early names
    # the line after its last
    for text, message in (
        ("1 2 3\n", "line 1: malformed header, want m k v theta seed"),
        ("", "line 1: malformed header, want m k v theta seed"),
        ("\n\n2 1 2 0.5\n", "line 3: malformed header, want m k v theta seed"),
        ("2 1 2 0.5 0\n0 1 1\n", "line 2: malformed row, want m = 2 payloads, got 3"),
        ("2 1 2 0.5 0\n\n", "line 3: malformed row, want m = 2 payloads, got 0"),
        ("2 1 2 0.5 0\n0 7\n", "line 2: payload out of range [0, 2)"),
        ("2 1 2 0.5 0\n-1 0\n", "line 2: payload out of range [0, 2)"),
        ("2 1 2 0.5 0\n0 99999999999999999999\n", "line 2: payload out of range [0, 2)"),
        ("2 1 x 0.5 0\n0 1\n", "line 1: v 'x' is not an integer"),
        ("2 1 2 half 0\n0 1\n", "line 1: theta 'half' is not a number"),
        ("2 1 2 0.5 0\n0 z\n", "line 2: payload 'z' is not an integer"),
        ("2 1 2 0.5 0\n0 1\n1 0\n", "line 3: row past k = 1"),
    ):
        bad.write_text(text)
        with pytest.raises(ValueError) as info:
            load_codebook(str(bad), params)
        assert str(info.value) == f"codebook {bad} {message}"


def test_load_rejects_code_parameters_of_another_run(tmp_path, small_codebook):
    path = tmp_path / "book.txt"
    save_codebook(small_codebook, str(path))
    params = small_codebook.params
    for field, other in (("k", params.k + 1), ("theta", params.theta / 2), ("seed", 99)):
        with pytest.raises(ValueError, match=f"^codebook .*: {field} ") as info:
            load_codebook(str(path), replace(params, **{field: other}))
        assert "\n" not in str(info.value)
    # the run parameters come from params, not from the file
    run = replace(params, p=0.2, dm=params.dm + 1, read_cap=7)
    assert load_codebook(str(path), run).params == run
    # and are checked as params is built, before the file is read
    for field, bad in (("dm", -1), ("dm", params.m + 1), ("p", 1.5), ("read_cap", 0)):
        with pytest.raises(ValueError, match=f"^{field} out of range$"):
            load_codebook(str(path), replace(params, **{field: bad}))


def test_greedy_stopping_feasible(small_params):
    # accepted intersections stay low enough that elimination is possible:
    # every pair differs in at least dm+1 positions
    cb = construct_greedy(small_params)
    thr = intersection_threshold(small_params)
    assert thr <= small_params.m - small_params.dm
    assert small_params.m - verify_intersections(cb) >= small_params.dm + 1


@pytest.mark.parametrize("k", [1, 63, 64, 65, 130])
def test_contradiction_tables_state_the_rule(k):
    # row index*v + a of packed_mismatch marks the codewords that store
    # another payload than a at that index, codeword c at bit c % 64 of word
    # c // 64, and no bit past k
    m, v = 5, 3
    matrix = np.random.default_rng(k).integers(0, v, size=(k, m))
    cb = Codebook(SimParams(m=m, k=k, v=v, theta=1.0), matrix)
    want = np.array([[matrix[c, i] != a for c in range(k)] for i in range(m) for a in range(v)])
    words = cb.packed_mismatch
    assert words.shape == (m * v, -(-k // 64)) and words.dtype == np.uint64
    bits = np.array([[int(w) >> b & 1 for w in row for b in range(64)] for row in words])
    assert np.array_equal(bits[:, :k], want) and not bits[:, k:].any()
    assert not words.flags.writeable
