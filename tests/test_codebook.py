import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dnareads import SimParams, codebook
from dnareads.codebook import (
    construct_greedy,
    intersection_threshold,
    load_codebook,
    restriction,
    save_codebook,
    unique_restriction_set,
    verify_intersections,
)
from dnareads.core import OuterCodeword, derive_codebook_rng


def sequential_greedy(params):
    """The one-candidate-at-a-time construction: the oracle of the block
    construction, draw for draw."""
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
                return words
    raise RuntimeError(
        f"codebook budget exhausted: accepted {accepted} of {params.k} words "
        f"after {budget} candidates"
    )


UNIFORM_SWEEP_CODE = dict(m=20, k=64, v=8, dm=1, theta=0.25)
DECODE_WIDE_CODE = dict(m=64, k=1024, v=2, dm=3, theta=0.7)


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
    ],
    ids=["uniform-sweep-1000", "uniform-sweep-1001", "uniform-sweep-7", "decode-wide", "odd-m"],
)
def test_construct_matches_sequential(code, seed):
    params = SimParams(p=0.0, seed=seed, **code)
    assert np.array_equal(construct_greedy(params).matrix, sequential_greedy(params))


def test_construct_matches_sequential_across_capped_block(monkeypatch):
    # The second word must be the first one's complement.  Blocks of 2, 4,
    # ..., 512, 600 draw 1622 of the 2000 candidates, and the last block is
    # capped at 378.  Seed 14 accepts its second word at draw 1777, inside
    # that block.  Seed 47 would accept it at draw 2055, past the budget, so
    # both constructions give up with the same message.
    monkeypatch.setattr(codebook, "_greedy_block", lambda m, k, v: 600)
    code = dict(m=10, k=2, v=2, p=0.0, dm=0, theta=0.1)
    params = SimParams(seed=14, **code)
    assert np.array_equal(construct_greedy(params).matrix, sequential_greedy(params))
    params = SimParams(seed=47, **code)
    with pytest.raises(RuntimeError) as want:
        sequential_greedy(params)
    with pytest.raises(RuntimeError) as got:
        construct_greedy(params)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "code",
    [DECODE_WIDE_CODE, dict(m=64, k=24, v=300, dm=0, theta=0.015)],
    ids=["decode-wide", "wide-alphabet"],
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


def test_restriction_orders_indices():
    w = OuterCodeword((5, 6, 7, 8))
    assert restriction(w, [2, 0]) == (5, 7)
    assert restriction(w, []) == ()


def test_unique_restriction_set_hand_instance(literal_codebook):
    cb = literal_codebook([[0, 0, 1], [0, 1, 1], [0, 0, 2]], dm=0)
    # restricted to index 0 all words collide; on {1,2} each is distinct
    assert unique_restriction_set(cb, [0]) == set()
    assert unique_restriction_set(cb, [2, 1]) == {0, 1, 2}
    # index 2 alone: word 0 and 1 share payload 1, word 2 is alone
    assert unique_restriction_set(cb, np.array([2])) == {2}


def test_unique_restriction_set_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = int(rng.integers(2, 12))
        m = int(rng.integers(2, 8))
        v = int(rng.integers(2, 4))
        params = SimParams(m=m, k=k, v=v, p=0.0, dm=0, theta=1.0, seed=0)
        from dnareads.codebook import Codebook

        cb = Codebook(params, rng.integers(0, v, size=(k, m)))
        size = int(rng.integers(0, m + 1))
        iset = rng.choice(m, size=size, replace=False)
        got = unique_restriction_set(cb, iset)
        restr = [restriction(OuterCodeword(tuple(row)), iset) for row in cb.matrix]
        brute = set()
        for i in range(k):
            if all(restr[j] != restr[i] for j in range(k) if j != i):
                brute.add(i)
        assert got == brute
        # at most one unique representative per restriction value
        assert len(got) <= v ** len(iset)


def test_empty_restriction_never_unique(small_codebook):
    # every pair collides on the empty restriction once k >= 2
    assert unique_restriction_set(small_codebook, []) == set()


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
    bad.write_text("1 2 3\n")
    with pytest.raises(ValueError, match="malformed codebook header"):
        load_codebook(str(bad), params)
    bad.write_text("2 1 2 0.5 0\n0 1 1\n")
    with pytest.raises(ValueError, match="malformed codebook row"):
        load_codebook(str(bad), params)
    bad.write_text("2 1 2 0.5 0\n0 7\n")
    with pytest.raises(ValueError, match="payload out of range"):
        load_codebook(str(bad), params)
    # a non-numeric field or a row past k names its line
    for text, message in (
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


def test_greedy_stopping_feasible(small_params):
    # accepted intersections stay low enough that elimination is possible:
    # every pair differs in at least dm+1 positions
    cb = construct_greedy(small_params)
    thr = intersection_threshold(small_params)
    assert thr <= small_params.m - small_params.dm
    assert small_params.m - verify_intersections(cb) >= small_params.dm + 1
