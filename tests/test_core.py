import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from dnareads import core
from dnareads.codebook import Codebook
from dnareads.core import (
    SimParams,
    TrialStream,
    Verdict,
    VerdictKind,
    bounded,
    derive_codebook_rng,
    derive_trial_rng,
    stream_words,
    trial_raws,
    trial_states,
)
from dnareads.harness import config_from_dict
from dnareads.simulate import run_batch


def test_trial_rng_reproducible():
    a = derive_trial_rng(42, 7).random(5)
    b = derive_trial_rng(42, 7).random(5)
    assert np.array_equal(a, b)


def test_trial_rng_streams_distinct():
    base = derive_trial_rng(42, 0).random(8)
    assert not np.array_equal(base, derive_trial_rng(42, 1).random(8))
    assert not np.array_equal(base, derive_trial_rng(43, 0).random(8))


def test_trial_rng_independent_of_batch_layout():
    # drawing trial 5's stream never depends on trials 0..4 having been drawn
    solo = derive_trial_rng(0, 5).integers(0, 1000, size=4)
    for t in range(5):
        derive_trial_rng(0, t).integers(0, 1000, size=4)
    again = derive_trial_rng(0, 5).integers(0, 1000, size=4)
    assert np.array_equal(solo, again)


def test_trial_rng_negative_trial_rejected():
    with pytest.raises(ValueError, match="trial out of range"):
        derive_trial_rng(0, -1)


def test_codebook_rng_disjoint_from_trials():
    cb_draws = derive_codebook_rng(9).random(8)
    assert not np.array_equal(cb_draws, derive_trial_rng(9, 0).random(8))


def test_trial_rng_large_seed_masked():
    # seeds are folded into 64 bits; equal residues give equal streams
    a = derive_trial_rng((1 << 64) + 3, 0).random(4)
    b = derive_trial_rng(3, 0).random(4)
    assert np.array_equal(a, b)


def test_read_cap_defaults_to_50m():
    params = SimParams(m=12, k=4, v=4, p=0.0, dm=1, theta=0.5)
    assert params.read_cap == 600


def test_validate_accepts_good_params():
    params = SimParams(m=10, k=4, v=4, p=0.1, dm=2, theta=0.5)
    assert replace(params) == params


@pytest.mark.parametrize(
    "field,value",
    [
        ("m", 0),
        ("k", 0),
        ("v", 0),
        ("m", 2**32),
        ("k", 2**32),
        ("v", 2**32),
        ("p", -0.1),
        ("p", 1.5),
        ("dm", -1),
        ("dm", 11),
        ("theta", 0.0),
        ("theta", 1.2),
        ("read_cap", 0),
    ],
)
def test_validate_rejects_bad_field(field, value):
    good = SimParams(m=10, k=4, v=4, p=0.1, dm=2, theta=0.5)
    with pytest.raises(ValueError, match=f"{field} out of range"):
        replace(good, **{field: value})


@pytest.mark.parametrize(
    "field,value,kind",
    [
        ("m", True, "an integer"),
        ("k", 4.0, "an integer"),
        ("p", "0.1", "a number"),
        ("p", False, "a number"),
        ("theta", None, "a number"),
        ("seed", 1.5, "an integer"),
        ("read_cap", "x", "an integer or null"),
    ],
)
def test_validate_rejects_wrong_kind(field, value, kind):
    # a bool is not an int, and nothing is converted
    good = SimParams(m=10, k=4, v=4, p=0.1, dm=2, theta=0.5)
    with pytest.raises(ValueError) as exc:
        replace(good, **{field: value})
    assert str(exc.value) == f"{field} must be {kind}, got {value!r}"


_GOOD = dict(m=10, k=4, v=4, p=0.1, dm=2, theta=0.5)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("dm", 11, "dm out of range"),
        ("dm", -1, "dm out of range"),
        ("read_cap", 0, "read_cap out of range"),
        ("p", "0.1", "p must be a number, got '0.1'"),
        ("m", None, "m must be an integer, got None"),
    ],
)
def test_every_way_of_building_params_checks_them(field, value, message):
    # a SimParams built directly, by replace or from a config dict is checked
    # as it is built, with the same one-line message
    builds = (
        lambda: SimParams(**{**_GOOD, field: value}),
        lambda: replace(SimParams(**_GOOD), **{field: value}),
        lambda: config_from_dict({**_GOOD, field: value}),
    )
    for build in builds:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_params_json_round_trip():
    params = SimParams(m=10, k=4, v=4, p=0.1, dm=2, theta=0.5, seed=11)
    assert config_from_dict(json.loads(json.dumps(asdict(params)))).params == params
    assert config_from_dict(asdict(params)).params == params


def test_params_dict_rejects_unknown_keys():
    d = asdict(SimParams(m=2, k=2, v=2, p=0.0, dm=0, theta=1.0))
    d["typo"] = 1
    with pytest.raises(ValueError, match="unknown parameter fields"):
        config_from_dict(d)


def test_params_json_is_flat():
    params = SimParams(m=2, k=2, v=2, p=0.0, dm=0, theta=1.0)
    d = json.loads(json.dumps(asdict(params)))
    assert d["m"] == 2 and d["read_cap"] == 100


def test_verdict_constructors():
    d = Verdict.decided(5, 17)
    assert d.kind is VerdictKind.DECIDED and d.decoded == 5 and d.n_reads == 17
    f = Verdict.failed(9)
    assert f.kind is VerdictKind.FAILED and f.decoded is None
    t = Verdict.truncated(100)
    assert t.kind is VerdictKind.TRUNCATED and t.n_reads == 100


_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, -3, 2**64 + 3]
_TRIALS = [0, 1, 12345, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1]


def _states(seed, trials):
    return trial_states(seed, np.array(trials, dtype=np.uint64))


@pytest.mark.parametrize("seed", _SEEDS)
def test_trial_states_match_seed_sequence(seed):
    for trial in _TRIALS:
        ss = np.random.SeedSequence(seed & (2**64 - 1), spawn_key=(0, trial))
        assert np.array_equal(_states(seed, [trial])[0], ss.generate_state(4, np.uint64))
    # a column of trials equals the trials one at a time
    block = _states(seed, range(1000, 1050))
    assert block.shape == (50, 4) and block.dtype == np.uint64
    for r in (0, 17, 49):
        assert np.array_equal(block[r], _states(seed, [1000 + r])[0])


@pytest.mark.parametrize("start", [0, 2**32 - 10, 2**40])
def test_trial_state_blocks_match_one_trial_at_a_time(start):
    # each call starts from the seed's cached pool, and a block that
    # straddles 2**32 mixes the high word into its upper rows alone
    for seed in (5, 2**40 + 9, 5):
        block = _states(seed, range(start, start + 20))
        for r in range(20):
            ss = np.random.SeedSequence(seed, spawn_key=(0, start + r))
            assert np.array_equal(block[r], ss.generate_state(4, np.uint64))


@pytest.mark.parametrize("seed", _SEEDS)
def test_trial_raws_match_trial_stream(seed):
    states = _states(seed, _TRIALS)
    raws = trial_raws(states, 9)
    for row, trial in zip(raws, _TRIALS):
        assert np.array_equal(row, derive_trial_rng(seed, trial).bit_generator.random_raw(9))
    assert trial_raws(states, 0).shape == (len(_TRIALS), 0)


@pytest.mark.parametrize("seed", _SEEDS)
def test_columns_match_trial_stream(seed):
    # the columnar LCG itself, at shapes trial_raws would send row by row
    states = _states(seed, _TRIALS)
    for n_raw in (0, 1, 2, 64):
        raws = core._columns(states, n_raw)
        assert raws.shape == (len(_TRIALS), n_raw) and raws.flags.c_contiguous
        for row, trial in zip(raws, _TRIALS):
            assert np.array_equal(row, derive_trial_rng(seed, trial).bit_generator.random_raw(n_raw))


@pytest.mark.parametrize("rows, n_raw, by_columns", [(7, 9, False), (2048, 21, True)])
def test_trial_raws_match_per_row_on_either_side_of_the_rule(rows, n_raw, by_columns):
    assert core._by_columns(rows, n_raw) is by_columns
    states = _states(2**40 + 3, range(2**32 - rows // 2, 2**32 + rows - rows // 2))
    assert np.array_equal(trial_raws(states, n_raw), core._per_row(states, n_raw))


def test_trial_states_refuse_trials_past_64_bits():
    # both engines address the trials in [0, 2**64)
    cb = Codebook(SimParams(m=2, k=2, v=2, read_cap=4), np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="trial out of range"):
        run_batch(cb, "honest", 2, start=2**64 - 1)
    with pytest.raises(ValueError, match="trial out of range"):
        derive_trial_rng(0, 2**64)


def test_stream_words_take_low_half_first():
    raws = np.array([[0x0123456789ABCDEF, 0xFEDCBA9876543210]], dtype=np.uint64)
    assert stream_words(raws).tolist() == [[0x89ABCDEF, 0x01234567, 0x76543210, 0xFEDCBA98]]
    # numpy's full-range 32-bit draws read the same words
    raw = derive_trial_rng(5, 3).bit_generator.random_raw(2)
    words = derive_trial_rng(5, 3).integers(0, 2**32, size=4, dtype=np.uint64)
    assert np.array_equal(stream_words(raw[None])[0], words)


@pytest.mark.parametrize("n", [3, 10, 20, 64, 70001, 2**31 + 11, 2**32 - 1])
def test_bounded_changes_value_exactly_at_its_boundary_words(n):
    # Value j's first word is ceil(j * 2**32 / n), in Python integers: the
    # value changes there and nowhere else, so value j has floor(2**32 / n)
    # or ceil(2**32 / n) words and its probability is off by at most 2**-32.
    # Every j is checked up to n = 70001, and a spread of them past it.
    if n <= 70001:
        js = list(range(1, n))
    else:
        rng = np.random.default_rng(n)
        js = sorted({*range(1, 2000), *range(n - 2000, n), *rng.integers(1, n, 5000).tolist()})
    first = [-(-(j << 32) // n) for j in js]
    words = np.array([[w - 1, w] for w in first], dtype=np.uint32)
    assert bounded(words, n).tolist() == [[j - 1, j] for j in js]
    edges = np.array([0, 2**32 - 1], dtype=np.uint32)
    assert bounded(edges, n).tolist() == [0, n - 1]
    # value j has first[j + 1] - first[j] words, wherever both are known
    known = dict(zip(js, first)) | {0: 0, n: 2**32}
    gaps = {known[j + 1] - known[j] for j in known if j + 1 in known}
    assert gaps <= {2**32 // n, -(-(2**32) // n)}


@pytest.mark.parametrize(
    "ranges",
    [
        [5, 1, 8, 3, 2**31 + 1, 1, 1, 6, 2**32 - 1, 7],  # odd and even word counts
        [1, 1, 2, 16, 2**31, 1],  # powers of two
        [1, 3 * 2**30 + 7, 2**31 + 1, 2**31 + 1, 0, 9],  # and a range of 0
    ],
)
def test_bounded_takes_a_range_per_column(ranges):
    # one draw of one value per range: every range reads the next word, a
    # range of 1 or 0 too, and its value is (w * n) >> 32 in Python
    # integers; the per-trial stream reads the same values from the same raws
    ranges = np.array(ranges)
    trials = 200
    words = stream_words(trial_raws(_states(12, range(trials)), 8))[:, : len(ranges)]
    values = bounded(words, ranges)
    for t in range(trials):
        want = [w * n >> 32 for w, n in zip(words[t].tolist(), ranges.tolist())]
        assert values[t].tolist() == want
        stream = TrialStream(derive_trial_rng(12, t))
        assert stream.integers(ranges).tolist() == want
    # a row's range as a column vector
    per_row = np.where(np.arange(trials) % 2, ranges[0], 1)
    assert np.array_equal(bounded(words[:, :1], per_row[:, None])[:, 0],
                          np.where(per_row > 1, values[:, 0], 0))


def test_trial_stream_starts_every_draw_at_a_fresh_raw():
    # an odd-sized bounded draw leaves its last raw's high half unread, and
    # random() reads one whole raw a value
    raws = derive_trial_rng(3, 9).bit_generator.random_raw(7)
    stream = TrialStream(derive_trial_rng(3, 9))
    assert stream.integers(2**32 - 1, size=3).tolist() == [
        w * (2**32 - 1) >> 32 for w in (int(raws[0]) & 2**32 - 1, int(raws[0]) >> 32,
                                        int(raws[1]) & 2**32 - 1)
    ]
    assert stream.integers(10) == (int(raws[2]) & 2**32 - 1) * 10 >> 32
    assert stream.random() == (int(raws[3]) >> 11) * 2.0**-53
    assert stream.random(2).tolist() == [(int(r) >> 11) * 2.0**-53 for r in raws[4:6]]
    assert stream.integers(np.array([1, 0])).tolist() == [0, 0]
    # that draw read raw 6: the next raw is the eighth
    eighth = int(derive_trial_rng(3, 9).bit_generator.random_raw(8)[7])
    assert stream.random() == (eighth >> 11) * 2.0**-53


def test_import_leaves_numpy_random_unloaded():
    # the batch engine's bit generator is built on first use, not at import
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, dnareads; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
