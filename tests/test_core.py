import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dnareads.core import (
    COLUMNAR_TRIALS,
    Molecule,
    SimParams,
    Verdict,
    VerdictKind,
    bounded,
    derive_codebook_rng,
    derive_trial_rng,
    raw_words,
    trial_raws,
    trial_states,
)
from dnareads.harness import config_from_dict


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


@given(st.integers(0, 99), st.integers(0, 9))
def test_molecule_id_round_trip(index, payload):
    v = 10
    assert divmod(Molecule(index, payload).id(v), v) == (index, payload)


def test_verdict_constructors():
    d = Verdict.decided(5, 17)
    assert d.kind is VerdictKind.DECIDED and d.decoded == 5 and d.n_reads == 17
    f = Verdict.failed(9)
    assert f.kind is VerdictKind.FAILED and f.decoded is None
    t = Verdict.truncated(100)
    assert t.kind is VerdictKind.TRUNCATED and t.n_reads == 100


_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, -3, 2**64 + 3]
_TRIALS = [0, 1, 12345, COLUMNAR_TRIALS - 1]


@pytest.mark.parametrize("seed", _SEEDS)
def test_trial_states_match_seed_sequence(seed):
    for trial in _TRIALS:
        ss = np.random.SeedSequence(seed & (2**64 - 1), spawn_key=(0, trial))
        assert np.array_equal(trial_states(seed, trial, 1)[0], ss.generate_state(4, np.uint64))
    # a column of trials equals the trials one at a time
    block = trial_states(seed, 1000, 50)
    assert block.shape == (50, 4) and block.dtype == np.uint64
    for r in (0, 17, 49):
        assert np.array_equal(block[r], trial_states(seed, 1000 + r, 1)[0])


@pytest.mark.parametrize("seed", _SEEDS)
def test_trial_raws_match_trial_stream(seed):
    states = np.concatenate([trial_states(seed, t, 1) for t in _TRIALS])
    raws = trial_raws(states, 9)
    for row, trial in zip(raws, _TRIALS):
        assert np.array_equal(row, derive_trial_rng(seed, trial).bit_generator.random_raw(9))
    assert trial_raws(states, 0).shape == (len(_TRIALS), 0)


def test_trial_states_refuse_trials_past_one_word():
    with pytest.raises(ValueError, match="trial out of range"):
        trial_states(0, COLUMNAR_TRIALS - 1, 2)
    with pytest.raises(ValueError, match="trial out of range"):
        trial_states(0, -1, 1)


def test_raw_words_take_low_half_first():
    raws = np.array([[0x0123456789ABCDEF, 0xFEDCBA9876543210]], dtype=np.uint64)
    assert raw_words(raws).tolist() == [[0x89ABCDEF, 0x01234567, 0x76543210, 0xFEDCBA98]]
    # numpy's full-range 32-bit draws read the same words
    raw = derive_trial_rng(5, 3).bit_generator.random_raw(2)
    words = derive_trial_rng(5, 3).integers(0, 2**32, size=4, dtype=np.uint64)
    assert np.array_equal(raw_words(raw[None])[0], words)


@pytest.mark.parametrize("n,size", [(3, 5), (2**31 + 1, 1), (2**31 + 1, 3)])
def test_bounded_flags_every_row_numpy_redrew(n, size):
    # At n = 2**31 + 1 about half of all words fall below the rejection
    # threshold; numpy then draws again and every later value of the row
    # shifts.  Rows whose decoded values differ from numpy's must be flagged.
    trials = 400
    states = trial_states(11, 0, trials)
    words = raw_words(trial_raws(states, (size + 1) // 2))[:, :size]
    values, rejected = bounded(words, n)
    flagged = rejected.any(axis=1)
    for t in range(trials):
        want = derive_trial_rng(11, t).integers(0, n, size=size)
        assert flagged[t] or np.array_equal(values[t], want), t
    if n == 3:
        assert not flagged.any()
    else:
        assert flagged.any() and not flagged.all()


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
