import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dnareads.core import (
    Molecule,
    SimParams,
    Verdict,
    VerdictKind,
    derive_codebook_rng,
    derive_trial_rng,
    params_from_dict,
    validate,
)


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
    assert validate(params) is params


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
        validate(replace(good, **{field: value}))


def test_params_json_round_trip():
    params = SimParams(m=10, k=4, v=4, p=0.1, dm=2, theta=0.5, seed=11)
    assert params_from_dict(json.loads(json.dumps(asdict(params)))) == params
    assert params_from_dict(asdict(params)) == params


def test_params_dict_rejects_unknown_keys():
    d = asdict(SimParams(m=2, k=2, v=2, p=0.0, dm=0, theta=1.0))
    d["typo"] = 1
    with pytest.raises(ValueError, match="unknown parameter fields"):
        params_from_dict(d)


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
