import json
import math
import re
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from dnareads import SimParams
from dnareads.analysis import ones_threshold
from dnareads.harness import (
    CONFIG_KEYS,
    CSV_VERSION,
    ConverseRow,
    CurveRow,
    ExperimentConfig,
    MembershipRow,
    config_from_dict,
    converse_experiment,
    csv_text,
    emit_exponent_curves,
    run_trials,
    s_membership_experiment,
    simulate_row,
    SIMULATE_HEADER,
    SweepRow,
    sweep_p,
    wilson_interval,
)
from dnareads import analysis, cli, core, decoder, harness, simulate
from dnareads.channel import StrongAdversaryPlan
from dnareads.codebook import construct_greedy
from dnareads.core import Verdict, VerdictKind, derive_trial_rng


@pytest.fixture
def sweep_config():
    params = SimParams(m=8, k=8, v=4, p=0.05, dm=1, theta=0.5, read_cap=120, seed=6)
    return ExperimentConfig(params=params, adversary="uniform", trials=400)


def test_wilson_values():
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(0.23658959361548731, abs=1e-12)
    assert hi == pytest.approx(0.7634104063845126, abs=1e-12)
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_wilson_contains_point_estimate():
    for s, n in ((0, 50), (1, 50), (25, 50), (50, 50)):
        lo, hi = wilson_interval(s, n)
        assert lo <= s / n <= hi


def test_validate_config(sweep_config):
    assert replace(sweep_config) == sweep_config
    with pytest.raises(ValueError, match="adversary out of range"):
        replace(sweep_config, adversary="nope")
    with pytest.raises(ValueError, match="trials out of range"):
        replace(sweep_config, trials=0)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("trials", 0, "trials out of range"),
        ("adversary", "nope", "adversary out of range"),
        ("h_m", -4, "h_m out of range"),
        ("r_prime_m", 9, "r_prime_m out of range"),
        ("trials", "5", "trials must be an integer, got '5'"),
    ],
)
def test_every_way_of_building_a_config_checks_it(sweep_config, field, value, message):
    # an ExperimentConfig built directly, by replace or from a config dict is
    # checked as it is built, with the same one-line message
    flat = {**asdict(sweep_config.params), "adversary": "uniform", field: value}
    builds = (
        lambda: ExperimentConfig(sweep_config.params, **{field: value}),
        lambda: replace(sweep_config, **{field: value}),
        lambda: config_from_dict(flat),
    )
    for build in builds:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_config_round_trip(tmp_path, sweep_config):
    cfg = replace(sweep_config, h_m=12, r_prime_m=3, out="x.csv")
    # a config file is flat JSON mirroring parameter names
    d = {**asdict(cfg.params), **{k: getattr(cfg, k) for k in CONFIG_KEYS}}
    assert d["m"] == 8 and d["adversary"] == "uniform" and d["h_m"] == 12
    assert config_from_dict(d) == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d, indent=2))
    raw = json.loads(path.read_text())
    assert raw["theta"] == 0.5 and raw["r_prime_m"] == 3
    assert config_from_dict(raw) == cfg


def test_run_trials_zero_error_regime():
    params = SimParams(m=10, k=8, v=8, p=0.0, dm=1, theta=0.5, read_cap=500, seed=0)
    summary = run_trials(ExperimentConfig(params=params, adversary="honest", trials=300))
    assert summary.trials == 300
    assert summary.errors == summary.failures == summary.truncated == 0
    assert summary.pe_hat == 0.0
    assert summary.pe_lo == 0.0
    assert summary.mean_reads > 0


def test_run_trials_counts_are_consistent(sweep_config):
    summary = run_trials(replace(sweep_config, params=replace(sweep_config.params, p=0.3)))
    bad = summary.errors + summary.failures + summary.truncated
    assert summary.pe_hat == pytest.approx(bad / summary.trials, abs=1e-15)
    lo, hi = summary.pe_lo, summary.pe_hi
    assert 0.0 <= lo <= summary.pe_hat <= hi <= 1.0


def test_run_trials_repeatable(sweep_config):
    assert run_trials(sweep_config) == run_trials(sweep_config)


def test_ones_threshold():
    params = SimParams(m=20, k=4, v=4, p=0.0, dm=1, theta=0.25)
    assert ones_threshold(params) == 6
    params = SimParams(m=100, k=4, v=4, p=0.0, dm=10, theta=0.3)
    assert ones_threshold(params) == 40


def test_sweep_p_columns_and_determinism(sweep_config):
    p_list = [0.05, 0.1]
    rows = sweep_p(sweep_config, p_list)
    again = sweep_p(sweep_config, p_list)
    assert rows == again
    assert [r[0] for r in rows] == p_list
    thr = ones_threshold(sweep_config.params)
    for p, pe_hat, bound, dp in rows:
        assert bound == analysis.error_prob_upper_bound(8, p, 1, thr)
        assert dp == analysis.race_dp(8, p, 1, thr)
        assert 0.0 <= pe_hat <= 1.0
        # moving p keeps the seed: each row equals a standalone run at that p
        at_p = replace(sweep_config, params=replace(sweep_config.params, p=p))
        assert pe_hat == run_trials(at_p).pe_hat
    with pytest.raises(ValueError, match="p_list empty"):
        sweep_p(sweep_config, [])


def test_emit_exponent_curves_rows():
    grid = np.linspace(0.1, 3.0, 60)
    rows = emit_exponent_curves([0.3, 0.5], grid)
    for r0, c, delta, ok in rows:
        assert c >= math.log(1.0 / (1.0 - r0)) - 1e-9
        assert delta >= 0.0
        assert isinstance(ok, bool)
    # below-boundary grid points are dropped, not errored
    assert all(r[0] in (0.3, 0.5) for r in rows)
    assert len(rows) < 2 * len(grid)


def test_s_membership_experiment_rows():
    rows = s_membership_experiment([20, 40], 0.430783, 0.05, trials=500, seed=0)
    assert len(rows) == 2
    for m, h_m, d_m, rpm, trials, member, suff, mz, ez, mz1, ez1 in rows:
        assert trials == 500
        assert 0.0 <= suff <= member <= 1.0
        assert abs(mz - ez) < 1.5  # small-m sanity, not a tolerance claim
    with pytest.raises(ValueError, match="converse condition violated"):
        s_membership_experiment([20], 1.0, 0.5, trials=10)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials out of range"):
            s_membership_experiment([20], 0.430783, 0.05, trials=trials)


def _membership_rows_per_row_loop(m_list, c, delta, trials, seed):
    """Oracle: the experiment as one block draw per M, reduced row by row with
    np.unique and the ascending scan over sorted group multiplicities."""
    r0 = 1.0 - delta - math.exp(-c)
    lo, hi = analysis.rprime_window(0.9 * c, delta, r0)
    rows = []
    for m in m_list:
        h_m, d_m = math.floor(0.9 * c * m), math.floor(delta * m)
        rpm = math.floor(0.5 * (lo + hi) * m)
        seqs = derive_trial_rng(seed, m).integers(0, m, size=(trials, h_m))
        members = sufficient = z_sum = z1_sum = 0
        for row in seqs:
            _, counts = np.unique(row, return_counts=True)
            z, z1 = len(counts), int((counts == 1).sum())
            budget, removed = d_m, 0
            for cnt in sorted(counts.tolist()):
                if cnt > budget:
                    break
                budget -= cnt
                removed += 1
            members += z - removed <= rpm
            sufficient += z - min(z1, d_m) <= rpm
            z_sum += z
            z1_sum += z1
        rows.append(
            (m, h_m, d_m, rpm, trials, members / trials, sufficient / trials,
             z_sum / trials, analysis.expected_z(m, h_m),
             z1_sum / trials, analysis.expected_z1(m, h_m))
        )
    return rows


@pytest.mark.parametrize("seed", [0, 7])
def test_s_membership_experiment_matches_row_loop(seed):
    args = ([20, 50, 120], 0.430783, 0.05, 700)
    got = s_membership_experiment(*args, seed=seed)
    want = _membership_rows_per_row_loop(*args, seed=seed)
    header = MembershipRow._fields
    assert csv_text(header, zip(*got)) == csv_text(header, zip(*want))


def test_s_membership_chunks_match_one_block(monkeypatch):
    args = ([30, 90], 0.430783, 0.05, 500)
    one = s_membership_experiment(*args, seed=3)
    # 100 rows per chunk at M=90 splits its 500 trials into five chunks
    h_m = math.floor(0.9 * 0.430783 * 90)
    budget = 100 * harness._membership_row_bytes(90, h_m)
    monkeypatch.setattr(harness, "_MEMBERSHIP_BYTES", budget)
    assert s_membership_experiment(*args, seed=3) == one


def test_s_membership_memory_stays_within_budget(monkeypatch):
    # 20000 trials x 155 draws at M=400 is a 24.8 MB block drawn at once;
    # chunked under a 1 MB budget, every per-row temporary counts.  At M=700
    # h_m is 271, so the multiplicity table is uint16 rather than uint8.
    budget = 1_000_000
    monkeypatch.setattr(harness, "_MEMBERSHIP_BYTES", budget)
    for m, table in ((400, np.uint8), (700, np.uint16)):
        (row,) = s_membership_experiment([m], 0.430783, 0.05, trials=10)  # warm imports
        assert np.min_scalar_type(row.h_m) == table
        tracemalloc.start()
        try:
            s_membership_experiment([m], 0.430783, 0.05, trials=20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * budget, m


def test_converse_experiment_weak(small_codebook):
    cfg = ExperimentConfig(
        params=small_codebook.params, adversary="weak", trials=300, h_m=20, r_prime_m=3
    )
    columns, summary = converse_experiment(cfg)
    assert columns[0].tolist() == list(range(300))
    assert summary["n_active"] > 0
    p = cfg.params.p
    sigma = math.sqrt(p * (1 - p) / cfg.trials)
    assert summary["activation_rate"] <= p + 3 * sigma
    assert summary["converse_factor"] == analysis.weak_converse_factor(10, p, 2)
    # one column per header field
    assert len(columns) == len(ConverseRow._fields)


def test_converse_experiment_requires_budgets(small_codebook):
    # each adversary's needs are run_trial's to check: weak reads r_prime_m
    # alone, strong also h_m
    cfg = ExperimentConfig(params=small_codebook.params, adversary="weak", trials=10)
    with pytest.raises(ValueError, match="weak adversary needs r_prime_m"):
        converse_experiment(cfg)
    columns, _ = converse_experiment(replace(cfg, r_prime_m=3))
    with_h_m, _ = converse_experiment(replace(cfg, r_prime_m=3, h_m=20))
    assert all(map(np.array_equal, columns, with_h_m))
    with pytest.raises(ValueError, match="strong adversary needs h_m and r_prime_m"):
        converse_experiment(replace(cfg, adversary="strong", r_prime_m=3))
    cfg = ExperimentConfig(
        params=small_codebook.params, adversary="uniform", trials=10, h_m=5, r_prime_m=2
    )
    with pytest.raises(ValueError, match="strong or weak"):
        converse_experiment(cfg)


def _per_trial_rows(cfg, cb, trials=None):
    """ConverseRows of trials (all of cfg's by default) built trial by trial
    from run_trial, the oracle of the block path."""
    rows = []
    for t in range(cfg.trials) if trials is None else trials:
        outcome, _ = simulate.run_trial(cb, cfg.adversary, t, cfg.h_m, cfg.r_prime_m)
        plan, v = outcome.plan, outcome.verdict
        decoded = -1 if v.decoded is None else v.decoded
        rows.append(ConverseRow(
            t, outcome.message, -1 if plan.m_prime is None else plan.m_prime, plan.psi,
            plan.active, isinstance(plan, StrongAdversaryPlan) and plan.active,
            v.kind.value, decoded, v.n_reads,
            v.kind is not VerdictKind.DECIDED or decoded != outcome.message,
        ))
    return rows


# (params, h_m, r_prime_m, the share of strong rows in S with psi, the first
# two premises of the plan): criterion 8's code, a code where psi holds on
# half the rows and every head is in S, and codes with one index and one
# message
_ORACLE_CODES = [
    (SimParams(m=10, k=16, v=2, p=0.3, dm=2, theta=0.7, read_cap=400, seed=3), 20, 5, 0.003),
    (SimParams(m=8, k=16, v=2, p=0.5, dm=2, theta=0.8, read_cap=100, seed=1), 12, 6, 0.443),
    (SimParams(m=1, k=2, v=4, p=0.4, dm=0, theta=1.0, read_cap=30, seed=2), 5, 1, 0.453),
    (SimParams(m=6, k=1, v=3, p=0.4, dm=2, theta=0.5, read_cap=50, seed=2), 10, 4, 0.453),
]
# Test ids of the codes above.  The share is a figure of the trial stream,
# so each id carries the share the code had under CSV 0.1.0 rather than the
# one above: a case keeps its name when the stream changes.
_ORACLE_IDS = ["params0-20-5-0.007", "params1-12-6-0.537", "params2-5-1-0.453",
               "params3-10-4-0.4"]
# Of their 300 oracle trials, the rows the screen sends down the adversary
# path, those whose plan has a candidate: at m = 1 no other word agrees at
# index 0, and with k = 1 there is no other word.
_SENT = {_ORACLE_CODES[1][0]: 11}


def _screened(cb, h_m, r_prime_m, trials):
    """Masks of the strong trials 0..trials-1 that the screen in
    simulate._draw_columnar sends to the per-trial draw, and of those in S
    with psi."""
    layout = simulate._Layout(cb, "strong", cb.params.read_cap, r_prime_m, h_m)
    states = core.trial_states(cb.params.seed, np.arange(trials, dtype=np.uint64))
    message = np.empty(trials, dtype=np.int64)
    obs = np.empty((trials, layout.width), dtype=simulate._id_dtype(cb))
    bad, (_, psi) = simulate._draw_columnar(cb, "strong", layout, states, message, obs)
    # the draw leaves every row's true ids in obs
    part = analysis.s_membership(obs[:, :h_m] // cb.params.v, h_m, cb.params.dm, r_prime_m)
    return bad, part.in_s & psi


# Rows of the 300 oracle trials that outlive the prefix width, which the
# full-width pass decodes: at the other codes every row stops within W, or W
# is read_cap, where the bound is undefined.
_PAST_PREFIX = {(_ORACLE_CODES[0][0], "strong"): 5, (_ORACLE_CODES[0][0], "weak"): 9}


def _engine_rows(cfg, cb):
    """ConverseRows of simulate.run_converse's columns, trial by trial."""
    res = simulate.run_converse(cb, cfg.adversary, cfg.trials, cfg.h_m, cfg.r_prime_m)
    errored = (res.kind != VerdictKind.DECIDED.value) | (res.decoded != res.message)
    columns = (res.message, res.m_prime, res.psi, res.active, res.conditions, res.kind,
               res.decoded, res.n_reads, errored)
    return [ConverseRow(t, *r) for t, r in enumerate(zip(*(c.tolist() for c in columns)))]


def _converse_blocks(monkeypatch, cb, adversary, h_m, rows):
    """Patch _CONVERSE_BYTES so that run_converse's prefix pass decodes
    blocks of `rows` rows: a fifth of the budget goes to the decode block,
    which _row_bytes charges per row at the prefix width.  Returns that
    width and the shapes of the observation tables decoded from then on."""
    width = simulate._prefix_width(cb, adversary, h_m)
    monkeypatch.setattr(simulate, "_CONVERSE_BYTES", 5 * rows * simulate._row_bytes(cb, width))
    real, shapes = simulate._decode_batch, []

    def spying(cb, obs):
        shapes.append(obs.shape)
        return real(cb, obs)

    monkeypatch.setattr(simulate, "_decode_batch", spying)
    return width, shapes


@pytest.mark.parametrize("adversary", ["strong", "weak"])
@pytest.mark.parametrize("params,h_m,r_prime_m,share", _ORACLE_CODES, ids=_ORACLE_IDS)
def test_converse_blocks_match_per_trial_rows(
    monkeypatch, adversary, params, h_m, r_prime_m, share
):
    # blocks of 70 rows: 300 trials cross four block boundaries
    cb = construct_greedy(params)
    cfg = ExperimentConfig(
        params=params, adversary=adversary, trials=300, h_m=h_m, r_prime_m=r_prime_m
    )
    width, shapes = _converse_blocks(monkeypatch, cb, adversary, h_m, 70)
    rows = _engine_rows(cfg, cb)
    assert rows == _per_trial_rows(cfg, cb)
    assert [s for s in shapes if s[1] == width] == [(70, width)] * 4 + [(20, width)]
    # the full-width pass decodes exactly the rows that outlive the prefix
    live = [row for row in rows if row.n_reads > width]
    assert len(live) == _PAST_PREFIX.get((params, adversary), 0)
    assert sum(n for n, w in shapes if w != width) == len(live)
    if adversary == "strong":
        sent, premised = _screened(cb, h_m, r_prime_m, cfg.trials)
        assert premised.mean() == pytest.approx(share, abs=0.0005)
        assert sent.sum() == _SENT.get(params, 0)
        assert not (sent & ~premised).any()


# the screened golden run's code (tests/test_golden_outputs.py)
_SCREENED_CODE = _ORACLE_CODES[1][:3]


@pytest.mark.parametrize(
    "params,h_m,r_prime_m,trials",
    [(*code[:3], 300) for code in _ORACLE_CODES] + [(*_SCREENED_CODE, 4000)],
)
def test_strong_screen_sends_exactly_the_rows_with_candidates(
    monkeypatch, params, h_m, r_prime_m, trials
):
    # the candidates channel.strong_prepare hands to stopping_times_all on
    # the per-trial path: a row the screen keeps in the block has none, so
    # its plan is inactive and its true row is its observed row; a row it
    # sends has some
    cb = construct_greedy(params)
    sent, _ = _screened(cb, h_m, r_prime_m, trials)
    real, candidates = decoder.stopping_times_all, []

    def recording(cb, f, horizon, messages):
        candidates.append(list(messages))
        return real(cb, f, horizon, messages)

    monkeypatch.setattr(decoder, "stopping_times_all", recording)
    for t in range(trials):
        simulate._observe_trial(cb, "strong", t, h_m, r_prime_m)
    assert [bool(c) for c in candidates] == sent.tolist()


def test_strong_screen_calls_at_the_screened_code(monkeypatch):
    # 4000 trials: run_trial's trial 0, the first-row checks of the five
    # drawn blocks and the 229 rows the screen sends.  A screen of S and psi
    # alone sends the 1970 rows in S with psi, for 1976 calls.
    params, h_m, r_prime_m = _SCREENED_CODE
    cb = construct_greedy(params)
    real, calls = simulate._observe_trial, []

    def observing(cb, adversary, trial, *args):
        calls.append(trial)
        return real(cb, adversary, trial, *args)

    monkeypatch.setattr(simulate, "_observe_trial", observing)
    res = simulate.run_converse(cb, "strong", 4000, h_m, r_prime_m)
    assert len(calls) == 235
    assert not res.active.any()


@pytest.mark.parametrize("adversary,r_prime_m", [("strong", 5), ("weak", 3)])
def test_converse_memory_stays_within_budget(small_codebook, adversary, r_prime_m):
    # the rows are decoded a block at a time: the working memory beside the
    # returned columns is one block's, under the budget, and does not grow
    # with trials
    cb = small_codebook
    _ = cb.packed_mismatch, cb.word_ids  # per-codebook tables, built before tracing
    budget = simulate._CONVERSE_BYTES
    # so that both runs hold at least one full block: a fifth of the budget
    # goes to the decode block, charged _row_bytes a row at the prefix width
    width = simulate._prefix_width(cb, adversary, 20)
    assert budget // 5 // simulate._row_bytes(cb, width) < 2000
    peaks = []
    for trials in (2000, 4000):
        tracemalloc.start()
        try:
            res = simulate.run_converse(cb, adversary, trials, 20, r_prime_m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - sum(c.nbytes for c in vars(res).values()))
    assert peaks[1] <= 1.25 * budget
    assert peaks[1] <= 1.1 * peaks[0]


def test_implication_checked_on_block_rows(monkeypatch):
    # a row inside a block, past trial 0, whose strong plan is active but
    # whose verdict is not Decided(m_prime, stop): the run must name it.
    # The screen sends only rows with a candidate to the per-trial draw,
    # which the screened code has inside blocks.
    params, h_m, r_prime_m = _SCREENED_CODE
    cb = construct_greedy(params)
    sent, _ = _screened(cb, h_m, r_prime_m, 300)
    trial = next(t for t in np.flatnonzero(sent).tolist() if t % 70)
    observe = simulate._observe_trial

    def observe_trial(cb, adversary, t, h_m=None, r_prime_m=None):
        obs = observe(cb, adversary, t, h_m, r_prime_m)
        if t != trial:
            return obs
        plan = StrongAdversaryPlan(
            m_prime=(obs.message + 1) % cb.params.k, stop=1, t1=np.ones(h_m, dtype=bool), psi=True
        )
        return obs._replace(plan=plan)

    monkeypatch.setattr(simulate, "_observe_trial", observe_trial)
    # blocks of 70 rows: the row sits inside a block, not at its start
    _, shapes = _converse_blocks(monkeypatch, cb, "strong", h_m, 70)
    expected = f"guaranteed-error implication violated on trial {trial}: expected Decided("
    with pytest.raises(RuntimeError, match=re.escape(expected)):
        simulate.run_converse(cb, "strong", 300, h_m, r_prime_m)
    assert len(shapes) > 4  # checked after the passes, which crossed the blocks


@pytest.mark.parametrize("adversary", ["strong", "weak"])
def test_simulate_checks_guaranteed_error_implication(monkeypatch, small_codebook, adversary):
    # an active strong plan, whose premises hold, but a verdict other than
    # Decided(m_prime, stop): the per-trial loop of simulate must refuse it,
    # as converse does
    def run_trial(cb, adv, trial, h_m=None, r_prime_m=None, collect_trace=False):
        plan = StrongAdversaryPlan(m_prime=1, stop=5, t1=np.ones(20, dtype=bool), psi=True)
        return simulate.TrialOutcome(message=0, verdict=Verdict.decided(0, 5), plan=plan), None

    monkeypatch.setattr(simulate, "run_trial", run_trial)
    cfg = ExperimentConfig(
        params=small_codebook.params, adversary=adversary, trials=3, h_m=20, r_prime_m=4
    )
    expected = "guaranteed-error implication violated on trial 0: expected Decided(1, 5)"
    with pytest.raises(RuntimeError, match=re.escape(expected)):
        run_trials(cfg)
    argv = (
        "simulate --m 10 --k 16 --v 2 --p 0.3 --delta 0.2 --theta 0.7 --read-cap 400 "
        f"--adversary {adversary} --hm 20 --rprimem 4 --trials 3"
    )
    with pytest.raises(SystemExit) as info:
        cli.main(argv.split())
    message = str(info.value.code)
    assert message.startswith("dnareads: " + expected) and "\n" not in message


def test_csv_text_layout():
    text = csv_text(["a", "b"], [(1, 0.5), (True, False)])
    lines = text.split("\n")
    assert lines[0] == f"# {CSV_VERSION}"
    assert lines[1] == "a,b"
    assert lines[2] == "1,true"
    assert lines[3] == "0.5,false"
    assert text.endswith("\n")


def test_csv_text_formats_by_column_dtype():
    # each column's dtype picks its cell text: bools as true/false, integers
    # and text as str, floats to 9 significant digits
    columns = [
        [True, False], np.array([True, False]), [7, 0], np.array([-1, 2], dtype=np.int64),
        [0.25, 1 / 3], np.array([1 / 3, 0.25]), ["label", "x"],
        np.array([2**64 - 1, 0], dtype=np.uint64),
    ]
    lines = csv_text(list("abcdefgh"), columns).split("\n")
    assert lines[2] == "true,true,7,-1,0.25,0.333333333,label,18446744073709551615"
    assert lines[3] == "false,false,0,2,0.333333333,0.25,x,0"


def test_simulate_row_layout(sweep_config):
    summary = run_trials(sweep_config)
    row = simulate_row(sweep_config, summary)
    assert len(row) == len(SIMULATE_HEADER)
    assert row[0] == "uniform" and row[1] == 8


def test_headers_are_stable():
    assert list(SweepRow._fields) == ["p", "pe_hat", "bound", "dp"]
    assert list(CurveRow._fields) == ["R0", "c", "delta", "converse_ok"]
    assert MembershipRow._fields[0] == "m" and MembershipRow._fields[5] == "member_frac"
    assert ConverseRow._fields[0] == "trial" and ConverseRow._fields[-1] == "errored"
    assert list(SIMULATE_HEADER) == [
        "adversary", "m", "k", "v", "p", "dm", "theta", "read_cap", "seed", "trials",
        "errors", "failures", "truncated", "pe_hat", "pe_lo", "pe_hi", "mean_reads",
        "stderr_reads",
    ]
