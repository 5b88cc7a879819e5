"""Tests of the benchmark itself, at small trial counts.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import child
import run
import tracer
import workloads

SEED = 7
SMALL = {
    "uniform-sweep": (3000,),
    "decode-wide": (400,),
    "converse": (200, 400),
    "smembership": (1000,),
}
# Layers each workload exists to exercise; a rename in the package must not
# turn these into silent zeros.
EXERCISED = {
    "uniform-sweep": (
        "core.derive_trial_rng", "channel.sample", "simulate.run_batch",
        "simulate.decode_batch", "codebook.construct_greedy", "analysis.bounds",
        "harness.experiment", "harness.csv", "cli.main",
    ),
    "decode-wide": (
        "core.derive_trial_rng", "channel.sample", "simulate.run_batch",
        "simulate.decode_batch", "codebook.construct_greedy", "harness.experiment",
    ),
    "converse": (
        "core.derive_trial_rng", "channel.sample", "channel.prepare", "channel.observe",
        "decoder.step", "decoder.stopping_times", "simulate.run_trial",
        "analysis.s_membership", "analysis.greedy_removals", "codebook.construct_greedy",
    ),
    "smembership": ("core.derive_trial_rng", "analysis.greedy_removals", "harness.experiment"),
}
EXACT = (
    "channel.values_drawn",
    "simulate.reads_consumed",
    "decoder.step.calls",
    "codebook.construct_greedy.calls",
)


@pytest.fixture(scope="module", params=sorted(SMALL))
def runs(request, tmp_path_factory):
    """One untraced and two traced runs of a workload at one seed."""
    name = request.param
    runner = run.Runner(workloads.WORKLOADS[name], tmp_path_factory.mktemp(name), SMALL[name])
    out = {
        tag: runner.attempt(SEED, tag, trace=tag != "plain")
        for tag in ("plain", "traced", "traced2")
    }
    assert runner.failures == []
    return name, out


def test_traced_and_untraced_csvs_identical(runs):
    _, out = runs
    assert out["traced"]["texts"] == out["plain"]["texts"]
    assert out["traced2"]["texts"] == out["plain"]["texts"]


def test_untraced_children_follow_host_speed(runs):
    """Each untraced call samples the kernel on entry, on exit and in between;
    traced calls take no samples."""
    name, out = runs
    plain = out["plain"]
    assert len(plain["cal_samples"]) >= 2 * len(workloads.WORKLOADS[name].argvs)
    assert all(c > 0.0 for c in plain["cal_samples"])
    assert plain["norm_s"] > 0.0 and plain["wall_s"] > 0.0
    assert "cal_samples" not in out["traced"] and "norm_s" not in out["traced"]


def test_host_clock_keeps_its_time_out_of_the_call():
    clock = child.HostClock(enabled=True)
    with clock:
        t0 = time.perf_counter()
        end = t0 + 0.5
        while time.perf_counter() < end:
            pass
        t1 = time.perf_counter()
    inside = clock.spent(t0, t1)
    assert len(clock.times) >= 4  # entry, exit and at least two in between
    assert 0.0 < inside < sum(clock.times)
    assert clock.norm(1.0) == pytest.approx(child.CAL_REF_S / statistics.median(clock.times))


def test_named_boundaries_are_hit(runs):
    name, out = runs
    layers = out["traced"]["layers"]
    for layer in EXERCISED[name]:
        assert layers[f"{layer}.calls"] > 0, layer
    if "simulate.run_batch" in EXERCISED[name] or "simulate.run_trial" in EXERCISED[name]:
        assert layers["channel.values_drawn"] > 0
        assert 0.0 < layers["simulate.read_use_ratio"] <= 1.0


def test_self_times_nonnegative_and_within_wall(runs):
    _, out = runs
    layers = out["traced"]["layers"]
    self_times = [v for k, v in layers.items() if k.endswith(".self_s")]
    assert all(t >= 0.0 for t in self_times)
    assert sum(self_times) <= out["traced"]["wall_s"]


def test_exact_counts_repeat(runs):
    _, out = runs
    a, b = out["traced"]["layers"], out["traced2"]["layers"]
    assert {k: a[k] for k in EXACT} == {k: b[k] for k in EXACT}


def test_spans_have_parents_and_nest():
    """Spans of a traced call form a tree rooted at cli.main."""
    t = tracer.Tracer()
    outer = t.wrap("cli.main", "cli.main", lambda: inner(), span=True)
    inner = t.wrap("harness.csv", "harness.csv_text", lambda: None, span=True)
    outer()
    root, child = sorted(t.spans, key=lambda s: s["id"])
    assert root["parent"] is None and child["parent"] == root["id"]
    assert root["start"] <= child["start"] <= child["end"] <= root["end"]
    calls, total, self_s = t.stats["cli.main"]
    assert calls == 1 and self_s == pytest.approx(total - t.stats["harness.csv"][1])


def _rewrite(text: str, edit) -> str:
    """CSV text with edit(rows) applied to its data rows (lists of cells)."""
    lines = text.splitlines()
    rows = [ln.split(",") for ln in lines[2:]]
    edit(rows, lines[1].split(","))
    return "\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n"


def _set(col, value):
    def edit(rows, header):
        for r in rows:
            r[header.index(col)] = value

    return edit


def _swap_member_frac(rows, header):
    i = header.index("member_frac")
    rows[0][i], rows[-1][i] = rows[-1][i], rows[0][i]


# One doctored output per workload that its check must reject.
DOCTORED = {
    "uniform-sweep": _set("pe_hat", "0.5"),
    "decode-wide": _set("mean_reads", "30"),
    "converse": _set("active", "true"),
    "smembership": _swap_member_frac,
}


def test_checks_reject_wrong_outputs(runs):
    name, out = runs
    texts, trials = out["plain"]["texts"], SMALL[name]
    check = workloads.WORKLOADS[name].check
    assert check(texts, trials) == []
    assert check([_rewrite(t, DOCTORED[name]) for t in texts], trials) != []
    with pytest.raises(ValueError):
        check([t.replace(",", ";") for t in texts], trials)


def test_sweep_check_rejects_zero_error_rate():
    text = "# dnareads 0.1.0\np,pe_hat,bound,dp\n" + "".join(
        f"{p},0,{b},{d}\n" for p, (b, d) in zip(workloads.P_LIST, workloads.SWEEP_ANALYTIC)
    )
    problems = workloads.check_sweep([text], (3000,))
    assert any("not > 0" in p for p in problems)


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS)
    t = tracer.Tracer()
    emitted = set(t.metrics()) | {"trace.wall_s", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} <= emitted
    result = run.run_workload("converse", SEED, 0.01, False, spec, trials=SMALL["converse"])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "converse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
