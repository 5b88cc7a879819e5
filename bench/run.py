"""dnareads benchmark: end-to-end and per-layer metrics of the CLI workloads.

    python3 bench/run.py --workload uniform-sweep --seed 1 --seconds 20 --trace 0

Closed loop: one child process at a time, each single-threaded, each running
the workload's cli.main invocations once.  --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics.  The last line of
standard output is one JSON object; the lines before it repeat the metrics
with their units and, under --trace 0, give the host's slowdown and the
unnormalised figures (see child.HostClock).  Without --workload every
workload runs in turn and the last line maps workload names to their results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import CAL_REF_S
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
# Sub-seed j of a run with seed s is s * SUB_SEEDS + j, so every run draws
# distinct codebooks and trial streams, and a seed always gives the same ones.
SUB_SEEDS = 1000
# Set-up is measured in this many fresh children; the median is reported.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
MISMATCH = "CSVs differ from the first run at the same seed"


class ChildFailed(Exception):
    pass


class Runner:
    """Starts one child at a time and checks what it wrote."""

    def __init__(self, wl: workloads.Workload, work_dir: Path, trials=None):
        self.wl = wl
        self.work_dir = work_dir
        self.trials = list(trials or wl.trials)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.failures: list[str] = []

    def child(self, mode: str, seed: int, tag: str, trace: bool = False) -> dict:
        out_dir = self.work_dir / tag
        spec = {
            "mode": mode,
            "workload": self.wl.name,
            "seed": seed,
            "trials": self.trials,
            "trace": trace,
            "out_dir": str(out_dir),
        }
        cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} child timed out after {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        try:
            with open(out_dir / "result.json") as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            raise ChildFailed(f"{mode} child left no readable result: {exc}")

    def attempt(self, seed: int, tag: str, trace: bool = False):
        """One checked run of the workload; None when it raised or failed a check."""
        try:
            res = self.child("call", seed, tag, trace)
            res["texts"] = [Path(p).read_text() for p in res["csvs"]]
            problems = self.wl.check(res["texts"], tuple(self.trials))
        except (ChildFailed, ValueError, OSError) as exc:
            problems = [str(exc)]
        if problems:
            self.failures.append(f"{tag} (seed {seed}): " + "; ".join(problems))
            return None
        return res


def measure(runner: Runner, seed: int, seconds: float) -> tuple[dict, int]:
    """End-to-end metrics; returns (metrics, attempted)."""
    setup = [
        runner.child("setup", seed * SUB_SEEDS + j, f"setup{j}")
        for j in range(SETUP_SAMPLES)
    ]
    results = []
    start = time.monotonic()
    j = 0
    while j == 0 or time.monotonic() - start < seconds:
        results.append(runner.attempt(seed * SUB_SEEDS + j, f"call{j}"))
        j += 1
    # Determinism: the first sub-seed again, in a fresh process.
    again = runner.attempt(seed * SUB_SEEDS, "repeat")
    if again is not None and results[0] is not None and again["texts"] != results[0]["texts"]:
        runner.failures.append(f"repeat: {MISMATCH}")
        again = None
    results.append(again)
    ok = [r for r in results if r is not None]
    if not ok:
        raise ChildFailed("no run of the workload succeeded: " + " | ".join(runner.failures))
    metrics = {
        "trials_per_s": statistics.median([r["trials_done"] / r["norm_s"] for r in ok]),
        "setup_s": statistics.median([r["norm_setup_s"] for r in setup]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in ok]),
    }
    # How much slower than the reference host the calibration kernel ran.
    slowdown = statistics.median([c for r in ok for c in r["cal_samples"]]) / CAL_REF_S
    raw = {
        "trials_per_s": statistics.median([r["trials_done"] / r["wall_s"] for r in ok]),
        "setup_s": statistics.median([r["setup_s"] for r in setup]),
    }
    shown = " ".join(f"{k}={v:.6g}" for k, v in raw.items())
    print(f"{runner.wl.name}: host slowdown {slowdown:.4f}; unnormalised {shown}")
    return metrics, len(results)


def measure_traced(runner: Runner, seed: int, seconds: float, names: list[str]) -> tuple[dict, int]:
    """Per-layer metrics from traced runs, alternated with untraced runs of
    the same seed to give the tracing overhead."""
    sub = seed * SUB_SEEDS
    plain, traced = [], []
    first_texts = None
    attempted = 0
    start = time.monotonic()
    i = 0
    while i == 0 or time.monotonic() - start < seconds:
        for trace in ((False, True) if i % 2 == 0 else (True, False)):
            tag = f"{'traced' if trace else 'plain'}{i}"
            res = runner.attempt(sub, tag, trace)
            attempted += 1
            if res is None:
                continue
            if first_texts is None:
                first_texts = res["texts"]
            if res["texts"] != first_texts:
                runner.failures.append(f"{tag}: {MISMATCH}")
                continue
            (traced if trace else plain).append(res)
        i += 1
    if not traced or not plain:
        raise ChildFailed("no traced/untraced pair succeeded: " + " | ".join(runner.failures))
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name in names:
        if name.startswith("trace."):
            continue
        if name.endswith(".self_s"):
            metrics[name] = statistics.median([lay[name] for lay in layers])
        else:
            values = {lay[name] for lay in layers}
            if len(values) != 1:
                runner.failures.append(f"{name} differs between traced runs: {sorted(values)}")
            metrics[name] = layers[0][name]
    traced_wall = statistics.median([r["wall_s"] for r in traced])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / statistics.median([r["wall_s"] for r in plain]) - 1.0
    return metrics, attempted


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, trials=None) -> dict:
    wl = workloads.WORKLOADS[name]
    work_dir = WORK / name
    shutil.rmtree(work_dir, ignore_errors=True)
    runner = Runner(wl, work_dir, trials)
    # Compiles the package's bytecode so that no measured child pays for it.
    runner.child("import", seed, "import")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values, attempted = measure_traced(runner, seed, seconds, [m["name"] for m in declared])
    else:
        values, attempted = measure(runner, seed, seconds)
    for msg in runner.failures:
        print(f"{name}: FAILED {msg}", file=sys.stderr)
    failed = min(len(runner.failures), attempted)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    shown = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    print(f"{name}: {shown} failed_frac={failed / attempted:.6g} ({failed} of {attempted} runs)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "dnareads" / "cli.py").is_file():
        print(f"no dnareads sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        results = {
            n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in names
        }
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
