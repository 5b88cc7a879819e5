"""One measured process: `python3 bench/child.py SPEC_JSON`.

SPEC_JSON holds mode ("import", "setup" or "call"), workload, seed, trials,
trace and out_dir.  The result goes to out_dir/result.json.  dnareads is
imported from this checkout's src/ (run.py puts it on PYTHONPATH), never from
an installed copy.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
# The calibration kernel's median time on the reference host (2-core Xeon VM,
# Python 3.11, numpy 2.4), so that normalised times read in that host's seconds.
CAL_REF_S = 0.0016
# Kernel samples taken right after a set-up, to normalise it.
SETUP_CAL_SAMPLES = 15


def _cal_kernel(np) -> None:
    """Fixed interpreter work plus per-row numpy calls on short rows."""
    s = 0
    for i in range(4000):
        s += i * i % 7
    rows = np.arange(1200, dtype=np.int64).reshape(60, 20) * 7919 % 23
    tally: dict[int, int] = {}
    for row in rows:
        values, counts = np.unique(row, return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            tally[v] = tally.get(v, 0) + c


class HostClock:
    """Times the calibration kernel on entry, every PERIOD_S from a SIGALRM
    handler, and on exit, to follow the speed of a shared host through a call.

    When disabled it takes no samples.
    """

    PERIOD_S = 0.2

    def __init__(self, enabled: bool):
        import numpy as np

        self.np = np
        self.enabled = enabled
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _cal_kernel(self.np)
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        if self.enabled:
            self.sample()
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.sample()
        return False

    def spent(self, t0: float, t1: float) -> float:
        """Kernel time of the samples that started within [t0, t1)."""
        return sum(d for s, d in zip(self.starts, self.times) if t0 <= s < t1)

    def norm(self, wall: float) -> float:
        """wall rescaled by the kernel's median time over CAL_REF_S."""
        return wall * CAL_REF_S / statistics.median(self.times)


def _check_origin(module) -> None:
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"dnareads imported from {module.__file__}, not from {SRC}")


def setup(wl: workloads.Workload, seed: int) -> dict:
    """Import the package and build the workload's codebook once.

    The kernel cannot run before the set-up without importing numpy ahead of
    it, so the set-up is normalised by samples taken right after it.
    """
    t0 = time.perf_counter()
    import dnareads

    if wl.code is not None:
        code = dict(wl.code)
        delta = code.pop("delta")
        dnareads.construct_greedy(
            dnareads.SimParams(p=0.0, dm=math.floor(delta * code["m"]), seed=seed, **code)
        )
    setup_s = time.perf_counter() - t0
    _check_origin(dnareads)
    clock = HostClock(enabled=True)
    for _ in range(SETUP_CAL_SAMPLES):
        clock.sample()
    return {"setup_s": setup_s, "norm_setup_s": clock.norm(setup_s)}


def call(wl: workloads.Workload, seed: int, trials: list[int], trace: bool, out_dir: Path) -> dict:
    """Run every invocation of the workload through cli.main, timing each.

    Untraced calls also follow the host's speed (HostClock) and report their
    normalised time as norm_s; traced calls leave it out, so that no kernel
    time lands inside a traced span.
    """
    import dnareads.cli as cli

    _check_origin(cli)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    wall = 0.0
    norm = 0.0
    samples = []
    csvs = []
    for i, (argv, n) in enumerate(zip(wl.argvs, trials)):
        csv = out_dir / f"out{i}.csv"
        full = [*argv, "--trials", str(n), "--seed", str(seed), "--out", str(csv)]
        with HostClock(enabled=not trace) as clock:
            t0 = time.perf_counter()
            rc = cli.main(full)
            t1 = time.perf_counter()
        dt = t1 - t0 - clock.spent(t0, t1)
        wall += dt
        if not trace:
            norm += clock.norm(dt)
            samples.extend(clock.times)
        if rc != 0:
            raise SystemExit(f"cli.main returned {rc} for {full}")
        csvs.append(str(csv))
    result = {
        "wall_s": wall,
        "trials_done": wl.trials_done(tuple(trials)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "csvs": csvs,
    }
    if not trace:
        result["norm_s"] = norm
        result["cal_samples"] = samples
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(str(out_dir / "spans.json"))
    return result


def main(spec_text: str) -> int:
    spec = json.loads(spec_text)
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[spec["workload"]]
    if spec["mode"] == "import":
        import dnareads.cli

        _check_origin(dnareads.cli)
        result = {}
    elif spec["mode"] == "setup":
        result = setup(wl, spec["seed"])
    else:
        result = call(wl, spec["seed"], spec["trials"], spec["trace"], out_dir)
    with open(out_dir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
