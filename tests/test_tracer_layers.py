"""The benchmark's per-layer tracer names package callables by string and
raises on a missing one, so a rename in the package would break the traced
benchmark.  The first check loads bench/tracer.py without installing it; the
second installs it in a subprocess and runs the CLI through it."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_callable_resolves():
    qualnames = [q for names, _span in _layers().values() for q in names]
    assert qualnames
    for qualname in qualnames:
        mod_name, attr = qualname.split(".")
        module = importlib.import_module(f"dnareads.{mod_name}")
        assert callable(getattr(module, attr, None)), qualname


_BENCH = _TRACER.parent
_SRC = _BENCH.parent / "src"
# Runs tiny converse (strong, weak) and simulate (uniform, weak) commands
# untraced, installs the tracer, runs them again, and prints whether the CSVs
# match plus the traced metrics.
_SMOKE = """
import json, sys
from pathlib import Path
from dnareads import cli
import tracer

out = Path(sys.argv[1])
conv = "converse --m 10 --k 16 --v 2 --p 0.3 --delta 0.2 --theta 0.7 --read-cap 400 --trials 40"
argvs = [
    conv + " --adversary strong --hm 20 --rprimem 5",
    conv + " --adversary weak --hm 20 --rprimem 3",
    "simulate --m 8 --k 8 --v 4 --p 0.1 --delta 0.125 --adversary uniform --trials 60",
    "simulate --m 10 --k 16 --v 2 --p 0.3 --delta 0.2 --theta 0.7 --read-cap 400"
    " --adversary weak --rprimem 3 --trials 20",
]

def run_all(tag):
    texts = []
    for i, argv in enumerate(argvs):
        path = out / f"{tag}{i}.csv"
        assert cli.main(argv.split() + ["--seed", "3", "--out", str(path)]) == 0
        texts.append(path.read_text())
    return texts

plain = run_all("plain")
t = tracer.install()
traced = run_all("traced")
print(json.dumps({"same": traced == plain, "metrics": t.metrics()}))
"""


def test_traced_cli_counts_reads_and_keeps_csvs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(_SRC), str(_BENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", _SMOKE, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["same"]
    metrics = report["metrics"]
    assert metrics["channel.values_drawn"] > 0
    assert 0.0 < metrics["simulate.read_use_ratio"] <= 1.0
    assert metrics["decoder.step.calls"] > 0
    # one reference trial per strong or weak call; the uniform run is one
    # batch, and converse draws its rows without run_batch
    assert metrics["simulate.run_trial.calls"] == 3
    assert metrics["simulate.run_batch.calls"] == 1
