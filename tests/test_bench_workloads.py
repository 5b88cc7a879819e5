"""The benchmark parses the CLI's CSVs with its own header lists and stamp
check.  This runs each workload through cli.main at the small trial counts of
bench/test_bench.py and applies the workload's check, so that a header or
stamp drift in the package fails here, not only in the benchmark's own
tests.  It also runs every workload under the benchmark's tracer and checks
that each layer bench/test_bench.py's EXERCISED lists for it is reached."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dnareads import cli

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", _BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _bench_test_constant(name: str):
    """A literal constant of bench/test_bench.py, read without importing the
    benchmark's runner."""
    tree = ast.parse((_BENCH / "test_bench.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in bench/test_bench.py")


WORKLOADS = _workloads()
SMALL = _bench_test_constant("SMALL")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_csvs_pass_the_benchmark_check(tmp_path, name):
    wl, trials = WORKLOADS[name], SMALL[name]
    texts = []
    for i, (argv, n) in enumerate(zip(wl.argvs, trials)):
        out = tmp_path / f"out{i}.csv"
        assert cli.main([*argv, "--trials", str(n), "--seed", "7", "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert wl.check(texts, trials) == []


# Installs the tracer, runs every workload's argvs at argv[2] trials each, and
# prints each workload's calls per traced layer.
_TRACED = """
import json, sys
from pathlib import Path
from dnareads import cli
import tracer, workloads

out, trials = Path(sys.argv[1]), sys.argv[2]
t = tracer.install()
calls = {}
for name, wl in workloads.WORKLOADS.items():
    before = t.metrics()
    for i, argv in enumerate(wl.argvs):
        path = out / f"{name}{i}.csv"
        assert cli.main([*argv, "--trials", trials, "--seed", "7", "--out", str(path)]) == 0
    after = t.metrics()
    calls[name] = {k.removesuffix(".calls"): after[k] - before[k] for k in after if k.endswith(".calls")}
print(json.dumps(calls))
"""


def test_traced_workloads_reach_their_exercised_layers(tmp_path):
    src = _BENCH.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(_BENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED, str(tmp_path), "10"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    exercised = _bench_test_constant("EXERCISED")
    assert sorted(calls) == sorted(exercised)
    for name, layers in exercised.items():
        for layer in layers:
            assert calls[name][layer] > 0, (name, layer)
