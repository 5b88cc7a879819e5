"""The benchmark parses the CLI's CSVs with its own header lists and stamp
check.  This runs each workload through cli.main at the small trial counts of
bench/test_bench.py and applies the workload's check, so that a header or
stamp drift in the package fails here, not only in the benchmark's own
tests."""

import ast
import importlib.util
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


def _small_trials() -> dict:
    """test_bench.SMALL, read without importing the benchmark's runner."""
    tree = ast.parse((_BENCH / "test_bench.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SMALL"]:
            return ast.literal_eval(node.value)
    raise LookupError("SMALL not found in bench/test_bench.py")


WORKLOADS = _workloads()
SMALL = _small_trials()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_csvs_pass_the_benchmark_check(tmp_path, name):
    wl, trials = WORKLOADS[name], SMALL[name]
    texts = []
    for i, (argv, n) in enumerate(zip(wl.argvs, trials)):
        out = tmp_path / f"out{i}.csv"
        assert cli.main([*argv, "--trials", str(n), "--seed", "7", "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert wl.check(texts, trials) == []
