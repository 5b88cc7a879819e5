"""Smoke tests: each script under scripts/ runs at tiny sizes and writes its
CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dnareads.harness import CURVES_HEADER, SMEMBERSHIP_HEADER, SWEEP_HEADER

ROOT = Path(__file__).resolve().parent.parent


def _run(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("membership_trend.py", ["--m", "20", "40", "--trials", "50"], SMEMBERSHIP_HEADER),
        (
            "slope_sweep.py",
            ["--m", "8", "--k", "8", "--v", "4", "--theta", "0.5", "--read-cap", "100",
             "--trials", "50", "--p", "0.1", "0.2"],
            SWEEP_HEADER,
        ),
        ("exponent_curves.py", ["--rates", "0.3", "--points", "10"], CURVES_HEADER),
    ],
    ids=["membership_trend", "slope_sweep", "exponent_curves"],
)
def test_script_runs_and_writes_csv(tmp_path, script, args, header):
    out = tmp_path / "out.csv"
    proc = _run(tmp_path, script, args + ["--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# dnareads")
    assert lines[1] == ",".join(header)
    assert len(lines) > 2


@pytest.mark.parametrize(
    "script,args",
    [
        ("slope_sweep.py", ["--m", "0"]),
        ("membership_trend.py", ["--m", "0"]),
        ("exponent_curves.py", ["--rates", "1.5"]),
        ("exponent_curves.py", ["--points", "0"]),
    ],
    ids=["slope_sweep_m0", "membership_trend_m0", "exponent_curves_rate", "exponent_curves_points"],
)
def test_script_ends_bad_input_in_one_line(tmp_path, script, args):
    proc = _run(tmp_path, script, args + ["--out", str(tmp_path / "out.csv")])
    assert proc.returncode != 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dnareads: "), proc.stderr


def test_exponent_curves_reports_a_rate_without_rows(tmp_path):
    # at R0 = 0.9 no c <= 1 reaches a nonnegative exponent, so that rate has no rows
    out = tmp_path / "out.csv"
    args = ["--rates", "0.3", "0.9", "--c-max", "1", "--out", str(out)]
    proc = _run(tmp_path, "exponent_curves.py", args)
    assert proc.returncode == 0, proc.stderr
    assert "R0=0.9: no c in the grid" in proc.stdout
    assert all(line.startswith("0.3,") for line in out.read_text().splitlines()[2:])
