"""Smoke tests: each script under scripts/ runs at tiny sizes and writes its
CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dnareads.harness import CURVES_HEADER, SMEMBERSHIP_HEADER, SWEEP_HEADER

ROOT = Path(__file__).resolve().parent.parent


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# dnareads")
    assert lines[1] == ",".join(header)
    assert len(lines) > 2
