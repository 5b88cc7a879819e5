import json

import numpy as np
import pytest

from dnareads.cli import main
from dnareads.codebook import load_codebook


def _lines(path):
    return path.read_text().strip().split("\n")


def test_codebook_command(tmp_path, capsys):
    out = tmp_path / "book.txt"
    rc = main(
        [
            "codebook",
            "--m", "10", "--k", "8", "--v", "4",
            "--theta", "0.5", "--seed", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    cb = load_codebook(str(out))
    assert cb.matrix.shape == (8, 10)
    assert "max_intersection=" in capsys.readouterr().out


def test_simulate_command_deterministic(tmp_path):
    args = [
        "simulate",
        "--m", "8", "--k", "8", "--v", "4",
        "--p", "0.1", "--delta", "0.125", "--theta", "0.5",
        "--adversary", "uniform", "--trials", "200", "--seed", "6",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = _lines(a)
    assert lines[0].startswith("# dnareads")
    assert lines[1].split(",")[0] == "adversary"
    assert len(lines) == 3


def test_simulate_missing_required_flag():
    with pytest.raises(SystemExit):
        main(["simulate", "--k", "4", "--v", "4"])


def test_config_file_with_flag_override(tmp_path):
    cfg = {
        "m": 8, "k": 8, "v": 4, "p": 0.2, "dm": 1, "theta": 0.5,
        "seed": 6, "adversary": "uniform", "trials": 100,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "base.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    row = _lines(out1)[2].split(",")
    assert row[4] == "0.2"  # p straight from the file
    out2 = tmp_path / "override.csv"
    assert main(
        ["simulate", "--config", str(cfg_path), "--p", "0.05", "--out", str(out2)]
    ) == 0
    assert _lines(out2)[2].split(",")[4] == "0.05"  # flag wins


def test_delta_flag_overrides_config_dm(tmp_path):
    cfg = {
        "m": 8, "k": 8, "v": 4, "p": 0.2, "dm": 0, "theta": 0.5,
        "seed": 6, "adversary": "uniform", "trials": 50,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "delta.csv"
    assert main(
        ["simulate", "--config", str(cfg_path), "--delta", "0.25", "--out", str(out)]
    ) == 0
    assert _lines(out)[2].split(",")[5] == "2"  # dm = floor(0.25 * 8), not the file's 0


def test_sweep_p_command(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep-p",
            "--m", "8", "--k", "8", "--v", "4",
            "--delta", "0.125", "--theta", "0.5",
            "--adversary", "uniform", "--trials", "150", "--seed", "6",
            "--p-list", "0.05,0.1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = _lines(out)
    assert lines[1] == "p,pe_hat,bound,dp"
    assert len(lines) == 4


def test_curves_command(tmp_path):
    out = tmp_path / "curves.csv"
    rc = main(
        [
            "curves",
            "--r0-list", "0.3,0.5",
            "--c-min", "0.1", "--c-max", "3.0", "--c-points", "40",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = _lines(out)
    assert lines[1] == "R0,c,delta,converse_ok"
    assert len(lines) > 10
    assert set(row.split(",")[3] for row in lines[2:]) <= {"true", "false"}


def test_smembership_command(tmp_path):
    out = tmp_path / "smem.csv"
    rc = main(
        [
            "smembership",
            "--m-list", "20,40",
            "--coverage", "0.430783", "--delta", "0.05",
            "--trials", "300", "--seed", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = _lines(out)
    assert lines[1].startswith("m,h_m,d_m,r_prime_m,trials,member_frac")
    assert len(lines) == 4


def test_converse_command(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    rc = main(
        [
            "converse",
            "--m", "10", "--k", "16", "--v", "2",
            "--p", "0.3", "--delta", "0.2", "--theta", "0.7",
            "--adversary", "weak", "--trials", "100", "--seed", "3",
            "--read-cap", "400",
            "--hm", "20", "--rprimem", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = _lines(out)
    assert lines[1].startswith("trial,message,m_prime,psi,active")
    assert len(lines) == 102
    err = capsys.readouterr().err
    assert "activation_rate=" in err


def test_stdout_when_out_omitted(capsys):
    rc = main(
        [
            "curves",
            "--r0-list", "0.3",
            "--c-min", "0.5", "--c-max", "1.0", "--c-points", "5",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# dnareads")
