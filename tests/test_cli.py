import argparse
import json
import re

import numpy as np
import pytest

from dnareads import SimParams
from dnareads.cli import build_parser, main
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
    params = SimParams(m=10, k=8, v=4, theta=0.5, seed=2)
    cb = load_codebook(str(out), params)
    assert cb.matrix.shape == (8, 10) and cb.params == params
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


_SWEEP = [
    "sweep-p", "--m", "20", "--k", "64", "--v", "8", "--delta", "0.05", "--theta", "0.25",
    "--read-cap", "200", "--trials", "300", "--seed", "11",
]


@pytest.mark.parametrize(
    "adversary,p_list,summary",
    [
        ("uniform", "0.1,0.2", r"fitted slope -?\d+\.\d{3} \(expect within \[1, 2\]\)\n"),
        ("honest", "0.1,0.2", r"some pe_hat are zero; raise --trials to resolve the slope\n"),
        ("uniform", "0.3", ""),
    ],
    ids=["slope", "zero-pe-hat", "one-p"],
)
def test_sweep_p_prints_slope_summary(tmp_path, capsys, adversary, p_list, summary):
    # the slope of log pe_hat on log p goes to stderr; one p has no slope,
    # whatever its pe_hat
    out = tmp_path / "sweep.csv"
    argv = _SWEEP + ["--adversary", adversary, "--p-list", p_list, "--out", str(out)]
    assert main(argv) == 0
    pe_hat = [float(row.split(",")[1]) for row in _lines(out)[2:]]
    assert all(pe_hat) == (adversary == "uniform")
    assert re.fullmatch(summary, capsys.readouterr().err)


def test_curves_command(tmp_path, capsys):
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
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["R0=0.3", "R0=0.5"]
    assert all(re.search(r": max delta [\d.]+, converse boundary near c=[\d.]+$", e) for e in err)
    # a descending grid has the same boundary, up to the grid's rounding
    argv = ["curves", "--r0-list", "0.3", "--c-min", "3.0", "--c-max", "0.1", "--c-points", "40"]
    assert main(argv + ["--out", str(tmp_path / "down.csv")]) == 0
    down, c = capsys.readouterr().err.rstrip().rsplit("=", 1)
    assert down == err[0].rsplit("=", 1)[0]
    assert float(c) == pytest.approx(float(err[0].rsplit("=", 1)[1]))


def test_curves_summary_without_boundary_or_rows(tmp_path, capsys):
    # below c = 1, R0 = 0.3 never leaves the converse regime and R0 = 0.9
    # never reaches a nonnegative exponent, so 0.9 has no rows
    out = tmp_path / "curves.csv"
    argv = ["curves", "--r0-list", "0.3,0.9", "--c-min", "0.05", "--c-max", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert all(row.startswith("0.3,") for row in _lines(out)[2:])
    err = capsys.readouterr().err
    assert "None" not in err
    assert err.splitlines() == [
        "R0=0.3: max delta 0.332121, no converse boundary in the grid",
        "R0=0.9: no c in the grid reaches a nonnegative exponent",
    ]


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


_CONVERSE = [
    "converse", "--m", "10", "--k", "16", "--v", "2", "--p", "0.3", "--delta", "0.2",
    "--theta", "0.7", "--seed", "3", "--read-cap", "400", "--trials", "200",
]


def test_weak_converse_needs_no_horizon(capsys):
    # the weak adversary reads no h_m, so --hm changes nothing
    argv = _CONVERSE + ["--adversary", "weak", "--rprimem", "3"]
    assert main(argv) == 0
    without = capsys.readouterr()
    assert main(argv + ["--hm", "20"]) == 0
    assert capsys.readouterr() == without
    assert without.out.startswith("# dnareads") and "activation_rate=" in without.err


@pytest.mark.parametrize(
    "argv",
    [
        _CONVERSE + ["--adversary", "strong", "--rprimem", "5"],
        ["simulate"] + _CONVERSE[1:] + ["--adversary", "strong", "--rprimem", "5"],
    ],
    ids=["converse", "simulate"],
)
def test_strong_without_horizon_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert str(exc.value) == "dnareads: strong adversary needs h_m and r_prime_m"
    assert capsys.readouterr().out == ""


_HM_PAST_CAP = ["--hm", "500", "--read-cap", "400"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"] + _CONVERSE[1:] + ["--adversary", "uniform"],
        _CONVERSE + ["--adversary", "weak", "--rprimem", "3"],
    ],
    ids=["simulate-uniform", "converse-weak"],
)
def test_h_m_past_read_cap_is_unread(capsys, argv):
    # neither adversary reads h_m, so an h_m past read_cap changes nothing
    assert main(argv) == 0
    without = capsys.readouterr()
    assert main(argv + _HM_PAST_CAP) == 0
    assert capsys.readouterr() == without
    assert without.out.startswith("# dnareads")


_SWEEP_ADVERSARY = [
    "sweep-p", "--m", "10", "--k", "16", "--v", "2", "--delta", "0.2", "--theta", "0.7",
    "--read-cap", "400", "--trials", "60", "--seed", "3", "--p-list", "0.1,0.3",
]


@pytest.mark.parametrize(
    "flags,keys",
    [
        (["--adversary", "weak", "--rprimem", "3"], {"adversary": "weak", "r_prime_m": 3}),
        (
            ["--adversary", "strong", "--hm", "20", "--rprimem", "5"],
            {"adversary": "strong", "h_m": 20, "r_prime_m": 5},
        ),
    ],
    ids=["weak", "strong"],
)
def test_sweep_p_takes_adversary_budgets(tmp_path, flags, keys):
    # the flags and the config file set h_m and r_prime_m alike
    by_flags, by_file, cfg = tmp_path / "flags.csv", tmp_path / "file.csv", tmp_path / "cfg.json"
    assert main(_SWEEP_ADVERSARY + flags + ["--out", str(by_flags)]) == 0
    cfg.write_text(json.dumps(keys))
    assert main(_SWEEP_ADVERSARY + ["--config", str(cfg), "--out", str(by_file)]) == 0
    assert by_flags.read_bytes() == by_file.read_bytes()
    assert len(_lines(by_flags)) == 4


# the base argv of each subcommand that takes --adversary
_ADVERSARY_BASE = {
    "simulate": ["simulate", "--m", "8", "--k", "8", "--v", "4"],
    "sweep-p": ["sweep-p", "--m", "8", "--k", "8", "--v", "4", "--p-list", "0.1"],
    "converse": ["converse", "--m", "8", "--k", "8", "--v", "4"],
}


def test_adversary_flags_parse_wherever_adversary_is_offered():
    # a subcommand that offers strong and weak takes the flags they read
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    offering = {
        name for name, sp in sub.choices.items() if any(a.dest == "adversary" for a in sp._actions)
    }
    assert offering == set(_ADVERSARY_BASE)
    for argv in _ADVERSARY_BASE.values():
        for extra in (
            ["--adversary", "strong", "--hm", "5", "--rprimem", "2"],
            ["--adversary", "weak", "--rprimem", "2"],
        ):
            args = parser.parse_args(argv + extra)
            assert (args.adversary, args.r_prime_m) == (extra[1], 2)


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


def test_unknown_config_key_fails_naming_it(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 8, "k": 8, "v": 4, "tirals": 5, "trials": 20}))
    with pytest.raises(SystemExit, match="tirals") as exc:
        main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
    assert str(exc.value).startswith("dnareads: ")
    assert "\n" not in str(exc.value)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["smembership", "--m-list", "20", "--coverage", "0.430783", "--delta", "0.05"],
        ["curves", "--r0-list", "0.3", "--c-min", "0.5", "--c-max", "1.0", "--c-points", "5"],
    ],
    ids=["smembership", "curves"],
)
def test_unknown_config_key_fails_in_smembership_and_curves(tmp_path, argv):
    # commands that build no ExperimentConfig check the file's keys too
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tirals": 5, "trials": 50}))
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(cfg_path), "--out", str(out)])
    assert str(exc.value) == "dnareads: unknown parameter fields: ['tirals']"
    assert not out.exists()


def test_smembership_rejects_empty_horizon(tmp_path, capsys):
    # floor(0.9 * 0.430783 * 1) = 0: no prefix to test, so no row
    out = tmp_path / "x.csv"
    argv = ["smembership", "--m-list", "50,1", "--coverage", "0.430783", "--delta", "0.05"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trials", "10", "--out", str(out)])
    assert str(exc.value) == "dnareads: horizon floor(0.9*c*M) is 0 at M=1"
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        # at most 4 binary words of length 6 lie at distance >= 4 from each other
        (["codebook", "--m", "6", "--k", "5", "--v", "2"], "codebook budget exhausted"),
        (["simulate", "--m", "8", "--k", "8", "--v", "4", "--p", "1.5"], "p out of range"),
        (
            [
                "converse",
                "--m", "10", "--k", "16", "--v", "2",
                "--p", "0.3", "--delta", "0.2", "--theta", "0.7",
                "--hm", "20", "--rprimem", "3", "--adversary", "uniform",
            ],
            "converse experiment needs the strong or weak adversary",
        ),
        (["curves", "--r0-list", "0.3,1.5", "--c-min", "0.5", "--c-max", "1"], "r0 out of range"),
        (
            ["curves", "--r0-list", "0.3", "--c-min", "0.5", "--c-max", "1", "--c-points", "0"],
            "--c-points out of range",
        ),
        (["sweep-p", "--m", "0", "--k", "8", "--v", "4", "--p-list", "0.1"], "m out of range"),
        (
            ["smembership", "--m-list", "0", "--coverage", "0.430783", "--delta", "0.05"],
            "horizon floor(0.9*c*M) is 0 at M=0",
        ),
    ],
    ids=[
        "codebook-budget", "simulate-p", "converse-adversary", "curves-r0", "curves-c-points",
        "sweep-p-m0", "smembership-m0",
    ],
)
def test_library_errors_are_one_line(argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    text = str(exc.value)
    assert text.startswith(f"dnareads: {message}")
    assert "\n" not in text


_BASE_ARGV = {
    "codebook": ["codebook", "--m", "10", "--k", "8", "--v", "4"],
    "sweep-p": ["sweep-p", "--m", "8", "--k", "8", "--v", "4", "--p-list", "0.1"],
    "curves": ["curves", "--r0-list", "0.3", "--c-min", "0.5", "--c-max", "1.0"],
    "smembership": [
        "smembership", "--m-list", "20", "--coverage", "0.430783", "--delta", "0.05",
    ],
}
_FLAG_VALUES = {
    "--m": "7", "--k": "8", "--v": "4", "--p": "0.9", "--delta": "0.1", "--theta": "0.5",
    "--adversary": "strong", "--trials": "5", "--seed": "1", "--read-cap": "2",
}
_UNREAD_FLAGS = [
    ("codebook", flag) for flag in ("--p", "--delta", "--adversary", "--trials", "--read-cap")
] + [("sweep-p", "--p")] + [
    ("curves", flag)
    for flag in (
        "--m", "--k", "--v", "--p", "--delta", "--theta", "--adversary", "--trials",
        "--seed", "--read-cap",
    )
] + [
    ("smembership", flag)
    for flag in ("--m", "--k", "--v", "--p", "--theta", "--adversary", "--read-cap")
]


@pytest.mark.parametrize(
    "command,flag", _UNREAD_FLAGS, ids=[f"{c}{f}" for c, f in _UNREAD_FLAGS]
)
def test_subcommand_rejects_flag_it_does_not_read(tmp_path, capsys, command, flag):
    # a flag the subcommand would ignore is an argument error, also where it
    # is a prefix of one the subcommand takes (--p of --p-list, --m of --m-list)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(_BASE_ARGV[command] + [flag, _FLAG_VALUES[flag], "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err
    assert not out.exists()


_CFG = {"m": 8, "k": 8, "v": 4, "trials": 5, "out": "x.csv"}
_BAD_VALUES = {"p": "0.1", "trials": "5", "seed": 1.5, "theta": None, "h_m": "x", "out": 7, "m": True}
_STRONG = [
    "simulate", "--m", "8", "--k", "8", "--v", "4", "--trials", "5",
    "--adversary", "strong", "--rprimem", "2", "--out", "x.csv",
]
_SMEMBERSHIP = ["smembership", "--m-list", "20", "--coverage", "0.430783", "--delta", "0.05"]
# (id, argv, text of cfg.json or None for no file, what the message must hold)
_BAD_INPUTS = [
    (
        f"config-{key}",
        ["simulate", "--config", "cfg.json"],
        json.dumps({**_CFG, key: value}),
        f"dnareads: {key} must be ",
    )
    for key, value in _BAD_VALUES.items()
] + [
    ("config-missing", ["simulate", "--m", "8", "--config", "none.json"], None, "none.json"),
    ("config-invalid", ["simulate", "--config", "cfg.json"], '{"m": 8,', "cfg.json"),
    ("config-not-object", ["simulate", "--config", "cfg.json"], "[8, 8, 4]", "cfg.json"),
    (
        "out-unwritable",
        ["simulate", "--m", "8", "--k", "8", "--v", "4", "--trials", "5", "--out", "no/x.csv"],
        None,
        "no/x.csv",
    ),
    (
        "smembership-config-trials",
        _SMEMBERSHIP + ["--config", "cfg.json"],
        json.dumps({"trials": "5", "out": "x.csv"}),
        "dnareads: trials must be an integer, got '5'",
    ),
    ("hm-zero", _STRONG + ["--hm", "0"], None, "dnareads: h_m out of range"),
    ("hm-negative", _STRONG + ["--hm", "-3"], None, "dnareads: h_m out of range"),
] + [
    # the strong adversary alone reads h_m, and bounds it by read_cap
    (
        f"{command}-strong-hm-past-read-cap",
        [command] + _CONVERSE[1:] + ["--adversary", "strong", "--rprimem", "3"] + _HM_PAST_CAP,
        None,
        "dnareads: h_m exceeds read_cap",
    )
    for command in ("simulate", "converse")
] + [
    (f"smembership-delta-{x}", _SMEMBERSHIP[:-1] + [x], None, "dnareads: delta out of range")
    for x in ("1.5", "nan")
] + [
    # 1 - delta - e^-coverage is 0 or rounds to 1: no rate, named by its flags
    (
        f"smembership-no-rate-{c}",
        ["smembership", "--m-list", "50", "--coverage", c, "--delta", "0", "--trials", "5"],
        None,
        f"dnareads: coverage {float(c)!r} and delta 0.0 give no rate",
    )
    for c in ("1e-300", "40")
] + [
    # the analytic columns' domain, checked before any trial runs
    (
        "sweep-p-p-one",
        ["sweep-p", "--m", "8", "--k", "8", "--v", "4", "--p-list", "0.5,1.0"],
        None,
        "--p-list",
    ),
    (
        "sweep-p-ones-threshold",
        [
            "sweep-p", "--m", "10", "--k", "4", "--v", "2", "--delta", "1.0", "--theta", "0.9",
            "--p-list", "0.1",
        ],
        None,
        "--theta",
    ),
]


@pytest.mark.parametrize(
    "argv,config,named", [c[1:] for c in _BAD_INPUTS], ids=[c[0] for c in _BAD_INPUTS]
)
def test_bad_input_ends_in_one_line(tmp_path, monkeypatch, capsys, argv, config, named):
    # every bad value, file or path is one "dnareads: " line that names it,
    # raised before any output is written
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    text = str(exc.value)
    assert text.startswith("dnareads: ") and named in text
    assert "\n" not in text
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if config else [])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["sweep-p", "--m", "8", "--k", "8", "--v", "4", "--p-list", "0.1,x"], "--p-list"),
        (["smembership", "--m-list", "20,4.5", "--coverage", "0.43", "--delta", "0.05"], "--m-list"),
        (["curves", "--r0-list", "0.3,,y", "--c-min", "0.5", "--c-max", "1"], "--r0-list"),
        (["smembership", "--m-list", ",", "--coverage", "0.43", "--delta", "0.05"], "--m-list"),
        (["curves", "--r0-list", "0.3", "--c-min", "nan", "--c-max", "1"], "--c-min"),
        (["curves", "--r0-list", "0.3", "--c-min", "0.5", "--c-max", "inf"], "--c-max"),
        (["smembership", "--m-list", "50", "--coverage", "nan", "--delta", "0.05"], "--coverage"),
        (["smembership", "--m-list", "50", "--coverage", "inf", "--delta", "0.05"], "--coverage"),
    ],
    ids=[
        "p-list", "m-list", "r0-list", "m-list-empty", "c-min-nan", "c-max-inf",
        "coverage-nan", "coverage-inf",
    ],
)
def test_bad_list_element_names_its_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
