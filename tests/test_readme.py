"""The README's Python examples run as written."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_python_blocks_run(capsys):
    blocks = _python_blocks(README.read_text())
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert "VerdictKind." in capsys.readouterr().out


def _commands():
    # every dnareads command of the README's sh blocks, continuation lines joined
    text = "\n".join(re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.S | re.M))
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("dnareads ")]


def test_readme_commands_parse():
    # every command parses with the current flags; none is run
    from dnareads.cli import build_parser

    parsed = {build_parser().parse_args(argv).command for argv in _commands()}
    assert parsed == {"codebook", "simulate", "sweep-p", "curves", "smembership", "converse"}


def test_readme_commands_run(tmp_path, capsys):
    # every command runs as written, at 40 trials where it takes --trials,
    # and writes its file into tmp_path
    from dnareads.cli import build_parser, main
    from dnareads.harness import CSV_VERSION

    for argv in _commands():
        out = tmp_path / f"{argv[0]}.out"
        argv = argv + ["--out", str(out)]
        args = build_parser().parse_args(argv)
        if "trials" in vars(args):
            argv += ["--trials", "40"]
        assert main(argv) == 0, argv
        first = out.read_text().splitlines()[0]
        if args.command == "codebook":
            assert first == f"{args.m} {args.k} {args.v} {args.theta!r} {args.seed}"
        else:
            assert first == f"# {CSV_VERSION}", argv


def test_readme_config_table_lists_every_rule():
    # the "Config JSON" table has one row per checked key, so a rule added
    # without a README row fails here
    from dnareads.core import PARAM_RULES
    from dnareads.harness import CONFIG_RULES

    section = README.read_text().split("**Config JSON**", 1)[1]
    table = re.search(r"(?:^  \|.*\n)+", section, flags=re.M).group()
    cells = re.findall(r"^  \| (.*?) \|", table, flags=re.M)
    keys = {k for cell in cells for k in re.findall(r"`(\w+)`", cell)}
    assert keys == set(PARAM_RULES) | set(CONFIG_RULES)


def test_readme_golden_run_count():
    # the "Tests" section states how many CLI runs the golden manifest pins,
    # beside its one saved trace
    import json

    runs = json.loads((README.parent / "tests" / "golden_outputs.json").read_text())["runs"]
    stated = re.search(r"reruns\s+(\d+)\s+small\s+CLI\s+calls\s+and\s+one\s+saved\s+trace",
                       README.read_text())
    assert stated, "README no longer states the golden run count"
    assert "save-trace" in runs
    assert int(stated[1]) == len(runs) - 1


def test_readme_names_resolve():
    # every `module.name` of a dnareads module and every `Codebook.name` the
    # README cites exists, so a doc that outlives a deletion fails here
    import dnareads
    from dnareads.codebook import Codebook

    owners = {
        mod.name: importlib.import_module(f"dnareads.{mod.name}")
        for mod in pkgutil.iter_modules(dnareads.__path__)
    }
    owners |= {"dnareads": dnareads, "Codebook": Codebook}
    cited = re.findall(r"`(\w+)\.(\w+)`", README.read_text())
    cited = [(owner, name) for owner, name in cited if owner in owners]
    assert cited, "README cites no dnareads name"
    assert [f"{o}.{n}" for o, n in cited if not hasattr(owners[o], n)] == []


def test_versions_agree():
    # pyproject.toml's version, CSV_VERSION's number and every `dnareads X.Y.Z`
    # or `CSV X.Y.Z` the README states are one version, bumped together
    from dnareads.harness import CSV_VERSION

    pyproject = (README.parent / "pyproject.toml").read_text()
    project = re.search(r'^version = "(\d+\.\d+\.\d+)"$', pyproject, flags=re.M)
    stated = re.findall(r"\b(?:dnareads|CSV) (\d+\.\d+\.\d+)", README.read_text())
    assert project and stated
    assert {project[1], *stated} == {CSV_VERSION.removeprefix("dnareads ")}
