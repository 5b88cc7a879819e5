"""The README's Python examples run as written."""

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


def test_readme_commands_parse():
    # every dnareads command of the README's sh blocks parses with the
    # current flags (continuation lines joined); none is run
    from dnareads.cli import build_parser

    text = "\n".join(re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.S | re.M))
    lines = text.replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("dnareads ")]
    parsed = {build_parser().parse_args(argv).command for argv in commands}
    assert parsed == {"codebook", "simulate", "sweep-p", "curves", "smembership", "converse"}
