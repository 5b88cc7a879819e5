"""Byte-identity of the program's outputs against a committed digest manifest.

Each run below is a small `cli.main` call (or one saved trace).  The manifest,
tests/golden_outputs.json, holds the sha256 of every run's output file,
stdout and stderr, its exit status, and the numpy version and CSV_VERSION
that made them.  Any byte that changes fails the test, and so does a numpy
other than the manifest's, since numpy's SeedSequence and PCG64 fix every
random draw, and a CSV_VERSION other than the manifest's: a change to the
random-number contract bumps CSV_VERSION and regenerates the manifest
together.

After a change that is meant to alter outputs, regenerate the manifest and
commit it with the change:

    PYTHONPATH=src python tests/test_golden_outputs.py --regenerate

It prints the names of the runs whose digests it adds, changes or removes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dnareads.cli import main
from dnareads.codebook import construct_greedy
from dnareads.core import SimParams
from dnareads.decoder import save_trace
from dnareads.harness import CSV_VERSION
from dnareads.simulate import run_trial

MANIFEST = Path(__file__).with_name("golden_outputs.json")

_BOOK = ["--m", "20", "--k", "16", "--v", "8", "--delta", "0.1", "--theta", "0.5"]
_SIM = ["simulate", *_BOOK, "--read-cap", "200", "--trials", "2000"]
_SWEEP = [*_BOOK, "--read-cap", "200", "--adversary", "uniform", "--trials", "3000",
          "--p-list", "0.05,0.1,0.2"]
_MEMBERSHIP = ["--m-list", "50,100,200", "--coverage", "0.430783", "--delta", "0.05",
               "--trials", "500"]
_SEEDS = ("0", "3", "7")
# criterion 8's converse config
_CONV = ["--m", "10", "--k", "16", "--v", "2", "--p", "0.3", "--delta", "0.2", "--theta", "0.7"]
_CONV_RUN = [*_CONV, "--read-cap", "400", "--hm", "20", "--rprimem", "5", "--trials", "300"]

# name -> argv; "{out}" stands for the run's output file
RUNS = {
    **{
        f"simulate-{adv}-p{p}": [*_SIM, "--seed", "5", "--adversary", adv, "--p", p,
                                 "--out", "{out}"]
        for adv in ("honest", "uniform", "uniform-index")
        for p in ("0", "0.15", "1")
    },
    **{
        f"simulate-uniform-p0.15-seed{seed}": [
            *_SIM, "--seed", seed, "--adversary", "uniform", "--p", "0.15", "--out", "{out}",
        ]
        for seed in _SEEDS
    },
    # odd ranges: m = 7, k = 11 and v = 5 read by multiply-shift
    "simulate-m7-uniform-p0.15": [
        "simulate", "--m", "7", "--k", "11", "--v", "5", "--delta", "0.15", "--theta", "0.6",
        "--p", "0.15", "--adversary", "uniform", "--trials", "2000", "--seed", "7",
    ],
    **{
        f"simulate-{adv}": ["simulate", *_CONV_RUN, "--adversary", adv, "--seed", "3"]
        for adv in ("strong", "weak")
    },
    # close words and a short read_cap: rows outlive the 8-read prefix, and
    # some reach read_cap, so the full-width pass decodes rows
    "simulate-outliving-prefix": [
        "simulate", "--m", "8", "--k", "16", "--v", "3", "--delta", "0.2", "--theta", "0.4",
        "--p", "0.1", "--adversary", "uniform", "--read-cap", "10", "--trials", "2000",
        "--seed", "3",
    ],
    # a large odd range, v = 200003, for the replacement payloads the
    # 8-read prefix's block reads
    "simulate-prefix-rejected-words": [
        "simulate", "--m", "8", "--k", "16", "--v", "200003", "--delta", "0.125",
        "--theta", "0.5", "--p", "0.1", "--read-cap", "200", "--adversary", "uniform",
        "--trials", "4000", "--seed", "8",
    ],
    # a large odd range, m = 70001, for f and the replacement indices; the
    # ones threshold (42001) is past the bound's domain, so W is read_cap and
    # every row is decoded in the one pass
    "simulate-rejected-words": [
        "simulate", "--m", "70001", "--k", "2", "--v", "2", "--delta", "0", "--theta", "0.6",
        "--p", "0.1", "--read-cap", "200", "--adversary", "uniform", "--trials", "2000",
        "--seed", "3",
    ],
    # the same parameters under the strong adversary, at seed 8: the strong
    # screen's S test on heads of f drawn from 70001 indices
    "converse-strong-rejected-words": [
        "converse", "--m", "70001", "--k", "2", "--v", "2", "--delta", "0", "--theta", "0.6",
        "--p", "0.1", "--read-cap", "200", "--hm", "20", "--rprimem", "19",
        "--adversary", "strong", "--trials", "2000", "--seed", "8", "--out", "{out}",
    ],
    # and under the weak adversary: Floyd's draw of 19 values of ranges
    # near 70001, on a rows x m mask
    "converse-weak-rejected-words": [
        "converse", "--m", "70001", "--k", "2", "--v", "2", "--delta", "0", "--theta", "0.6",
        "--p", "0.1", "--read-cap", "200", "--hm", "20", "--rprimem", "19",
        "--adversary", "weak", "--trials", "2000", "--seed", "8", "--out", "{out}",
    ],
    # Floyd's sample in columns at m = 20000 and r' = 500, past the
    # r' > m // 50 where numpy's choice would shuffle a tail of arange(m)
    "converse-weak-tail-shuffle": [
        "converse", "--m", "20000", "--k", "2", "--v", "2", "--delta", "0", "--theta", "0.6",
        "--p", "0.1", "--read-cap", "200", "--hm", "20", "--rprimem", "500",
        "--adversary", "weak", "--trials", "300", "--seed", "3", "--out", "{out}",
    ],
    # the benchmark's converse runs at 2500 strong and 5000 weak trials, long
    # enough to span several converse blocks; 56 strong and 101 weak rows
    # outlive the 32-read prefix, so the full-width pass decodes rows
    **{
        f"converse-{adv}-blocks": [
            "converse", *_CONV, "--read-cap", "400", "--hm", "20", "--rprimem", rpm,
            "--adversary", adv, "--trials", trials, "--seed", "3", "--out", "{out}",
        ]
        for adv, rpm, trials in (("strong", "5", "2500"), ("weak", "3", "5000"))
    },
    # a code where psi holds on half the rows and every head is in S, so the
    # strong screen's other two premises, the t1 errors and a t2-agreeing
    # codeword, decide: it sends the 229 rows with a candidate to the
    # per-trial draw; 4000 trials span five converse blocks
    "converse-strong-screened": [
        "converse", "--m", "8", "--k", "16", "--v", "2", "--p", "0.5", "--delta", "0.25",
        "--theta", "0.8", "--read-cap", "100", "--hm", "12", "--rprimem", "6",
        "--adversary", "strong", "--trials", "4000", "--seed", "1", "--out", "{out}",
    ],
    "sweep-p": ["sweep-p", *_SWEEP, "--seed", "11"],
    **{f"sweep-p-seed{seed}": ["sweep-p", *_SWEEP, "--seed", seed] for seed in _SEEDS},
    "curves": [
        "curves", "--r0-list", "0.2,0.3,0.5", "--c-min", "0.05", "--c-max", "5",
        "--c-points", "40", "--out", "{out}",
    ],
    "smembership": ["smembership", *_MEMBERSHIP, "--seed", "0"],
    **{
        f"smembership-seed{seed}": ["smembership", *_MEMBERSHIP, "--seed", seed]
        for seed in _SEEDS[1:]
    },
    **{
        f"converse-{adv}-seed{seed}": [
            "converse", *_CONV_RUN, "--adversary", adv, "--seed", seed, "--out", "{out}",
        ]
        for adv in ("strong", "weak")
        for seed in _SEEDS
    },
    "codebook": ["codebook", "--m", "20", "--k", "64", "--v", "8", "--theta", "0.25",
                 "--seed", "11", "--out", "{out}"],
    "simulate-bad-p": [*_SIM, "--p", "1.5"],
}
TRACE = "save-trace"


def _digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _run(argv: list[str]) -> dict:
    """Digests of one cli.main call: its output file (None when it writes
    none), stdout, stderr and exit status, as the process would show them."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main([a.replace("{out}", str(path)) for a in argv])
            except SystemExit as exc:
                # a string code is printed to stderr by the interpreter
                if isinstance(exc.code, str):
                    print(exc.code, file=sys.stderr)
                    status = 1
                else:
                    status = exc.code
        file = _digest(path.read_bytes()) if path.exists() else None
    return {"file": file, "stdout": _digest(out.getvalue()),
            "stderr": _digest(err.getvalue()), "status": status}


def _trace() -> dict:
    """Digest of the save_trace file of one uniform-adversary trial."""
    params = SimParams(m=8, k=8, v=8, p=0.1, dm=1, theta=0.5, read_cap=200, seed=1)
    cb = construct_greedy(params)
    _, trace = run_trial(cb, "uniform", 7, collect_trace=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.txt"
        save_trace(cb, trace, str(path))
        return {"file": _digest(path.read_bytes())}


def _outputs(name: str) -> dict:
    return _trace() if name == TRACE else _run(RUNS[name])


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def test_manifest_lists_every_run():
    assert sorted(_manifest()["runs"]) == sorted([*RUNS, TRACE])


def test_manifest_names_the_csv_version():
    made = _manifest()["csv_version"]
    assert made == CSV_VERSION, f"manifest made at {made!r}, running {CSV_VERSION!r}"


@pytest.mark.parametrize("name", [*RUNS, TRACE])
def test_outputs_match_manifest(name):
    manifest = _manifest()
    made, running = manifest["numpy"], np.__version__
    versions = f"manifest made with numpy {made}, running numpy {running}"
    assert made == running, f"numpy version differs: {versions}"
    assert _outputs(name) == manifest["runs"][name], f"{name}: outputs differ ({versions})"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    before = _manifest()["runs"] if MANIFEST.exists() else {}
    runs = {name: _outputs(name) for name in [*RUNS, TRACE]}
    manifest = {"numpy": np.__version__, "csv_version": CSV_VERSION, "runs": runs}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {MANIFEST}")
    for change, names in (
        ("added", runs.keys() - before.keys()),
        ("changed", [n for n in runs.keys() & before.keys() if runs[n] != before[n]]),
        ("removed", before.keys() - runs.keys()),
    ):
        for name in sorted(names):
            print(f"{change}: {name}")
