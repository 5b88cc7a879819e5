"""Variable-read simulator and analysis tools for index-based DNA storage codes.

A stored message is a set of m molecules, each carrying an index in [0, m)
and a payload symbol in [0, v).  The reader draws molecules uniformly with
replacement, each read corrupted independently with probability p, and a
sequential decoder stops as soon as exactly one codeword explains what has
been seen up to a slack of dm foreign molecules.
"""

from .core import (
    Molecule,
    ReadRecord,
    SimParams,
    Trace,
    Verdict,
    VerdictKind,
    derive_codebook_rng,
    derive_trial_rng,
)
from .codebook import Codebook, construct_greedy, load_codebook, save_codebook
from .harness import ExperimentConfig, RunSummary, run_trials

__all__ = [
    "Molecule",
    "ReadRecord",
    "SimParams",
    "Trace",
    "Verdict",
    "VerdictKind",
    "derive_codebook_rng",
    "derive_trial_rng",
    "Codebook",
    "construct_greedy",
    "load_codebook",
    "save_codebook",
    "ExperimentConfig",
    "RunSummary",
    "run_trials",
]
