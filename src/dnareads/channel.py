"""Read sampling, error flags, and the adversaries that fill in what an
erroneous read returns: honest (identity), uniform (random molecule, with an
index-preserving variant), strong (clairvoyant, decoder-aware), and weak
(causal, codebook-aware only).

Each observe_* maps a whole trial at once: the true id row
cb.word_ids[message][f], the error flags and what the adversary needs go in,
the observed id row (index*v + payload per read) comes out.  The uniform
adversary maps replacement ids that the engine draws; the strong and weak ones
swap in a message that codebook.agreeing finds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import decoder
from .analysis import SPartition
from .codebook import Codebook, agreeing

ADVERSARIES = ("honest", "uniform", "uniform-index", "strong", "weak")


def sample_index_sequence(m: int, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform indices over [0, m); the index process is message-blind."""
    if horizon < 1:
        raise ValueError("horizon out of range")
    return rng.integers(0, m, size=horizon)


def sample_error_flags(p: float, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Bernoulli(p) error flags, one per prospective read.

    Drawn as uniforms compared against p so sweeps over p with a shared seed
    use common random numbers.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p out of range")
    return rng.random(horizon) < p


def observe_honest(true_ids: np.ndarray, f, flags) -> np.ndarray:
    """Errors never corrupt anything: the observed row is the true one."""
    return true_ids


def observe_uniform(true_ids: np.ndarray, flags, replacement: np.ndarray) -> np.ndarray:
    """Each erroneous read returns its replacement id, which the engine draws
    for every read position; on a row or on a block of rows."""
    return np.where(flags, replacement, true_ids)


@dataclass(frozen=True, eq=False)
class StrongAdversaryPlan:
    """Per-trial plan of the clairvoyant adversary.

    t1 is the partition's bool mask over the h_m read prefix (entry j is read
    time j+1); the other prefix times are t2.  m_prime is the smallest
    candidate m' that stops by the horizon, and stop its error-free stopping
    time (such a stop always decodes to m'); both are None when none does.
    The candidates are the messages codebook.agreeing gives for the t2
    indices, and there are none unless the partition, psi and the t1 errors
    hold.
    """

    m_prime: int | None
    stop: int | None
    t1: np.ndarray
    psi: bool

    @property
    def active(self) -> bool:
        return self.m_prime is not None


def strong_premise(part: SPartition, psi, errs: np.ndarray):
    """Whether the strong plan may have a candidate: the h_m head is in S,
    psi holds and every t1 read errs, errs being the head's error flags.
    For one row (part, psi and errs of one trial) or a block of rows."""
    return part.in_s & psi & (errs | ~part.t1).all(axis=-1)


def strong_prepare(
    cb: Codebook,
    m: int,
    f,
    flags,
    h_m: int,
    part: SPartition,
    psi: bool,
) -> StrongAdversaryPlan:
    """Build the clairvoyant plan for true message m.

    Active iff the partition witnesses membership, errors occur at every t1
    time, psi holds, and a candidate m' stops by the horizon; the smallest
    such m' is chosen.  Uses the full future f, flags, and error-free decoder
    behavior; legitimate only for this adversary model.
    """
    candidates = []
    if strong_premise(part, psi, flags[:h_m]):
        agree = agreeing(cb, np.array([m]), f[None, :h_m], part.t1[None])[0]
        candidates = np.flatnonzero(agree).tolist()
    stops = decoder.stopping_times_all(cb, f, h_m, candidates)
    m_prime = min(stops, default=None)
    return StrongAdversaryPlan(m_prime, stops.get(m_prime), part.t1, psi)


def observe_strong(
    plan: StrongAdversaryPlan, cb: Codebook, true_ids: np.ndarray, f, flags
) -> np.ndarray:
    """Active plan substitutes codeword m_prime's molecule on erroneous reads
    at t1 times; every other read (inactive plan, clean read, or erroneous
    read outside t1) keeps its true molecule."""
    if not plan.active:
        return true_ids
    at_t1 = np.zeros(len(f), dtype=bool)
    at_t1[: len(plan.t1)] = plan.t1
    return np.where(flags & at_t1, cb.word_ids[plan.m_prime][f], true_ids)


@dataclass(frozen=True, eq=False)
class WeakAdversaryPlan:
    """Causal adversary's per-trial plan: a uniform index set to leave alone
    (a sorted int array of indices in [0, m)), a uniformly chosen confusable
    message (if any), and the Bernoulli(p) activity coin."""

    index_set: np.ndarray
    m_prime: int | None
    psi: bool

    @property
    def active(self) -> bool:
        return self.psi and self.m_prime is not None


def weak_prepare(
    cb: Codebook, m: int, r_prime_m: int, rng: np.random.Generator
) -> WeakAdversaryPlan:
    """Draw the plan from cb and m alone (no access to reads or flags).

    index_set is uniform over size-r_prime_m subsets of [0, m); m_prime is
    uniform over messages other than m whose codeword matches m's on every
    index in the set, or None when no such message exists.  The pick reads
    one word whatever the candidate count n: a value of range max(n, 2), a
    multiple of n, taken mod n, which keeps it exactly uniform.
    """
    mm = cb.params.m
    if not 0 <= r_prime_m <= mm:
        raise ValueError("r_prime_m out of range")
    chosen = np.sort(rng.choice(mm, size=r_prime_m, replace=False))
    cands = np.flatnonzero(agreeing(cb, np.array([m]), chosen[None])[0])
    pick = int(rng.integers(max(len(cands), 2)))
    m_prime = int(cands[pick % len(cands)]) if len(cands) else None
    psi = bool(rng.random() < cb.params.p)
    return WeakAdversaryPlan(index_set=chosen, m_prime=m_prime, psi=psi)


def observe_weak(
    plan: WeakAdversaryPlan, cb: Codebook, true_ids: np.ndarray, f, flags
) -> np.ndarray:
    """Active plan turns every erroneous read into codeword m_prime's molecule
    at the sampled index (a no-op where the codewords agree)."""
    if not plan.active:
        return true_ids
    return np.where(flags, cb.word_ids[plan.m_prime][f], true_ids)
