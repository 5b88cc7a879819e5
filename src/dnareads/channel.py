"""Read sampling, error flags, and the adversaries that fill in what an
erroneous read returns: honest (identity), uniform (random molecule, with an
index-preserving variant), strong (clairvoyant, decoder-aware), and weak
(causal, codebook-aware only).

Each observe_* maps a whole trial at once: the true id row
cb.word_ids[message][f], the index sequence f and the error flags go in, the
observed id row (index*v + payload per read) comes out."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import decoder
from .analysis import SPartition
from .codebook import Codebook

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


def observe_uniform(
    true_ids: np.ndarray,
    f,
    flags,
    m: int,
    v: int,
    rng: np.random.Generator,
    index_preserving: bool = False,
) -> np.ndarray:
    """Observed id row when each erroneous read returns a uniform molecule.

    Replacement tables are drawn for every read position, indices then
    payloads, and consulted only where flags is set, so sweeps over p share
    common random numbers.  Default: uniform over all m*v molecules (the
    correct one included).  index_preserving: keep the sampled index f[t] and
    draw only the payload.
    """
    rep_idx = f if index_preserving else rng.integers(0, m, size=len(f))
    rep_pay = rng.integers(0, v, size=len(f))
    return np.where(flags, rep_idx * v + rep_pay, true_ids)


@dataclass(frozen=True, eq=False)
class StrongAdversaryPlan:
    """Per-trial plan of the clairvoyant adversary.

    t1 is the partition's bool mask over the h_m read prefix (entry j is read
    time j+1); the other prefix times are t2.  active requires psi, errors
    at every t1 time, and a qualifying m_prime; stop_times maps each
    candidate m' that stops by the horizon to its error-free stopping time
    (such a stop always decodes to m').  The candidates are the other
    messages that sample identically on t2, and there are none unless the
    partition, psi and the t1 errors hold.
    """

    active: bool
    m_prime: int | None
    t1: np.ndarray
    psi: bool
    stop_times: Mapping[int, int]


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
    time, some other message m' that stops by the horizon samples identically
    on t2 (codewords agree on every index hit by t2 reads), and psi holds.
    The smallest qualifying m' id is chosen.  Uses the full future f, flags,
    and error-free decoder behavior; legitimate only for this adversary model.
    """
    candidates = []
    if part.in_s and psi and flags[:h_m][part.t1].all():
        t2_indices = f[:h_m][~part.t1]  # repeats are harmless to the compare
        agree = (cb.matrix[:, t2_indices] == cb.matrix[m, t2_indices]).all(axis=1)
        agree[m] = False
        candidates = np.flatnonzero(agree).tolist()
    stop_times = decoder.stopping_times_all(cb, f, h_m, candidates)
    m_prime = min(stop_times, default=None)
    return StrongAdversaryPlan(
        active=m_prime is not None,
        m_prime=m_prime,
        t1=part.t1,
        psi=psi,
        stop_times=MappingProxyType(stop_times),
    )


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
    index in the set, or None when no such message exists.
    """
    mm = cb.params.m
    if not 0 <= r_prime_m <= mm:
        raise ValueError("r_prime_m out of range")
    chosen = np.sort(rng.choice(mm, size=r_prime_m, replace=False))
    w = cb.matrix
    equal = (w[:, chosen] == w[m, chosen]).all(axis=1)
    equal[m] = False
    cands = np.flatnonzero(equal)
    m_prime = int(cands[rng.integers(len(cands))]) if len(cands) else None
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
