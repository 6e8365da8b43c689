"""Entanglement and spreading metrics for walk states.

Covers the von Neumann entropy of the reduced coin state (log base 2, so 1
means maximal walker-coin entanglement), its ensemble statistics over a
deterministic sphere sample of initial states, the normalized Shannon
entropy of the position distribution (natural log over ln(T+1)), and the
second moment with its log-log diffusion-exponent fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import bloch_image
from .walk import (
    CoinSequence,
    InitialCoinState,
    ProbabilityDistribution,
    position_distribution,
    trajectory,
)

__all__ = [
    "DEFAULT_ENSEMBLE",
    "EnsembleStatistics",
    "MomentSeries",
    "entanglement_entropy",
    "average_entanglement",
    "ensemble_entropies",
    "shannon_entropy",
    "second_moment",
    "walk_moment_series",
]

DEFAULT_ENSEMBLE = 296


def entanglement_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum lam log2 lam of a qubit density matrix.

    0 for pure states, 1 for the maximally mixed state. The input must be
    Hermitian, unit trace and positive semidefinite within 1e-8.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got {rho.shape}")
    if not np.max(np.abs(rho - rho.conj().T)) <= 1e-8:
        raise ValueError("density matrix is not Hermitian within 1e-8")
    if not abs(np.trace(rho).real - 1.0) <= 1e-8:
        raise ValueError("density matrix trace differs from 1")
    lam = np.linalg.eigvalsh(rho)
    if not float(lam.min()) >= -1e-8:
        raise ValueError(f"density matrix eigenvalue {lam.min():.3e} is negative")
    lam = np.clip(lam, 0.0, 1.0)
    nz = lam[lam > 0.0]
    s = float(-(nz * np.log2(nz)).sum())
    return min(max(s, 0.0), 1.0)


@dataclass(frozen=True)
class EnsembleStatistics:
    """Mean and population spread of a metric over n initial states."""

    mean: float
    std_dev: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ensemble size must be >= 1")
        if not self.std_dev >= 0.0:
            raise ValueError("standard deviation cannot be negative")


def ensemble_entropies(seq: CoinSequence, ensemble_size: int = DEFAULT_ENSEMBLE) -> np.ndarray:
    """Final-state entanglement entropy for each sphere-lattice initial state.

    The joint walker-coin state stays pure, so the entropy is the binary
    entropy h((1 + r)/2) of the reduced coin state, where r is the length
    of its Bloch vector: the lattice's image under the channel's PTM.
    """
    r = np.minimum(np.linalg.norm(bloch_image(seq, ensemble_size).outputs, axis=1), 1.0)
    lam = np.stack([(1.0 + r) / 2.0, (1.0 - r) / 2.0])
    terms = lam * np.log2(np.where(lam > 0.0, lam, 1.0))  # 0 log 0 = 0
    return np.clip(-terms.sum(axis=0), 0.0, 1.0)


def average_entanglement(
    seq: CoinSequence, ensemble_size: int = DEFAULT_ENSEMBLE
) -> EnsembleStatistics:
    """Mean/std of the final entanglement entropy over the state ensemble.

    The ensemble is the deterministic Fibonacci sphere lattice, so results
    are reproducible run to run. A unit-fidelity sequence gives mean 1
    with vanishing spread.
    """
    values = ensemble_entropies(seq, ensemble_size)
    return EnsembleStatistics(
        mean=float(values.mean()),
        std_dev=float(values.std()),
        n=int(values.size),
    )


def shannon_entropy(dist: ProbabilityDistribution) -> float:
    """Normalized Shannon entropy (-sum P ln P) / ln(t+1), with 0 ln 0 = 0.

    t is the distribution's step count, so the value lies in [0, 1]: a
    t-step walk reaches at most the t+1 sites of one parity, and the
    uniform distribution over them gives 1.
    """
    if dist.t < 1:
        raise ValueError("the distribution must be of a walk of t >= 1 steps")
    nz = dist.probabilities[dist.probabilities > 0.0]
    return float(-(nz * np.log(nz)).sum() / math.log(dist.t + 1))


def second_moment(dist: ProbabilityDistribution) -> float:
    """Second moment m = sum_x x^2 P(x) of the position distribution."""
    x = dist.positions.astype(float)
    return float((x * x * dist.probabilities).sum())


@dataclass(frozen=True)
class MomentSeries:
    """Second moments m(t) for t = 1..T and their power-law fit m ~ prefactor t^alpha."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("moment series must be a nonempty 1d array")
        t = np.arange(1, values.size + 1, dtype=float)
        if not np.all(values <= t * t + 1e-9):
            raise ValueError("second moment exceeds the light-cone bound t^2")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def T(self) -> int:
        return int(self.values.size)

    @property
    def alpha(self) -> float:
        """The diffusion exponent: the least-squares slope of ln m(t) against ln t.

        2 for ballistic spreading, 1 for diffusive; strictly between for
        superdiffusive walks. Raises ValueError for fewer than three values
        or a value that is not positive.
        """
        return _power_law_fit(self.values)[0]

    @property
    def prefactor(self) -> float:
        """The fitted c of m ~ c t^alpha; raises ValueError as alpha does."""
        return float(np.exp(_power_law_fit(self.values)[1]))


def _power_law_fit(values: np.ndarray) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line ln m(t) = slope ln t + intercept, t = 1.."""
    if values.size < 3:
        raise ValueError("need at least three points to fit an exponent")
    if np.any(values <= 0.0):
        raise ValueError("second moments must be positive for a log-log fit")
    t = np.arange(1, values.size + 1, dtype=float)
    slope, intercept = np.polyfit(np.log(t), np.log(values), 1)
    return float(slope), float(intercept)


def walk_moment_series(seq: CoinSequence, init: InitialCoinState) -> MomentSeries:
    """Evolve stepwise and collect m(t) for t = 1..T."""
    return MomentSeries([second_moment(position_distribution(s)) for s in trajectory(init, seq)])
