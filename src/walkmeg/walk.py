"""State-vector simulation of the 1D discrete-time quantum walk.

The joint state lives on (coin bit c, lattice position x). One step applies
the active coin to the coin qubit at every position, then shifts c = 0
amplitudes one site to the right and c = 1 amplitudes one site to the left.
The lattice grows with the step count, so no boundary handling is needed
and the evolution is exact.

Bit convention: a sequence over a two-coin set {coin0, coin1} is written as
a bit string b of length T where bit value 0 selects coin0 (the Hadamard
slot in the standard sets) and bit value 1 selects coin1. Bits are applied
left to right, b[0] at step 1.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .coins import require_coin

__all__ = [
    "InitialCoinState",
    "CoinSequence",
    "WalkerState",
    "ProbabilityDistribution",
    "TOMOGRAPHY_INPUT_NAMES",
    "initial_state",
    "step",
    "trajectory",
    "evolve",
    "reduced_coin_state",
    "position_distribution",
]


@dataclass(frozen=True)
class InitialCoinState:
    """Pure coin state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("initial-state angles must be finite")

    @property
    def vector(self) -> np.ndarray:
        """Coin amplitudes as a length-2 complex array, unit norm."""
        return np.array(
            [
                math.cos(self.theta / 2.0),
                cmath.exp(1j * self.phi) * math.sin(self.theta / 2.0),
            ],
            dtype=np.complex128,
        )

    @property
    def bloch(self) -> np.ndarray:
        """Bloch vector (x, y, z) of the state."""
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    @classmethod
    def named(cls, name: str) -> "InitialCoinState":
        """One of the tomography inputs H (|0>), V (|1>), + or L."""
        try:
            theta, phi = _NAMED_STATES[str(name).strip()]
        except KeyError:
            raise ValueError(
                f"unknown initial state {name!r}; expected one of "
                f"{sorted(_NAMED_STATES)}"
            ) from None
        return cls(theta, phi)


_NAMED_STATES = {
    "H": (0.0, 0.0),
    "V": (math.pi, 0.0),
    "+": (math.pi / 2.0, 0.0),
    "L": (math.pi / 2.0, math.pi / 2.0),
}

TOMOGRAPHY_INPUT_NAMES = tuple(_NAMED_STATES)


def require_bits(bits: str) -> str:
    """Validate and return a bit string: text of 0s and 1s, at least one.

    Anything but a str raises TypeError: an int would lose its leading 0s.
    """
    if not isinstance(bits, str):
        raise TypeError(f"bits must be a str of 0s and 1s, got {type(bits).__name__}")
    if len(bits) < 1:
        raise ValueError("coin sequence must have length T >= 1")
    if set(bits) - {"0", "1"}:
        raise ValueError(f"bits must contain only 0 and 1, got {bits!r}")
    return bits


@dataclass(frozen=True)
class CoinSequence:
    """Two coin operators plus a bit string selecting one per step.

    bits is a 0/1 text string of length T >= 1; bit 0 -> coin0,
    bit 1 -> coin1, applied left to right.
    """

    coin0: np.ndarray
    coin1: np.ndarray
    bits: str

    def __post_init__(self):
        object.__setattr__(self, "coin0", require_coin(self.coin0))
        object.__setattr__(self, "coin1", require_coin(self.coin1))
        object.__setattr__(self, "bits", require_bits(self.bits))

    @property
    def T(self) -> int:
        return len(self.bits)

    def coin_at(self, t: int) -> np.ndarray:
        """Coin applied at step t (1-based)."""
        return self.coin0 if self.bits[t - 1] == "0" else self.coin1


@dataclass(frozen=True)
class WalkerState:
    """Joint coin-walker amplitudes after t steps.

    amplitudes has shape (2, 2t+1); entry (c, i) is the amplitude at coin
    bit c and position x = i - t. The step count t is read from the width.
    """

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.ndim != 2 or amp.shape[0] != 2 or amp.shape[1] % 2 != 1:
            raise ValueError(f"amplitude table must have shape (2, 2t+1), got {amp.shape}")
        norm = float(np.sum(np.abs(amp) ** 2))
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def t(self) -> int:
        return self.amplitudes.shape[1] // 2


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Position probabilities P(x) for x = -t .. t; t is read from the length 2t+1."""

    probabilities: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.ndim != 1 or p.size % 2 != 1:
            raise ValueError(f"distribution must have 2t+1 entries, got shape {p.shape}")
        if not float(p.min()) >= -1e-12:
            raise ValueError("probabilities must be nonnegative")
        if not abs(float(p.sum()) - 1.0) <= 1e-10:
            raise ValueError("probabilities must sum to 1")
        p = np.clip(p, 0.0, None)
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    @property
    def t(self) -> int:
        return self.probabilities.size // 2

    @property
    def positions(self) -> np.ndarray:
        return np.arange(-self.t, self.t + 1)


def initial_state(coin: InitialCoinState) -> WalkerState:
    """Walker localized at x = 0 with the given coin state (t = 0)."""
    amp = coin.vector.reshape(2, 1)
    return WalkerState(amp)


def step(state: WalkerState, coin: np.ndarray) -> WalkerState:
    """Apply one walk step: coin on the coin index, then conditional shift.

    c = 0 amplitudes move x -> x+1 and c = 1 amplitudes move x -> x-1.
    The returned state has t incremented and the lattice widened by one
    site on each end.
    """
    c = require_coin(coin)
    amp = state.amplitudes
    rotated0 = c[0, 0] * amp[0] + c[0, 1] * amp[1]
    rotated1 = c[1, 0] * amp[0] + c[1, 1] * amp[1]
    n = amp.shape[1] + 2
    out = np.zeros((2, n), dtype=np.complex128)
    out[0, 2:] = rotated0
    out[1, :-2] = rotated1
    return WalkerState(out)


def trajectory(coin: InitialCoinState, seq: CoinSequence) -> Iterator[WalkerState]:
    """Yield the state after each step t = 1..T from a localized walker."""
    state = initial_state(coin)
    for t in range(1, seq.T + 1):
        state = step(state, seq.coin_at(t))
        yield state


def evolve(coin: InitialCoinState, seq: CoinSequence) -> WalkerState:
    """Run the full sequence from a localized walker: the last state of trajectory()."""
    for state in trajectory(coin, seq):
        pass  # keep only the last state; T may run to thousands
    return state


def reduced_coin_state(state: WalkerState) -> np.ndarray:
    """Trace out the walker: rho[c, c'] = sum_x A(c, x) conj(A(c', x))."""
    amp = state.amplitudes
    return amp @ amp.conj().T


def position_distribution(state: WalkerState) -> ProbabilityDistribution:
    """Position marginal P(x) = sum_c |A(c, x)|^2."""
    p = np.sum(np.abs(state.amplitudes) ** 2, axis=0)
    return ProbabilityDistribution(p)
