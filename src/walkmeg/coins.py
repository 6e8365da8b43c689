"""Coin operators for the discrete-time quantum walk.

A coin operator is a 2x2 complex unitary ndarray acting on the internal
(coin) qubit. The one-parameter family used throughout,

    C(gamma) = [[cos g, sin g], [sin g, -cos g]],

interpolates between sigma_z (g = 0), the Hadamard coin (g = pi/4) and
sigma_x (g = pi/2). The full three-angle form C(xi, gamma, zeta) covers
the SU(2) coins up to global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoinParameters",
    "build_coin",
    "rotation_coin",
    "named_coin",
    "is_unitary",
    "HADAMARD",
    "IDENTITY",
    "FOURIER",
    "PAULI_X",
    "PAULI_Z",
]

_TWO_PI = 2.0 * math.pi


def _frozen(matrix) -> np.ndarray:
    out = np.array(matrix, dtype=np.complex128)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CoinParameters:
    """Angles (xi, gamma, zeta) of a general coin, canonicalized to [0, 2pi)."""

    xi: float
    gamma: float
    zeta: float

    def __post_init__(self):
        for name in ("xi", "gamma", "zeta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"coin angle {name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value) % _TWO_PI)


def build_coin(params: CoinParameters) -> np.ndarray:
    """Build the coin matrix for the given angles.

    Parameters
    ----------
    params : CoinParameters
        Angles (xi, gamma, zeta) in radians.

    Returns
    -------
    numpy.ndarray
        The 2x2 complex matrix

            [[e^{i xi} cos g,   e^{i zeta} sin g],
             [e^{-i zeta} sin g, -e^{-i xi} cos g]],

        which is unitary for any real angles.
    """
    if not isinstance(params, CoinParameters):
        params = CoinParameters(*params)
    cg = math.cos(params.gamma)
    sg = math.sin(params.gamma)
    exi = complex(math.cos(params.xi), math.sin(params.xi))
    eze = complex(math.cos(params.zeta), math.sin(params.zeta))
    return _frozen([[exi * cg, eze * sg], [sg / eze, -cg / exi]])


def rotation_coin(gamma: float) -> np.ndarray:
    """One-parameter coin C(gamma) = C(0, gamma, 0), real-valued."""
    return build_coin(CoinParameters(0.0, gamma, 0.0))


# The range of gamma in C(gamma) that the CLI, the landscape scan and the
# anneal use: sigma_z at 0 to sigma_x at pi/2.
ROTATION_ANGLES = (0.0, math.pi / 2.0)


def in_rotation_range(gamma: float) -> bool:
    """Whether gamma lies in ROTATION_ANGLES.

    The upper end has 1e-12 of slack, so that pi/2 written out rounded
    up, such as 1.5707963267949, is accepted.
    """
    return ROTATION_ANGLES[0] <= gamma <= ROTATION_ANGLES[1] + 1e-12


_SQRT_HALF = 1.0 / math.sqrt(2.0)

HADAMARD = _frozen([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])
IDENTITY = _frozen([[1.0, 0.0], [0.0, 1.0]])
FOURIER = _frozen([[_SQRT_HALF, 1j * _SQRT_HALF], [1j * _SQRT_HALF, _SQRT_HALF]])
PAULI_X = _frozen([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = _frozen([[1.0, 0.0], [0.0, -1.0]])

_NAMED = {
    "H": HADAMARD,
    "I": IDENTITY,
    "F": FOURIER,
    "X": PAULI_X,
    "Z": PAULI_Z,
}


def named_coin(name: str) -> np.ndarray:
    """Return one of the named coins H, I, F, X, Z.

    H is the Hadamard coin, I the identity, F = (1/sqrt2)[[1, i], [i, 1]],
    X and Z the Pauli matrices.
    """
    key = str(name).strip().upper()
    if key not in _NAMED:
        raise ValueError(
            f"unknown coin name {name!r}; expected one of {sorted(_NAMED)}"
        )
    return _NAMED[key]


def is_unitary(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """True when matrix is 2x2 and C^dag C = 1 within tol elementwise."""
    m = np.asarray(matrix)
    if m.shape != (2, 2):
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(2))) < tol)


def require_coin(matrix: np.ndarray) -> np.ndarray:
    """Validate and return a coin operator as a read-only complex array.

    Unitarity is checked with is_unitary's default tolerance, 1e-12.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"coin operator must be 2x2, got shape {m.shape}")
    if not is_unitary(m):
        raise ValueError("coin operator is not unitary within tolerance")
    return _frozen(m)
