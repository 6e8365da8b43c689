"""The coin-reduced quantum channel and its process-matrix toolkit.

Running a coin sequence and tracing out the walker defines a qubit channel
on the coin. This module reads that channel's process (chi) matrix in the
Pauli basis from the momentum kernel of the search module, converts it to
the Pauli transfer matrix (bloch_image maps sphere samples through it),
and scores chi matrices against the fully depolarizing channel with the
Uhlmann process fidelity. Unit fidelity against the depolarizing target
certifies maximal walker-coin entanglement for every initial coin state.

The chi chain (PTM, chi, Uhlmann fidelity) is what the tests compare the
kernel against: the square roots of chi eigenvalues leave a ~1e-8 noise
floor. sequence_fidelity scores on the exact kernel instead.

Conventions: Pauli order (1, sigma_x, sigma_y, sigma_z); the chi matrix is
normalized to trace 1 so the identity channel is diag(1, 0, 0, 0); the PTM
R satisfies R[m, n] = (1/2) tr(sigma_m eps(sigma_n)) and acts on the
affine Pauli-coefficient vector (1, x, y, z).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .search import batch_fidelities, string_chi
from .sphere import fibonacci_sphere
from .walk import CoinSequence

__all__ = [
    "NotCompletelyPositiveError",
    "BlochImage",
    "coin_channel_ptm",
    "chi_to_ptm",
    "ptm_to_chi",
    "depolarizing_chi",
    "validate_chi",
    "process_fidelity",
    "sequence_fidelity",
    "bloch_image",
]


class NotCompletelyPositiveError(ValueError):
    """Raised when a reconstructed process matrix is not physical."""


def _pauli_stack() -> np.ndarray:
    s = np.zeros((4, 2, 2), dtype=np.complex128)
    s[0] = np.eye(2)
    s[1] = [[0, 1], [1, 0]]
    s[2] = [[0, -1j], [1j, 0]]
    s[3] = [[1, 0], [0, -1]]
    s.flags.writeable = False
    return s


PAULIS = _pauli_stack()


def _chi_ptm_change_of_basis() -> np.ndarray:
    # R_flat = M chi_flat with M[4m+n, 4p+q] = (1/2) tr(s_m s_p s_n s_q)
    m = np.zeros((16, 16), dtype=np.complex128)
    for a in range(4):
        for b in range(4):
            for p in range(4):
                for q in range(4):
                    m[4 * a + b, 4 * p + q] = 0.5 * np.trace(
                        PAULIS[a] @ PAULIS[p] @ PAULIS[b] @ PAULIS[q]
                    )
    return m


_CHI_TO_PTM = _chi_ptm_change_of_basis()
_PTM_TO_CHI = np.linalg.inv(_CHI_TO_PTM)


def coin_channel_ptm(seq: CoinSequence) -> np.ndarray:
    """Pauli transfer matrix of the coin channel induced by seq.

    The chi matrix of the momentum kernel (search.string_chi), converted
    by chi_to_ptm; trace preserving and unital to round-off.
    """
    return chi_to_ptm(string_chi(seq.coin0, seq.coin1, seq.bits))


def chi_to_ptm(chi: np.ndarray) -> np.ndarray:
    """Convert a chi matrix to its Pauli transfer matrix."""
    chi = np.asarray(chi, dtype=np.complex128)
    r = (_CHI_TO_PTM @ chi.reshape(16)).reshape(4, 4)
    return r.real.copy()


def ptm_to_chi(r: np.ndarray) -> np.ndarray:
    """Convert a Pauli transfer matrix to the trace-1 chi matrix.

    Raises NotCompletelyPositiveError when the implied chi has an
    eigenvalue below -1e-6, which signals a non-physical map.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (4, 4):
        raise ValueError(f"transfer matrix must be 4x4, got {r.shape}")
    chi = (_PTM_TO_CHI @ r.astype(np.complex128).reshape(16)).reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)
    lam = np.linalg.eigvalsh(chi)
    if float(lam.min()) < -1e-6:
        raise NotCompletelyPositiveError(
            f"chi eigenvalue {lam.min():.3e} below -1e-6; map is not completely positive"
        )
    return chi


def depolarizing_chi(eta: float) -> np.ndarray:
    """chi of the depolarizing channel rho -> (1-eta) rho + eta 1/2."""
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {eta}")
    return np.diag([1.0 - 0.75 * eta, 0.25 * eta, 0.25 * eta, 0.25 * eta]).astype(
        np.complex128
    )


# Most negative chi eigenvalue validate_chi accepts as round-off.
_PSD_TOL = 1e-9


def validate_chi(chi: np.ndarray) -> np.ndarray:
    """Check Hermiticity, trace 1 and positivity (to _PSD_TOL); return the array."""
    chi = np.asarray(chi, dtype=np.complex128)
    if chi.shape != (4, 4):
        raise ValueError(f"chi matrix must be 4x4, got {chi.shape}")
    if np.max(np.abs(chi - chi.conj().T)) > 1e-10:
        raise ValueError("chi matrix is not Hermitian within 1e-10")
    if abs(np.trace(chi).real - 1.0) > 1e-10:
        raise ValueError("chi matrix trace differs from 1 by more than 1e-10")
    lam = np.linalg.eigvalsh(chi)
    if float(lam.min()) < -_PSD_TOL:
        raise ValueError(
            f"chi eigenvalue {lam.min():.3e} below -{_PSD_TOL:g}; not positive semidefinite"
        )
    return chi


def _psd_sqrt(chi: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(chi)
    lam = np.clip(lam, 0.0, None)
    return (vec * np.sqrt(lam)) @ vec.conj().T


def process_fidelity(chi_a: np.ndarray, chi_b: np.ndarray) -> float:
    """Uhlmann fidelity F = (tr sqrt(sqrt(a) b sqrt(a)))^2 of two chi matrices.

    Both inputs are validated; eigenvalues in [-1e-9, 0) are clipped to 0
    before the square roots so rank-deficient channels of unitary walks do
    not produce NaN.
    """
    a = validate_chi(chi_a)
    b = validate_chi(chi_b)
    root = _psd_sqrt(a)
    inner = root @ b @ root
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    f = float(np.sum(np.sqrt(lam)) ** 2)
    return float(min(max(f, 0.0), 1.0))


def sequence_fidelity(seq: CoinSequence) -> float:
    """Process fidelity of the sequence channel against full depolarizing.

    Equals 1 exactly when the sequence generates maximal walker-coin
    entanglement for every initial coin state. One row of the search
    kernel, clamped to 1, with round-off near 1e-15.
    """
    bits = [[int(b) for b in seq.bits]]
    return float(batch_fidelities(seq.coin0, seq.coin1, bits)[0])


@dataclass(frozen=True)
class BlochImage:
    """Paired Bloch points: unit-sphere inputs and their channel outputs."""

    inputs: np.ndarray = field(repr=False)
    outputs: np.ndarray = field(repr=False)

    def __post_init__(self):
        inp = np.array(self.inputs, dtype=np.float64)
        out = np.array(self.outputs, dtype=np.float64)
        if inp.shape != out.shape or inp.ndim != 2 or inp.shape[1] != 3:
            raise ValueError("inputs and outputs must both have shape (n, 3)")
        if np.max(np.abs(np.linalg.norm(inp, axis=1) - 1.0)) > 1e-12:
            raise ValueError("every input must lie on the unit sphere")
        if float(np.linalg.norm(out, axis=1).max()) > 1.0 + 1e-9:
            raise ValueError("channel outputs must stay inside the Bloch ball")
        for arr in (inp, out):
            arr.flags.writeable = False
        object.__setattr__(self, "inputs", inp)
        object.__setattr__(self, "outputs", out)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def bloch_image(seq: CoinSequence, n_samples: int) -> BlochImage:
    """Image of a Fibonacci-lattice sphere sample under the sequence channel.

    Inputs are mapped through the channel's Pauli transfer matrix. For a
    unit-fidelity sequence every output collapses to the origin.
    """
    pts = fibonacci_sphere(n_samples)
    r = coin_channel_ptm(seq)
    affine = np.column_stack([np.ones(len(pts)), pts])
    outputs = affine @ r[1:, :].T
    return BlochImage(pts, outputs)
