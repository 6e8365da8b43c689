"""The coin-reduced quantum channel, read from the momentum kernel.

Running a coin sequence and tracing out the walker defines a qubit channel
on the coin: the momentum mean (1/n) sum_k U(k) . U(k)^dag of the walk's
SU(2) matrices, a mixture of unitaries. Its Pauli transfer matrix (PTM) is
therefore the block-diagonal diag(1, B), with B the mean of the Bloch
rotations of U(k), which the search module reads from the kernel's Gram
matrix (search.string_ptm); bloch_image maps sphere samples through it.
sequence_fidelity scores the channel against the fully depolarizing one
on the same kernel, with round-off near 1e-15. Unit fidelity certifies
maximal walker-coin entanglement for every initial coin state.

Conventions: Pauli order (1, sigma_x, sigma_y, sigma_z); the PTM R
satisfies R[m, n] = (1/2) tr(sigma_m eps(sigma_n)), so it maps Bloch
vectors by R[1:, 1:].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .search import batch_fidelities, string_ptm
from .sphere import fibonacci_sphere
from .walk import CoinSequence

__all__ = [
    "BlochImage",
    "coin_channel_ptm",
    "sequence_fidelity",
    "bloch_image",
]


def coin_channel_ptm(seq: CoinSequence) -> np.ndarray:
    """Pauli transfer matrix of the coin channel induced by seq.

    The block-diagonal diag(1, B), B the momentum mean of the Bloch
    rotations of the walk (search.string_ptm). Its first row and column
    are (1, 0, 0, 0) exactly: the channel is trace preserving and unital.
    """
    return string_ptm(seq.coin0, seq.coin1, seq.bits)


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
        if not np.max(np.abs(np.linalg.norm(inp, axis=1) - 1.0)) <= 1e-12:
            raise ValueError("every input must lie on the unit sphere")
        if not float(np.linalg.norm(out, axis=1).max()) <= 1.0 + 1e-9:
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

    Inputs are mapped through the Bloch block of the channel's Pauli
    transfer matrix. For a unit-fidelity sequence every output collapses to
    the origin.
    """
    pts = fibonacci_sphere(n_samples)
    return BlochImage(pts, pts @ coin_channel_ptm(seq)[1:, 1:].T)
