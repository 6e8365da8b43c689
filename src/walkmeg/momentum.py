"""Momentum-space superoperator analysis of {H, 1} coin sequences.

In quasi-momentum k the coin's density matrix, written as the affine
Pauli-coefficient vector alpha = (1/2, a1, a2, a3), advances by one 4x4
real matrix per step: L^H(k) for a Hadamard step, L^1(k) for an identity
step. The physical reduced coin state is the k-average of the per-k
product, evaluated here exactly with a uniform grid because every matrix
entry is a trigonometric polynomial in k.

This route is independent of the state-vector simulator and doubles as an
oracle for it. On top of it sit closed-form optimality predicates for the
one-Hadamard and two-Hadamard sequence families

    b = 1^l1 0 1^l2      and      b = 1^l1 0 1^l2 0 1^l3

(bit 0 = Hadamard, bit 1 = identity), plus their variants with the leading
1 replaced by a 0, which change the effective first coin only and so share
the tail's optimality. A sequence is optimal when it maps every initial
coin state to the maximally mixed state, i.e. the final (a1, a2, a3)
vanishes for all inputs.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .coins import FOURIER, HADAMARD, IDENTITY
from .walk import CoinSequence, require_bits

__all__ = [
    "NoOptimalSequenceError",
    "AffineBlochVector",
    "SequencePattern",
    "superoperator_at",
    "momentum_final_bloch",
    "pattern_from_bits",
    "pattern_bits",
    "theorem_predicate",
    "iter_family_bits",
    "generate_table_sequence",
    "fourier_table_sequence",
    "FOURIER_TABLE_RANGE",
]


class NoOptimalSequenceError(ValueError):
    """No sequence of the requested length can reach maximal entanglement."""


@dataclass(frozen=True)
class AffineBlochVector:
    """Vector (1/2, a1, a2, a3) with (a1, a2, a3) = (x, y, z)/2.

    The leading 1/2 is fixed by trace preservation, so it is not a field.
    """

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        if not self.a1**2 + self.a2**2 + self.a3**2 <= 0.25 + 1e-9:
            raise ValueError("Bloch part exceeds the unit ball")

    @property
    def array(self) -> np.ndarray:
        return np.array([0.5, self.a1, self.a2, self.a3])

    @property
    def bloch(self) -> np.ndarray:
        """Ordinary Bloch vector (x, y, z) = 2 (a1, a2, a3)."""
        return 2.0 * np.array([self.a1, self.a2, self.a3])

    @classmethod
    def from_bloch(cls, xyz) -> "AffineBlochVector":
        x, y, z = (float(v) for v in xyz)
        return cls(x / 2.0, y / 2.0, z / 2.0)


# kind -> index of the superoperator in the pair _grid_superoperators returns
_SUPEROPERATOR_KEYS = {"H": 0, "I": 1}


def superoperator_at(kind: str, k: float) -> np.ndarray:
    """The one-step superoperator L^H(k) or L^1(k) as a 4x4 real matrix.

    kind is "H" for the Hadamard step or "I" for the identity step. The
    lower-right 3x3 block is orthogonal for every k.
    """
    if not math.isfinite(k):
        raise ValueError("momentum k must be finite")
    which = _SUPEROPERATOR_KEYS.get(str(kind).strip().upper())
    if which is None:
        raise ValueError(f"unknown superoperator kind {kind!r}; expected 'H' or 'I'")
    return _grid_superoperators(np.array([float(k)]))[which][0]


# L^H(0): the Hadamard coin's map of (1/2, a1, a2, a3), since the shift at k = 0 is 1
_HADAMARD_MAP = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)


def _grid_superoperators(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked L^H(k) and L^1(k) for an array of momenta, shape (n, 4, 4).

    L^1(k) is the shift alone, a rotation by 2k about z; a Hadamard step
    is the same shift after the fixed coin map L^H(0).
    """
    c = np.cos(2.0 * ks)
    s = np.sin(2.0 * ks)
    li = np.zeros((ks.shape[0], 4, 4))
    li[:, 0, 0] = 1.0
    li[:, 1, 1] = c
    li[:, 1, 2] = -s
    li[:, 2, 1] = s
    li[:, 2, 2] = c
    li[:, 3, 3] = 1.0
    return li @ _HADAMARD_MAP, li


def _averaged_product(bits: str, n_points: int) -> np.ndarray:
    """(1/2pi) integral of the time-ordered superoperator product over k."""
    ks = -math.pi + 2.0 * math.pi * np.arange(n_points) / n_points
    lh, li = _grid_superoperators(ks)
    prod = np.broadcast_to(np.eye(4), (n_points, 4, 4)).copy()
    for b in bits:
        # step t acts on the accumulated product from the left
        prod = (lh if b == "0" else li) @ prod
    return prod.mean(axis=0)


def momentum_final_bloch(bits: str, initial: AffineBlochVector) -> AffineBlochVector:
    """Final affine Bloch vector of the coin after the {H, 1} sequence bits.

    Evaluates alpha_f = (1/2pi) integral dk prod_t L_t(k) alpha_in on a
    uniform grid of 4T+4 momenta, which integrates the degree <= 2T
    trigonometric entries exactly. Agrees with the state-vector route to
    near machine precision.
    """
    bits = require_bits(bits)
    avg = _averaged_product(bits, 4 * len(bits) + 4)
    out = avg @ initial.array
    return AffineBlochVector(float(out[1]), float(out[2]), float(out[3]))


@dataclass(frozen=True)
class SequencePattern:
    """Run-length form of a one- or two-Hadamard sequence.

    ls = (l1, l2) encodes b = 1^l1 0 1^l2; ls = (l1, l2, l3) encodes
    b = 1^l1 0 1^l2 0 1^l3.
    """

    ls: tuple[int, ...]

    def __post_init__(self):
        ls = tuple(map(operator.index, self.ls))
        if len(ls) not in _FAMILIES:
            raise ValueError("pattern needs two or three run lengths")
        if any(v < 0 for v in ls):
            raise ValueError("run lengths must be nonnegative")
        object.__setattr__(self, "ls", ls)

    @property
    def T(self) -> int:
        return sum(self.ls) + len(self.ls) - 1


def pattern_bits(p: SequencePattern) -> str:
    """Render a pattern back into its bit string."""
    return "0".join("1" * v for v in p.ls)


def pattern_from_bits(bits: str) -> SequencePattern:
    """Parse a bit string into its pattern form.

    Strings with one or two 0s parse directly. A string that starts with 0
    and has three 0s is read as the same string with a leading 1: the first
    coin acts before any shift, so flipping the first bit never changes
    whether a string is optimal (first-coin symmetry). "010110" thus reads
    as the pattern (2, 2, 0) of "110110". Anything else is outside the
    covered families and raises ValueError.
    """
    bits = require_bits(bits)
    runs = tuple(len(r) for r in bits.split("0"))
    if len(runs) in _FAMILIES:
        return SequencePattern(runs)
    if bits[0] == "0" and len(runs) - 1 in _FAMILIES:
        return SequencePattern((runs[1] + 1, *runs[2:]))
    raise ValueError(
        f"bit string {bits!r} is not in the one- or two-Hadamard families"
    )


# The covered families, by run count: the hyperplanes a . l = c of the run
# lengths l = (l1, l2, ...) on which b = 1^l1 0 1^l2 (0 1^l3) fails to be
# optimal. Every family reader takes its run counts here.
_FAMILIES = {
    2: (((1, 0), 0), ((1, -1), 1)),
    3: (
        ((1, -1, 0), 1),
        ((1, 0, -1), 1),
        ((-1, -1, 1), 0),
        ((-1, 1, -1), 0),
        ((1, -1, -1), 2),
        ((0, 1, -1), 0),
    ),
}


def theorem_predicate(p: SequencePattern) -> bool:
    """Closed-form optimality test for a pattern over the {H, 1} coin set.

    True exactly when the sequence sends every initial coin state to the
    maximally mixed state. For b = 1^l1 0 1^l2 the conditions are l1 != 0
    and l1 != l2 + 1. For b = 1^l1 0 1^l2 0 1^l3 they are

        l1 != l2 + 1,  l1 != l3 + 1,  l3 != l1 + l2,
        l2 != l1 + l3, l1 != l2 + l3 + 2,  l2 != l3.

    The set agrees with the kernel's fidelity for every family member with
    T <= 40, the limit cli.VERIFY_MAX_T: tests/test_cli.py's
    test_verify_agrees_up_to_its_limit runs verify --max-T 40, and the
    acceptance test of criterion 4 checks T <= 12.
    A string with a leading 0 is optimal exactly when the same string
    with a leading 1 is (first-coin symmetry), so pattern_from_bits reads
    it as that string. Each condition a . l != c is one hyperplane of the
    family's _FAMILIES entry.
    """
    return all(sum(map(operator.mul, a, p.ls)) != c for a, c in _FAMILIES[len(p.ls)])


def iter_family_bits(max_len: int):
    """Yield every one- and two-Hadamard family bit string with T <= max_len.

    A string of n runs has n - 1 zeros, so these are all strings with
    exactly one or exactly two 0s, in ascending (T, value) order. Each is
    built from its zero positions.
    """
    for t in range(1, operator.index(max_len) + 1):
        yield from sorted(
            "".join("0" if i in zeros else "1" for i in range(t))
            for runs in _FAMILIES
            for zeros in itertools.combinations(range(t), runs - 1)
        )


_TABLE_MIN_STEPS = 3


def generate_table_sequence(T: int) -> CoinSequence:
    """Standard {H, 1} sequence reaching unit process fidelity at step T.

    Uses b = 0 0 1^(T-2) for 3 <= T <= 6 and b = 0 0 1 0 1^(T-4) beyond,
    so at most three Hadamard operations appear regardless of T. Both are
    optimal wherever they are used: 0 0 1^(T-2) is the pattern (0, 0, T-2),
    whose conditions fail only at T in {1, 2}, and 0 0 1 0 1^(T-4) is the
    pattern (1, 1, T-4) of 1 0 1 0 1^(T-4) with its first bit flipped, whose
    conditions fail only at T in {2, 4, 5, 6}.
    """
    T = operator.index(T)
    if T < _TABLE_MIN_STEPS:
        raise NoOptimalSequenceError(
            f"maximal entanglement for every initial coin state is impossible "
            f"before step {_TABLE_MIN_STEPS} (requested T={T})"
        )
    if T <= 6:
        bits = "00" + "1" * (T - 2)
    else:
        bits = "0010" + "1" * (T - 4)
    return CoinSequence(HADAMARD, IDENTITY, bits)


# Fixed {H, F} reference settings (0 = H, 1 = F). These strings are frozen
# benchmark sequences for the Fourier-coin set; unlike the {H, 1} family
# they do not reach unit fidelity.
_FOURIER_TABLE = {
    3: "110",
    4: "0100",
    5: "01011",
    6: "101001",
    7: "0010110",
    8: "01111011",
    9: "101100001",
    10: "1100011100",
}

FOURIER_TABLE_RANGE = (min(_FOURIER_TABLE), max(_FOURIER_TABLE))


def fourier_table_sequence(T: int) -> CoinSequence:
    """Fixed {H, F} reference sequence for 3 <= T <= 10.

    Each entry ties the exhaustive best fidelity of its length but T=8's:
    01111011 scores 0.956480 against 0.963920 for the best string 00001101,
    a gap of 7.44e-3.
    """
    T = operator.index(T)
    if T not in _FOURIER_TABLE:
        raise ValueError(
            f"no {{H, F}} reference sequence for T={T}; available range is "
            f"{FOURIER_TABLE_RANGE[0]}..{FOURIER_TABLE_RANGE[1]}"
        )
    return CoinSequence(HADAMARD, FOURIER, _FOURIER_TABLE[T])
