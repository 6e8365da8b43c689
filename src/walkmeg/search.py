"""Optimization machinery over coin sequences.

Exhaustive search over all 2^T bit strings, simulated annealing over
(gamma0, gamma1, bits), and the coin-angle landscape scan all score a
string by its process fidelity against the fully depolarizing target,
computed by one momentum-space kernel, which also serves
channel.sequence_fidelity. It is algebraically identical to the
tomography route in the channel module; tests assert the equality.

Exact grid. With the shift S(k) = diag(e^{-ik}, e^{ik}) the walk is
U(k) = S C_{b_T} ... S C_{b_1}, whose x-th Fourier coefficient is the
Kraus operator K_x. Positions run over -T..T, so the entries of U(k) are
trigonometric polynomials of degree <= T, and the uniform grid of
n = 2T+1 momenta reproduces sum_x K_x rho K_x^dag exactly (Parseval).

SU(2) products. Each coin divided by sqrt(det) makes every step an SU(2)
matrix [[a, b], [-b*, a*]], stored as the unit quaternion
(Re a, Im a, Re b, Im b), and products are real 4x4 matrix products. The
dropped determinants give U(k) one global phase, the same at every k, so
the Pauli-coefficient matrix of the walk is that phase times the unitary
diag(1, i, i, i) times the real 4 x n quaternion matrix A (rows permuted).

Nuclear norm. The channel's chi matrix is unitarily similar to A A^T / n
and the target's is 1/4, so F = (tr sqrt(chi))^2 / 4 = ||A||_*^2 / (4n),
clamped to 1. A stack of strings is scored from the eigenvectors V of
each 4x4 Gram matrix A^T A, one batched eigh call, and sigma_j = ||A v_j||;
a single string or a small stack takes its singular values from the SVD,
which the tests keep as the reference. The Gram eigenvalues are thrown
away: the square root of a near-zero one turns its ~1e-16 round-off into
a ~1e-8 floor. ||A v_j|| errs only by the eigenvector error times ||A||,
and sum_j ||A v_j|| >= ||A||_* for every orthonormal V, with equality at
exact eigenvectors, so round-off stays near 1e-15 on both routes.

Best string. Strings that tie to round-off trade places with the
arithmetic (the stage-4 route, the stack size), so the best string is the
lowest-valued one within BEST_TIE = 1e-12 of the maximum. Over every string
of T <= 18 for {H,I}, {H,X}, {H,F}, {H,Z} and g:0.4,1.1, ties lie within
1.3e-15 of the maximum and every other fidelity at least 5.8e-6 below it.

First-coin symmetry. The first coin acts on the walker at the origin
before any shift: a unitary on the input coin, to which the target's
Choi state I/4 is blind. Flipping the first bit leaves F unchanged, so
the sweep evaluates the 2^(T-1) strings starting with 0 and mirrors them.

The sweep meets in the middle: prefix and suffix products are built once
and each fixed chunk of prefixes meets all suffixes in one batched real
matmul. Workers take whole chunks, merged in ascending order, so the
output is byte-identical for any worker count. Small sweeps run
serially; large ones use a process pool, capped by WALKMEG_THREADS.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .coins import require_coin, rotation_coin

__all__ = [
    "ResourceLimitError",
    "SearchResult",
    "AnnealConfig",
    "AnnealResult",
    "LandscapePoint",
    "ClosureRow",
    "brute_force",
    "anneal",
    "landscape_scan",
    "extension_closure_report",
    "worker_count",
]

BRUTE_FORCE_MAX_T = 24
LANDSCAPE_MAX_T = 12
BEST_TIE = 1e-12  # see "Best string" above
COUNT_TOLERANCES = (1e-6, 1e-9, 1e-12)

# Strings scored per batched matmul and eigensolver call. On one worker at
# T=18, 1 << 13 took 0.46 s of CPU instead of 0.37 s and raised the peak
# RSS from ~40 to ~75 MiB.
_CHUNK = 1 << 10
# Stacks of at least this many matrices take the Gram route. One eigh
# call costs more to start than one SVD call but less per matrix: with
# n = 9..37 momenta one matrix costs ~8 us by SVD and ~13 us by Gram, the
# two tie at 8..12 matrices, and 16 cost 50..59 us against 47..53 us.
_GRAM_MIN_STACK = 16
# Sweeps of fewer strings run serially. Measured on 2 CPUs: a pool costs
# ~25 ms of wall time and ~40 ms of CPU to start, and 2^14 strings take
# ~0.12 s serially, which two workers bring down to ~0.08 s.
_POOL_MIN_STRINGS = 1 << 14


class ResourceLimitError(RuntimeError):
    """A search was requested beyond the configured resource guard."""


def worker_count(requested: int | None = None) -> int:
    """Effective worker count.

    An explicit request is honored as given; the default is the CPU count.
    Either way the WALKMEG_THREADS environment variable, when set, caps
    the result.
    """
    count = os.cpu_count() or 1 if requested is None else max(1, int(requested))
    env = os.environ.get("WALKMEG_THREADS")
    if env is not None:
        try:
            count = min(count, max(1, int(env)))
        except ValueError:
            raise ValueError(f"WALKMEG_THREADS must be an integer, got {env!r}") from None
    return count


# ---------------------------------------------------------------------------
# fidelity kernel
# ---------------------------------------------------------------------------

# L(q) p = q * p for quaternions (Re a, Im a, Re b, Im b), a, b the first row
# of [[a, b], [-b*, a*]]: L(q)[i, j] = _LEFT_SIGN[i, j] * q[_LEFT_INDEX[i, j]]
_LEFT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array([[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]], dtype=float)


def _left_mul(q: np.ndarray) -> np.ndarray:
    """Real 4x4 matrices of left multiplication by the quaternions q (..., 4)."""
    return q[..., _LEFT_INDEX] * _LEFT_SIGN


def _su2_steps(coins, n: int) -> np.ndarray:
    """The walk step of each coin on the n-point momentum grid, as left multiplications.

    Step b is S(k) C_b / sqrt(det C_b); the result has shape (len(coins),
    n, 4, 4), indexed by (coin bit, momentum, row, column). Each coin's
    step is computed on its own. The coins must already be validated:
    the public entry points check them once.
    """
    first_rows = [c[0] / cmath.sqrt(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]) for c in coins]
    phase = np.exp(-2j * np.pi * np.arange(n) / n)
    # complex pairs (a, b) viewed as the reals (Re a, Im a, Re b, Im b)
    return _left_mul((np.array(first_rows)[:, None, :] * phase[:, None]).view(np.float64))


def _string_quaternions(steps: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """U(k) of each bit row as quaternions, shape (B, n, 4)."""
    q = np.zeros((bits.shape[0], steps.shape[1], 4))
    q[..., 0] = 1.0
    for t in range(bits.shape[1]):
        q = np.matmul(steps[bits[:, t]], q[..., None])[..., 0]
    return q


def _fidelity(q: np.ndarray) -> np.ndarray:
    """F = ||A||_*^2 / (4n), clamped to 1, for quaternion columns q (..., n, 4).

    Stacks of _GRAM_MIN_STACK or more take sigma_j = ||q v_j|| over the
    eigenvectors v_j of q^T q (see the module docstring); smaller stacks
    call the SVD.
    """
    if math.prod(q.shape[:-2]) >= _GRAM_MIN_STACK:
        v = np.linalg.eigh(np.matmul(q.swapaxes(-1, -2), q))[1]
        qv = np.matmul(q, v)
        sv = np.sqrt(np.einsum("...ij,...ij->...j", qv, qv))
    else:
        sv = np.linalg.svd(q, compute_uv=False)
    return np.minimum(np.square(sv.sum(axis=-1)) / (4 * q.shape[-2]), 1.0)


def _row_fidelities(steps: np.ndarray, bits: np.ndarray) -> np.ndarray:
    out = np.empty(bits.shape[0])
    for lo in range(0, bits.shape[0], _CHUNK):
        part = bits[lo : lo + _CHUNK]
        out[lo : lo + part.shape[0]] = _fidelity(_string_quaternions(steps, part))
    return out


def _bits_matrix(values: np.ndarray, T: int) -> np.ndarray:
    shifts = np.arange(T - 1, -1, -1, dtype=np.uint32)
    return ((values[:, None] >> shifts) & 1).astype(np.int8)


def batch_fidelities(coin0: np.ndarray, coin1: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Fidelity against the depolarizing target for each bit row."""
    coin0, coin1 = require_coin(coin0), require_coin(coin1)
    bits = np.asarray(bits, dtype=np.intp)
    if bits.ndim != 2:
        raise ValueError("bits must be a 2d array of 0/1 rows")
    return _row_fidelities(_su2_steps((coin0, coin1), 2 * bits.shape[1] + 1), bits)


def _sweep_layout(T: int) -> tuple[int, int, int]:
    """(suffix bits, prefixes per chunk, chunk count) of the T-step sweep.

    Prefixes carry the T - T//2 leading bits and start with 0; each chunk
    composes its prefixes with every suffix, about _CHUNK strings.
    """
    t_suf = T // 2
    n_pre = 1 << (T - t_suf - 1)
    per_chunk = min(n_pre, max(1, _CHUNK >> t_suf))
    return t_suf, per_chunk, n_pre // per_chunk


def _sweep_stacks(coin0, coin1, T: int, chunk_lo: int, chunk_hi: int):
    """Yield the quaternion matrices of each chunk in [chunk_lo, chunk_hi), in order.

    Each chunk is one array (prefixes, suffixes, n, 4) of 0-led strings;
    the prefix occupies the high bits, so the chunks run in ascending
    string order.
    """
    n = 2 * T + 1
    t_suf, per_chunk, _ = _sweep_layout(T)
    n_suf = 1 << t_suf
    steps = _su2_steps((coin0, coin1), n)
    suffix = _string_quaternions(steps, _bits_matrix(np.arange(n_suf, dtype=np.uint32), t_suf))
    # per momentum, the transposed left-multiplication matrices of all suffixes
    left_t = _left_mul(suffix.transpose(1, 0, 2)).transpose(0, 3, 1, 2).reshape(n, 4, 4 * n_suf)
    pre_vals = np.arange(chunk_lo * per_chunk, chunk_hi * per_chunk, dtype=np.uint32)
    prefix = _string_quaternions(steps, _bits_matrix(pre_vals, T - t_suf)).transpose(1, 0, 2)
    for lo in range(0, pre_vals.size, per_chunk):
        total = np.matmul(prefix[:, lo : lo + per_chunk], left_t)
        # (n, prefixes, suffixes, 4): each string's rows move as 4-float blocks
        total = total.reshape(n, per_chunk, n_suf, 4).transpose(1, 2, 0, 3)
        yield np.ascontiguousarray(total)


def _sweep(coin0, coin1, T: int, chunk_lo: int, chunk_hi: int) -> np.ndarray:
    """Fidelities of the 0-led strings whose prefixes lie in chunks [chunk_lo, chunk_hi).

    The result is a contiguous slice of the sweep in ascending string order.
    """
    t_suf, per_chunk, _ = _sweep_layout(T)
    out = np.empty((chunk_hi - chunk_lo, per_chunk, 1 << t_suf))
    for i, q in enumerate(_sweep_stacks(coin0, coin1, T, chunk_lo, chunk_hi)):
        out[i] = _fidelity(q)
    return out.ravel()


def enumerate_fidelities(
    coin0: np.ndarray, coin1: np.ndarray, T: int, workers: int | None = None
) -> np.ndarray:
    """Fidelity of every bit string of length T, indexed by its integer value.

    Bit strings map to indices with the first step as the most significant
    bit. Only strings starting with 0 are evaluated; the other half is
    their mirror image (first-coin symmetry). Raises ResourceLimitError
    outside 1 <= T <= BRUTE_FORCE_MAX_T. Worker partitions are whole
    chunks concatenated in ascending order, so any worker count yields
    the identical array.
    """
    T = int(T)
    if not 1 <= T <= BRUTE_FORCE_MAX_T:
        raise ResourceLimitError(
            f"brute force supports 1 <= T <= {BRUTE_FORCE_MAX_T}, got {T}"
        )
    coin0, coin1 = require_coin(coin0), require_coin(coin1)
    n_chunks = _sweep_layout(T)[2]
    n_jobs = min(worker_count(workers), n_chunks)
    if n_jobs <= 1 or (1 << (T - 1)) < _POOL_MIN_STRINGS:
        half = _sweep(coin0, coin1, T, 0, n_chunks)
    else:
        import multiprocessing

        bounds = np.linspace(0, n_chunks, n_jobs + 1).astype(int)
        jobs = [
            (coin0, coin1, T, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        with multiprocessing.Pool(n_jobs) as pool:
            half = np.concatenate(pool.starmap(_sweep, jobs))
    return np.concatenate([half, half])


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    """One exhaustive sweep: the best string (see BEST_TIE), the optimal set, the counts."""

    best_fidelity: float
    best_bits: str
    optimal_bits: tuple[str, ...]
    optimal_fidelities: tuple[float, ...]
    counts: MappingProxyType = field(hash=False)
    evaluations: int

    def __post_init__(self):
        if not 0.0 <= self.best_fidelity <= 1.0:
            raise ValueError("best fidelity must lie in [0, 1]")

    @property
    def count_optimal(self) -> int:
        return len(self.optimal_bits)


def brute_force(
    T: int,
    coin0: np.ndarray,
    coin1: np.ndarray,
    tolerance: float = 1e-9,
    workers: int | None = None,
) -> SearchResult:
    """Evaluate every bit string of length T and collect the optimal set.

    A string is optimal when its fidelity exceeds 1 - tolerance.
    Deterministic for any worker split; best_bits also for either stage-4 route.
    """
    T = int(T)
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    fid = enumerate_fidelities(coin0, coin1, T, workers)
    best = float(fid.max())
    hits = np.nonzero(fid > 1.0 - tolerance)[0]
    return SearchResult(
        best_fidelity=best,
        best_bits=format(int(np.argmax(fid >= best - BEST_TIE)), f"0{T}b"),
        optimal_bits=tuple(format(int(v), f"0{T}b") for v in hits),
        optimal_fidelities=tuple(fid[hits].tolist()),
        counts=MappingProxyType({tol: int((fid > 1.0 - tol).sum()) for tol in COUNT_TOLERANCES}),
        evaluations=int(fid.size),
    )


def optimal_counts(
    T: int, coin0: np.ndarray, coin1: np.ndarray, workers: int | None = None
) -> MappingProxyType:
    """Number of strings with fidelity above 1 - tol for each of COUNT_TOLERANCES."""
    return brute_force(T, coin0, coin1, workers=workers).counts


# ---------------------------------------------------------------------------
# simulated annealing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnealConfig:
    """Schedule length, restart count and seed of the annealing search.

    Geometric cooling: temperature starts at 0.2, is multiplied by 0.95
    after steps_per_temperature proposals, and the restart stops at the
    relative temperature floor. The seed fixes every stream.
    """

    steps_per_temperature: int = 200
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.steps_per_temperature < 1 or self.restarts < 1:
            raise ValueError("steps_per_temperature and restarts must be >= 1")


class AnnealResult(NamedTuple):
    gamma0: float
    gamma1: float
    bits: str
    fidelity: float


_START_ANGLES = (math.pi / 4.0, 0.0)  # (gamma0, gamma1) of every free-angle restart
_INITIAL_TEMPERATURE = 0.2
_COOLING_RATE = 0.95
_ANGLE_SIGMA = 0.4  # angle step deviation at the initial temperature
_TEMPERATURE_FLOOR = 1e-6  # relative to the initial temperature
_STOP_COST = 1e-8
_MIN_SIGMA = 1e-4


def _anneal_cost(steps: np.ndarray, bits: np.ndarray) -> float:
    return 1.0 - float(_row_fidelities(steps, bits[None, :])[0])


def _anneal_restart(
    T: int,
    config: AnnealConfig,
    rng: np.random.Generator,
    coins: tuple[np.ndarray, np.ndarray] | None,
) -> AnnealResult:
    bits = rng.integers(0, 2, T, dtype=np.int8)
    g = list(_START_ANGLES)
    n = 2 * T + 1
    steps = _su2_steps(coins or [rotation_coin(angle) for angle in g], n)
    cost = _anneal_cost(steps, bits)
    best_bits, best_g, best_cost = bits.copy(), list(g), cost
    # With equal steps every string walks alike, so no flip can lower the cost.
    same_walk = coins is not None and np.array_equal(steps[0], steps[1])
    temperature = _INITIAL_TEMPERATURE
    floor = _INITIAL_TEMPERATURE * _TEMPERATURE_FLOOR
    half_pi = math.pi / 2.0

    while not same_walk and temperature > floor and best_cost > _STOP_COST:
        sigma = max(_ANGLE_SIGMA * math.sqrt(temperature / _INITIAL_TEMPERATURE), _MIN_SIGMA)
        for _ in range(config.steps_per_temperature):
            cand_bits, cand_g, cand_steps = bits, g, steps
            if coins is None and rng.random() < 0.5:
                which = int(rng.integers(0, 2))
                cand_g = list(g)
                cand_g[which] = float(
                    np.clip(g[which] + sigma * rng.standard_normal(), 0.0, half_pi)
                )
                # rebuild only the moved coin's step; order="K" keeps the
                # memory layout of steps, on which the products' round-off depends
                cand_steps = steps.copy(order="K")
                cand_steps[which] = _su2_steps([rotation_coin(cand_g[which])], n)[0]
            else:
                flip = int(rng.integers(0, T))
                cand_bits = bits.copy()
                cand_bits[flip] ^= 1
            cand_cost = _anneal_cost(cand_steps, cand_bits)
            delta = cand_cost - cost
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                bits, g, steps, cost = cand_bits, cand_g, cand_steps, cand_cost
                if cost < best_cost:
                    best_bits, best_g, best_cost = bits.copy(), list(g), cost
                    if best_cost <= _STOP_COST:
                        break
        temperature *= _COOLING_RATE

    return AnnealResult(
        gamma0=best_g[0],
        gamma1=best_g[1],
        bits="".join("01"[b] for b in best_bits),
        fidelity=1.0 - best_cost,
    )


def anneal(
    T: int,
    config: AnnealConfig,
    coins: tuple[np.ndarray, np.ndarray] | None = None,
) -> AnnealResult:
    """Minimize 1 - fidelity by annealing over bits, and angles unless coins are given.

    With coins=None the angles start at (pi/4, 0) and each proposal flips
    one bit or nudges one angle. With a coin pair only bits are flipped,
    and the reported angles are the unused start angles; this covers
    named coins outside the one-parameter family, like the identity.
    Runs config.restarts independent restarts from rng streams spawned off
    the single seed and returns the best result; ties break toward the
    earliest restart, so the outcome is reproducible.
    """
    T = int(T)
    if T < 1:
        raise ValueError("T must be >= 1")
    if coins is not None:
        coins = (require_coin(coins[0]), require_coin(coins[1]))
    streams = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best: AnnealResult | None = None
    for stream in streams:
        result = _anneal_restart(T, config, np.random.default_rng(stream), coins)
        if best is None or result.fidelity > best.fidelity:
            best = result
    return best


# ---------------------------------------------------------------------------
# angle landscape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LandscapePoint:
    """Best fidelity over all bit strings at a fixed coin-angle pair."""

    gamma0: float
    gamma1: float
    best_fidelity: float

    def __post_init__(self):
        if not 0.0 <= self.best_fidelity <= 1.0:
            raise ValueError("fidelity must lie in [0, 1]")


def landscape_scan(
    T: int, grid, workers: int | None = None
) -> list[LandscapePoint]:
    """Per-point brute-force maxima over a (gamma0, gamma1) grid.

    Every grid pair is scanned over all 2^T bit strings. Guarded at
    T <= 12 because the cost is len(grid)^2 * 2^T evaluations.
    """
    T = int(T)
    if not 1 <= T <= LANDSCAPE_MAX_T:
        raise ResourceLimitError(
            f"landscape scan supports 1 <= T <= {LANDSCAPE_MAX_T}, got {T}"
        )
    gammas = [float(g) for g in grid]
    if not gammas:
        raise ValueError("grid must contain at least one angle")
    if min(gammas) < 0.0 or max(gammas) > math.pi / 2.0 + 1e-12:
        raise ValueError("grid angles must lie in [0, pi/2]")
    coins = {g: rotation_coin(g) for g in gammas}
    points = []
    for g0 in gammas:
        for g1 in gammas:
            fid = enumerate_fidelities(coins[g0], coins[g1], T, workers)
            points.append(LandscapePoint(g0, g1, float(fid.max())))
    return points


# ---------------------------------------------------------------------------
# structural reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureRow:
    """How the optimal set at T fares under appending a single 1."""

    T: int
    n_optimal: int
    n_preserved: int

    @property
    def n_violations(self) -> int:
        return self.n_optimal - self.n_preserved


def extension_closure_report(
    coin0: np.ndarray,
    coin1: np.ndarray,
    max_T: int = 10,
    tolerance: float = 1e-9,
) -> list[ClosureRow]:
    """Check whether optimal strings stay optimal when the trailing 1-run grows.

    For each T the report counts optimal strings b and how many of the
    extended strings b + "1" are again optimal at T + 1. This is a
    measured property of the optimal sets, reported rather than assumed;
    the extension does fail for some strings.
    """
    max_T = int(max_T)
    if not 1 <= max_T <= LANDSCAPE_MAX_T:
        raise ResourceLimitError(
            f"closure report supports 1 <= max_T <= {LANDSCAPE_MAX_T}, got {max_T}"
        )
    results = [brute_force(T, coin0, coin1, tolerance) for T in range(1, max_T + 2)]
    rows = []
    for T, (here, after) in enumerate(zip(results, results[1:]), start=1):
        preserved = len({bits + "1" for bits in here.optimal_bits}.intersection(after.optimal_bits))
        rows.append(ClosureRow(T=T, n_optimal=here.count_optimal, n_preserved=preserved))
    return rows
