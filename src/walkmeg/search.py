"""Optimization machinery over coin sequences.

Exhaustive search over all 2^T bit strings, simulated annealing over
(gamma0, gamma1, bits), and the coin-angle landscape scan all score a
string by its process fidelity against the fully depolarizing target,
computed by one momentum-space kernel, which also serves
channel.sequence_fidelity and, through string_ptm, the channel's PTM.
Tests check it against a PTM fitted from state-vector walks.

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
clamped to 1. The caller picks one of two routes; the stack size never
does. A sweep (_stack_fidelities) scores its strings from the
eigenvectors V of each 4x4 Gram matrix A^T A, one batched eigh call per
chunk, and sigma_j = ||A v_j||. Row scoring (_row_fidelities, behind
batch_fidelities, sequence_fidelity and the anneal cost) takes one SVD
per string, so a row's value depends on its string alone. The Gram
eigenvalues are thrown away: the square root of a near-zero one turns its
~1e-16 round-off into a ~1e-8 floor. ||A v_j|| errs only by the
eigenvector error times ||A||, and sum_j ||A v_j|| >= ||A||_* for every
orthonormal V, with equality at exact eigenvectors, so round-off stays
near 1e-15 on both routes.

Best string. Strings that tie to round-off trade places with the
arithmetic (the sweep's tiling, the row route against the sweep's), so
the best string is the lowest-valued one within BEST_TIE = 1e-12 of the
maximum. Over every string of T <= 18 for {H,I}, {H,X}, {H,F}, {H,Z} and
g:0.4,1.1, ties lie within 1.3e-15 of the maximum and every other
fidelity at least 5.8e-6 below it.

Screen. A top-set query needs exact fidelities only near its answer.
The chi purity P = sum_i p_i^2 = ||A^T A||_F^2 / n^2 comes from the Gram
matrix without an eigensolver, and it bounds F: the largest
(sum_i sqrt p_i)^2 / 4 at a given purity is reached at the spectrum
(1/4 + 3d, 1/4 - d, 1/4 - d, 1/4 - d) with d = sqrt((4P - 1) / 48).
enumerate_fidelities(..., exact_above=x) gives the eigensolver only the
rows whose bound reaches min(x, best - BEST_TIE) - 1e-7, where best is the
running best of the worker, seeded in its first chunk by the row of the
largest bound; the other rows keep their bound. The 1e-7 slack covers the
bound's own round-off, which reached 9.3e-9 near pure spectra. There is
one Gram form (_gram): the bound, the seed row and the scored rows all
read the Gram matrices of the stack, which the unscreened sweep hands to
the eigensolver too, so a scored row equals the unscreened sweep bit for
bit, at every T.
brute_force passes x = 1 - max(tolerance, COUNT_TOLERANCES): at T=18 on
one worker the eigensolver then sees 316 of the 2^17 strings of {H,I},
17 of {H,F} and 6 of g:0.4,1.1. When no bound falls that low, as for
g:0.32,0.412, it sees them all. landscape_scan passes x = inf, so only
the strings that can reach the running best are scored.

First-coin symmetry. The first coin acts on the walker at the origin
before any shift: a unitary on the input coin, to which the target's
Choi state I/4 is blind. Flipping the first bit leaves F unchanged, so
the sweep evaluates the 2^(T-1) strings starting with 0 and mirrors them.

The sweep meets in the middle: the step and suffix tables are built once
and each fixed chunk of prefixes meets all suffixes in one batched real
matmul. Worker threads share the tables and write whole runs of chunks
into one output array, so the output (its exact entries, when screened)
is byte-identical for any worker count. numpy's matmul, einsum and eigh
release the GIL, so the threads run in parallel; WALKMEG_THREADS caps
their number, and BLAS may add threads of its own.
"""

from __future__ import annotations

import cmath
import math
import operator
import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .coins import ROTATION_ANGLES, in_rotation_range, require_coin, rotation_coin

__all__ = [
    "ResourceLimitError",
    "SearchResult",
    "AnnealConfig",
    "AnnealResult",
    "LandscapePoint",
    "ClosureRow",
    "brute_force",
    "enumerate_fidelities",
    "anneal",
    "landscape_scan",
    "extension_closure_report",
    "worker_count",
]

BRUTE_FORCE_MAX_T = 24
LANDSCAPE_MAX_T = 12
BEST_TIE = 1e-12  # see "Best string" above
COUNT_TOLERANCES = (1e-6, 1e-9, 1e-12)
# Most optimal strings one brute_force call lists: tolerance 0.1 at T=24
# would otherwise build 15.6M rows of Python strings and floats.
BRUTE_LIST_MAX_ROWS = 1 << 20

# Strings scored per batched matmul and eigensolver call. On one worker at
# T=18, 1 << 13 took 0.46 s of CPU instead of 0.37 s and raised the peak
# RSS from ~40 to ~75 MiB.
_CHUNK = 1 << 10
# A screened row is scored exactly unless its purity bound lies this far
# below the threshold. The bound's own round-off, largest near pure
# spectra, reached 9.3e-9 over 10^6 random spectra crowded there.
_SCREEN_SLACK = 1e-7


class ResourceLimitError(RuntimeError):
    """A search was requested beyond the configured resource guard."""


def worker_count(requested: int | None = None) -> int:
    """Effective number of sweep threads.

    An explicit request is honored as given; the default is the number of
    CPUs this process may run on. Either way the WALKMEG_THREADS
    environment variable, when set, caps the result. A request or a
    WALKMEG_THREADS value below 1 raises ValueError.
    """
    if requested is None:
        affinity = getattr(os, "sched_getaffinity", None)
        requested = len(affinity(0)) if affinity else os.cpu_count() or 1
    count = operator.index(requested)
    if count < 1:
        raise ValueError(f"worker count must be an integer >= 1, got {requested!r}")
    env = os.environ.get("WALKMEG_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"WALKMEG_THREADS must be an integer, got {env!r}") from None
        if cap < 1:
            raise ValueError(f"WALKMEG_THREADS must be an integer >= 1, got {env!r}")
        count = min(count, cap)
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


def _gram(q: np.ndarray) -> np.ndarray:
    """The 4x4 Gram matrices q^T q of quaternion columns q (..., n, 4).

    q^T times a copy of q goes to BLAS gemm; q^T q of one buffer would go
    to syrk, whose calls from two threads run no faster than from one.
    """
    return np.matmul(q.swapaxes(-1, -2), q.copy())


def _eigen_fidelity(q: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """F from sigma_j = ||q v_j|| over the eigenvectors v_j of each Gram matrix of q."""
    qv = np.matmul(q, np.linalg.eigh(gram)[1])
    return _nuclear_fidelity(np.sqrt(np.einsum("...ij,...ij->...j", qv, qv)), q.shape[-2])


def _nuclear_fidelity(sv: np.ndarray, n: int) -> np.ndarray:
    """F = (sum_j sigma_j)^2 / (4n), clamped to 1."""
    return np.minimum(np.square(sv.sum(axis=-1)) / (4 * n), 1.0)


def _purity_bound(gram: np.ndarray, n: int) -> np.ndarray:
    """Upper bound on F from the chi purity P = ||gram||_F^2 / n^2 alone.

    The largest (sum_i sqrt p_i)^2 / 4 over spectra with sum_i p_i = 1 and
    sum_i p_i^2 = P, reached at (1/4 + 3d, 1/4 - d, 1/4 - d, 1/4 - d)
    with d = sqrt((4P - 1) / 48).
    """
    purity = np.einsum("...ij,...ij->...", gram, gram) / (n * n)
    d = np.sqrt(np.maximum(4.0 * purity - 1.0, 0.0) / 48.0)
    return np.square(np.sqrt(0.25 + 3.0 * d) + 3.0 * np.sqrt(np.maximum(0.25 - d, 0.0))) / 4.0


def _stack_fidelities(
    q: np.ndarray, exact_above: float | None = None, best: float = -math.inf
) -> tuple[np.ndarray, float]:
    """(F of each quaternion matrix of the stack q (rows, n, 4), running best).

    Stage 4 of every sweep, at any stack size: the eigenvectors of one Gram
    matrix per row. With exact_above set, the stack is screened: rows whose
    purity bound stays below min(exact_above, best - BEST_TIE) -
    _SCREEN_SLACK keep their bound, a best of -inf is first seeded by the
    row of the largest bound (see "Screen" in the module docstring), and
    the running best returned is the largest of best and the exact scores.
    Unscreened, best is returned as given.
    """
    gram = _gram(q)
    if exact_above is None:
        return _eigen_fidelity(q, gram), best
    fid = _purity_bound(gram, q.shape[-2])
    if best == -math.inf:
        seed = [int(np.argmax(fid))]
        best = float(_eigen_fidelity(q[seed], gram[seed])[0])
    scored = np.flatnonzero(fid >= min(exact_above, best - BEST_TIE) - _SCREEN_SLACK)
    if scored.size:
        if scored.size < fid.size:  # copy the survivors only when some rows drop out
            q, gram = q[scored], gram[scored]
        fid[scored] = exact = _eigen_fidelity(q, gram)
        best = max(best, float(exact.max()))
    return fid, best


def _row_fidelities(steps: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """F of each bit row from one SVD per row, so a row's value depends on its string alone."""
    out = np.empty(bits.shape[0])
    for lo in range(0, bits.shape[0], _CHUNK):
        part = bits[lo : lo + _CHUNK]
        sv = np.linalg.svd(_string_quaternions(steps, part), compute_uv=False)
        out[lo : lo + part.shape[0]] = _nuclear_fidelity(sv, steps.shape[1])
    return out


def _bits_matrix(values: np.ndarray, T: int) -> np.ndarray:
    shifts = np.arange(T - 1, -1, -1, dtype=np.uint32)
    return ((values[:, None] >> shifts) & 1).astype(np.int8)


def batch_fidelities(coin0: np.ndarray, coin1: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Fidelity against the depolarizing target for each bit row.

    Every entry must equal 0 or 1; anything else raises ValueError.
    """
    coin0, coin1 = require_coin(coin0), require_coin(coin1)
    bits = np.asarray(bits)
    if bits.ndim != 2 or not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be a 2d array of 0/1 rows")
    bits = bits.astype(np.intp)
    return _row_fidelities(_su2_steps((coin0, coin1), 2 * bits.shape[1] + 1), bits)


# Quaternion indices of v = (z, y, x), the (sigma_x, sigma_y, sigma_z) part of q
_V = [3, 2, 1]
_VV = np.ix_(_V, _V)


def string_ptm(coin0: np.ndarray, coin1: np.ndarray, bits: str) -> np.ndarray:
    """Pauli transfer matrix of the coin channel of one 0/1 string, from the kernel.

    The quaternion q = (w, x, y, z) of [[a, b], [-b*, a*]] is the matrix
    w 1 + i v.sigma with v = (z, y, x), which turns Bloch vectors by
    R(q) = (w^2 - |v|^2) 1 + 2 v v^T - 2 w [v]_x, where [v]_x a = v x a.
    The channel is the mean of U(k) . U(k)^dag over the n momenta, so its
    PTM is the block-diagonal diag(1, B) with B the mean of R(q_k): a
    linear map of the Gram matrix G = q^T q / n. The global phase of the
    dropped determinants cancels. The coins must already be validated, as
    CoinSequence does.
    """
    rows = np.array([[int(b) for b in bits]], dtype=np.intp)
    n = 2 * rows.shape[1] + 1
    g = _gram(_string_quaternions(_su2_steps((coin0, coin1), n), rows)[0]) / n
    gvv = g[_VV]
    c1, c2, c3 = 2.0 * g[0, _V]  # the mean of 2 w v
    ptm = np.zeros((4, 4))
    ptm[0, 0] = 1.0
    ptm[1:, 1:] = 2.0 * gvv + (g[0, 0] - gvv.trace()) * np.eye(3)
    ptm[1:, 1:] += [[0.0, c3, -c2], [-c3, 0.0, c1], [c2, -c1, 0.0]]  # the mean of -2 w [v]_x
    return ptm


def _sweep_layout(T: int) -> tuple[int, int, int]:
    """(suffix bits, prefixes per chunk, chunk count) of the T-step sweep.

    Prefixes carry the T - T//2 leading bits and start with 0; each chunk
    composes its prefixes with every suffix, about _CHUNK strings.
    """
    t_suf = T // 2
    n_pre = 1 << (T - t_suf - 1)
    per_chunk = min(n_pre, max(1, _CHUNK >> t_suf))
    return t_suf, per_chunk, n_pre // per_chunk


def _sweep_tables(coin0, coin1, T: int) -> tuple[np.ndarray, np.ndarray]:
    """(steps, suffix table) of the T-step sweep, shared by all its chunks.

    The suffix table holds, per momentum, the transposed left-multiplication
    matrices of all suffixes, shape (n, 4, 4 * suffixes).
    """
    n, t_suf = 2 * T + 1, _sweep_layout(T)[0]
    steps = _su2_steps((coin0, coin1), n)
    suffix = _string_quaternions(steps, _bits_matrix(np.arange(1 << t_suf, dtype=np.uint32), t_suf))
    return steps, _left_mul(suffix.transpose(1, 0, 2)).transpose(0, 3, 1, 2).reshape(n, 4, -1)


def _sweep_stacks(steps, left_t, T: int, chunk_lo: int, chunk_hi: int):
    """Yield the quaternion matrices of each chunk in [chunk_lo, chunk_hi), in order.

    Each chunk is one array (strings, n, 4) of 0-led strings; the prefix
    occupies the high bits, so the strings and the chunks run in ascending
    order. steps and left_t come from _sweep_tables.
    """
    n = 2 * T + 1
    t_suf, per_chunk, _ = _sweep_layout(T)
    pre_vals = np.arange(chunk_lo * per_chunk, chunk_hi * per_chunk, dtype=np.uint32)
    prefix = _string_quaternions(steps, _bits_matrix(pre_vals, T - t_suf)).transpose(1, 0, 2)
    for lo in range(0, pre_vals.size, per_chunk):
        total = np.matmul(prefix[:, lo : lo + per_chunk], left_t)
        # (n, strings, 4): each string's rows move as 4-float blocks; the
        # copy lets the product be freed before the chunk is scored
        yield np.ascontiguousarray(total.reshape(n, -1, 4).transpose(1, 0, 2))


def enumerate_fidelities(
    coin0: np.ndarray,
    coin1: np.ndarray,
    T: int,
    workers: int | None = None,
    *,
    exact_above: float | None = None,
) -> np.ndarray:
    """Fidelity of every bit string of length T, indexed by its integer value.

    Bit strings map to indices with the first step as the most significant
    bit. Only strings starting with 0 are evaluated; the other half is
    their mirror image (first-coin symmetry). Raises ResourceLimitError
    outside 1 <= T <= BRUTE_FORCE_MAX_T. Up to worker_count(workers)
    threads, the calling one included, each fill one run of whole chunks
    of the array, so without exact_above any worker count yields the
    identical array.

    exact_above=None scores every string exactly. With a value, a string
    is scored exactly when its purity bound reaches exact_above or comes
    within BEST_TIE of the best fidelity its worker has scored so far
    (see "Screen" in the module docstring). Every other entry holds that
    bound, which lies below both and is at least the string's fidelity,
    up to ~1e-8 of round-off. So every entry above exact_above, the
    maximum and every entry within BEST_TIE of it are exact and equal
    the unscreened array bit for bit; which of the other entries are
    bounds depends on the worker split. exact_above=math.inf scores only
    the strings that can reach their worker's running best, which is
    enough for the maximum.
    """
    T = operator.index(T)
    if not 1 <= T <= BRUTE_FORCE_MAX_T:
        raise ResourceLimitError(
            f"brute force supports 1 <= T <= {BRUTE_FORCE_MAX_T}, got {T}"
        )
    tables = _sweep_tables(require_coin(coin0), require_coin(coin1), T)
    n_chunks = _sweep_layout(T)[2]
    fid = np.empty(1 << T)
    half = fid[: fid.size // 2].reshape(n_chunks, -1)
    n_jobs = min(worker_count(workers), n_chunks)

    def sweep(chunk_lo: int, chunk_hi: int) -> None:
        """Fill the rows [chunk_lo, chunk_hi) of half, one row per chunk, on one running best."""
        best = -math.inf
        for i, q in enumerate(_sweep_stacks(*tables, T, chunk_lo, chunk_hi), start=chunk_lo):
            half[i], best = _stack_fidelities(q, exact_above, best)

    from concurrent.futures import ThreadPoolExecutor

    bounds = np.linspace(0, n_chunks, n_jobs + 1).astype(int).tolist()
    # the calling thread takes the first run: one thread fewer to start, and
    # its memory is reused; with one worker nothing is submitted, so no
    # thread starts
    with ThreadPoolExecutor(n_jobs) as pool:
        rest = pool.map(sweep, bounds[1:-1], bounds[2:])  # submitted at once
        sweep(bounds[0], bounds[1])
        list(rest)
    fid[half.size :] = fid[: half.size]
    return fid


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

    def __post_init__(self):
        if not 0.0 <= self.best_fidelity <= 1.0:
            raise ValueError("best fidelity must lie in [0, 1]")

    @property
    def count_optimal(self) -> int:
        return len(self.optimal_bits)

    @property
    def evaluations(self) -> int:
        """Strings the sweep covered: all 2^T of them."""
        return 1 << len(self.best_bits)


def brute_force(
    T: int,
    coin0: np.ndarray,
    coin1: np.ndarray,
    tolerance: float = 1e-9,
    workers: int | None = None,
) -> SearchResult:
    """Evaluate every bit string of length T and collect the optimal set.

    A string is optimal when its fidelity exceeds 1 - tolerance. Only
    strings whose purity bound can reach the optimal set, a count or the
    best string are scored exactly; the result is the one the unscreened
    array gives. Raises ResourceLimitError when more than
    BRUTE_LIST_MAX_ROWS strings are optimal. Deterministic for any worker
    split; best_bits is also the one the row route's values pick.
    """
    T = operator.index(T)
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    exact_above = 1.0 - max(tolerance, *COUNT_TOLERANCES)
    fid = enumerate_fidelities(coin0, coin1, T, workers, exact_above=exact_above)
    best = float(fid.max())
    hits = np.flatnonzero(fid > 1.0 - tolerance)
    if hits.size > BRUTE_LIST_MAX_ROWS:
        raise ResourceLimitError(
            f"brute force lists at most {BRUTE_LIST_MAX_ROWS} optimal strings, "
            f"got {hits.size} at tolerance {tolerance!r}"
        )
    return SearchResult(
        best_fidelity=best,
        best_bits=format(int(np.argmax(fid >= best - BEST_TIE)), f"0{T}b"),
        optimal_bits=tuple(format(int(v), f"0{T}b") for v in hits),
        optimal_fidelities=tuple(fid[hits].tolist()),
        counts=MappingProxyType({tol: int((fid > 1.0 - tol).sum()) for tol in COUNT_TOLERANCES}),
    )


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
        if min(map(operator.index, (self.steps_per_temperature, self.restarts))) < 1:
            raise ValueError("steps_per_temperature and restarts must be >= 1")
        if operator.index(self.seed) < 0:
            raise ValueError("seed must be >= 0")


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

    while not same_walk and temperature > floor and best_cost > _STOP_COST:
        sigma = max(_ANGLE_SIGMA * math.sqrt(temperature / _INITIAL_TEMPERATURE), _MIN_SIGMA)
        for _ in range(config.steps_per_temperature):
            cand_bits, cand_g, cand_steps = bits, g, steps
            if coins is None and rng.random() < 0.5:
                which = int(rng.integers(0, 2))
                cand_g = list(g)
                cand_g[which] = float(
                    np.clip(g[which] + sigma * rng.standard_normal(), *ROTATION_ANGLES)
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
    T = operator.index(T)
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

    Every grid pair is scanned over all 2^T bit strings, screened with
    exact_above=math.inf, so each maximum is the unscreened one bit for
    bit. Guarded at T <= 12 because the cost grows as len(grid)^2 * 2^T.
    """
    T = operator.index(T)
    if not 1 <= T <= LANDSCAPE_MAX_T:
        raise ResourceLimitError(
            f"landscape scan supports 1 <= T <= {LANDSCAPE_MAX_T}, got {T}"
        )
    gammas = [float(g) for g in grid]
    if not gammas:
        raise ValueError("grid must contain at least one angle")
    if not all(map(in_rotation_range, gammas)):
        raise ValueError("grid angles must lie in [0, pi/2]")
    coins = {g: rotation_coin(g) for g in gammas}
    points = []
    for g0 in gammas:
        for g1 in gammas:
            fid = enumerate_fidelities(coins[g0], coins[g1], T, workers, exact_above=math.inf)
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
) -> list[ClosureRow]:
    """Check whether optimal strings stay optimal when the trailing 1-run grows.

    For each T the report counts optimal strings b, at brute_force's
    default tolerance, and how many of the extended strings b + "1" are
    again optimal at T + 1. This is a measured property of the optimal
    sets, reported rather than assumed; the extension does fail for some
    strings.
    """
    max_T = operator.index(max_T)
    if not 1 <= max_T <= LANDSCAPE_MAX_T:
        raise ResourceLimitError(
            f"closure report supports 1 <= max_T <= {LANDSCAPE_MAX_T}, got {max_T}"
        )
    results = [brute_force(T, coin0, coin1) for T in range(1, max_T + 2)]
    rows = []
    for T, (here, after) in enumerate(zip(results, results[1:]), start=1):
        preserved = len({bits + "1" for bits in here.optimal_bits}.intersection(after.optimal_bits))
        rows.append(ClosureRow(T=T, n_optimal=here.count_optimal, n_preserved=preserved))
    return rows
