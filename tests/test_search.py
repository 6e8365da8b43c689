"""Exhaustive search, annealing and structural reports."""

import math
import os
import sys

import numpy as np
import pytest

from walkmeg import (
    FOURIER,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    PAULI_Z,
    AnnealConfig,
    CoinParameters,
    CoinSequence,
    ResourceLimitError,
    anneal,
    brute_force,
    build_coin,
    coin_channel_ptm,
    enumerate_fidelities,
    extension_closure_report,
    landscape_scan,
    rotation_coin,
    sequence_fidelity,
    worker_count,
)
from walkmeg.search import (
    BEST_TIE,
    COUNT_TOLERANCES,
    _SCREEN_SLACK,
    _bits_matrix,
    _gram,
    _purity_bound,
    _row_fidelities,
    _stack_fidelities,
    _string_quaternions,
    _su2_steps,
    batch_fidelities,
)

SYMMETRY_SETS = {
    "H,I": (HADAMARD, IDENTITY),
    "H,X": (HADAMARD, PAULI_X),
    "H,F": (HADAMARD, FOURIER),
    "g:0.4,1.1": (rotation_coin(0.4), rotation_coin(1.1)),
}

OPTIMAL_ANGLE_PAIRS = (
    (0.0, math.pi / 4.0),
    (math.pi / 4.0, 0.0),
    (math.pi / 2.0, math.pi / 4.0),
    (math.pi / 4.0, math.pi / 2.0),
)


def test_brute_force_three_steps():
    res = brute_force(3, HADAMARD, IDENTITY)
    assert res.optimal_bits == ("001", "010", "101", "110")
    assert res.count_optimal == 4
    assert res.evaluations == 8
    assert res.best_fidelity == pytest.approx(1.0, abs=1e-9)


def test_brute_force_against_canonical_fidelity():
    # the sweep must agree with the one-row route of sequence_fidelity
    for T in (2, 4, 7):
        fast = enumerate_fidelities(HADAMARD, IDENTITY, T)
        for value in range(1 << T):
            bits = format(value, f"0{T}b")
            slow = sequence_fidelity(CoinSequence(HADAMARD, IDENTITY, bits))
            assert fast[value] == pytest.approx(slow, abs=2e-8), bits


def test_split_enumeration_matches_flat():
    # T=15 runs through the half-sequence convolution path; spot-check
    # rows against direct batched evaluation
    fid = enumerate_fidelities(HADAMARD, IDENTITY, 15)
    assert fid.shape == (1 << 15,)
    rng = np.random.default_rng(9)
    picks = rng.integers(0, 1 << 15, 40)
    rows = np.array([[int(ch) for ch in format(int(v), "015b")] for v in picks])
    direct = batch_fidelities(HADAMARD, IDENTITY, rows)
    np.testing.assert_allclose(fid[picks], direct, atol=1e-10)


def test_sixteen_step_optimal_count():
    res = brute_force(16, HADAMARD, IDENTITY)
    assert res.count_optimal == 368
    assert all(len(b) == 16 for b in res.optimal_bits)


def test_brute_force_deterministic_and_worker_independent():
    a = brute_force(6, HADAMARD, IDENTITY)
    b = brute_force(6, HADAMARD, IDENTITY)
    assert a == b
    # three workers split 16 and 128 chunks unevenly
    for T in (6, 12, 15, 18):
        one = enumerate_fidelities(HADAMARD, IDENTITY, T, workers=1)
        for workers in (2, 3):
            got = enumerate_fidelities(HADAMARD, IDENTITY, T, workers=workers)
            assert got.tobytes() == one.tobytes(), (T, workers)


def test_threads_share_the_sweep_without_losing_a_chunk():
    # seven threads on the 16 chunks of T=15, more than there are cores, switching
    # between them as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for x in (None, 1.0 - 1e-6):
            one = enumerate_fidelities(HADAMARD, IDENTITY, 15, workers=1, exact_above=x)
            many = enumerate_fidelities(HADAMARD, IDENTITY, 15, workers=7, exact_above=x)
            if x is not None:  # only the entries above x are exact for every split
                one, many = np.where(one > x, one, 0.0), np.where(many > x, many, 0.0)
            assert many.tobytes() == one.tobytes(), x
    finally:
        sys.setswitchinterval(interval)


def test_optimal_counts_multiple_tolerances():
    counts = brute_force(5, HADAMARD, IDENTITY).counts
    assert counts[1e-6] == counts[1e-9] == counts[1e-12] == 8


def test_resource_guards():
    with pytest.raises(ResourceLimitError):
        brute_force(0, HADAMARD, IDENTITY)
    with pytest.raises(ResourceLimitError):
        brute_force(25, HADAMARD, IDENTITY)
    with pytest.raises(ResourceLimitError):
        landscape_scan(13, [0.0, math.pi / 4.0])
    with pytest.raises(ResourceLimitError):
        extension_closure_report(HADAMARD, IDENTITY, max_T=13)


# Each sized entry point, called with a size: a float must raise, not be truncated.
SIZED_SEARCH_CALLS = {
    "enumerate_fidelities": lambda T: enumerate_fidelities(HADAMARD, IDENTITY, T),
    "brute_force": lambda T: brute_force(T, HADAMARD, IDENTITY),
    "anneal": lambda T: anneal(T, AnnealConfig(restarts=1), coins=(HADAMARD, IDENTITY)),
    "landscape_scan": lambda T: landscape_scan(T, [0.5]),
    "extension_closure_report": lambda T: extension_closure_report(HADAMARD, IDENTITY, T),
    "worker_count": worker_count,
}


@pytest.mark.parametrize("name", sorted(SIZED_SEARCH_CALLS))
def test_search_sizes_must_be_integers(name):
    call = SIZED_SEARCH_CALLS[name]
    call(np.int64(3))  # numpy integers are integers
    with pytest.raises(TypeError):
        call(3.9)


def test_worker_count_env_cap(monkeypatch):
    monkeypatch.delenv("WALKMEG_THREADS", raising=False)
    assert worker_count(4) == 4
    monkeypatch.setenv("WALKMEG_THREADS", "2")
    assert worker_count(4) == 2
    assert worker_count() <= 2
    monkeypatch.setenv("WALKMEG_THREADS", "zebra")
    with pytest.raises(ValueError):
        worker_count(4)


@pytest.mark.parametrize("requested", [0, -5])
def test_worker_count_refuses_a_request_below_one(requested, monkeypatch):
    monkeypatch.delenv("WALKMEG_THREADS", raising=False)
    with pytest.raises(ValueError, match=r"worker count must be an integer >= 1"):
        worker_count(requested)
    # a sweep of more than one chunk must not fall back to one thread
    with pytest.raises(ValueError, match=r"worker count must be an integer >= 1"):
        brute_force(12, HADAMARD, IDENTITY, workers=requested)


@pytest.mark.parametrize("env", ["0", "-2"])
def test_worker_count_refuses_a_thread_cap_below_one(env, monkeypatch):
    monkeypatch.setenv("WALKMEG_THREADS", env)
    with pytest.raises(ValueError, match=r"WALKMEG_THREADS must be an integer >= 1"):
        worker_count(4)


def test_worker_count_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("WALKMEG_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert worker_count() == 1
    assert worker_count(4) == 4
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count() == 64


def test_anneal_fixed_coins_reaches_optimum():
    result = anneal(3, AnnealConfig(seed=7, restarts=4), coins=(HADAMARD, IDENTITY))
    assert result.fidelity == pytest.approx(1.0, abs=1e-6)
    assert result.bits in ("001", "010", "101", "110")


def test_anneal_single_step_hits_the_ceiling():
    # no early stop is possible at T = 1, so keep the schedule short
    config = AnnealConfig(seed=3, restarts=2, steps_per_temperature=20)
    result = anneal(1, config, coins=(HADAMARD, IDENTITY))
    assert result.fidelity == pytest.approx(0.5, abs=1e-6)


def test_anneal_free_angles_finds_an_optimal_pair():
    result = anneal(5, AnnealConfig(seed=11, restarts=3))
    assert result.fidelity > 1.0 - 1e-6
    distance = min(
        math.hypot(result.gamma0 - g0, result.gamma1 - g1)
        for g0, g1 in OPTIMAL_ANGLE_PAIRS
    )
    assert distance < 0.05


def test_anneal_deterministic():
    config = AnnealConfig(seed=19, restarts=2)
    assert anneal(4, config) == anneal(4, config)


def test_anneal_never_beats_brute_force():
    best = brute_force(4, HADAMARD, IDENTITY).best_fidelity
    result = anneal(4, AnnealConfig(seed=5, restarts=3), coins=(HADAMARD, IDENTITY))
    assert result.fidelity <= best + 1e-9


def test_anneal_config_validation():
    with pytest.raises(ValueError):
        AnnealConfig(steps_per_temperature=0)
    with pytest.raises(ValueError):
        AnnealConfig(restarts=0)


# a config that anneal cannot run must fail where it is built, not inside anneal
@pytest.mark.parametrize(
    "field, value, error",
    [
        ("restarts", 2.0, TypeError),
        ("steps_per_temperature", 1.5, TypeError),
        ("seed", 0.5, TypeError),
        ("seed", -1, ValueError),
    ],
)
def test_anneal_config_refuses_what_anneal_cannot_run(field, value, error):
    AnnealConfig(**{field: np.int64(2)})  # numpy integers are integers
    with pytest.raises(error):
        AnnealConfig(**{field: value})


# (T, coin set, seed, steps_per_temperature) -> (gamma0, gamma1, bits, fidelity),
# recorded before the anneal modes were folded into the coins argument; the
# results depend on the exact order of every random draw
ANNEAL_PINS = [
    (5, None, 0, 20, (0.785378779162893, 0.0, "11101", 0.9999999996242516)),
    (8, None, 0, 20, (0.0, 0.7876107223748658, "10000110", 0.9999999999041413)),
    (5, "H,I", 7, 200, (math.pi / 4.0, 0.0, "11110", 1.0)),
    (8, "H,I", 5, 200, (math.pi / 4.0, 0.0, "01001111", 1.0)),
    (5, "H,X", 0, 200, (math.pi / 4.0, 0.0, "00100", 1.0)),
    (8, "H,X", 1, 200, (math.pi / 4.0, 0.0, "00010010", 1.0)),
]


@pytest.mark.parametrize("T, label, seed, steps, expected", ANNEAL_PINS)
def test_anneal_trajectories_are_pinned(T, label, seed, steps, expected):
    config = AnnealConfig(steps_per_temperature=steps, restarts=2, seed=seed)
    coins = None if label is None else SYMMETRY_SETS[label]
    gamma0, gamma1, bits, fidelity = anneal(T, config, coins=coins)
    assert bits == expected[2]
    assert gamma0 == pytest.approx(expected[0], abs=1e-9)
    assert gamma1 == pytest.approx(expected[1], abs=1e-9)
    assert fidelity == pytest.approx(expected[3], abs=1e-9)


def test_anneal_equal_coins_stops_after_the_start_string(monkeypatch):
    # with one coin every string walks alike, so each restart keeps its
    # random start; restart 0 wins the tie
    import walkmeg.search as search

    calls = []
    cost = search._anneal_cost

    def counting(*args):
        calls.append(1)
        return cost(*args)

    monkeypatch.setattr(search, "_anneal_cost", counting)
    config = AnnealConfig(seed=0)
    result = anneal(6, config, coins=(HADAMARD, HADAMARD))
    assert result.bits == "100110"
    assert len(calls) <= config.restarts


def test_coins_are_validated_at_the_search_boundary(monkeypatch):
    import threading

    def refuse(*args, **kwargs):
        raise AssertionError("a bad coin must be rejected before any worker starts")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    with pytest.raises(AssertionError, match="before any worker starts"):
        enumerate_fidelities(HADAMARD, IDENTITY, 15, workers=2)
    bad = 2 * IDENTITY
    with pytest.raises(ValueError, match="not unitary"):
        enumerate_fidelities(HADAMARD, bad, 15, workers=2)
    with pytest.raises(ValueError, match="not unitary"):
        anneal(3, AnnealConfig(restarts=1), coins=(bad, IDENTITY))
    with pytest.raises(ValueError, match="not unitary"):
        batch_fidelities(HADAMARD, bad, np.zeros((1, 3), dtype=int))


@pytest.mark.parametrize("entry", [-1, 0.7, 2])
def test_batch_fidelities_refuses_entries_other_than_0_and_1(entry):
    # read as indices, -1 would score as a 1, 0.7 as a 0, and 2 would fail in the kernel
    with pytest.raises(ValueError, match="0/1 rows"):
        batch_fidelities(HADAMARD, IDENTITY, [[0, entry, 1]])


@pytest.mark.parametrize("T", [4, 5, 8, 12])
def test_screened_landscape_maxima_equal_the_full_sweep(T):
    # every T is screened: T = 4 sweeps one stack of 8 strings, T = 5 one of
    # 16; the grid's diagonal has equal coins, where every string ties
    grid = np.linspace(0.0, math.pi / 2.0, 5)
    points = landscape_scan(T, grid)
    assert [(p.gamma0, p.gamma1) for p in points] == [(g0, g1) for g0 in grid for g1 in grid]
    for p in points:
        full = enumerate_fidelities(rotation_coin(p.gamma0), rotation_coin(p.gamma1), T)
        assert p.best_fidelity == full.max(), (T, p)


def test_landscape_small_grid_maxima():
    # at T = 3 only the {gamma=0, gamma=pi/4} pairs reach unit fidelity;
    # the pi/2 pairs (a sigma_x coin) first get there at T = 5
    grid = np.linspace(0.0, math.pi / 2.0, 5)
    points = landscape_scan(3, grid)
    assert len(points) == 25
    top = {
        (round(p.gamma0, 9), round(p.gamma1, 9))
        for p in points
        if p.best_fidelity > 1.0 - 1e-9
    }
    quarter = math.pi / 4.0
    expected = {(0.0, round(quarter, 9)), (round(quarter, 9), 0.0)}
    assert top == expected


def test_extension_closure_report_reference_counts():
    rows = extension_closure_report(HADAMARD, IDENTITY, max_T=9)
    observed = [(r.T, r.n_optimal, r.n_violations) for r in rows if r.T >= 3]
    assert observed == [
        (3, 4, 2),
        (4, 4, 0),
        (5, 8, 2),
        (6, 8, 0),
        (7, 24, 10),
        (8, 24, 4),
        (9, 56, 30),
    ]


def test_complement_closure_holds_only_at_three_steps():
    # swapping every bit maps the T=3 optimal set onto itself, but from
    # T=4 on the complements leave the optimal set
    def complement_preserved(T: int) -> bool:
        fid = enumerate_fidelities(HADAMARD, IDENTITY, T)
        optimal = np.nonzero(fid > 1.0 - 1e-9)[0]
        mask = (1 << T) - 1
        return bool(np.all(fid[optimal ^ mask] > 1.0 - 1e-9))

    assert complement_preserved(3)
    assert not any(complement_preserved(T) for T in range(4, 10))


def test_landscape_angle_validation():
    with pytest.raises(ValueError):
        landscape_scan(3, [])
    with pytest.raises(ValueError):
        landscape_scan(3, [0.0, 2.0])


def test_rotation_angle_pair_equals_named_set():
    # gamma = pi/4 and 0 give the Hadamard and sigma_z coins; the optimal
    # count matches the {H, 1} set even though the fidelity arrays differ
    res_named = brute_force(6, HADAMARD, IDENTITY)
    res_angles = brute_force(6, rotation_coin(math.pi / 4.0), rotation_coin(0.0))
    assert res_angles.best_fidelity == pytest.approx(res_named.best_fidelity, abs=1e-9)
    assert res_angles.count_optimal == res_named.count_optimal


@pytest.fixture(scope="module")
def sweep18():
    return enumerate_fidelities(HADAMARD, IDENTITY, 18, workers=2)


def test_brute_force_eighteen_steps_stays_in_range():
    # the best fidelity is 1 to round-off and must not overshoot it
    res = brute_force(18, HADAMARD, IDENTITY)
    assert res.count_optimal == 620
    assert res.best_fidelity <= 1.0


@pytest.mark.parametrize("label", sorted(SYMMETRY_SETS))
def test_first_coin_symmetry_to_round_off(label):
    # the first coin acts before any shift, so flipping the leading bit
    # leaves the fidelity unchanged; both halves are evaluated explicitly
    coin0, coin1 = SYMMETRY_SETS[label]
    T = 12
    values = np.arange(1 << (T - 1))
    rows = np.array([[int(ch) for ch in format(int(v), f"0{T - 1}b")] for v in values])
    zero_led = np.hstack([np.zeros((rows.shape[0], 1), dtype=int), rows])
    one_led = np.hstack([np.ones((rows.shape[0], 1), dtype=int), rows])
    fid0 = batch_fidelities(coin0, coin1, zero_led)
    fid1 = batch_fidelities(coin0, coin1, one_led)
    assert np.max(np.abs(fid0 - fid1)) <= 1e-13


def _random_coin_pair(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return tuple(build_coin(CoinParameters(*rng.uniform(0.0, 2.0 * math.pi, 3))) for _ in range(2))


EXACT_SYMMETRY_SETS = {
    **SYMMETRY_SETS,
    "H,Z": (HADAMARD, PAULI_Z),
    **{f"random {seed}": _random_coin_pair(seed) for seed in (1, 2, 3)},
}


def _all_rows(T: int) -> np.ndarray:
    return _bits_matrix(np.arange(1 << T, dtype=np.uint32), T)


@pytest.mark.parametrize("label", list(EXACT_SYMMETRY_SETS))
def test_exact_symmetries_to_round_off(label):
    # reversing the tail b2..bT while transposing both coins, and conjugating
    # both coins by diag(1, e^{i phi}), by sigma_x or complex-conjugating them,
    # leave every string's fidelity unchanged
    coin0, coin1 = EXACT_SYMMETRY_SETS[label]
    T = 10
    rows = _all_rows(T)
    base = batch_fidelities(coin0, coin1, rows)
    phase = np.diag([1.0, np.exp(0.7j)])
    images = {
        "tail reversal, transposed": (coin0.T, coin1.T, rows[:, [0, *range(T - 1, 0, -1)]]),
        "diag phase": (phase @ coin0 @ phase.conj().T, phase @ coin1 @ phase.conj().T, rows),
        "sigma_x": (PAULI_X @ coin0 @ PAULI_X, PAULI_X @ coin1 @ PAULI_X, rows),
        "complex conjugate": (coin0.conj(), coin1.conj(), rows),
    }
    for name, (c0, c1, r) in images.items():
        deviation = np.max(np.abs(batch_fidelities(c0, c1, r) - base))
        assert deviation <= 1e-13, f"{name}: {deviation:.3e}"


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_near_symmetries_break_on_random_coins(seed):
    # negative controls: dropping the transpose, or reversing the first bit
    # too, is not a symmetry, so the check above can fail
    coin0, coin1 = _random_coin_pair(seed)
    T = 9
    rows = _all_rows(T)
    base = batch_fidelities(coin0, coin1, rows)
    tail_only = batch_fidelities(coin0, coin1, rows[:, [0, *range(T - 1, 0, -1)]])
    full = batch_fidelities(coin0.T, coin1.T, rows[:, ::-1])
    assert np.max(np.abs(tail_only - base)) > 1e-3
    assert np.max(np.abs(full - base)) > 1e-3


def test_sweep_composition_matches_rows_at_eighteen(sweep18):
    rng = np.random.default_rng(18)
    picks = rng.integers(0, 1 << 18, 64)
    rows = np.array([[int(ch) for ch in format(int(v), "018b")] for v in picks])
    direct = batch_fidelities(HADAMARD, IDENTITY, rows)
    np.testing.assert_allclose(sweep18[picks], direct, rtol=0.0, atol=1e-13)


def test_sweep_worker_independent_at_eighteen(sweep18):
    one = enumerate_fidelities(HADAMARD, IDENTITY, 18, workers=1)
    assert one.tobytes() == sweep18.tobytes()


def test_small_sweeps_start_no_pool(monkeypatch):
    import threading

    # sweeps of T <= 11 are one chunk, so they run on the calling thread alone
    expected = enumerate_fidelities(HADAMARD, IDENTITY, 12, workers=1)

    def refuse(*args, **kwargs):
        raise AssertionError("a one-chunk sweep must not start a pool")

    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", refuse)
        for T in range(1, 12):
            got = enumerate_fidelities(HADAMARD, IDENTITY, T, workers=2)
            assert got.tobytes() == enumerate_fidelities(HADAMARD, IDENTITY, T, workers=1).tobytes()
        with pytest.raises(AssertionError, match="must not start a pool"):
            enumerate_fidelities(HADAMARD, IDENTITY, 12, workers=2)
    got = enumerate_fidelities(HADAMARD, IDENTITY, 12, workers=2)
    assert got.tobytes() == expected.tobytes()


def test_kernel_does_not_depend_on_the_grid_size():
    # U(k) has trigonometric-polynomial entries of degree <= T, so every grid
    # of n >= 2T+1 momenta gives the same fidelities and the same mean Gram
    # matrix, on the sweep's Gram route and on the row route's SVD alike.
    rng = np.random.default_rng(1931)
    for _ in range(12):
        coins = [build_coin(CoinParameters(*rng.uniform(0.0, 2.0 * math.pi, 3))) for _ in range(2)]
        T = int(rng.integers(1, 20))
        bits = rng.integers(0, 2, (17, T))
        scores = []
        for n in (2 * T + 1, 2 * T + 2, 4 * T + 3, 6 * T + 5):
            steps = _su2_steps(coins, n)
            q = _string_quaternions(steps, bits)
            scores.append((_stack_fidelities(q)[0], _row_fidelities(steps, bits), _gram(q) / n))
        for got in scores[1:]:
            for value, reference in zip(got, scores[0]):
                np.testing.assert_allclose(value, reference, rtol=0.0, atol=1e-14)


def test_enumeration_guards_its_length():
    for T in (0, 25):
        with pytest.raises(ResourceLimitError, match="brute force supports"):
            enumerate_fidelities(HADAMARD, IDENTITY, T)


def _random_angle_sets(seed: int, count: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        f"g:{g0:.3f},{g1:.3f}": (rotation_coin(g0), rotation_coin(g1))
        for g0, g1 in rng.uniform(0.0, math.pi / 2.0, (count, 2))
    }


# the single-coin sets have channels with singular values that are exactly zero
GRAM_SETS = {
    "H,I": (HADAMARD, IDENTITY),
    "H,X": (HADAMARD, PAULI_X),
    "H,F": (HADAMARD, FOURIER),
    "H,Z": (HADAMARD, PAULI_Z),
    "I,I": (IDENTITY, IDENTITY),
    "X,X": (PAULI_X, PAULI_X),
    "H,H": (HADAMARD, HADAMARD),
    **_random_angle_sets(12, 3),
}


@pytest.mark.parametrize("label", sorted(GRAM_SETS))
def test_gram_route_matches_svd_reference(label):
    # every string at T=12, scored by the sweep's Gram route and by the row
    # route, against one SVD per string of the same quaternions
    coin0, coin1 = GRAM_SETS[label]
    T = 12
    rows = _bits_matrix(np.arange(1 << T, dtype=np.uint32), T).astype(np.intp)
    q = _string_quaternions(_su2_steps((coin0, coin1), 2 * T + 1), rows)
    sv = np.linalg.svd(q, compute_uv=False)
    reference = np.minimum(np.square(sv.sum(axis=-1)) / (4 * q.shape[-2]), 1.0)
    np.testing.assert_allclose(batch_fidelities(coin0, coin1, rows), reference, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(enumerate_fidelities(coin0, coin1, T), reference, rtol=0.0, atol=1e-14)
    # the screen's purity bound holds on every string; measured at most
    # 1.7e-15 below the reference, at strings with F = 1
    assert np.all(_purity_bound(_gram(q), q.shape[-2]) >= reference - 1e-13)


@pytest.mark.parametrize("label", sorted(GRAM_SETS))
def test_stack_size_does_not_show_in_a_result(label):
    # a row's value depends on its string alone, bit for bit, in small
    # batches and past the 1024-row chunk: the batches draw from 64
    # strings, each also scored on its own
    coin0, coin1 = GRAM_SETS[label]
    rng = np.random.default_rng(5)
    strings = rng.integers(0, 2, (64, 12))
    alone = np.array([batch_fidelities(coin0, coin1, row[None])[0] for row in strings])
    picks = np.concatenate([np.arange(64), rng.integers(0, 64, 1025 - 64)])
    for size in (1, 15, 16, 17, 1025):
        got = batch_fidelities(coin0, coin1, strings[picks[:size]])
        assert np.array_equal(got, alone[picks[:size]]), size


@pytest.mark.parametrize("label", sorted(GRAM_SETS))
def test_best_bits_do_not_depend_on_the_stage_four_route(label):
    # strings that tie to round-off swap order between the sweep's Gram route
    # and the row route's SVD; the best string is decided within BEST_TIE, so
    # the screened sweep and every string scored as a row pick the same one
    coin0, coin1 = GRAM_SETS[label]
    for T in range(1, 12):
        rows = batch_fidelities(coin0, coin1, _all_rows(T))
        picked = format(int(np.argmax(rows >= rows.max() - BEST_TIE)), f"0{T}b")
        assert brute_force(T, coin0, coin1).best_bits == picked, T


@pytest.mark.parametrize("label", ["H,I", "H,X", "H,F", "H,Z", "g:0.4,1.1"])
def test_best_tie_sits_in_an_empty_band(label):
    # every fidelity is a round-off tie of the maximum or clearly below it
    coin0, coin1 = {**GRAM_SETS, **SYMMETRY_SETS}[label]
    for T in range(1, 17):
        fid = enumerate_fidelities(coin0, coin1, T)
        gap = fid.max() - fid
        assert not np.any((gap > BEST_TIE) & (gap < 1e-9)), T


def test_search_result_carries_one_sweep():
    res = brute_force(7, HADAMARD, PAULI_X)
    fid = enumerate_fidelities(HADAMARD, PAULI_X, 7)
    assert res.best_fidelity == fid.max()
    assert res.best_bits == format(int(np.nonzero(fid >= fid.max() - BEST_TIE)[0][0]), "07b")
    assert res.optimal_fidelities == tuple(fid[int(b, 2)] for b in res.optimal_bits)
    assert res.count_optimal == len(res.optimal_bits) > 0
    assert dict(res.counts) == {tol: int((fid > 1.0 - tol).sum()) for tol in COUNT_TOLERANCES}
    assert hash(res) == hash(brute_force(7, HADAMARD, PAULI_X))
    with pytest.raises(TypeError):
        res.counts[1e-9] = 0


@pytest.mark.parametrize("label", ["H,F", "H,I", "g:0.4,1.1"])
def test_gram_purity_is_the_ptm_purity(label):
    # the screen's chi purity ||q^T q||_F^2 / n^2 equals (1 + ||R[1:, 1:]||_F^2) / 4
    # for the trace-preserving unital channel with PTM R
    coin0, coin1 = SYMMETRY_SETS[label]
    for T in range(1, 11):
        n = 2 * T + 1
        bits = _bits_matrix(np.arange(1 << T, dtype=np.uint32), T)
        gram = _gram(_string_quaternions(_su2_steps((coin0, coin1), n), bits))
        purity = np.einsum("kij,kij->k", gram, gram) / (n * n)
        for value, p in enumerate(purity):
            ptm = coin_channel_ptm(CoinSequence(coin0, coin1, format(value, f"0{T}b")))
            assert abs(p - (1.0 + np.sum(ptm[1:, 1:] ** 2)) / 4.0) <= 1e-14, (T, value)


def test_purity_bound_over_random_spectra():
    rng = np.random.default_rng(7)
    for alpha in (1.0, 0.1, 0.01):  # small alpha crowds the spectra near pure states
        p = rng.dirichlet([alpha] * 4, 100_000)
        # a random rotation of diag(p) has the same purity
        rot = np.linalg.qr(rng.standard_normal((p.shape[0], 4, 4)))[0]
        gram = np.matmul(rot * p[:, None, :], rot.swapaxes(-1, -2))
        fid = np.square(np.sqrt(p).sum(axis=-1)) / 4.0
        assert np.all(_purity_bound(gram, 1) >= fid - _SCREEN_SLACK)
    # the bound is reached at the spectrum (1/4 + 3d, 1/4 - d, 1/4 - d, 1/4 - d)
    d = rng.uniform(0.0, 0.25, 1000)
    p = np.stack([0.25 + 3.0 * d, *([0.25 - d] * 3)], axis=-1)
    fid = np.square(np.sqrt(p).sum(axis=-1)) / 4.0
    np.testing.assert_allclose(_purity_bound(p[:, :, None] * np.eye(4), 1), fid, rtol=0.0, atol=1e-12)


SCREEN_TOLERANCES = (1e-2, 1e-6, 1e-9, 1e-12)


def _assert_screen_is_exact(coin0, coin1, T, workers=(1, 2, 3)):
    full = enumerate_fidelities(coin0, coin1, T, workers=1)
    best = full.max()
    for tol in SCREEN_TOLERANCES:
        hits = np.nonzero(full > 1.0 - tol)[0]
        for w in workers:
            res = brute_force(T, coin0, coin1, tol, workers=w)
            assert res.best_fidelity == best, (T, tol, w)
            assert res.best_bits == format(int(np.argmax(full >= best - BEST_TIE)), f"0{T}b")
            assert res.optimal_bits == tuple(format(int(v), f"0{T}b") for v in hits)
            assert np.array_equal(res.optimal_fidelities, full[hits]), (T, tol, w)
            assert dict(res.counts) == {t: int((full > 1.0 - t).sum()) for t in COUNT_TOLERANCES}
    # the thresholds brute_force passes for those tolerances; a bound stands
    # for the fidelity only below its threshold
    for exact_above in {1.0 - max(tol, *COUNT_TOLERANCES) for tol in SCREEN_TOLERANCES}:
        screened = enumerate_fidelities(coin0, coin1, T, workers=1, exact_above=exact_above)
        bounds = screened != full
        assert np.all(screened[bounds] < exact_above)
        assert np.all(screened[bounds] >= full[bounds] - _SCREEN_SLACK)


@pytest.mark.parametrize("label", sorted(GRAM_SETS))
def test_screened_brute_force_equals_the_full_array(label):
    coin0, coin1 = GRAM_SETS[label]
    for T in range(1, 15):
        _assert_screen_is_exact(coin0, coin1, T)


@pytest.mark.parametrize("label", ["H,I", "H,F", "g:0.4,1.1"])
def test_screened_brute_force_equals_the_full_array_at_eighteen(label):
    coin0, coin1 = {**GRAM_SETS, **SYMMETRY_SETS}[label]
    _assert_screen_is_exact(coin0, coin1, 18)
