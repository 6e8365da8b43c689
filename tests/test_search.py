"""Exhaustive search, annealing and structural reports."""

import math

import numpy as np
import pytest

from walkmeg import (
    FOURIER,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    PAULI_Z,
    AnnealConfig,
    CoinSequence,
    ResourceLimitError,
    anneal,
    brute_force,
    enumerate_fidelities,
    extension_closure_report,
    landscape_scan,
    optimal_counts,
    rotation_coin,
    sequence_fidelity,
    worker_count,
)
from walkmeg.search import (
    BEST_TIE,
    COUNT_TOLERANCES,
    _GRAM_MIN_STACK,
    _bits_matrix,
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
    # the batched Kraus-block route must agree with the tomography route
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
    for T in (6, 15):
        one = enumerate_fidelities(HADAMARD, IDENTITY, T, workers=1)
        two = enumerate_fidelities(HADAMARD, IDENTITY, T, workers=2)
        assert one.tobytes() == two.tobytes()


def test_optimal_counts_multiple_tolerances():
    counts = optimal_counts(5, HADAMARD, IDENTITY)
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


def test_worker_count_env_cap(monkeypatch):
    monkeypatch.delenv("WALKMEG_THREADS", raising=False)
    assert worker_count(4) == 4
    monkeypatch.setenv("WALKMEG_THREADS", "2")
    assert worker_count(4) == 2
    assert worker_count() <= 2
    monkeypatch.setenv("WALKMEG_THREADS", "zebra")
    with pytest.raises(ValueError):
        worker_count(4)


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
    import multiprocessing

    def refuse(*args, **kwargs):
        raise AssertionError("a bad coin must be rejected before any pool starts")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    bad = 2 * IDENTITY
    with pytest.raises(ValueError, match="not unitary"):
        enumerate_fidelities(HADAMARD, bad, 15, workers=2)
    with pytest.raises(ValueError, match="not unitary"):
        anneal(3, AnnealConfig(restarts=1), coins=(bad, IDENTITY))
    with pytest.raises(ValueError, match="not unitary"):
        batch_fidelities(HADAMARD, bad, np.zeros((1, 3), dtype=int))


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
    import multiprocessing

    expected = enumerate_fidelities(HADAMARD, IDENTITY, 12, workers=1)

    def refuse(*args, **kwargs):
        raise AssertionError("a 2^12 sweep must not start a pool")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    got = enumerate_fidelities(HADAMARD, IDENTITY, 12, workers=2)
    assert got.tobytes() == expected.tobytes()


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
    # every string at T=12, scored by the Gram route (stacks of 1024 rows
    # and the sweep) against one SVD per string of the same quaternions
    coin0, coin1 = GRAM_SETS[label]
    T = 12
    rows = _bits_matrix(np.arange(1 << T, dtype=np.uint32), T).astype(np.intp)
    q = _string_quaternions(_su2_steps((coin0, coin1), 2 * T + 1), rows)
    sv = np.linalg.svd(q, compute_uv=False)
    reference = np.minimum(np.square(sv.sum(axis=-1)) / (4 * q.shape[-2]), 1.0)
    np.testing.assert_allclose(batch_fidelities(coin0, coin1, rows), reference, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(enumerate_fidelities(coin0, coin1, T), reference, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("label", sorted(GRAM_SETS))
def test_stack_size_does_not_show_in_a_result(label):
    # a string scored on its own takes the SVD, inside a stack the Gram route
    coin0, coin1 = GRAM_SETS[label]
    rows = np.random.default_rng(5).integers(0, 2, (_GRAM_MIN_STACK, 12))
    stacked = batch_fidelities(coin0, coin1, rows)
    alone = [batch_fidelities(coin0, coin1, row[None])[0] for row in rows]
    np.testing.assert_allclose(stacked, alone, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("label", sorted(GRAM_SETS))
def test_best_bits_do_not_depend_on_the_stage_four_route(label, monkeypatch):
    # strings that tie to round-off swap order between the Gram route and
    # the SVD; the best string is decided within BEST_TIE, so it stays put
    import walkmeg.search as search

    coin0, coin1 = GRAM_SETS[label]
    picks = {}
    for min_stack in (1, 10**9):
        monkeypatch.setattr(search, "_GRAM_MIN_STACK", min_stack)
        picks[min_stack] = [brute_force(T, coin0, coin1).best_bits for T in range(1, 15)]
    assert picks[1] == picks[10**9]


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
