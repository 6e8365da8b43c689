"""Entropies, ensemble statistics and transport moments."""

import math

import numpy as np
import pytest

from walkmeg import (
    DEFAULT_ENSEMBLE,
    HADAMARD,
    IDENTITY,
    CoinParameters,
    CoinSequence,
    InitialCoinState,
    MomentSeries,
    ProbabilityDistribution,
    average_entanglement,
    build_coin,
    ensemble_entropies,
    entanglement_entropy,
    evolve,
    generate_table_sequence,
    position_distribution,
    reduced_coin_state,
    second_moment,
    shannon_entropy,
    sphere_angles,
    trajectory,
    walk_moment_series,
)


def test_entanglement_entropy_reference_values():
    assert entanglement_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert entanglement_entropy(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-12)
    # binary entropy of eigenvalues (1/4, 3/4)
    h = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert entanglement_entropy(np.diag([0.25, 0.75])) == pytest.approx(h, abs=1e-12)
    assert h == pytest.approx(0.8112781244591328, abs=1e-15)
    # basis independent
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    rho = u @ np.diag([0.25, 0.75]) @ u.conj().T
    assert entanglement_entropy(rho) == pytest.approx(h, abs=1e-12)


def test_entanglement_entropy_rejects_invalid_density_matrices():
    with pytest.raises(ValueError):
        entanglement_entropy(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        entanglement_entropy(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        entanglement_entropy(np.diag([1.5, -0.5]))


def test_shannon_entropy_reference_values():
    # two-step Hadamard walk from |0>: P = (1/4, 1/2, 1/4) on three sites
    dist = ProbabilityDistribution(np.array([0.25, 0.0, 0.5, 0.0, 0.25]))
    expected = (1.5 * math.log(2.0)) / math.log(3.0)
    assert shannon_entropy(dist) == pytest.approx(expected, abs=1e-12)
    # uniform over the T+1 reachable sites normalizes to exactly 1
    uniform = ProbabilityDistribution(np.array([0.25, 0, 0.25, 0, 0.25, 0, 0.25]))
    assert shannon_entropy(uniform) == pytest.approx(1.0, abs=1e-12)


def test_shannon_entropy_stays_in_the_unit_interval():
    # a t-step walk reaches at most the t+1 sites of one parity, and the
    # normalization reads t from the distribution
    rng = np.random.default_rng(4021)
    for k in range(24):
        if k % 2:
            coins = (HADAMARD, IDENTITY)
        else:
            coins = [build_coin(CoinParameters(*rng.uniform(0.0, 2.0 * math.pi, 3))) for _ in range(2)]
        T = int(rng.integers(1, 41))
        seq = CoinSequence(*coins, "".join(rng.choice(["0", "1"], T)))
        init = InitialCoinState(*rng.uniform(0.0, 2.0 * math.pi, 2))
        for state in trajectory(init, seq):
            assert -1e-12 <= shannon_entropy(position_distribution(state)) <= 1.0 + 1e-12
    with pytest.raises(ValueError, match="t >= 1"):
        shannon_entropy(ProbabilityDistribution(np.array([1.0])))


def test_second_moment():
    dist = ProbabilityDistribution(np.array([0.25, 0, 0.25, 0, 0.25, 0, 0.25]))
    assert second_moment(dist) == pytest.approx(5.0, abs=1e-12)
    origin = ProbabilityDistribution(np.array([0.0, 1.0, 0.0]))
    assert second_moment(origin) == 0.0


def test_ensemble_entropies_for_optimal_sequence():
    assert DEFAULT_ENSEMBLE == 296
    values = ensemble_entropies(generate_table_sequence(3), 64)
    assert values.shape == (64,)
    np.testing.assert_allclose(values, 1.0, atol=1e-10)
    stats = average_entanglement(generate_table_sequence(4), 64)
    assert stats.n == 64
    assert stats.mean == pytest.approx(1.0, abs=1e-10)
    assert stats.std_dev == pytest.approx(0.0, abs=1e-10)


def test_ensemble_entropies_spread_for_suboptimal_sequence():
    values = ensemble_entropies(CoinSequence(HADAMARD, IDENTITY, "11"), 64)
    assert values.min() < 0.7
    assert values.std() > 0.05


def test_ensemble_entropies_match_per_state_evolution():
    # the PTM route against evolving every lattice state, for random
    # three-angle coin pairs and strings (mostly suboptimal) plus one
    # optimal and one suboptimal {H, 1} string
    rng = np.random.default_rng(2209)
    cases = [CoinSequence(HADAMARD, IDENTITY, "0010111"), CoinSequence(HADAMARD, IDENTITY, "11")]
    for _ in range(10):
        coin0, coin1 = (build_coin(CoinParameters(*rng.uniform(0.0, 2.0 * math.pi, 3)))
                        for _ in range(2))
        T = int(rng.integers(1, 11))
        cases.append(CoinSequence(coin0, coin1, "".join(rng.choice(["0", "1"], T))))
    thetas, phis = sphere_angles(DEFAULT_ENSEMBLE)
    spread = []
    for seq in cases:
        expected = [
            entanglement_entropy(reduced_coin_state(evolve(InitialCoinState(float(t), float(p)), seq)))
            for t, p in zip(thetas, phis)
        ]
        values = ensemble_entropies(seq)
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)
        spread.append(values.max() - values.min())
    assert spread[0] < 1e-9 and min(spread[1:]) > 0.01


def test_fit_recovers_exact_power_laws():
    t = np.arange(1, 11, dtype=float)
    for alpha in (1.0, 1.5, 2.0):
        series = MomentSeries(values=0.5 * t**alpha)
        assert series.alpha == pytest.approx(alpha, abs=1e-9)


def test_moment_series_fit_is_derived_from_its_values():
    series = MomentSeries(np.array([1.0, 4.0, 9.0]))
    assert series.alpha == pytest.approx(2.0, abs=1e-12)
    assert series.prefactor == pytest.approx(1.0, abs=1e-12)
    for values in ([1.0, 4.0], [0.0, 1.0, 4.0]):  # too short; not positive
        for read in (lambda s: s.alpha, lambda s: s.prefactor):
            with pytest.raises(ValueError):
                read(MomentSeries(np.array(values)))


def test_walk_moments_identity_coin_are_ballistic():
    seq = CoinSequence(HADAMARD, IDENTITY, "1" * 10)
    series = walk_moment_series(seq, InitialCoinState.named("H"))
    np.testing.assert_allclose(series.values, np.arange(1, 11, dtype=float) ** 2, atol=1e-10)
    assert series.alpha == pytest.approx(2.0, abs=1e-9)
    assert series.prefactor == pytest.approx(1.0, abs=1e-9)


def test_walk_moments_table_sequence_superdiffusive():
    seq = generate_table_sequence(10)
    series = walk_moment_series(seq, InitialCoinState.named("+"))
    assert series.T == 10
    assert 1.0 < series.alpha < 2.0


def test_moment_series_validation():
    with pytest.raises(ValueError):
        MomentSeries(values=np.array([2.0]))  # m(1) beyond the light cone
    with pytest.raises(ValueError):
        MomentSeries(values=np.array([]))
