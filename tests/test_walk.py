"""Walk evolution against an independent path-sum oracle."""

import itertools
import math

import numpy as np
import pytest

from walkmeg import (
    HADAMARD,
    IDENTITY,
    PAULI_Z,
    AffineBlochVector,
    CoinSequence,
    InitialCoinState,
    WalkerState,
    ProbabilityDistribution,
    build_coin,
    evolve,
    initial_state,
    momentum_final_bloch,
    pattern_from_bits,
    position_distribution,
    reduced_coin_state,
    step,
    trajectory,
)
from walkmeg.metrics import entanglement_entropy, second_moment


def path_sum_amplitudes(seq: CoinSequence, init: InitialCoinState) -> np.ndarray:
    """Sum over all coin paths: amp = v[c0] * prod_t C_t[c_t, c_{t-1}].

    After the coin at step t produces the new coin value c_t, the walker
    moves by +1 for c_t = 0 and -1 for c_t = 1. This enumerates 2^(T+1)
    paths directly and is independent of the vectorized evolution.
    """
    T = seq.T
    out = np.zeros((2, 2 * T + 1), dtype=np.complex128)
    vec = init.vector
    for c0 in (0, 1):
        for path in itertools.product((0, 1), repeat=T):
            amp = vec[c0]
            prev = c0
            x = 0
            for t, c in enumerate(path, start=1):
                amp = amp * seq.coin_at(t)[c, prev]
                prev = c
                x += 1 if c == 0 else -1
            out[prev, x + T] += amp
    return out


def test_evolution_matches_path_sum_on_random_sequences():
    rng = np.random.default_rng(42)
    for _ in range(12):
        T = int(rng.integers(1, 7))
        coin0 = build_coin(tuple(rng.uniform(0.0, 2.0 * math.pi, 3)))
        coin1 = build_coin(tuple(rng.uniform(0.0, 2.0 * math.pi, 3)))
        bits = "".join("01"[b] for b in rng.integers(0, 2, T))
        init = InitialCoinState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        seq = CoinSequence(coin0, coin1, bits)
        expected = path_sum_amplitudes(seq, init)
        np.testing.assert_allclose(evolve(init, seq).amplitudes, expected, atol=1e-12)


def test_single_identity_step_moves_right():
    # bit 1 selects the identity here, so the coin-0 walker just shifts
    seq = CoinSequence(HADAMARD, IDENTITY, "1")
    dist = position_distribution(evolve(InitialCoinState.named("H"), seq))
    np.testing.assert_allclose(dist.probabilities, [0.0, 0.0, 1.0], atol=1e-15)


def test_three_step_hadamard_identity_oracle_values():
    # b = 001 over {H, 1}: the path sum gives the uniform four-point
    # distribution P(+-3) = P(+-1) = 1/4, second moment 5, and a maximally
    # mixed coin for the |0> input.
    seq = CoinSequence(HADAMARD, IDENTITY, "001")
    state = evolve(InitialCoinState.named("H"), seq)
    dist = position_distribution(state)
    expected = np.array([0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25])
    np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)
    assert second_moment(dist) == pytest.approx(5.0, abs=1e-12)
    rho = reduced_coin_state(state)
    np.testing.assert_allclose(np.linalg.eigvalsh(rho), [0.5, 0.5], atol=1e-12)
    assert entanglement_entropy(rho) == pytest.approx(1.0, abs=1e-12)


def test_step_widens_lattice_and_preserves_norm():
    state = initial_state(InitialCoinState(1.0, 0.5))
    for t in range(1, 8):
        state = step(state, HADAMARD)
        assert state.t == t
        assert state.amplitudes.shape == (2, 2 * t + 1)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_evolve_equals_iterated_step():
    seq = CoinSequence(HADAMARD, IDENTITY, "0101")
    init = InitialCoinState(0.7, 2.1)
    states = [initial_state(init)]
    for t in range(1, 5):
        states.append(step(states[-1], seq.coin_at(t)))
    np.testing.assert_array_equal(evolve(init, seq).amplitudes, states[-1].amplitudes)
    walked = list(trajectory(init, seq))
    assert [s.t for s in walked] == [1, 2, 3, 4]
    for got, want in zip(walked, states[1:]):
        np.testing.assert_array_equal(got.amplitudes, want.amplitudes)


def test_sigma_z_walk_equals_identity_walk_in_probability():
    # sigma_z differs from the identity only by coin-conditional phases,
    # so the drift walks share P(x) and the coin entropy at every step.
    init = InitialCoinState(1.1, 0.4)
    for T in range(1, 8):
        s_z = evolve(init, CoinSequence(HADAMARD, PAULI_Z, "1" * T))
        s_i = evolve(init, CoinSequence(HADAMARD, IDENTITY, "1" * T))
        np.testing.assert_allclose(
            position_distribution(s_z).probabilities,
            position_distribution(s_i).probabilities,
            atol=1e-10,
        )
        assert entanglement_entropy(reduced_coin_state(s_z)) == pytest.approx(
            entanglement_entropy(reduced_coin_state(s_i)), abs=1e-10
        )


def test_initial_state_vectors():
    np.testing.assert_allclose(InitialCoinState.named("H").vector, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(InitialCoinState.named("V").vector, [0.0, 1.0], atol=1e-15)
    sq2 = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(InitialCoinState.named("+").vector, [sq2, sq2], atol=1e-15)
    np.testing.assert_allclose(InitialCoinState.named("L").vector, [sq2, 1j * sq2], atol=1e-15)
    np.testing.assert_allclose(InitialCoinState.named("L").bloch, [0.0, 1.0, 0.0], atol=1e-15)
    with pytest.raises(ValueError, match="unknown initial state"):
        InitialCoinState.named("R")


def test_coin_sequence_validation():
    with pytest.raises(ValueError, match="only 0 and 1"):
        CoinSequence(HADAMARD, IDENTITY, "0102")
    with pytest.raises(ValueError, match="length T >= 1"):
        CoinSequence(HADAMARD, IDENTITY, "")
    # the momentum route and the pattern parser take bit strings by the same rule
    for parse in (lambda bits: momentum_final_bloch(bits, AffineBlochVector(0.0, 0.0, 0.5)),
                  pattern_from_bits):
        with pytest.raises(ValueError, match="^bits must contain only 0 and 1, got '012'$"):
            parse("012")
        with pytest.raises(ValueError, match="^coin sequence must have length T >= 1$"):
            parse("")
    seq = CoinSequence(HADAMARD, IDENTITY, "01")
    assert seq.T == 2
    np.testing.assert_array_equal(seq.coin_at(1), HADAMARD)
    np.testing.assert_array_equal(seq.coin_at(2), IDENTITY)


BIT_PARSERS = {
    "CoinSequence": lambda bits: CoinSequence(HADAMARD, IDENTITY, bits),
    "pattern_from_bits": pattern_from_bits,
    "momentum_final_bloch": lambda bits: momentum_final_bloch(bits, AffineBlochVector(0.0, 0.0, 0.5)),
}


@pytest.mark.parametrize("name", sorted(BIT_PARSERS))
def test_bits_must_be_text(name):
    parse = BIT_PARSERS[name]
    parse(np.str_("0010111"))  # a str subclass is text
    # str(int("0010111")) is "10111": a different walk, T = 5
    for bits in (int("0010111"), 1101, b"0110", ["0", "1"]):
        with pytest.raises(TypeError, match="^bits must be a str of 0s and 1s"):
            parse(bits)


def test_state_and_distribution_validation():
    with pytest.raises(ValueError, match="norm"):
        WalkerState(np.array([[0.5], [0.0]]))
    with pytest.raises(ValueError, match="shape"):
        WalkerState(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="sum to 1"):
        ProbabilityDistribution(np.array([0.5, 0.0, 0.1]))
    with pytest.raises(ValueError, match="nonnegative"):
        ProbabilityDistribution(np.array([1.1, 0.0, -0.1]))
    dist = ProbabilityDistribution(np.array([0.5, 0.0, 0.5]))
    np.testing.assert_array_equal(dist.positions, [-1, 0, 1])
