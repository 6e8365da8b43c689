"""The coin channel's PTM, its Bloch image and its fidelity."""

import math

import numpy as np
import pytest

from walkmeg import (
    FOURIER,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    TOMOGRAPHY_INPUT_NAMES,
    CoinSequence,
    InitialCoinState,
    bloch_image,
    build_coin,
    coin_channel_ptm,
    evolve,
    fibonacci_sphere,
    generate_table_sequence,
    reduced_coin_state,
    rotation_coin,
    sequence_fidelity,
)
from walkmeg.channel import BlochImage

# (1, sigma_x, sigma_y, sigma_z)
PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def bloch_of(rho: np.ndarray) -> np.ndarray:
    return np.array(
        [2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
    )


# Columns (1, x, y, z) of the tomography inputs |H>, |V>, |+>, |L>.
TOMOGRAPHY_AFFINE = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, -1.0, 0.0, 0.0],
    ]
)


def tomography_ptm(seq: CoinSequence) -> np.ndarray:
    """PTM fitted from state-vector walks of the four tomography inputs.

    The reference for the kernel's PTM: R maps the input columns (1, x, y, z)
    to the Bloch vectors of the reduced output states.
    """
    out = np.ones((4, 4))
    for j, name in enumerate(TOMOGRAPHY_INPUT_NAMES):
        out[1:, j] = bloch_of(reduced_coin_state(evolve(InitialCoinState.named(name), seq)))
    return np.linalg.solve(TOMOGRAPHY_AFFINE.T, out.T).T


def depolarizing_fidelity(ptm: np.ndarray) -> float:
    """Uhlmann fidelity of the channel with PTM ptm against full depolarizing.

    The Choi state is J = (1/4) sum_mn ptm[m, n] sigma_m (x) sigma_n^T and
    the target's is 1/4, so F = (sum sqrt eig J)^2 / 4. The square roots of
    near-zero eigenvalues leave a ~1e-8 noise floor.
    """
    choi = np.einsum("mn,mij,nlk->ikjl", ptm, PAULIS, PAULIS).reshape(4, 4) / 4.0
    return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(choi), 0.0, None))) ** 2 / 4.0)


def test_process_fidelity_reference_values():
    assert depolarizing_fidelity(np.diag([1.0, 0.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert depolarizing_fidelity(np.eye(4)) == pytest.approx(0.25)
    assert depolarizing_fidelity(np.diag([1.0, 0.0, 0.0, 1.0])) == pytest.approx(0.5)


def test_one_step_channel_fidelity_is_half_for_any_coin():
    # a single step distributes the coin over two sites, so the channel is
    # an extremal rank-2 map with fidelity exactly 1/2 to depolarizing
    rng = np.random.default_rng(11)
    for _ in range(20):
        coin = build_coin(tuple(rng.uniform(0.0, 2.0 * math.pi, 3)))
        for bits in ("0", "1"):
            f = sequence_fidelity(CoinSequence(coin, coin, bits))
            assert f == pytest.approx(0.5, abs=1e-13)


def test_tomography_ptm_predicts_all_states():
    rng = np.random.default_rng(17)
    for _ in range(50):
        T = int(rng.integers(1, 8))
        coin0 = build_coin(tuple(rng.uniform(0.0, 2.0 * math.pi, 3)))
        coin1 = build_coin(tuple(rng.uniform(0.0, 2.0 * math.pi, 3)))
        bits = "".join("01"[b] for b in rng.integers(0, 2, T))
        seq = CoinSequence(coin0, coin1, bits)
        ptm = coin_channel_ptm(seq)
        assert ptm.shape == (4, 4)
        np.testing.assert_allclose(ptm[0], [1.0, 0.0, 0.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(ptm, tomography_ptm(seq), rtol=0.0, atol=1e-13)
        for _ in range(20 // 5):
            init = InitialCoinState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            affine_in = np.concatenate([[1.0], init.bloch])
            predicted = ptm @ affine_in
            rho = reduced_coin_state(evolve(init, seq))
            np.testing.assert_allclose(predicted[1:], bloch_of(rho), atol=1e-10)


def test_identity_coin_step_is_z_dephasing():
    ptm = coin_channel_ptm(CoinSequence(HADAMARD, IDENTITY, "1"))
    np.testing.assert_allclose(ptm, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)


def test_sequence_fidelity_is_the_pinned_composition():
    seq = CoinSequence(HADAMARD, IDENTITY, "0011")
    expected = depolarizing_fidelity(tomography_ptm(seq))
    assert sequence_fidelity(seq) == expected


SCORED_SETS = {
    "H,I": (HADAMARD, IDENTITY),
    "H,X": (HADAMARD, PAULI_X),
    "H,F": (HADAMARD, FOURIER),
    "g:0.4,1.1": (rotation_coin(0.4), rotation_coin(1.1)),
}


@pytest.mark.parametrize("name", sorted(SCORED_SETS))
def test_sequence_fidelity_first_coin_symmetry(name):
    # the first coin is a unitary on the input coin, which the
    # depolarizing target cannot see: F(0s) = F(1s) to round-off
    coin0, coin1 = SCORED_SETS[name]
    rng = np.random.default_rng(12)
    for value in rng.choice(1 << 11, size=128, replace=False):
        tail = format(int(value), "011b")
        f0 = sequence_fidelity(CoinSequence(coin0, coin1, "0" + tail))
        f1 = sequence_fidelity(CoinSequence(coin0, coin1, "1" + tail))
        assert abs(f0 - f1) <= 1e-13, tail


@pytest.mark.parametrize("name", sorted(SCORED_SETS))
def test_sequence_fidelity_matches_tomography_chain(name):
    # the square roots of Choi eigenvalues leave a ~2e-8 floor
    coin0, coin1 = SCORED_SETS[name]
    for T in range(1, 8):
        for value in range(1 << T):
            seq = CoinSequence(coin0, coin1, format(value, f"0{T}b"))
            chain = depolarizing_fidelity(tomography_ptm(seq))
            assert abs(sequence_fidelity(seq) - chain) <= 5e-8, seq.bits


@pytest.mark.parametrize("name", ["H,F", "H,I", "g:0.4,1.1"])
def test_kernel_ptm_is_trace_preserving_and_unital(name):
    coin0, coin1 = SCORED_SETS[name]
    for T in range(1, 11):
        for value in range(1 << T):
            ptm = coin_channel_ptm(CoinSequence(coin0, coin1, format(value, f"0{T}b")))
            assert (ptm[0] == [1.0, 0.0, 0.0, 0.0]).all(), (T, value)
            assert (ptm[1:, 0] == 0.0).all(), (T, value)


def test_bloch_image_collapses_for_optimal_sequence():
    image = bloch_image(generate_table_sequence(10), 200)
    assert image.n == 200
    np.testing.assert_allclose(np.linalg.norm(image.inputs, axis=1), 1.0, atol=1e-12)
    assert float(np.linalg.norm(image.outputs, axis=1).max()) < 1e-9


def test_bloch_image_collapse_keeps_its_round_off_at_a_thousand_steps():
    image = bloch_image(generate_table_sequence(1000), 296)
    assert float(np.linalg.norm(image.outputs, axis=1).max()) < 1e-12


def test_bloch_image_nontrivial_for_single_step():
    image = bloch_image(CoinSequence(HADAMARD, IDENTITY, "1"), 64)
    # dephasing keeps the z component and kills x, y
    np.testing.assert_allclose(image.outputs[:, 2], image.inputs[:, 2], atol=1e-10)
    np.testing.assert_allclose(image.outputs[:, :2], 0.0, atol=1e-10)


def test_sphere_size_must_be_an_integer():
    assert fibonacci_sphere(np.int64(4)).shape == (4, 3)
    with pytest.raises(TypeError):
        fibonacci_sphere(4.5)  # truncated, it would sample 4 points


def test_bloch_image_validation():
    with pytest.raises(ValueError):
        BlochImage(np.zeros((3, 3)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        BlochImage(2.0 * np.ones((2, 3)), np.zeros((2, 3)))
