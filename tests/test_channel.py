"""Process-matrix reconstruction, conversions and fidelity."""

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
    NotCompletelyPositiveError,
    bloch_image,
    build_coin,
    chi_to_ptm,
    coin_channel_ptm,
    depolarizing_chi,
    evolve,
    generate_table_sequence,
    process_fidelity,
    ptm_to_chi,
    reduced_coin_state,
    rotation_coin,
    sequence_fidelity,
    validate_chi,
)
from walkmeg.channel import BlochImage

IDENTITY_CHI = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def random_chi(rng) -> np.ndarray:
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    chi = m @ m.conj().T
    return chi / np.trace(chi).real


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


def test_conversion_identities():
    np.testing.assert_allclose(chi_to_ptm(IDENTITY_CHI), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(ptm_to_chi(np.eye(4)), IDENTITY_CHI, atol=1e-12)
    # fully depolarizing: PTM keeps only the trace component
    np.testing.assert_allclose(
        chi_to_ptm(depolarizing_chi(1.0)), np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12
    )
    # z-dephasing chi <-> PTM diag(1, 0, 0, 1)
    dephase = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    np.testing.assert_allclose(chi_to_ptm(dephase), np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)


def test_conversion_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        chi = random_chi(rng)
        np.testing.assert_allclose(ptm_to_chi(chi_to_ptm(chi)), chi, atol=1e-10)


def test_ptm_to_chi_rejects_unphysical_maps():
    with pytest.raises(NotCompletelyPositiveError):
        ptm_to_chi(np.diag([1.0, 1.2, 1.2, 1.2]))


def test_validate_chi_errors():
    lopsided = IDENTITY_CHI.copy()
    lopsided[0, 1] = 0.2
    with pytest.raises(ValueError, match="Hermitian"):
        validate_chi(lopsided)
    with pytest.raises(ValueError, match="trace"):
        validate_chi(2.0 * IDENTITY_CHI)
    bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="positive"):
        validate_chi(bad)


def test_depolarizing_chi():
    np.testing.assert_allclose(depolarizing_chi(0.0), IDENTITY_CHI, atol=1e-15)
    np.testing.assert_allclose(depolarizing_chi(1.0), np.eye(4) / 4.0, atol=1e-15)
    with pytest.raises(ValueError):
        depolarizing_chi(1.5)


def test_process_fidelity_reference_values():
    assert process_fidelity(depolarizing_chi(1.0), depolarizing_chi(1.0)) == pytest.approx(1.0)
    assert process_fidelity(IDENTITY_CHI, IDENTITY_CHI) == pytest.approx(1.0)
    assert process_fidelity(IDENTITY_CHI, depolarizing_chi(1.0)) == pytest.approx(0.25, abs=1e-8)


def test_process_fidelity_symmetric_and_monotone():
    rng = np.random.default_rng(5)
    a, b = random_chi(rng), random_chi(rng)
    assert process_fidelity(a, b) == pytest.approx(process_fidelity(b, a), abs=1e-10)
    etas = np.linspace(0.0, 1.0, 11)
    values = [process_fidelity(depolarizing_chi(e), depolarizing_chi(1.0)) for e in etas]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_one_step_channel_fidelity_is_half_for_any_coin():
    # a single step distributes the coin over two sites, so the channel is
    # an extremal rank-2 map with fidelity exactly 1/2 to depolarizing
    rng = np.random.default_rng(11)
    for _ in range(20):
        coin = build_coin(tuple(rng.uniform(0.0, 2.0 * math.pi, 3)))
        for bits in ("0", "1"):
            f = sequence_fidelity(CoinSequence(coin, coin, bits))
            assert f == pytest.approx(0.5, abs=1e-6)


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
    expected = process_fidelity(ptm_to_chi(tomography_ptm(seq)), depolarizing_chi(1.0))
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
    # the chain's square roots of chi eigenvalues leave a ~2e-8 floor
    coin0, coin1 = SCORED_SETS[name]
    for T in range(1, 8):
        for value in range(1 << T):
            seq = CoinSequence(coin0, coin1, format(value, f"0{T}b"))
            chain = process_fidelity(ptm_to_chi(tomography_ptm(seq)), depolarizing_chi(1.0))
            assert abs(sequence_fidelity(seq) - chain) <= 5e-8, seq.bits


@pytest.mark.parametrize("name", ["H,F", "H,I", "g:0.4,1.1"])
def test_kernel_ptm_is_trace_preserving_and_unital(name):
    coin0, coin1 = SCORED_SETS[name]
    for T in range(1, 11):
        for value in range(1 << T):
            ptm = coin_channel_ptm(CoinSequence(coin0, coin1, format(value, f"0{T}b")))
            assert np.abs(ptm[0] - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-14, (T, value)
            assert np.abs(ptm[1:, 0]).max() <= 1e-14, (T, value)


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


def test_bloch_image_validation():
    with pytest.raises(ValueError):
        BlochImage(np.zeros((3, 3)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        BlochImage(2.0 * np.ones((2, 3)), np.zeros((2, 3)))
