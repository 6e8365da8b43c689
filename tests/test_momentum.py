"""Momentum-space channel route and the closed-form optimality conditions."""

import math

import numpy as np
import pytest

from walkmeg import (
    FOURIER,
    FOURIER_TABLE_RANGE,
    HADAMARD,
    IDENTITY,
    AffineBlochVector,
    CoinSequence,
    InitialCoinState,
    NoOptimalSequenceError,
    SequencePattern,
    brute_force,
    evolve,
    fourier_table_sequence,
    generate_table_sequence,
    iter_family_bits,
    momentum_final_bloch,
    pattern_bits,
    pattern_from_bits,
    reduced_coin_state,
    sequence_fidelity,
    superoperator_at,
    theorem_predicate,
)
from walkmeg.momentum import _averaged_product


def direct_final_bloch(bits: str, init: InitialCoinState) -> np.ndarray:
    rho = reduced_coin_state(evolve(init, CoinSequence(HADAMARD, IDENTITY, bits)))
    return np.array(
        [2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
    )


def test_superoperator_matrices_at_reference_momenta():
    np.testing.assert_allclose(superoperator_at("I", 0.0), np.eye(4), atol=1e-15)
    expected_h0 = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    np.testing.assert_allclose(superoperator_at("H", 0.0), expected_h0, atol=1e-15)
    k = 0.3
    li = superoperator_at("I", k)
    np.testing.assert_allclose(li[1, 1], math.cos(2 * k))
    np.testing.assert_allclose(li[2, 1], math.sin(2 * k))
    # the Bloch block of either superoperator is orthogonal at every k
    for kind in ("H", "I"):
        block = superoperator_at(kind, 1.234)[1:, 1:]
        np.testing.assert_allclose(block @ block.T, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        superoperator_at("Q", 0.0)


def test_quadrature_grid_is_exact():
    # the integrand is a trigonometric polynomial of degree 2T, so the
    # uniform grid with 4T+4 points is already exact; doubling changes nothing
    init = AffineBlochVector.from_bloch(InitialCoinState(0.7, 1.9).bloch)
    for bits in ("001", "0110101", "1111100001"):
        base = momentum_final_bloch(bits, init)
        fine = _averaged_product(bits, 8 * len(bits) + 8) @ init.array
        np.testing.assert_allclose(base.bloch, 2.0 * fine[1:], atol=1e-12)


def test_momentum_route_matches_direct_evolution():
    rng = np.random.default_rng(23)
    for _ in range(40):
        T = int(rng.integers(1, 11))
        bits = "".join("01"[b] for b in rng.integers(0, 2, T))
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        init = InitialCoinState(theta, phi)
        mom = momentum_final_bloch(bits, AffineBlochVector.from_bloch(init.bloch))
        direct = direct_final_bloch(bits, init)
        np.testing.assert_allclose(mom.bloch, direct, atol=1e-10)


def test_predicate_matches_fidelity_for_all_family_strings():
    checked = 0
    for bits in iter_family_bits(10):
        predicted = theorem_predicate(pattern_from_bits(bits))
        fidelity = sequence_fidelity(CoinSequence(HADAMARD, IDENTITY, bits))
        assert predicted == (fidelity > 1.0 - 1e-9), (bits, fidelity)
        checked += 1
    assert checked == 220  # 55 one-zero + 165 two-zero strings at T <= 10


def test_predicate_reference_cases():
    # single Hadamard: l1 != 0 and l1 != l2 + 1
    assert not theorem_predicate(SequencePattern((0, 0)))
    assert not theorem_predicate(SequencePattern((1, 0)))
    assert theorem_predicate(SequencePattern((1, 1)))
    assert theorem_predicate(SequencePattern((2, 0)))
    # two Hadamards: each exclusion condition has a witness
    assert theorem_predicate(SequencePattern((0, 0, 1)))
    assert theorem_predicate(SequencePattern((0, 2, 0)))
    assert not theorem_predicate(SequencePattern((0, 0, 0)))  # l2 == l3
    assert not theorem_predicate(SequencePattern((1, 0, 0)))  # l1 == l2 + 1
    assert not theorem_predicate(SequencePattern((2, 0, 1)))  # l1 == l3 + 1
    assert not theorem_predicate(SequencePattern((0, 3, 3)))  # l2 == l3
    assert not theorem_predicate(SequencePattern((2, 1, 3)))  # l3 == l1 + l2
    assert not theorem_predicate(SequencePattern((2, 5, 3)))  # l2 == l1 + l3
    assert not theorem_predicate(SequencePattern((4, 1, 1)))  # l1 == l2 + l3 + 2


def test_predicate_is_invariant_under_tail_reversal():
    # F(b1 b2..bT) = F(b1 bT..b2) for the {H, 1} set, whose coins are
    # symmetric, so the closed-form conditions must agree on both strings
    strings = list(iter_family_bits(40))
    assert len(strings) == 11480
    for bits in strings:
        mirrored = bits[0] + bits[:0:-1]
        assert theorem_predicate(pattern_from_bits(bits)) == theorem_predicate(
            pattern_from_bits(mirrored)
        ), bits


def test_family_bits_equal_the_filter_over_all_strings():
    every = [
        format(value, f"0{t}b") for t in range(1, 15) for value in range(1 << t)
    ]
    family = [bits for bits in every if bits.count("0") in (1, 2)]
    for n in range(15):
        assert list(iter_family_bits(n)) == [bits for bits in family if len(bits) <= n]


def test_pattern_round_trip():
    for bits in iter_family_bits(9):
        assert pattern_bits(pattern_from_bits(bits)) == bits


def test_prefixed_pattern_parse():
    p = pattern_from_bits("010110")
    assert p.prefixed and p.ls == (2, 2, 0)
    assert pattern_bits(p) == "010110"
    with pytest.raises(ValueError):
        pattern_from_bits("10010010")  # three 0s but no leading 0
    with pytest.raises(ValueError):
        pattern_from_bits("1111")  # no 0 at all


def test_pattern_validation():
    with pytest.raises(ValueError):
        SequencePattern((1,))
    with pytest.raises(ValueError):
        SequencePattern((1, -1))
    with pytest.raises(ValueError):
        SequencePattern((0, 1), prefixed=True)
    assert SequencePattern((2, 0, 1)).T == 5


# Each sized entry point, called with a size: a float must raise, not be truncated.
SIZED_MOMENTUM_CALLS = {
    "SequencePattern": lambda n: SequencePattern((n, 1)),
    "iter_family_bits": lambda n: list(iter_family_bits(n)),
    "generate_table_sequence": generate_table_sequence,
    "fourier_table_sequence": fourier_table_sequence,
}


@pytest.mark.parametrize("name", sorted(SIZED_MOMENTUM_CALLS))
def test_momentum_sizes_must_be_integers(name):
    call = SIZED_MOMENTUM_CALLS[name]
    call(np.int64(7))  # numpy integers are integers
    with pytest.raises(TypeError):
        call(7.9)


def test_generated_sequences_reach_unit_fidelity_up_to_twenty():
    for T in range(3, 21):
        seq = generate_table_sequence(T)
        assert seq.T == T
        assert seq.bits.count("0") <= 3
        assert sequence_fidelity(seq) == pytest.approx(1.0, abs=1e-9)


def test_generated_sequence_patterns():
    assert generate_table_sequence(3).bits == "001"
    assert generate_table_sequence(6).bits == "001111"
    assert generate_table_sequence(7).bits == "0010111"
    assert generate_table_sequence(20).bits == "0010" + "1" * 16
    # generate_table_sequence leaves the conditions unchecked; its docstring says why they hold
    for T in range(3, 200):
        assert theorem_predicate(pattern_from_bits(generate_table_sequence(T).bits)), T
    with pytest.raises(NoOptimalSequenceError, match="before step 3"):
        generate_table_sequence(2)


def test_fourier_reference_sequences():
    assert FOURIER_TABLE_RANGE == (3, 10)
    assert fourier_table_sequence(4).bits == "0100"
    assert fourier_table_sequence(8).bits == "01111011"
    with pytest.raises(ValueError):
        fourier_table_sequence(11)
    # frozen benchmark values: these settings do not reach unit fidelity
    expected = {
        3: 0.6545084971874743,
        4: 0.841256317639504,
        5: 0.9128886059087561,
        6: 0.8991311232474812,
        7: 0.9357842217474288,
        8: 0.9564801074201231,
        9: 0.971520824951947,
        10: 0.9764784798423329,
    }
    for T, value in expected.items():
        assert sequence_fidelity(fourier_table_sequence(T)) == pytest.approx(
            value, abs=1e-12
        )


def test_fourier_table_against_the_exhaustive_best():
    # every {H, F} table entry ties the exhaustive best but T=8's, which
    # scores 7.44e-3 below the best string 00001101
    for T in range(FOURIER_TABLE_RANGE[0], FOURIER_TABLE_RANGE[1] + 1):
        best = brute_force(T, HADAMARD, FOURIER)
        gap = best.best_fidelity - sequence_fidelity(fourier_table_sequence(T))
        if T == 8:
            assert best.best_bits == "00001101"
            assert gap == pytest.approx(7.4398e-3, abs=1e-7)
        else:
            assert abs(gap) <= 1e-13, (T, gap)


def test_affine_bloch_vector():
    v = AffineBlochVector.from_bloch(InitialCoinState(math.pi / 2.0, 0.0).bloch)
    np.testing.assert_allclose(v.bloch, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(v.array, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
    w = AffineBlochVector.from_bloch([0.0, 0.6, 0.8])
    np.testing.assert_allclose(w.bloch, [0.0, 0.6, 0.8], atol=1e-12)
    with pytest.raises(ValueError, match="unit ball"):
        AffineBlochVector.from_bloch([1.5, 0.0, 0.0])
