"""End-to-end acceptance checks.

One test per headline claim, named so a -v run reads as a checklist.
Each test states its tolerance inline; timing limits use wall-clock
time on a single worker unless noted.
"""

import math
import time

import numpy as np
import pytest

from walkmeg import (
    AffineBlochVector,
    CoinSequence,
    HADAMARD,
    IDENTITY,
    InitialCoinState,
    PAULI_X,
    PAULI_Z,
    brute_force,
    ensemble_entropies,
    evolve,
    generate_table_sequence,
    landscape_scan,
    momentum_final_bloch,
    pattern_from_bits,
    reduced_coin_state,
    rotation_coin,
    sequence_fidelity,
    theorem_predicate,
    walk_moment_series,
)
from walkmeg.cli import main
from walkmeg.search import batch_fidelities


def bloch_of(rho: np.ndarray) -> np.ndarray:
    return np.array(
        [2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
    )


def test_criterion_01_table_sequences_reach_maximal_entanglement():
    # T = 3..10 reference sequences: fidelity 1 within 1e-9, and
    # entanglement entropy 1 within 1e-8 for every ensemble state.
    start = time.perf_counter()
    for T in range(3, 11):
        seq = generate_table_sequence(T)
        assert sequence_fidelity(seq) == pytest.approx(1.0, abs=1e-9)
        entropies = ensemble_entropies(seq)
        assert entropies.shape == (296,)
        assert np.max(np.abs(entropies - 1.0)) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s (limit 1 s)"


def test_criterion_02_no_maximal_entanglement_before_step_three():
    sets = [
        (HADAMARD, IDENTITY),
        (rotation_coin(0.0), rotation_coin(math.pi / 4)),
        (rotation_coin(math.pi / 2), rotation_coin(math.pi / 4)),
    ]
    for coin0, coin1 in sets:
        for T in (1, 2):
            best = brute_force(T, coin0, coin1).best_fidelity
            assert best < 1.0 - 1e-6
        one_step = brute_force(1, coin0, coin1).best_fidelity
        assert one_step == pytest.approx(0.5, abs=1e-9)


def test_criterion_03_optimal_count_at_twenty_steps():
    start = time.perf_counter()
    result = brute_force(20, HADAMARD, IDENTITY, tolerance=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f} s (limit 5 min)"
    assert result.evaluations == 2**20
    if result.count_optimal != 1104:
        pytest.fail(
            f"expected 1104 optimal strings at T=20, got "
            f"{result.count_optimal}; counts by tolerance: {dict(result.counts)}"
        )


def test_criterion_04_pattern_predicate_matches_fidelity():
    # Every one-zero and two-zero bit string with T <= 12: the closed-form
    # predicate and the measured fidelity must agree in both directions.
    start = time.perf_counter()
    by_length: dict[int, list[str]] = {}
    for T in range(1, 13):
        rows = []
        for value in range(1 << T):
            bits = format(value, f"0{T}b")
            if bits.count("0") in (1, 2):
                rows.append(bits)
        by_length[T] = rows
    checked = 0
    for T, rows in by_length.items():
        matrix = np.array([[int(b) for b in bits] for bits in rows], dtype=np.uint8)
        fid = batch_fidelities(HADAMARD, IDENTITY, matrix)
        for bits, f in zip(rows, fid):
            predicted = theorem_predicate(pattern_from_bits(bits))
            measured = f > 1.0 - 1e-9
            assert predicted == measured, (
                f"bits={bits}: predicate says {predicted}, fidelity {f!r}"
            )
            checked += 1
    assert checked == 364  # 78 one-zero + 286 two-zero strings at T <= 12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s (limit 30 s)"


def test_criterion_05_angle_landscape_maxima():
    grid = np.linspace(0.0, math.pi / 2, 17)
    points = landscape_scan(5, grid)
    values = np.array([p.best_fidelity for p in points]).reshape(17, 17)
    hits = {
        (i, j)
        for i in range(17)
        for j in range(17)
        if values[i, j] > 1.0 - 1e-9
    }
    # (0, pi/4) and (pi/2, pi/4), plus the argument-swapped pair
    assert hits == {(0, 8), (8, 0), (8, 16), (16, 8)}
    for i, j in hits:
        assert values[i, j] == pytest.approx(1.0, abs=1e-9)


def test_criterion_06_coin_set_comparisons():
    for T in range(1, 13):
        with_z = brute_force(T, HADAMARD, PAULI_Z).best_fidelity
        with_identity = brute_force(T, HADAMARD, IDENTITY).best_fidelity
        assert with_z == pytest.approx(with_identity, abs=1e-9)

    for T in range(2, 13):
        best = brute_force(T, HADAMARD, PAULI_X).best_fidelity
        reaches_unity = best > 1.0 - 1e-9
        assert reaches_unity == (T == 5 or T >= 7), f"T={T}: best={best!r}"

    hadamard_only = []
    for T in range(2, 13):
        seq = CoinSequence(HADAMARD, HADAMARD, "0" * T)
        hadamard_only.append(sequence_fidelity(seq))
    assert all(v < 0.8 for v in hadamard_only)
    diffs = np.diff(hadamard_only)
    drop = np.flatnonzero(diffs < -1e-12)
    rise = np.flatnonzero(diffs > 1e-12)
    assert drop.size and rise.size and rise[-1] > drop[0]


def test_criterion_07_momentum_route_matches_direct_route():
    rng = np.random.default_rng(2024)
    thetas = np.arccos(rng.uniform(-1.0, 1.0, size=20))
    phis = rng.uniform(0.0, 2.0 * math.pi, size=20)
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(1, 11))
        bits = "".join(str(b) for b in rng.integers(0, 2, size=T))
        seq = CoinSequence(HADAMARD, IDENTITY, bits)
        for theta, phi in zip(thetas, phis):
            init = InitialCoinState(theta, phi)
            direct = bloch_of(reduced_coin_state(evolve(init, seq)))
            integrated = momentum_final_bloch(
                bits, AffineBlochVector.from_bloch(init.bloch)
            ).bloch
            worst = max(worst, float(np.max(np.abs(direct - integrated))))
    assert worst < 1e-9, f"worst Bloch discrepancy {worst:.3e}"


def test_criterion_08_transport_properties():
    ballistic = CoinSequence(IDENTITY, IDENTITY, "0" * 10)
    series = walk_moment_series(ballistic, InitialCoinState.named("H"))
    for t in range(1, 11):
        assert series.values[t - 1] == float(t * t)

    seq = generate_table_sequence(10)
    for name in ("H", "V", "+", "L"):
        alpha = walk_moment_series(seq, InitialCoinState.named(name)).alpha
        assert 1.0 < alpha < 2.0, f"init {name}: alpha={alpha!r}"


def test_criterion_09_ideal_values_exclude_measured_hardware_band():
    # Hardware numbers (0.9954 +/- 0.0008, photon counts, reconstructed-chi
    # error bars) are out of scope; the ideal fidelities are exactly 1 and
    # sit outside that band.
    for T in range(3, 11):
        fidelity = sequence_fidelity(generate_table_sequence(T))
        assert fidelity == pytest.approx(1.0, abs=1e-9)
        assert abs(fidelity - 0.9954) > 0.0008


def test_criterion_10_cli_outputs_are_byte_deterministic(tmp_path):
    commands = [
        ["simulate", "--T", "5", "--set", "H,I", "--bits", "table",
         "--init", "+", "--seed", "3"],
        ["fidelity-curve", "--T-range", "2:6", "--set", "H,I",
         "--bits", "table"],
        ["search", "brute", "--T", "6", "--set", "H,I"],
        ["search", "anneal", "--T", "4", "--seed", "9", "--set", "H,I"],
        ["search", "anneal", "--T", "3", "--seed", "2"],
        ["search", "landscape", "--T", "3", "--grid", "5"],
        ["verify", "--max-T", "5"],
        ["bloch", "--T", "6", "--set", "H,I", "--bits", "table",
         "--n", "32", "--seed", "4"],
        ["simulate", "--T", "4", "--set", "H,F", "--bits", "table",
         "--format", "json"],
    ]
    for idx, args in enumerate(commands):
        paths = []
        for run in ("a", "b"):
            path = tmp_path / f"cmd{idx}_{run}.out"
            code = main(args + ["--out", str(path)])
            assert code == 0, f"{args} exited {code}"
            paths.append(path)
        first, second = (p.read_bytes() for p in paths)

        # the echoed command names different --out paths; compare the rest
        def strip(raw: bytes) -> list[bytes]:
            tag = f"cmd{idx}".encode()
            return [line for line in raw.split(b"\n") if tag not in line]

        assert strip(first) == strip(second), f"{args} output differs between runs"