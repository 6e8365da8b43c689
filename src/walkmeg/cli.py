"""Command-line interface.

Subcommands
-----------
simulate        per-step distributions, entropies and second moment
fidelity-curve  sequence fidelity against the depolarizing target over a T range
search          brute | anneal | landscape optimization drivers
verify          closed-form optimality conditions vs measured fidelity
bloch           channel image of a sphere of initial coin states

Every run emits a single table (CSV by default, JSON via --format json)
whose metadata echoes the normalized command line, so any output file can
be reproduced byte for byte by re-running the echoed command. Exit codes:
0 success, 2 usage error, 3 resource guard, 4 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import shlex
import sys

import numpy as np

from . import __version__
from .channel import bloch_image, sequence_fidelity
from .coins import named_coin, rotation_coin
from .metrics import (
    DEFAULT_ENSEMBLE,
    entanglement_entropy,
    second_moment,
    shannon_entropy,
)
from .momentum import (
    FOURIER_TABLE_RANGE,
    NoOptimalSequenceError,
    SequencePattern,
    fourier_table_sequence,
    generate_table_sequence,
    iter_family_bits,
    pattern_bits,
    pattern_from_bits,
    theorem_predicate,
)
from .results import ResultTable, format_float
from .search import (
    BRUTE_FORCE_MAX_T,
    AnnealConfig,
    ResourceLimitError,
    anneal,
    batch_fidelities,
    brute_force,
    enumerate_fidelities,  # read by perfbench's test_tracer_wraps_every_import_name_and_restores_them
    landscape_scan,
)
from .sphere import fibonacci_sphere
from .walk import (
    CoinSequence,
    InitialCoinState,
    initial_state,
    position_distribution,
    reduced_coin_state,
    step,
)

__all__ = ["main"]

_VERIFY_MAX_T = 12

# Resource guards: a larger request exits with code 3 before any work.
SIMULATE_MAX_T = 1000  # T rows of 2T+5 columns
FIDELITY_CURVE_MAX_T = BRUTE_FORCE_MAX_T  # a curve point may need the exhaustive best
ANNEAL_MAX_T = 24  # up to 540k proposals (10 restarts), each O(T^2)
LANDSCAPE_MAX_GRID = 33  # grid^2 sweeps; 33 refines the default 17 by halving the step
VERIFY_PATTERN_MAX_T = 4096
BLOCH_MAX_SAMPLES = 1 << 16


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkmeg",
        description="Quantum-walk coin sequences for maximal entanglement: "
        "simulation, search and verification.",
    )
    parser.add_argument(
        "--version", action="version", version=f"walkmeg {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", default="0", help="seed for stochastic modes (default 0)")
        p.add_argument("--tol", default="1e-9", help="optimality tolerance (default 1e-9)")
        p.add_argument(
            "--format", default="csv", choices=("csv", "json"), help="output format"
        )
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    set_help = "coin set: one or two of H,I,F,X,Z or angles g:GAMMA0,GAMMA1"
    bits_help = (
        "bit string choice: 'table' (built-in sequence; falls back to the "
        "exhaustive best when no table entry covers T), 'brute-best', or a "
        "literal 0/1 string of length T (0 selects the first coin)"
    )

    p = sub.add_parser("simulate", help="evolve one sequence and tabulate per-step data")
    p.add_argument("--T", required=True, help="number of steps")
    p.add_argument("--set", default="H,I", help=set_help)
    p.add_argument("--bits", default="table", help=bits_help)
    p.add_argument("--init", default="H", help="initial coin state H|V|+|L or theta,phi")
    common(p)

    p = sub.add_parser("fidelity-curve", help="sequence fidelity for each T in a range")
    p.add_argument("--T-range", dest="T_range", required=True, help="inclusive range LO:HI")
    p.add_argument("--set", default="H,I", help=set_help)
    p.add_argument("--bits", default="table", help=bits_help)
    common(p)

    p = sub.add_parser("search", help="optimize bit strings (and coin angles)")
    p.add_argument("mode", choices=("brute", "anneal", "landscape"))
    p.add_argument("--T", required=True, help="number of steps")
    p.add_argument(
        "--set",
        default=None,
        help=set_help + " (anneal without --set optimizes the angles too)",
    )
    p.add_argument("--grid", default="17", help="landscape grid size per axis (default 17)")
    common(p)

    p = sub.add_parser("verify", help="check closed-form conditions against fidelity")
    p.add_argument(
        "--max-T",
        dest="max_T",
        default="10",
        help=f"exhaustive family check up to this length (<= {_VERIFY_MAX_T})",
    )
    p.add_argument(
        "--pattern",
        default=None,
        help="single run-length pattern l1,l2 or l1,l2,l3 instead of the sweep",
    )
    common(p)

    p = sub.add_parser("bloch", help="channel image of a sphere of coin states")
    p.add_argument("--T", required=True, help="number of steps (0 = identity self-test)")
    p.add_argument("--set", default="H,I", help=set_help)
    p.add_argument("--bits", default="table", help=bits_help)
    p.add_argument(
        "--ensemble",
        "--n",
        dest="ensemble",
        default=str(DEFAULT_ENSEMBLE),
        help=f"number of sphere samples (default {DEFAULT_ENSEMBLE})",
    )
    common(p)

    return parser


def _parse_set(spec: str) -> tuple[np.ndarray, np.ndarray, str]:
    """Resolve a --set value into (coin0, coin1, canonical label)."""
    text = str(spec).strip()
    if text.lower().startswith("g:"):
        parts = text[2:].split(",")
        if len(parts) != 2:
            raise ValueError(f"angle set must be g:GAMMA0,GAMMA1, got {spec!r}")
        g0, g1 = float(parts[0]), float(parts[1])
        for g in (g0, g1):
            if not 0.0 <= g <= math.pi / 2.0 + 1e-12:
                raise ValueError(f"coin angles must lie in [0, pi/2], got {g}")
        label = f"g:{format_float(g0)},{format_float(g1)}"
        return rotation_coin(g0), rotation_coin(g1), label
    names = [tok.strip().upper() for tok in text.split(",") if tok.strip()]
    if len(names) == 1:
        coin = named_coin(names[0])
        return coin, coin, names[0]
    if len(names) == 2:
        return named_coin(names[0]), named_coin(names[1]), ",".join(names)
    raise ValueError(f"coin set must be one or two names or g:a,b, got {spec!r}")


def _parse_init(spec: str) -> InitialCoinState:
    text = str(spec).strip()
    if "," in text:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"initial state must be a name or theta,phi, got {spec!r}")
        return InitialCoinState(float(parts[0]), float(parts[1]))
    return InitialCoinState.named(text)


def _guard(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ResourceLimitError(f"{what} is limited to {limit}, got {value}")


def _parse_T(raw: str, minimum: int = 1) -> int:
    T = int(raw)
    if T < minimum:
        raise ValueError(f"--T must be >= {minimum}, got {T}")
    return T


def _parse_T_range(raw: str) -> tuple[int, int]:
    lo_text, sep, hi_text = str(raw).partition(":")
    if not sep:
        raise ValueError(f"--T-range must be LO:HI, got {raw!r}")
    lo, hi = int(lo_text), int(hi_text)
    if lo < 1 or hi < lo:
        raise ValueError(f"--T-range must satisfy 1 <= LO <= HI, got {raw!r}")
    return lo, hi


def _parse_tol(raw: str) -> float:
    tol = float(raw)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"--tol must be a number in (0, 1), got {raw!r}")
    return tol


def _table_bits(T: int, set_label: str) -> str | None:
    if set_label == "H,I":
        try:
            return generate_table_sequence(T).bits
        except NoOptimalSequenceError:
            return None
    if set_label == "H,F" and FOURIER_TABLE_RANGE[0] <= T <= FOURIER_TABLE_RANGE[1]:
        return fourier_table_sequence(T).bits
    return None


def _resolve_bits(
    choice: str, T: int, coin0: np.ndarray, coin1: np.ndarray, set_label: str
) -> str:
    literal = choice not in ("table", "brute-best")
    if literal and (not choice or set(choice) - {"0", "1"}):
        raise ValueError(
            f"--bits must be 'table', 'brute-best' or a 0/1 string, got {choice!r}"
        )
    if literal and len(choice) != T:
        raise ValueError(f"--bits literal has length {len(choice)}, but T is {T}")
    if "," not in set_label and not set_label.startswith("g:"):
        # single-coin set: every bit string walks identically
        return "0" * T
    if literal:
        return choice
    bits = _table_bits(T, set_label) if choice == "table" else None
    return bits if bits is not None else brute_force(T, coin0, coin1).best_bits


def _metadata(tokens: list[str], seed_raw: str) -> dict:
    return {
        "tool": f"walkmeg {__version__}",
        "command": shlex.join(tokens),
        "seed": int(seed_raw),
    }


def _common_tokens(ns) -> list[str]:
    tokens = ["--seed", ns.seed, "--tol", ns.tol, "--format", ns.format]
    if ns.out:
        tokens += ["--out", ns.out]
    return tokens


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(ns) -> tuple[ResultTable, int]:
    T = _parse_T(ns.T)
    _guard("simulate --T", T, SIMULATE_MAX_T)
    coin0, coin1, label = _parse_set(ns.set)
    bits = _resolve_bits(ns.bits, T, coin0, coin1, label)
    init = _parse_init(ns.init)
    tokens = ["simulate", "--T", ns.T, "--set", ns.set, "--bits", ns.bits,
              "--init", ns.init] + _common_tokens(ns)
    metadata = _metadata(tokens, ns.seed)
    metadata["set"] = label
    metadata["bits"] = bits

    columns = ("t", *(f"P({x})" for x in range(-T, T + 1)), "S_E", "S_S", "m")
    table = ResultTable(columns, metadata=metadata)
    seq = CoinSequence(coin0, coin1, bits)
    state = initial_state(init)
    for t in range(1, T + 1):
        state = step(state, seq.coin_at(t))
        dist = position_distribution(state)
        padded = np.zeros(2 * T + 1)
        padded[T - t : T + t + 1] = dist.probabilities
        table.append(
            t,
            *(float(p) for p in padded),
            entanglement_entropy(reduced_coin_state(state)),
            shannon_entropy(dist, t),
            second_moment(dist),
        )
    return table, 0


def _cmd_fidelity_curve(ns) -> tuple[ResultTable, int]:
    lo, hi = _parse_T_range(ns.T_range)
    _guard("fidelity-curve --T-range", hi, FIDELITY_CURVE_MAX_T)
    coin0, coin1, label = _parse_set(ns.set)
    tokens = ["fidelity-curve", "--T-range", ns.T_range, "--set", ns.set,
              "--bits", ns.bits] + _common_tokens(ns)
    table = ResultTable(("T", "set", "bits", "fidelity"), metadata=_metadata(tokens, ns.seed))
    for T in range(lo, hi + 1):
        bits = _resolve_bits(ns.bits, T, coin0, coin1, label)
        fid = sequence_fidelity(CoinSequence(coin0, coin1, bits))
        table.append(T, label, bits, fid)
    return table, 0


def _cmd_search(ns) -> tuple[ResultTable, int]:
    T = _parse_T(ns.T)
    tokens = ["search", ns.mode, "--T", ns.T]
    if ns.set is not None:
        tokens += ["--set", ns.set]
    if ns.mode == "landscape":
        tokens += ["--grid", ns.grid]
    tokens += _common_tokens(ns)
    metadata = _metadata(tokens, ns.seed)
    metadata["mode"] = ns.mode

    if ns.mode == "brute":
        coin0, coin1, label = _parse_set(ns.set if ns.set is not None else "H,I")
        metadata["set"] = label
        result = brute_force(T, coin0, coin1, _parse_tol(ns.tol))
        metadata["best_fidelity"] = result.best_fidelity
        metadata["count_optimal"] = result.count_optimal
        metadata["evaluations"] = result.evaluations
        for tol, count in result.counts.items():
            metadata[f"count_{tol:.0e}"] = count
        table = ResultTable(("bits", "fidelity"), metadata=metadata)
        for row in zip(result.optimal_bits, result.optimal_fidelities):
            table.append(*row)
        return table, 0

    if ns.mode == "anneal":
        _guard("search anneal --T", T, ANNEAL_MAX_T)
        config = AnnealConfig(seed=int(ns.seed))
        metadata["restarts"] = config.restarts
        if ns.set is None:
            result = anneal(T, config)
            label = f"g:{format_float(result.gamma0)},{format_float(result.gamma1)}"
        else:
            coin0, coin1, label = _parse_set(ns.set)
            result = anneal(T, config, coins=(coin0, coin1))
        table = ResultTable(("set", "bits", "fidelity"), metadata=metadata)
        table.append(label, result.bits, result.fidelity)
        return table, 0

    # landscape
    grid_n = int(ns.grid)
    if grid_n < 2:
        raise ValueError("--grid must be >= 2")
    _guard("search landscape --grid", grid_n, LANDSCAPE_MAX_GRID)
    metadata["grid"] = grid_n
    angles = [float(g) for g in np.linspace(0.0, math.pi / 2.0, grid_n)]
    points = landscape_scan(T, angles)
    table = ResultTable(("gamma0", "gamma1", "best_fidelity"), metadata=metadata)
    for point in points:
        table.append(point.gamma0, point.gamma1, point.best_fidelity)
    return table, 0


def _cmd_verify(ns) -> tuple[ResultTable, int]:
    tolerance = _parse_tol(ns.tol)
    tokens = ["verify"]
    if ns.pattern is not None:
        tokens += ["--pattern", ns.pattern]
    else:
        tokens += ["--max-T", ns.max_T]
    tokens += _common_tokens(ns)
    metadata = _metadata(tokens, ns.seed)

    if ns.pattern is not None:
        patterns = [SequencePattern(tuple(int(v) for v in ns.pattern.split(",")))]
        _guard("verify --pattern length", patterns[0].T, VERIFY_PATTERN_MAX_T)
    else:
        max_T = int(ns.max_T)
        if not 1 <= max_T <= _VERIFY_MAX_T:
            raise ValueError(
                f"--max-T must lie in [1, {_VERIFY_MAX_T}] for the exhaustive check"
            )
        patterns = [pattern_from_bits(bits) for bits in iter_family_bits(max_T)]

    # one kernel call per length; the patterns come in ascending length
    hadamard, identity = named_coin("H"), named_coin("I")
    fidelities = []
    for _, group in itertools.groupby(map(pattern_bits, patterns), key=len):
        rows = [[int(b) for b in bits] for bits in group]
        fidelities.extend(batch_fidelities(hadamard, identity, rows).tolist())
    table = ResultTable(("pattern", "predicate", "fidelity", "agree"), metadata=metadata)
    offenders = []
    for pattern, fidelity in zip(patterns, fidelities):
        predicted = theorem_predicate(pattern)
        measured = fidelity > 1.0 - tolerance
        agree = predicted == measured
        text = ",".join(str(v) for v in pattern.ls)
        table.append(text, "true" if predicted else "false", fidelity,
                     "true" if agree else "false")
        if not agree:
            offenders.append((text, predicted, fidelity))
    metadata["disagreements"] = len(offenders)
    for text, predicted, fidelity in offenders:
        print(
            f"disagreement: pattern {text} predicted "
            f"{'optimal' if predicted else 'suboptimal'} but fidelity is "
            f"{format_float(fidelity)}",
            file=sys.stderr,
        )
    return table, 0 if not offenders else 4


def _cmd_bloch(ns) -> tuple[ResultTable, int]:
    T = _parse_T(ns.T, minimum=0)
    coin0, coin1, label = _parse_set(ns.set)
    n_samples = int(ns.ensemble)
    if n_samples < 1:
        raise ValueError("--ensemble must be >= 1")
    _guard("bloch --ensemble", n_samples, BLOCH_MAX_SAMPLES)
    tokens = ["bloch", "--T", ns.T, "--set", ns.set, "--bits", ns.bits,
              "--ensemble", ns.ensemble] + _common_tokens(ns)
    metadata = _metadata(tokens, ns.seed)
    metadata["set"] = label

    if T == 0:
        # zero steps leave the coin untouched: the identity-channel self-test
        points = fibonacci_sphere(n_samples)
        inputs, outputs = points, points
        metadata["bits"] = ""
    else:
        bits = _resolve_bits(ns.bits, T, coin0, coin1, label)
        metadata["bits"] = bits
        image = bloch_image(CoinSequence(coin0, coin1, bits), n_samples)
        inputs, outputs = image.inputs, image.outputs
    metadata["max_output_norm"] = float(np.max(np.linalg.norm(outputs, axis=1)))

    table = ResultTable(
        ("x_in", "y_in", "z_in", "x_out", "y_out", "z_out"), metadata=metadata
    )
    for row_in, row_out in zip(inputs, outputs):
        table.append(*(float(v) for v in row_in), *(float(v) for v in row_out))
    return table, 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fidelity-curve": _cmd_fidelity_curve,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "bloch": _cmd_bloch,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2

    try:
        table, code = _HANDLERS[ns.command](ns)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if ns.out:
        table.write(ns.out, ns.format)
    else:
        sys.stdout.write(table.to_text(ns.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
