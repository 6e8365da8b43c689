"""Command-line interface.

Subcommands
-----------
simulate        per-step distributions, entropies and second moment
fidelity-curve  sequence fidelity against the depolarizing target over a T range
search          brute | anneal | landscape optimization drivers
verify          closed-form optimality conditions vs measured fidelity
bloch           channel image of a sphere of initial coin states

A run flows through four steps: the parser reads the command line; the
shared checks (_check_shared) test what every subcommand shares; the
subcommand's handler computes and returns its columns, its rows (possibly
lazy), its own metadata and the exit code; and main, the one place that
makes a table, echoes the command, builds the table and writes it.

Every run emits a single table (CSV by default, JSON via --format json)
whose metadata echoes the normalized command line, so any output file can
be reproduced byte for byte by re-running the echoed command. The echo is
the subcommand, then every argument its parser declares that holds a
value, in declaration order: a positional as its bare value, an option as
its first option string and its value as given. Defaults are included;
--out appears only when it names a file. Exit codes:
0 success, 2 usage error (an unwritable --out too), 3 resource guard,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import shlex
import sys

import numpy as np

from . import __version__
from .channel import bloch_image, sequence_fidelity
from .coins import ROTATION_ANGLES, in_rotation_range, named_coin, rotation_coin
from .metrics import (
    DEFAULT_ENSEMBLE,
    entanglement_entropy,
    second_moment,
    shannon_entropy,
)
from .momentum import (
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
    TOMOGRAPHY_INPUT_NAMES,
    CoinSequence,
    InitialCoinState,
    position_distribution,
    reduced_coin_state,
    trajectory,
)

__all__ = ["main"]

# Defaults of the two options that apply only in some modes; each handler
# fills them in where they apply, so the echo carries them only there.
_LANDSCAPE_GRID_DEFAULT = "17"
_VERIFY_MAX_T_DEFAULT = "10"

# Resource guards: a larger request exits with code 3 before any work.
SIMULATE_MAX_T = 1000  # T rows of 2T+5 columns
FIDELITY_CURVE_MAX_T = BRUTE_FORCE_MAX_T  # a curve point may need the exhaustive best
ANNEAL_MAX_T = 24  # up to 540k proposals (10 restarts), each O(T^2)
LANDSCAPE_MAX_GRID = 33  # grid^2 sweeps; 33 refines the default 17 by halving the step
VERIFY_MAX_T = 40  # 11,480 family strings, each scored once
VERIFY_PATTERN_MAX_T = 4096
BLOCH_MAX_T = 4096  # T steps on 2T+1 momenta: O(T^2) work
BLOCH_MAX_SAMPLES = 1 << 16


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="walkmeg",
        description="Quantum-walk coin sequences for maximal entanglement: "
        "simulation, search and verification.",
    )
    parser.add_argument(
        "--version", action="version", version=f"walkmeg {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, help):
        """Add a subcommand; the returned add_argument records each argument for the echo."""
        p = sub.add_parser(name, help=help)
        echoed = []
        p.set_defaults(handler=handler, echoed=echoed)

        def add(*flags, **kwargs):
            echoed.append(p.add_argument(*flags, **kwargs))

        return add

    def common(add) -> None:
        add("--seed", default="0", help="seed for stochastic modes (default 0)")
        add("--tol", default="1e-9", help="optimality tolerance (default 1e-9)")
        add("--format", default="csv", choices=("csv", "json"), help="output format")
        add("--out", default=None, help="output path (default: stdout)")

    set_help = "coin set: one or two of H,I,F,X,Z or angles g:GAMMA0,GAMMA1"
    bits_help = (
        "bit string choice: 'table' (built-in sequence; falls back to the "
        "exhaustive best when no table entry covers T), 'brute-best', or a "
        "literal 0/1 string of length T (0 selects the first coin)"
    )

    add = subcommand("simulate", _cmd_simulate, "evolve one sequence and tabulate per-step data")
    add("--T", required=True, help="number of steps")
    add("--set", default="H,I", help=set_help)
    add("--bits", default="table", help=bits_help)
    add("--init", default="H",
        help=f"initial coin state {'|'.join(TOMOGRAPHY_INPUT_NAMES)} or theta,phi")
    common(add)

    add = subcommand("fidelity-curve", _cmd_fidelity_curve, "sequence fidelity for each T in a range")
    add("--T-range", dest="T_range", required=True, help="inclusive range LO:HI")
    add("--set", default="H,I", help=set_help)
    add("--bits", default="table", help=bits_help)
    common(add)

    add = subcommand("search", _cmd_search, "optimize bit strings (and coin angles)")
    add("mode", choices=("brute", "anneal", "landscape"))
    add("--T", required=True, help="number of steps")
    add("--set", default=None, help=set_help + " (anneal without --set optimizes the angles too)")
    add("--grid", default=None,
        help=f"landscape grid size per axis (default {_LANDSCAPE_GRID_DEFAULT}; landscape only)")
    common(add)

    add = subcommand("verify", _cmd_verify, "check closed-form conditions against fidelity")
    add("--max-T", dest="max_T", default=None,
        help=f"exhaustive family check up to this length (<= {VERIFY_MAX_T}, "
        f"default {_VERIFY_MAX_T_DEFAULT})")
    add("--pattern", default=None,
        help="single run-length pattern l1,l2 or l1,l2,l3 instead of the sweep")
    common(add)

    add = subcommand("bloch", _cmd_bloch, "channel image of a sphere of coin states")
    add("--T", required=True, help="number of steps (0 = identity self-test)")
    add("--set", default="H,I", help=set_help)
    add("--bits", default="table", help=bits_help)
    add("--ensemble", "--n", dest="ensemble", default=str(DEFAULT_ENSEMBLE),
        help=f"number of sphere samples (default {DEFAULT_ENSEMBLE})")
    common(add)

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
            if not in_rotation_range(g):
                raise ValueError(f"coin angles must lie in [0, pi/2], got {g}")
        return rotation_coin(g0), rotation_coin(g1), _angle_label(g0, g1)
    names = [tok.strip().upper() for tok in text.split(",")]
    if "" in names:
        raise ValueError(f"coin set names must not be empty, got {spec!r}")
    if len(names) == 1:
        coin = named_coin(names[0])
        return coin, coin, names[0]
    if len(names) == 2:
        return named_coin(names[0]), named_coin(names[1]), ",".join(names)
    raise ValueError(f"coin set must be one or two names or g:a,b, got {spec!r}")


def _angle_label(g0: float, g1: float) -> str:
    """The canonical --set label g:GAMMA0,GAMMA1 of a pair of rotation angles."""
    return f"g:{format_float(g0)},{format_float(g1)}"


def _parse_init(spec: str) -> InitialCoinState:
    text = str(spec).strip()
    if "," in text:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"initial state must be a name or theta,phi, got {spec!r}")
        return InitialCoinState(float(parts[0]), float(parts[1]))
    return InitialCoinState.named(text)


def _guard(what: str, value: int, limit: float) -> None:
    if value > limit:
        raise ResourceLimitError(f"{what} is limited to {limit}, got {value}")


def _sized(raw: str, what: str, minimum: int, limit: float = float("inf")) -> int:
    """Parse a sized option: below minimum is a usage error, above limit a guard.

    what names the subcommand and the flag, as in "simulate --T"; the usage
    error names the flag alone.
    """
    value = int(raw)
    if value < minimum:
        raise ValueError(f"{what.rpartition(' ')[2]} must be >= {minimum}, got {value}")
    _guard(what, value, limit)
    return value


def _parse_T_range(raw: str) -> tuple[int, int]:
    lo_text, sep, hi_text = str(raw).partition(":")
    if not sep:
        raise ValueError(f"--T-range must be LO:HI, got {raw!r}")
    lo, hi = int(lo_text), int(hi_text)
    if lo < 1 or hi < lo:
        raise ValueError(f"--T-range must satisfy 1 <= LO <= HI, got {raw!r}")
    return lo, hi


def _check_shared(ns) -> None:
    """Check what every subcommand shares, once for all of them.

    Each echoed value must fit the one-line command metadata; --tol must
    lie in (0, 1) and --seed be a non-negative integer, kept parsed as
    ns.tolerance and ns.seed_value.
    """
    for action in ns.echoed:
        value = getattr(ns, action.dest)
        if value and value.splitlines() != [value]:
            flag = (action.option_strings or [action.dest])[0]
            raise ValueError(f"{flag} must not contain a line break, got {value!r}")
    ns.tolerance = float(ns.tol)
    if not 0.0 < ns.tolerance < 1.0:
        raise ValueError(f"--tol must be a number in (0, 1), got {ns.tol!r}")
    ns.seed_value = int(ns.seed)
    if ns.seed_value < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {ns.seed!r}")


# The built-in sequence of each --set label; a maker raises ValueError
# where no entry covers T.
_TABLES = {"H,I": generate_table_sequence, "H,F": fourier_table_sequence}


def _table_bits(T: int, set_label: str) -> str | None:
    try:
        return _TABLES[set_label](T).bits
    except (KeyError, ValueError):
        return None


def _is_literal(choice: str, T: int) -> bool:
    """Whether --bits is a literal; a literal must be a 0/1 string of length T."""
    if choice in ("table", "brute-best"):
        return False
    if not choice or set(choice) - {"0", "1"}:
        raise ValueError(
            f"--bits must be 'table', 'brute-best' or a 0/1 string, got {choice!r}"
        )
    if len(choice) != T:
        raise ValueError(f"--bits literal has length {len(choice)}, but T is {T}")
    return True


def _resolve_bits(
    choice: str, T: int, coin0: np.ndarray, coin1: np.ndarray, set_label: str
) -> str:
    literal = _is_literal(choice, T)
    if "," not in set_label and not set_label.startswith("g:"):
        # single-coin set: every bit string walks identically
        return "0" * T
    if literal:
        return choice
    bits = _table_bits(T, set_label) if choice == "table" else None
    return bits if bits is not None else brute_force(T, coin0, coin1).best_bits


def _metadata(ns) -> dict:
    tokens = [ns.command]
    for action in ns.echoed:
        value = getattr(ns, action.dest)
        if value:
            tokens += [*action.option_strings[:1], value]
    return {
        "tool": f"walkmeg {__version__}",
        "command": shlex.join(tokens),
        "seed": ns.seed_value,
    }


# ---------------------------------------------------------------------------
# subcommands: each returns (columns, rows, metadata, exit code) for main
# ---------------------------------------------------------------------------

def _cmd_simulate(ns) -> tuple:
    T = _sized(ns.T, "simulate --T", 1, SIMULATE_MAX_T)
    coin0, coin1, label = _parse_set(ns.set)
    bits = _resolve_bits(ns.bits, T, coin0, coin1, label)
    init = _parse_init(ns.init)

    def rows():
        # a generator: main appends each row as it comes, so none is held twice
        for state in trajectory(init, CoinSequence(coin0, coin1, bits)):
            dist = position_distribution(state)
            padded = np.zeros(2 * T + 1)
            padded[T - state.t : T + state.t + 1] = dist.probabilities
            yield (
                state.t,
                *padded.tolist(),
                entanglement_entropy(reduced_coin_state(state)),
                shannon_entropy(dist),
                second_moment(dist),
            )

    columns = ("t", *(f"P({x})" for x in range(-T, T + 1)), "S_E", "S_S", "m")
    return columns, rows(), {"set": label, "bits": bits}, 0


def _cmd_fidelity_curve(ns) -> tuple:
    lo, hi = _parse_T_range(ns.T_range)
    _guard("fidelity-curve --T-range", hi, FIDELITY_CURVE_MAX_T)
    coin0, coin1, label = _parse_set(ns.set)

    def row(T):
        bits = _resolve_bits(ns.bits, T, coin0, coin1, label)
        return T, label, bits, sequence_fidelity(CoinSequence(coin0, coin1, bits))

    return ("T", "set", "bits", "fidelity"), map(row, range(lo, hi + 1)), {}, 0


def _cmd_search(ns) -> tuple:
    T = _sized(ns.T, "search --T", 1)
    if ns.mode != "landscape":
        if ns.grid is not None:
            raise ValueError(f"--grid applies to search landscape only, not search {ns.mode}")
    elif ns.set is not None:
        raise ValueError("search landscape scans the coin angles and takes no --set")
    elif ns.grid is None:
        ns.grid = _LANDSCAPE_GRID_DEFAULT

    if ns.mode == "brute":
        coin0, coin1, label = _parse_set(ns.set if ns.set is not None else "H,I")
        result = brute_force(T, coin0, coin1, ns.tolerance)
        metadata = {
            "mode": ns.mode,
            "set": label,
            "best_fidelity": result.best_fidelity,
            "count_optimal": result.count_optimal,
            "evaluations": result.evaluations,
            **{f"count_{tol:.0e}": count for tol, count in result.counts.items()},
        }
        rows = zip(result.optimal_bits, result.optimal_fidelities)
        return ("bits", "fidelity"), rows, metadata, 0

    if ns.mode == "anneal":
        _sized(ns.T, "search anneal --T", 1, ANNEAL_MAX_T)
        config = AnnealConfig(seed=ns.seed_value)
        if ns.set is None:
            result = anneal(T, config)
            label = _angle_label(result.gamma0, result.gamma1)
        else:
            coin0, coin1, label = _parse_set(ns.set)
            result = anneal(T, config, coins=(coin0, coin1))
        metadata = {"mode": ns.mode, "restarts": config.restarts}
        return ("set", "bits", "fidelity"), [(label, result.bits, result.fidelity)], metadata, 0

    # landscape
    grid_n = _sized(ns.grid, "search landscape --grid", 2, LANDSCAPE_MAX_GRID)
    angles = [float(g) for g in np.linspace(*ROTATION_ANGLES, grid_n)]
    rows = ((p.gamma0, p.gamma1, p.best_fidelity) for p in landscape_scan(T, angles))
    return ("gamma0", "gamma1", "best_fidelity"), rows, {"mode": ns.mode, "grid": grid_n}, 0


def _cmd_verify(ns) -> tuple:
    if ns.pattern is None:
        if ns.max_T is None:
            ns.max_T = _VERIFY_MAX_T_DEFAULT
    elif ns.max_T is not None:
        raise ValueError("verify takes --pattern or --max-T, not both")

    if ns.pattern is not None:
        pattern = SequencePattern(tuple(int(v) for v in ns.pattern.split(",")))
        _guard("verify --pattern length", pattern.T, VERIFY_PATTERN_MAX_T)
        family = {pattern_bits(pattern): pattern}
    else:
        max_T = _sized(ns.max_T, "verify --max-T", 1, VERIFY_MAX_T)
        family = {bits: pattern_from_bits(bits) for bits in iter_family_bits(max_T)}

    # one kernel call per length; the strings come in ascending length
    hadamard, identity = named_coin("H"), named_coin("I")
    fidelities = []
    for _, group in itertools.groupby(family, key=len):
        strings = [[int(b) for b in bits] for bits in group]
        fidelities.extend(batch_fidelities(hadamard, identity, strings).tolist())
    # the metadata counts the disagreements, so the rows are made here, not lazily
    rows = []
    disagreements = 0
    for pattern, fidelity in zip(family.values(), fidelities):
        predicted = theorem_predicate(pattern)
        agree = predicted == (fidelity > 1.0 - ns.tolerance)
        text = ",".join(str(v) for v in pattern.ls)
        rows.append((text, "true" if predicted else "false", fidelity,
                     "true" if agree else "false"))
        if not agree:
            disagreements += 1
            print(
                f"disagreement: pattern {text} predicted "
                f"{'optimal' if predicted else 'suboptimal'} but fidelity is "
                f"{format_float(fidelity)}",
                file=sys.stderr,
            )
    columns = ("pattern", "predicate", "fidelity", "agree")
    return columns, rows, {"disagreements": disagreements}, 0 if not disagreements else 4


def _cmd_bloch(ns) -> tuple:
    T = _sized(ns.T, "bloch --T", 0, BLOCH_MAX_T)
    coin0, coin1, label = _parse_set(ns.set)
    n_samples = _sized(ns.ensemble, "bloch --ensemble", 1, BLOCH_MAX_SAMPLES)

    if T == 0:
        # zero steps leave the coin untouched: the identity-channel self-test;
        # no literal has length 0, so this refuses every literal
        _is_literal(ns.bits, T)
        bits = ""
        inputs = outputs = fibonacci_sphere(n_samples)
    else:
        bits = _resolve_bits(ns.bits, T, coin0, coin1, label)
        image = bloch_image(CoinSequence(coin0, coin1, bits), n_samples)
        inputs, outputs = image.inputs, image.outputs
    metadata = {
        "set": label,
        "bits": bits,
        "max_output_norm": float(np.max(np.linalg.norm(outputs, axis=1))),
    }
    columns = ("x_in", "y_in", "z_in", "x_out", "y_out", "z_out")
    return columns, np.hstack((inputs, outputs)).tolist(), metadata, 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2

    try:
        _check_shared(ns)
        columns, rows, metadata, code = ns.handler(ns)
        # the handler has filled in its mode-only defaults, so the echo carries them
        table = ResultTable(columns, metadata={**_metadata(ns), **metadata})
        for row in rows:
            table.append(*row)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if ns.out:
        try:
            table.write(ns.out, ns.format)
        except OSError as exc:
            print(f"error: cannot write --out {ns.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(table.to_text(ns.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
