"""Workload operations for the walkmeg benchmark and the checks on their outputs.

An op is what the closed-loop client sends before waiting for the reply:
one CLI run for `brute` and `landscape`, a six-step scoring session for
`single`. Ops are generated from the workload seed alone; walkmeg only
ever sees the generated argv (or library arguments). The checks read the
captured output and compare it against independent oracles; they run
outside the timed interval.
"""

from __future__ import annotations

import csv
import io
import math
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import walkmeg
import walkmeg.cli

WORKLOADS = ("brute", "landscape", "single")

BRUTE_T = 18
BRUTE_SETS = ("H,I", "H,X", "H,F", "H,Z", "g")
BRUTE_OPTIMAL_H_I = 620  # optimal {H, 1} strings at T = 18
LANDSCAPE_HITS = {(0, 8), (8, 0), (8, 16), (16, 8)}  # grid indices of unit fidelity
LANDSCAPE_GRID = 17
SINGLE_BLOCH_T = (8, 9, 10, 11, 12)

OPTIMAL_TOL = 1e-9
# Fidelities are computed in double precision; the enumeration route can
# land a few ulp above 1 (1 + 4.4e-16 for {H, 1} at T = 18).
ROUNDING_SLACK = 1e-12
RESCORE_SAMPLE = 8
# Index at which the timed op list repeats op 0, so every run compares the
# bytes of two runs of the same op.
REPEAT_AT = 3
# Ops of a traced run. Its brute sets are fixed, one named pair and one
# rotation pair, so per-op counts and result bytes do not depend on the seed.
TRACED_OPS = {"brute": 2, "landscape": 2, "single": 5}
TRACED_BRUTE_SETS = ("H,I", "g:0.400000,1.100000")


@dataclass(frozen=True)
class Step:
    """One call into walkmeg: a CLI argv, or a library call by name."""

    kind: str  # "cli" or "average_entanglement"
    args: tuple[str, ...]


@dataclass(frozen=True)
class Op:
    steps: tuple[Step, ...]

    def describe(self) -> str:
        return " ; ".join(" ".join(s.args) if s.kind == "cli" else f"{s.kind}({s.args[0]})"
                          for s in self.steps)


def _cli(*args) -> Step:
    return Step("cli", tuple(str(a) for a in args))


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _brute_op(coin_set: str) -> Op:
    return Op((_cli("search", "brute", "--T", BRUTE_T, "--set", coin_set),))


def _brute_set(rng: random.Random, index: int) -> str:
    # {H, 1} at least every fourth op, so the 620 count is checked often
    choice = "H,I" if index % 4 == 0 else rng.choice(BRUTE_SETS)
    if choice == "g":
        half_pi = math.pi / 2.0
        choice = f"g:{rng.uniform(0.0, half_pi):.6f},{rng.uniform(0.0, half_pi):.6f}"
    return choice


def _landscape_op() -> Op:
    return Op((_cli("search", "landscape", "--T", 5, "--grid", LANDSCAPE_GRID),))


def _single_op(rng: random.Random, bloch_T: int) -> Op:
    theta = rng.uniform(0.0, math.pi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return Op((
        _cli("verify", "--max-T", 12),
        _cli("fidelity-curve", "--T-range", "2:12", "--set", "H,X"),
        _cli("bloch", "--T", bloch_T, "--set", "H,I", "--bits", _bits(rng, bloch_T), "--n", 296),
        _cli("simulate", "--T", 200, "--set", "H,I", "--bits", _bits(rng, 200),
             "--init", f"{theta:.6f},{phi:.6f}"),
        _cli("search", "anneal", "--T", 12, "--set", "H,I", "--seed", rng.randrange(10**6)),
        Step("average_entanglement", (_bits(rng, 10),)),
    ))


def generate(workload: str, seed: int, n: int) -> list[Op]:
    """The first n distinct ops of a workload; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(seed)
    if workload == "brute":
        return [_brute_op(_brute_set(rng, i)) for i in range(n)]
    if workload == "landscape":
        return [_landscape_op() for _ in range(n)]
    ops = []
    while len(ops) < n:
        # each block of five sessions uses every bloch T once, so per-op
        # call counts do not depend on the seed
        block = list(SINGLE_BLOCH_T)
        rng.shuffle(block)
        ops.extend(_single_op(rng, t) for t in block)
    return ops[:n]


def timed_ops(workload: str, seed: int, n: int) -> list[Op]:
    """Op list of an untraced run: generate() with op 0 repeated at REPEAT_AT."""
    ops = generate(workload, seed, n)
    ops.insert(REPEAT_AT, ops[0])
    return ops


def traced_ops(workload: str, seed: int) -> list[Op]:
    """Op list of a traced run, whose per-op counts do not depend on the seed."""
    if workload == "brute":
        return [_brute_op(coin_set) for coin_set in TRACED_BRUTE_SETS]
    return generate(workload, seed, TRACED_OPS[workload])


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run_cli(argv) -> tuple[int, str]:
    """walkmeg.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        # looked up at call time, so an installed tracer sees the call
        code = walkmeg.cli.main(list(argv))
    return code, out.getvalue()


def run_step(step: Step) -> tuple[int, str]:
    if step.kind == "cli":
        return run_cli(step.args)
    seq = walkmeg.CoinSequence(walkmeg.HADAMARD, walkmeg.IDENTITY, step.args[0])
    stats = walkmeg.average_entanglement(seq)
    return 0, f"mean={stats.mean!r} std_dev={stats.std_dev!r} n={stats.n}\n"


def execute(op: Op) -> tuple[list[tuple[int, str]], str | None]:
    """Run every step of op; returns (per-step results, traceback text or None)."""
    results = []
    try:
        for step in op.steps:
            results.append(run_step(step))
    except Exception:  # an op that raises is a failed op, not a crashed run
        return results, traceback.format_exc()
    return results, None


def output_bytes(results: list[tuple[int, str]]) -> str:
    return "".join(f"[exit {code}]\n{text}" for code, text in results)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def parse_csv(text: str):
    """Split a walkmeg CSV table into (metadata, header, row iterator), all as text.

    Rows are read lazily, so checking a large table holds one row at a time.
    """
    lines = iter(text.splitlines())
    meta: dict[str, str] = {}
    for line in lines:
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition("=")
        meta[key] = value
    else:
        raise ValueError("table has no header")
    return meta, next(csv.reader([line])), csv.reader(lines)


def _coins(spec: str):
    if spec.startswith("g:"):
        g0, g1 = (float(v) for v in spec[2:].split(","))
        return walkmeg.rotation_coin(g0), walkmeg.rotation_coin(g1)
    a, b = spec.split(",")
    return walkmeg.named_coin(a), walkmeg.named_coin(b)


def _rescore(coins, bits: str) -> float:
    return walkmeg.sequence_fidelity(walkmeg.CoinSequence(coins[0], coins[1], bits))


def _fidelity_ok(value: float) -> bool:
    return 0.0 <= value <= 1.0 + ROUNDING_SLACK


def check_brute(argv, text: str, rng: random.Random) -> list[str]:
    spec = argv[argv.index("--set") + 1]
    meta, header, rows = parse_csv(text)
    rows = list(rows)
    problems = []
    counts = [int(meta[f"count_{tol:.0e}"]) for tol in (1e-6, 1e-9, 1e-12)]
    if counts != sorted(counts, reverse=True):
        problems.append(f"counts not monotone in the tolerance: {counts}")
    count = int(meta["count_optimal"])
    if spec == "H,I" and count != BRUTE_OPTIMAL_H_I:
        problems.append(f"count_optimal={count}, expected {BRUTE_OPTIMAL_H_I}")
    if len(rows) != count:
        problems.append(f"{len(rows)} rows listed, count_optimal={count}")
    best = float(meta["best_fidelity"])
    if not _fidelity_ok(best):
        problems.append(f"best_fidelity={best} outside [0, 1]")
    if header != ["bits", "fidelity"]:
        problems.append(f"unexpected header {header}")
        return problems
    coins = _coins(spec)
    for bits, _ in rng.sample(rows, min(RESCORE_SAMPLE, len(rows))):
        fid = _rescore(coins, bits)
        if fid < 1.0 - OPTIMAL_TOL:
            problems.append(f"listed string {bits} re-scores {fid!r}")
    return problems


def check_landscape(text: str) -> list[str]:
    rows = list(parse_csv(text)[2])
    if len(rows) != LANDSCAPE_GRID**2:
        return [f"{len(rows)} grid points, expected {LANDSCAPE_GRID**2}"]
    # rows run over gamma0 (outer) then gamma1 (inner)
    hits = {divmod(i, LANDSCAPE_GRID) for i, row in enumerate(rows)
            if float(row[2]) > 1.0 - OPTIMAL_TOL}
    return [] if hits == LANDSCAPE_HITS else [f"hit set {sorted(hits)}"]


def check_verify(text: str) -> list[str]:
    meta, _, _ = parse_csv(text)
    n = int(meta["disagreements"])
    return [] if n == 0 else [f"verify reports {n} disagreements"]


def check_fidelity_curve(text: str) -> list[str]:
    rows = list(parse_csv(text)[2])
    problems = []
    if [int(r[0]) for r in rows] != list(range(2, 13)):
        problems.append("fidelity-curve rows do not cover T = 2..12")
    problems += [f"T={r[0]} fidelity {r[3]} outside [0, 1]"
                 for r in rows if not _fidelity_ok(float(r[3]))]
    return problems


def check_bloch(argv, text: str) -> list[str]:
    bits = argv[argv.index("--bits") + 1]
    _, _, rows = parse_csv(text)
    worst = 0.0
    for row in rows:
        xyz_in = [float(v) for v in row[:3]]
        expected = walkmeg.momentum_final_bloch(
            bits, walkmeg.AffineBlochVector.from_bloch(xyz_in)
        ).bloch
        worst = max(worst, max(abs(float(v) - e) for v, e in zip(row[3:], expected)))
    return [] if worst <= 1e-9 else [f"bloch output differs from momentum route by {worst:.3e}"]


def check_simulate(text: str) -> list[str]:
    _, header, rows = parse_csv(text)
    cols = [i for i, name in enumerate(header) if name.startswith("P(")]
    worst = max(abs(sum(float(row[i]) for i in cols) - 1.0) for row in rows)
    return [] if worst <= 1e-9 else [f"simulate row sums deviate from 1 by {worst:.3e}"]


def check_anneal(text: str) -> list[str]:
    label, bits, _ = next(parse_csv(text)[2])
    fid = _rescore(_coins(label), bits)
    return [] if fid >= 1.0 - OPTIMAL_TOL else [f"anneal result {bits} re-scores {fid!r}"]


def check_ensemble(text: str) -> list[str]:
    mean = float(text.split()[0].partition("=")[2])
    return [] if 0.0 <= mean <= 1.0 else [f"ensemble mean {mean} outside [0, 1]"]


def check_step(step: Step, code: int, text: str, rng: random.Random) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if step.kind == "average_entanglement":
        return check_ensemble(text)
    argv = step.args
    if argv[0] == "search":
        if argv[1] == "brute":
            return check_brute(argv, text, rng)
        if argv[1] == "landscape":
            return check_landscape(text)
        return check_anneal(text)
    if argv[0] == "verify":
        return check_verify(text)
    if argv[0] == "fidelity-curve":
        return check_fidelity_curve(text)
    if argv[0] == "bloch":
        return check_bloch(argv, text)
    return check_simulate(text)


def check_op(op: Op, results, error: str | None, rng: random.Random) -> list[str]:
    """Every reason op counts as failed; empty when it passed."""
    if error is not None:
        return [f"raised {error}"]
    problems = []
    for step, (code, text) in zip(op.steps, results):
        try:
            problems += check_step(step, code, text, rng)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
