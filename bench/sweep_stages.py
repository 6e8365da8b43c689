"""Time the stages of the exhaustive 2^T sweep and write BENCH_sweep.json.

On one worker, at T = 16, 18 and 20 for the {H, 1} set, the script walks
the sweep's own chunks (walkmeg.search._sweep_stacks) and times, on the
same stacks: building the step and suffix tables and composing prefix
and suffix products, the SVD reference for the fidelities, the
Gram-eigenvector route that the unscreened sweep uses, and the two
halves of the screened sweep that brute_force runs (exact_above =
1 - 1e-6): the purity bounds, and the Gram matrices and eigensolver
of the rows that survive, which it counts. It runs
three passes, records the largest difference between the SVD and Gram
routes, and times three whole enumerate_fidelities and brute_force
calls. Every time is the median of its three. The screen's worst case,
g:0.32,0.412 at T = 18, where no bound falls below the best, is timed
the same way. On all workers it times one whole unscreened T = 24
enumerate_fidelities call, which records the optimal {H, 1} counts,
`walkmeg search brute --T 24` and `--T 20` end to end (walkmeg.cli.main
in this process, output discarded) and brute_force(18, H, I). Times are
CPU seconds of this process and all its threads (process_time); wall
seconds are given beside them. A "process_pool_reference" entry already
in the output file, the same runs timed on a build that swept on a
process pool, is kept.

Run from the repository root:

    python3 bench/sweep_stages.py [--out BENCH_sweep.json]

Needs only numpy and the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from walkmeg.cli import main as cli_main  # noqa: E402
from walkmeg.coins import HADAMARD, IDENTITY, rotation_coin  # noqa: E402
from walkmeg.search import (  # noqa: E402
    _fidelity,
    _score,
    _screen,
    _sweep_layout,
    _sweep_stacks,
    _sweep_tables,
    brute_force,
    enumerate_fidelities,
    worker_count,
)

STAGE_T = (16, 18, 20)
FULL_T = 24
CLI_T = (24, 20)
REPEATS = 3  # passes over the stages and whole calls per T; medians are reported
TOLERANCES = (1e-6, 1e-9, 1e-12)
EXACT_ABOVE = 1.0 - 1e-6  # what brute_force passes at its default tolerance
WORST_CASE = ("g:0.32,0.412", 18)  # no bound falls below the best: the screen skips nothing


def _svd_fidelity(q: np.ndarray) -> np.ndarray:
    """The reference: singular values from one LAPACK SVD per matrix."""
    sv = np.linalg.svd(q, compute_uv=False)
    return np.minimum(np.square(sv.sum(axis=-1)) / (4 * q.shape[-2]), 1.0)


def _stage_pass(coins, T: int) -> tuple[float, float, float, float, float, float, int]:
    """CPU seconds of tables and compose, SVD, Gram, screen and scored eigh over every chunk.

    Also returns the largest SVD-Gram difference and the number of rows
    the screen passed to the eigensolver.
    """
    n_chunks = _sweep_layout(T)[2]
    n = 2 * T + 1
    compose = svd = gram_route = screen = scored = 0.0
    worst, rows, best = 0.0, 0, -float("inf")
    t0 = time.process_time()
    stacks = _sweep_stacks(*_sweep_tables(*coins, T), T, 0, n_chunks)
    compose += time.process_time() - t0
    while True:
        t0 = time.process_time()
        q = next(stacks, None)
        compose += time.process_time() - t0
        if q is None:
            break
        t0 = time.process_time()
        ref = _svd_fidelity(q)
        svd += time.process_time() - t0
        t0 = time.process_time()
        fid = _fidelity(q)
        gram_route += time.process_time() - t0
        worst = max(worst, float(np.max(np.abs(fid - ref))))
        q = q.reshape(-1, n, 4)
        t0 = time.process_time()
        bound, keep, best = _screen(q, EXACT_ABOVE, best)
        screen += time.process_time() - t0
        t0 = time.process_time()
        best = max(best, _score(q, bound, keep))
        scored += time.process_time() - t0
        rows += keep.size
    return compose, svd, gram_route, screen, scored, worst, rows


def _timed(call):
    """(result, wall seconds, CPU seconds) of one call."""
    c0, w0 = time.process_time(), time.perf_counter()
    result = call()
    return result, time.perf_counter() - w0, time.process_time() - c0


def stage_times(coins, T: int) -> dict:
    """Medians over REPEATS passes of each stage, and of the whole one-worker calls."""
    compose, svd, gram, screen, scored, worst, rows = zip(
        *(_stage_pass(coins, T) for _ in range(REPEATS))
    )
    whole = [_timed(lambda: enumerate_fidelities(*coins, T, workers=1)) for _ in range(REPEATS)]
    brute = [_timed(lambda: brute_force(T, *coins, workers=1)) for _ in range(REPEATS)]
    fid = whole[0][0]
    return {
        "T": T,
        "strings_evaluated": 1 << (T - 1),
        "chunks": _sweep_layout(T)[2],
        "compose_cpu_s_median": round(statistics.median(compose), 4),
        "svd_reference_cpu_s_median": round(statistics.median(svd), 4),
        "gram_route_cpu_s_median": round(statistics.median(gram), 4),
        "max_abs_gram_minus_svd": max(worst),
        "screen_gram_and_bound_cpu_s_median": round(statistics.median(screen), 4),
        "screen_scored_eigh_cpu_s_median": round(statistics.median(scored), 4),
        "screen_rows_scored": rows[0],
        "enumerate_cpu_s_median": round(statistics.median(c for _, _, c in whole), 4),
        "enumerate_wall_s_median": round(statistics.median(w for _, w, _ in whole), 4),
        "brute_force_cpu_s_median": round(statistics.median(c for _, _, c in brute), 4),
        "brute_force_wall_s_median": round(statistics.median(w for _, w, _ in brute), 4),
        "enumerate_repeats": REPEATS,
        "optimal_count_1e-9": int((fid > 1.0 - 1e-9).sum()),
    }


def full_run(T: int) -> dict:
    """One whole unscreened sweep on all workers: wall and CPU seconds and the optimal counts."""
    fid, wall, cpu = _timed(lambda: enumerate_fidelities(HADAMARD, IDENTITY, T))
    return {
        "T": T,
        "workers": worker_count(),
        "wall_s": round(wall, 3),
        "cpu_s": round(cpu, 3),
        "optimal_counts": {f"{tol:.0e}": int((fid > 1.0 - tol).sum()) for tol in TOLERANCES},
        "best_suboptimal": float(fid[fid <= 1.0 - 1e-6].max()),
    }


def _medians(label: str, call) -> dict:
    """Median wall and CPU seconds of REPEATS calls on all workers."""
    runs = [_timed(call) for _ in range(REPEATS)]
    return {"command": label, "workers": worker_count(), "repeats": REPEATS,
            "wall_s": round(statistics.median(w for _, w, _ in runs), 3),
            "cpu_s": round(statistics.median(c for _, _, c in runs), 3)}


def cli_run(T: int) -> dict:
    """`walkmeg search brute --T T` end to end, output discarded."""
    argv = ["search", "brute", "--T", str(T)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(argv)

    return _medians("walkmeg " + " ".join(argv), run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_sweep.json"))
    args = parser.parse_args(argv)

    enumerate_fidelities(HADAMARD, IDENTITY, 12, workers=1)  # warm imports and BLAS
    stages = []
    for T in STAGE_T:
        row = stage_times((HADAMARD, IDENTITY), T)
        stages.append(row)
        print(json.dumps(row), flush=True)
    label, T = WORST_CASE
    g0, g1 = (float(g) for g in label[2:].split(","))
    worst = {"coin_set": label, **stage_times((rotation_coin(g0), rotation_coin(g1)), T)}
    print(json.dumps(worst), flush=True)
    full = full_run(FULL_T)
    print(json.dumps(full), flush=True)
    cli = [cli_run(T) for T in CLI_T]
    brute18 = _medians("brute_force(18, H, I)", lambda: brute_force(18, HADAMARD, IDENTITY))
    for row in (*cli, brute18):
        print(json.dumps(row), flush=True)

    record = {
        "bench": "sweep_stages",
        "coin_set": "H,I",
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "units": "seconds; stage times are CPU seconds on one worker",
        "screen_exact_above": EXACT_ABOVE,
        "stages_one_worker": stages,
        "screen_worst_case_one_worker": worst,
        "full_sweep_all_workers": full,
        "cli_search_brute_all_workers": cli,
        "brute_force_all_workers": brute18,
    }
    out = Path(args.out)
    if out.exists() and "process_pool_reference" in (old := json.loads(out.read_text())):
        record["process_pool_reference"] = old["process_pool_reference"]
    out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
