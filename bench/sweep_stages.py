"""Time the stages of the exhaustive 2^T sweep and write BENCH_sweep.json.

On one worker, at T = 16, 18 and 20 for the {H, 1} set, the script walks
the sweep's own chunks (walkmeg.search._sweep_stacks) and times, on the
same stacks: building the step and suffix tables and composing prefix
and suffix products, the SVD reference for the fidelities, and
walkmeg.search._stack_fidelities, the stage-4 routine of every sweep,
once unscreened and once screened as brute_force runs it (exact_above =
1 - 1e-6). It counts the rows the screen scores (screened entries equal
to the unscreened ones). It runs three passes, records the largest
difference between the SVD and Gram routes, and times three whole
enumerate_fidelities and brute_force calls. Every time is the median of
its three. The screen's worst case, g:0.32,0.412 at T = 18, where no
bound falls below the best, is timed the same way. On all workers it
times one whole unscreened T = 24 enumerate_fidelities call, which
records the optimal {H, 1} counts, `walkmeg search brute --T 24` and
`--T 20` end to end (walkmeg.cli.main in this process, output
discarded) and brute_force(18, H, I). Times are CPU seconds of this
process and all its threads (process_time); wall seconds are given
beside them.

`walkmeg search landscape --T 12 --grid 33` and `--T 10 --grid 17` are
timed in fresh processes (python -m walkmeg.cli, output discarded, CPU
from the reaped children). With --reference DIR, a checkout of another
commit, its `src` tree runs the same commands, alternating with this
tree's, so the two are measured back to back.

Run from the repository root:

    python3 bench/sweep_stages.py [--out BENCH_sweep.json] [--reference DIR]

Needs only numpy and the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from walkmeg.cli import main as cli_main  # noqa: E402
from walkmeg.coins import HADAMARD, IDENTITY, rotation_coin  # noqa: E402
from walkmeg.search import (  # noqa: E402
    COUNT_TOLERANCES,
    _stack_fidelities,
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
EXACT_ABOVE = 1.0 - 1e-6  # what brute_force passes at its default tolerance
WORST_CASE = ("g:0.32,0.412", 18)  # no bound falls below the best: the screen skips nothing
LANDSCAPE = (("12", "33"), ("10", "17"))  # (--T, --grid) of the timed landscape scans


def _svd_fidelity(q: np.ndarray) -> np.ndarray:
    """The reference: singular values from one LAPACK SVD per matrix."""
    sv = np.linalg.svd(q, compute_uv=False)
    return np.minimum(np.square(sv.sum(axis=-1)) / (4 * q.shape[-2]), 1.0)


def _stage_pass(coins, T: int) -> tuple[float, float, float, float, float, int]:
    """CPU seconds of tables and compose, SVD, unscreened and screened stage 4 over every chunk.

    Also returns the largest SVD-Gram difference and the number of rows
    the screen scored: its entries equal to the unscreened ones.
    """
    n_chunks = _sweep_layout(T)[2]
    compose = svd = unscreened = screened = 0.0
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
        fid = _stack_fidelities(q)[0]
        unscreened += time.process_time() - t0
        worst = max(worst, float(np.max(np.abs(fid - ref))))
        t0 = time.process_time()
        bounded, best = _stack_fidelities(q, EXACT_ABOVE, best)
        screened += time.process_time() - t0
        rows += int(np.count_nonzero(bounded == fid))
    return compose, svd, unscreened, screened, worst, rows


def _timed(call):
    """(result, wall seconds, CPU seconds) of one call."""
    c0, w0 = time.process_time(), time.perf_counter()
    result = call()
    return result, time.perf_counter() - w0, time.process_time() - c0


def stage_times(coins, T: int) -> dict:
    """Medians over REPEATS passes of each stage, and of the whole one-worker calls."""
    compose, svd, unscreened, screened, worst, rows = zip(
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
        "unscreened_cpu_s_median": round(statistics.median(unscreened), 4),
        "max_abs_gram_minus_svd": max(worst),
        "screened_cpu_s_median": round(statistics.median(screened), 4),
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
        "optimal_counts": {f"{tol:.0e}": int((fid > 1.0 - tol).sum()) for tol in COUNT_TOLERANCES},
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


def _child_run(src: Path, argv: list[str]) -> tuple[float, float]:
    """(wall, CPU seconds) of `python -m walkmeg.cli argv` on the walkmeg in src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    w0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "walkmeg.cli", *argv], env=env,
                   stdout=subprocess.DEVNULL, check=True)
    wall = time.perf_counter() - w0
    c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, c1.ru_utime - c0.ru_utime + c1.ru_stime - c0.ru_stime


def landscape_runs(reference: Path | None) -> list[dict]:
    """Median wall and CPU seconds of each LANDSCAPE scan, this tree and the reference alternating."""
    trees = {"this_tree": ROOT / "src"}
    if reference is not None:
        trees["reference"] = reference / "src"
    rows = []
    for T, grid in LANDSCAPE:
        argv = ["search", "landscape", "--T", T, "--grid", grid]
        runs = {label: [] for label in trees}
        for _ in range(REPEATS):
            for label, src in trees.items():
                runs[label].append(_child_run(src, argv))
        row = {"command": "walkmeg " + " ".join(argv), "workers": worker_count(), "repeats": REPEATS}
        for label, timings in runs.items():
            row[label] = {"wall_s": round(statistics.median(w for w, _ in timings), 3),
                          "cpu_s": round(statistics.median(c for _, c in timings), 3)}
        rows.append(row)
    return rows


def _commit(checkout: Path) -> str:
    """The short commit hash of a git checkout, or its directory name."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else checkout.name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_sweep.json"))
    parser.add_argument("--reference", type=Path, default=None,
                        help="checkout of another commit whose landscape scans to time alongside")
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
    landscape = landscape_runs(args.reference)
    for row in (*cli, brute18, *landscape):
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
        "cli_search_landscape_all_workers": {
            "reference_commit": None if args.reference is None else _commit(args.reference),
            "runs": landscape,
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
