"""Time the stages of the exhaustive 2^T sweep and write BENCH_sweep.json.

On one worker, at T = 16, 18 and 20 for the {H, 1} set, the script walks
the sweep's own chunks (walkmeg.search._sweep_stacks) and times three
stages on the same stacks: composing prefix and suffix products, the SVD
reference for the fidelities, and the Gram-eigenvector route that the
sweep uses, over three passes. It records the largest difference between
the two routes and times three whole enumerate_fidelities calls. Every
time is the median of its three. At T = 24 it times one whole
enumerate_fidelities call on all workers and records the optimal {H, 1}
counts. Times are CPU seconds of this process (process_time), with the
pooled T = 24 run also counting its reaped workers; wall seconds are
given beside them.

Run from the repository root:

    python3 bench/sweep_stages.py [--out BENCH_sweep.json]

Needs only numpy and the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from walkmeg.coins import HADAMARD, IDENTITY  # noqa: E402
from walkmeg.search import (  # noqa: E402
    _fidelity,
    _sweep_layout,
    _sweep_stacks,
    enumerate_fidelities,
    worker_count,
)

STAGE_T = (16, 18, 20)
FULL_T = 24
REPEATS = 3  # passes over the stages and whole one-worker calls per T; medians are reported
TOLERANCES = (1e-6, 1e-9, 1e-12)


def _svd_fidelity(q: np.ndarray) -> np.ndarray:
    """The reference: singular values from one LAPACK SVD per matrix."""
    sv = np.linalg.svd(q, compute_uv=False)
    return np.minimum(np.square(sv.sum(axis=-1)) / (4 * q.shape[-2]), 1.0)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _stage_pass(T: int) -> tuple[float, float, float, float]:
    """CPU seconds of compose, SVD and Gram over every chunk, and the largest difference."""
    n_chunks = _sweep_layout(T)[2]
    compose = svd = gram = 0.0
    worst = 0.0
    stacks = _sweep_stacks(HADAMARD, IDENTITY, T, 0, n_chunks)
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
        gram += time.process_time() - t0
        worst = max(worst, float(np.max(np.abs(fid - ref))))
    return compose, svd, gram, worst


def stage_times(T: int) -> dict:
    """Medians over REPEATS passes of each stage, and of the whole one-worker call."""
    compose, svd, gram, worst = zip(*(_stage_pass(T) for _ in range(REPEATS)))
    whole_cpu, whole_wall = [], []
    for _ in range(REPEATS):
        w0, c0 = time.perf_counter(), time.process_time()
        fid = enumerate_fidelities(HADAMARD, IDENTITY, T, workers=1)
        whole_cpu.append(time.process_time() - c0)
        whole_wall.append(time.perf_counter() - w0)
    return {
        "T": T,
        "strings_evaluated": 1 << (T - 1),
        "chunks": _sweep_layout(T)[2],
        "compose_cpu_s_median": round(statistics.median(compose), 4),
        "svd_reference_cpu_s_median": round(statistics.median(svd), 4),
        "gram_route_cpu_s_median": round(statistics.median(gram), 4),
        "max_abs_gram_minus_svd": max(worst),
        "enumerate_cpu_s_median": round(statistics.median(whole_cpu), 4),
        "enumerate_wall_s_median": round(statistics.median(whole_wall), 4),
        "enumerate_repeats": REPEATS,
        "optimal_count_1e-9": int((fid > 1.0 - 1e-9).sum()),
    }


def full_run(T: int) -> dict:
    """One whole pooled sweep: wall and CPU seconds and the optimal counts."""
    workers = worker_count()
    c0, k0, w0 = time.process_time(), _children_cpu(), time.perf_counter()
    fid = enumerate_fidelities(HADAMARD, IDENTITY, T)
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0 + _children_cpu() - k0
    return {
        "T": T,
        "workers": workers,
        "wall_s": round(wall, 3),
        "cpu_s": round(cpu, 3),
        "optimal_counts": {f"{tol:.0e}": int((fid > 1.0 - tol).sum()) for tol in TOLERANCES},
        "best_suboptimal": float(fid[fid <= 1.0 - 1e-6].max()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_sweep.json"))
    args = parser.parse_args(argv)

    enumerate_fidelities(HADAMARD, IDENTITY, 12, workers=1)  # warm imports and BLAS
    stages = []
    for T in STAGE_T:
        row = stage_times(T)
        stages.append(row)
        print(json.dumps(row), flush=True)
    full = full_run(FULL_T)
    print(json.dumps(full), flush=True)

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
        "stages_one_worker": stages,
        "full_sweep_all_workers": full,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
