"""Time the rows of ROADMAP.md's baseline table once more, on this checkout.

Run from the repository root:  python3 perfbench/baseline.py

Each row is the median wall time of REPEATS runs in this process,
after the same warm-up as the benchmark; the CLI rows are also timed as
fresh `python3 -m walkmeg.cli` processes. Prints one line per row and
writes .perfbench/baseline.json with the machine facts. The stage
timings and the per-proposal anneal cost in that table need spans inside
walkmeg and are not measured here.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import run

REPEATS = 3


def main() -> int:
    walkmeg = run.load_walkmeg()
    import workloads

    run.warm_up()
    hi = (walkmeg.HADAMARD, walkmeg.IDENTITY)
    seq12 = walkmeg.CoinSequence(*hi, "001011101101")
    grid = [float(g) for g in np.linspace(0.0, math.pi / 2.0, 17)]  # the CLI's grid

    def cli(*argv):
        def call():
            code, _ = workloads.run_cli(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
        return call

    def process(*argv):
        env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))

        def call():
            subprocess.run([sys.executable, "-m", "walkmeg.cli", *argv], cwd=run.ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=True)
        return call

    rows = [
        ("enumerate_fidelities {H,1}, 1 worker, T=12", 0.15,
         lambda: walkmeg.enumerate_fidelities(*hi, 12, workers=1)),
        ("enumerate_fidelities {H,1}, 1 worker, T=16", 1.14,
         lambda: walkmeg.enumerate_fidelities(*hi, 16, workers=1)),
        ("enumerate_fidelities {H,1}, 1 worker, T=18", 5.38,
         lambda: walkmeg.enumerate_fidelities(*hi, 18, workers=1)),
        ("enumerate_fidelities {H,1}, 1 worker, T=20", 20.7,
         lambda: walkmeg.enumerate_fidelities(*hi, 20, workers=1)),
        ("landscape_scan(5, 17-point grid), default workers", 5.08,
         lambda: walkmeg.landscape_scan(5, grid)),
        ("landscape_scan(5, 17-point grid), workers=1", 0.21,
         lambda: walkmeg.landscape_scan(5, grid, workers=1)),
        ("CLI search anneal --T 8 --seed 3, in process", 10.5,
         cli("search", "anneal", "--T", "8", "--seed", "3")),
        ("sequence_fidelity, T=12, per call", 2.87e-3, lambda: walkmeg.sequence_fidelity(seq12)),
        ("ensemble_entropies, 296 states, T=10", 0.18,
         lambda: walkmeg.ensemble_entropies(walkmeg.CoinSequence(*hi, "0010111111"))),
    ]
    # ROADMAP does not say whether its CLI times include process start, so both
    for name, roadmap_s, argv in (
        ("CLI search brute --T 16", 1.23, ("search", "brute", "--T", "16")),
        ("CLI fidelity-curve --T-range 2:12 --set H,X", 0.74,
         ("fidelity-curve", "--T-range", "2:12", "--set", "H,X")),
        ("CLI verify --max-T 12", 1.18, ("verify", "--max-T", "12")),
        ("CLI simulate --T 200", 0.30, ("simulate", "--T", "200")),
    ):
        rows.append((f"{name}, in process", roadmap_s, cli(*argv)))
        rows.append((f"{name}, fresh process", roadmap_s, process(*argv)))
    results = []
    for name, roadmap_s, call in rows:
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            call()
            times.append(perf_counter() - t0)
        median = statistics.median(times)
        change = median / roadmap_s - 1.0
        flag = "  (differs by more than 20%)" if abs(change) > 0.20 else ""
        print(f"{name}: {median:.4g} s, ROADMAP {roadmap_s:g} s, {change:+.0%}{flag}", flush=True)
        results.append({"row": name, "seconds": times, "median_s": median,
                        "roadmap_s": roadmap_s, "change": change})

    run.OUT_DIR.mkdir(exist_ok=True)
    (run.OUT_DIR / "baseline.json").write_text(json.dumps(
        {"machine": run.machine_facts(walkmeg), "repeats": REPEATS, "rows": results},
        indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
