"""walkmeg benchmark: end-to-end op timings, or a traced run with per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload brute|landscape|single \
        --seed N --seconds S --trace 0|1

The client is a closed loop in one process: it sends the next op only
after the previous one returned; the only parallelism is walkmeg's own
process pool. walkmeg is imported from ./src of the checkout.

--trace 0 times ops for S seconds with tracing off and reports setup_s,
op_ref_s_p50, op_ref_s_tail and peak_rss_mib: the op costs are CPU
seconds rescaled to a reference host speed, measured by a calibration
loop run between ops. Op wall and raw CPU times are printed and recorded
beside them. --trace 1 runs a fixed list of
ops (workloads.traced_ops) three ways each: untraced, traced, and untraced with
WALKMEG_THREADS=1, and reports the per-layer metrics of spans.py.
Outputs are checked outside the timed interval; an op that raises, exits
non-zero or fails its check counts in `failed`. The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}. Machine
facts and the full result go to the lines above it and to
.perfbench/<workload>-seed<N>-trace<T>.json; a traced run also writes its
spans to .perfbench/<workload>-seed<N>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 7
MIN_OPS = 4  # enough to reach the repeated op (workloads.REPEAT_AT)
MAX_OPS = 1000

END_TO_END_UNITS = {"setup_s": "s", "op_ref_s_p50": "s", "op_ref_s_tail": "s",
                    "peak_rss_mib": "MiB"}

# CPU seconds of calibrate() on an uncontended host (the 2-vCPU VM of
# perfbench/BASELINE.md); op CPU times are rescaled to that speed.
CALIBRATION_REFERENCE_S = 0.04


def load_walkmeg():
    """Import walkmeg from the checkout's src/, or exit 2 when it is missing.

    The sibling modules workloads and spans import walkmeg, so they are
    imported only after this has run.
    """
    src = ROOT / "src"
    if not (src / "walkmeg" / "__init__.py").is_file():
        print(f"error: no walkmeg sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import walkmeg

    if Path(walkmeg.__file__).resolve().parent != (src / "walkmeg").resolve():
        print(f"error: imported walkmeg from {walkmeg.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return walkmeg


def warm_up() -> None:
    """Fixed set-up work: lazy imports, the first pool fork, first CLI tables."""
    import workloads

    for argv in (["search", "brute", "--T", "14"], ["simulate", "--T", "3"]):
        code, _ = workloads.run_cli(argv)
        if code != 0:
            raise RuntimeError(f"warm-up {' '.join(argv)} exited {code}")


def probe() -> int:
    """Child side of a set-up measurement: set up, then print the ready time."""
    load_walkmeg()
    warm_up()
    # CLOCK_MONOTONIC is shared by all processes on Linux
    print(f"ready {time.monotonic()!r}", flush=True)
    return 0


def measure_setup() -> list[float]:
    """Launch-to-ready seconds of SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                             cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
                             check=True).stdout.split()
        if len(out) != 2 or out[0] != "ready":
            raise RuntimeError(f"set-up probe printed {out!r}")
        times.append(float(out[1]) - start)
    return times


def calibration_loop() -> float:
    """CPU seconds this process takes for a fixed loop that does not use walkmeg.

    The loop mixes what walkmeg's ops spend their time on: interpreted
    Python, calls on small complex matrices, batched 4x4 products and
    FFTs of medium arrays.
    """
    import numpy

    rng = numpy.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    hermitian = m + m.conj().T
    vector = rng.standard_normal(512) + 0j
    batch = rng.standard_normal((512, 4, 4)) + 1j * rng.standard_normal((512, 4, 4))
    signals = rng.standard_normal((64, 1024)) + 0j
    start = time.process_time()
    for i in range(400):
        numpy.linalg.eigvalsh(hermitian)
        vector = numpy.roll(vector, 1) * 0.5 + vector * 0.5
        sum(j * j for j in range(100))
        if i % 20 == 0:
            product = batch @ batch
            numpy.fft.fft(signals, axis=1)
            numpy.einsum("nij,nkj->nik", product, batch.conj())
    return time.process_time() - start


def calibrate() -> float:
    """Mean CPU seconds of calibration_loop() over every CPU this process may use.

    On a shared host the speed of each CPU changes with what the
    neighbours run, and an op's pool workers use all of them; the loop
    slows down with them, so op CPU time ÷ calibrate() does not. The
    process runs the loop pinned to each CPU in turn, then gets its
    CPU set back.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibration_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, as (label, value).

    Nearest rank: the k-th smallest of n samples has n - k above it, so
    k = n - 10 and the label is p<floor(100 k / n)>. With n <= 10 no
    percentile qualifies and the minimum is reported, labelled "min".
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return "min", ordered[0]
    k = n - 10
    return f"p{100 * k // n}", ordered[k - 1]


def peak_rss_mib() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def cpu_seconds() -> float:
    """User + system seconds of this process and its waited-for children.

    Pool workers are waited for when their pool closes, so an op's pool
    work is counted by the time the op returns. Time the host steals from
    the VM and time spent waiting for a CPU are not counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def machine_facts(walkmeg) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "worker_count": walkmeg.worker_count(),
        "WALKMEG_THREADS": os.environ.get("WALKMEG_THREADS"),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "walkmeg": walkmeg.__version__,
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def evaluate(index: int, op, results, error, seed: int, first_output: str | None) -> list[str]:
    """Failure reasons of op `index` of a timed run; empty when it passed.

    first_output is the output of op 0, which is repeated at
    workloads.REPEAT_AT and must come back byte-identical.
    """
    import workloads

    problems = workloads.check_op(op, results, error, random.Random(f"{seed}:{index}"))
    if index == workloads.REPEAT_AT and workloads.output_bytes(results) != first_output:
        problems.append("repeat of op 0 is not byte-identical")
    return problems


def timed_run(workload: str, seed: int, seconds: float):
    """Closed loop for `seconds` of op time, tracing off.

    Each op is checked right after it returns, outside its timing and
    outside the time budget, and only op 0's output is kept, so the
    benchmark's own memory does not grow with the op count. The set-up
    probes run after the ops, so their memory stays out of peak_rss_mib.
    Returns (metrics, notes, attempted, failed).
    """
    import workloads

    durations, cpu_times, calibrations, failures = [], [], [], []
    first_output = None
    calibrate()  # the first call also pays for numpy's lazy set-up
    before = calibrate()
    for i, op in enumerate(workloads.timed_ops(workload, seed, MAX_OPS)):
        if i >= MIN_OPS and sum(durations) + statistics.median(durations) > seconds:
            break
        t0, cpu0 = perf_counter(), cpu_seconds()
        results, error = workloads.execute(op)
        durations.append(perf_counter() - t0)
        cpu_times.append(cpu_seconds() - cpu0)
        after = calibrate()
        calibrations.append((before + after) / 2.0)
        before = after
        if i == 0:
            first_output = workloads.output_bytes(results)
        failures.append((op, evaluate(i, op, results, error, seed, first_output)))
    rss = peak_rss_mib()
    setup = measure_setup()

    ref_times = [cpu * CALIBRATION_REFERENCE_S / calibration
                 for cpu, calibration in zip(cpu_times, calibrations)]
    label, ref_tail = tail(ref_times)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ref_s_p50": statistics.median(ref_times),
        "op_ref_s_tail": ref_tail,
        "peak_rss_mib": rss,
    }
    failed = sum(1 for _, problems in failures if problems)
    notes = {
        "ops": len(durations),
        "tail_percentile": label,
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail(durations)[1],
        "op_cpu_s_p50": statistics.median(cpu_times),
        "calibration_s_p50": statistics.median(calibrations),
        "setup_samples_s": setup,
        "op_seconds": durations,
        "op_cpu_seconds": cpu_times,
        "calibration_seconds": calibrations,
        "error_rate": failed / len(durations),
        "failures": [{"op": i, "steps": op.describe(), "problems": problems}
                     for i, (op, problems) in enumerate(failures) if problems],
    }
    return metrics, notes, len(durations), failed


def traced_run(workload: str, seed: int):
    """Fixed op count, each op untraced, traced and serial. Returns as timed_run."""
    import walkmeg
    import workloads
    from spans import Tracer, layer_metrics

    ops = workloads.traced_ops(workload, seed)
    tracer = Tracer()
    untraced, traced, serial, failures = [], [], [], []
    cpu = 0.0

    def timed(op):
        t0 = perf_counter()
        results, error = workloads.execute(op)
        return results, error, perf_counter() - t0

    def timed_traced(op, i):
        nonlocal cpu
        cpu0 = cpu_seconds()
        with tracer.tracing(i):
            out = timed(op)
        cpu += cpu_seconds() - cpu0
        return out

    for i, op in enumerate(ops):
        # alternate which of the two goes first, so drift favours neither
        if i % 2 == 0:
            plain = timed(op)
            with_spans = timed_traced(op, i)
        else:
            with_spans = timed_traced(op, i)
            plain = timed(op)
        previous = os.environ.get("WALKMEG_THREADS")
        os.environ["WALKMEG_THREADS"] = "1"
        try:
            one_worker = timed(op)
        finally:
            if previous is None:
                del os.environ["WALKMEG_THREADS"]
            else:
                os.environ["WALKMEG_THREADS"] = previous
        untraced.append(plain[2])
        traced.append(with_spans[2])
        serial.append(one_worker[2])

        problems = workloads.check_op(op, plain[0], plain[1], random.Random(f"{seed}:{i}"))
        reference = workloads.output_bytes(plain[0])
        for side, (results, error, _) in (("traced", with_spans), ("serial", one_worker)):
            if error is not None:
                problems.append(f"{side} run raised {error}")
            elif workloads.output_bytes(results) != reference:
                problems.append(f"{side} output is not byte-identical to the untraced one")
        failures.append(problems)

    metrics = layer_metrics(tracer, len(ops))
    plain_p50 = statistics.median(untraced)
    metrics["search.serial_op_s"] = statistics.median(serial)
    metrics["search.parallel_eff"] = metrics["search.serial_op_s"] / (
        walkmeg.worker_count() * plain_p50)
    metrics["proc.cpu_s_per_op"] = cpu / len(ops)
    metrics["proc.op_wall_s_p50"] = plain_p50
    metrics["proc.trace_overhead"] = statistics.median(traced) / plain_p50 - 1.0

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload}-seed{seed}.spans.jsonl", "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")

    failed = sum(1 for f in failures if f)
    notes = {
        "ops": len(ops),
        "untraced_op_seconds": untraced,
        "traced_op_seconds": traced,
        "serial_op_seconds": serial,
        "spans": len(tracer.spans),
        "error_rate": failed / len(ops),
        "failures": [{"op": i, "steps": ops[i].describe(), "problems": f}
                     for i, f in enumerate(failures) if f],
    }
    return metrics, notes, len(ops), failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("brute", "landscape", "single"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    walkmeg = load_walkmeg()
    facts = machine_facts(walkmeg)
    warm_up()

    if args.trace:
        metrics, notes, attempted, failed = traced_run(args.workload, args.seed)
        from spans import PER_LAYER_UNITS as units
    else:
        metrics, notes, attempted, failed = timed_run(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS

    print(f"walkmeg benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.workload == "landscape":
        print("seed: unused by landscape, whose inputs are fixed by the CLI grid")
    print("machine: " + json.dumps(facts))
    print(f"ops: {attempted} attempted, {failed} failed, error_rate = {failed / attempted:g}")
    for failure in notes["failures"]:
        print(f"failed op {failure['op']} ({failure['steps']}): {'; '.join(failure['problems'])}")
    if not args.trace:
        print(f"op_ref_s_tail is {notes['tail_percentile']} of {notes['ops']} ops"
              + (" (fewer than 11 ops, so no percentile has ten beyond it)"
                 if notes["tail_percentile"] == "min" else ""))
        print(f"not gated: op wall time p50 = {notes['op_s_p50']:.6g} s, "
              f"{notes['tail_percentile']} = {notes['op_s_tail']:.6g} s; "
              f"op CPU time p50 = {notes['op_cpu_s_p50']:.6g} s; calibration p50 = "
              f"{notes['calibration_s_p50']:.6g} s (reference {CALIBRATION_REFERENCE_S} s)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "attempted": attempted,
              "failed": failed, "metrics": metrics, "notes": notes}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(probe() if sys.argv[1:] == ["--setup-probe"] else main())
