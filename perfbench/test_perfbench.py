"""Tests of the benchmark's own logic.

Run from the repository root with:  python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    assert workloads.timed_ops(workload, 7, 40) == workloads.timed_ops(workload, 7, 40)
    assert workloads.generate(workload, 7, 40) == workloads.generate(workload, 7, 40)


def test_seed_changes_ops_except_landscape():
    for workload in ("brute", "single"):
        assert workloads.generate(workload, 1, 20) != workloads.generate(workload, 2, 20)
    assert workloads.generate("landscape", 1, 5) == workloads.generate("landscape", 2, 5)


def test_op_lists_keep_their_promises():
    brute = workloads.timed_ops("brute", 3, 40)
    sets = [op.steps[0].args[-1] for op in brute]
    assert all("H,I" in sets[i:i + 4] for i in range(len(sets) - 3))
    assert brute[workloads.REPEAT_AT] == brute[0]
    single = workloads.generate("single", 3, 10)
    bloch_T = [int(op.steps[2].args[2]) for op in single]
    assert sorted(bloch_T[:5]) == sorted(bloch_T[5:]) == list(workloads.SINGLE_BLOCH_T)


def test_traced_counts_do_not_depend_on_the_seed():
    brute = workloads.traced_ops("brute", 1)
    assert brute == workloads.traced_ops("brute", 2)
    assert [op.steps[0].args[-1] for op in brute] == list(workloads.TRACED_BRUTE_SETS)

    counts = []
    for seed in (1, 2):
        ops = workloads.traced_ops("single", seed)
        tracer = spans.Tracer()
        for i, op in enumerate(ops):
            with tracer.tracing(i):
                assert workloads.execute(op)[1] is None
        metrics = spans.layer_metrics(tracer, len(ops))
        counts.append({name: metrics[name] for name, unit in spans.PER_LAYER_UNITS.items()
                       if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["walk.step.calls"] > 0


@pytest.mark.parametrize(
    "n, label, value",
    [(1, "min", 1), (10, "min", 1), (11, "p9", 1), (20, "p50", 10), (30, "p66", 20), (100, "p90", 90)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, label, value):
    values = list(range(n, 0, -1))  # order must not matter
    assert run.tail(values) == (label, value)
    if n > 10:
        assert sum(v > value for v in values) == 10


def test_self_time_subtracts_covered_child_intervals():
    tracer_spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
        ["c", 3.0, 6.0, 0, 0],  # overlaps b: the union [1, 6] is covered once
        ["e", 20.0, 21.0, -1, 1],
    ]
    assert spans.self_times(tracer_spans) == pytest.approx([5.0, 2.0, 1.0, 3.0, 1.0])
    totals = spans.layer_totals(tracer_spans)
    assert totals["a"] == (1, 10.0, pytest.approx(5.0))


def test_tracer_wraps_every_import_name_and_restores_them():
    import walkmeg.cli
    import walkmeg.search

    original = walkmeg.search.enumerate_fidelities
    tracer = spans.Tracer()
    with tracer.tracing(0):
        assert walkmeg.cli.enumerate_fidelities is walkmeg.search.enumerate_fidelities
        assert walkmeg.cli.enumerate_fidelities is not original
        code, text = workloads.run_cli(["search", "brute", "--T", "4", "--set", "H,I"])
    assert code == 0 and "count_optimal" in text
    assert walkmeg.cli.enumerate_fidelities is original is walkmeg.search.enumerate_fidelities
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    assert names.count("search.enumerate_fidelities") == 1
    assert tracer.units["search.enumerate_fidelities"] == 16
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["search.enumerate_fidelities.calls"] == 1
    assert metrics["results.bytes"] == len(text)


def test_wrong_output_is_a_failed_op():
    op = workloads.generate("brute", 0, 1)[0]
    assert op.steps[0].args[-1] == "H,I"
    results, error = workloads.execute(op)
    assert error is None
    code, text = results[0]
    assert "# count_optimal=620\n" in text
    wrong = [(code, text.replace("# count_optimal=620\n", "# count_optimal=619\n"))]

    first = workloads.output_bytes(results)
    repeat = workloads.REPEAT_AT
    assert run.evaluate(0, op, results, None, 0, None) == []
    assert run.evaluate(repeat, op, results, None, 0, first) == []
    assert any("count_optimal=619" in p for p in run.evaluate(1, op, wrong, None, 0, first))
    assert run.evaluate(2, op, [], "RuntimeError: boom", 0, first) == ["raised RuntimeError: boom"]
    assert "repeat of op 0 is not byte-identical" in run.evaluate(repeat, op, wrong, None, 0, first)


def test_benchmark_json_names_the_metrics_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_calibration_gives_back_the_cpu_set():
    cpus = run.os.sched_getaffinity(0)
    assert run.calibrate() > 0
    assert run.os.sched_getaffinity(0) == cpus
