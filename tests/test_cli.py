"""Command-line surface: subcommands, exit codes, determinism, replay."""

import csv
import functools
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from walkmeg import cli
from walkmeg.cli import main
from walkmeg.results import parse_table
from walkmeg.search import landscape_scan


def run_cli(capsys, *args: str) -> tuple[int, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def test_simulate_single_identity_step(capsys):
    code, out = run_cli(capsys, "simulate", "--T", "1", "--set", "H,I",
                        "--bits", "1", "--init", "H")
    assert code == 0
    table = parse_table(out)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["t"] == 1
    assert row["P(1)"] == pytest.approx(1.0, abs=1e-12)
    assert row["P(-1)"] == pytest.approx(0.0, abs=1e-15)


def test_simulate_three_step_oracle_row(capsys):
    code, out = run_cli(capsys, "simulate", "--T", "3", "--set", "H,I",
                        "--bits", "001", "--init", "H")
    assert code == 0
    table = parse_table(out)
    assert len(table.rows) == 3
    last = dict(zip(table.columns, table.rows[-1]))
    for x in (-3, -1, 1, 3):
        assert last[f"P({x})"] == pytest.approx(0.25, abs=1e-12)
    assert last["m"] == pytest.approx(5.0, abs=1e-12)
    assert last["S_E"] == pytest.approx(1.0, abs=1e-9)
    assert last["S_S"] == pytest.approx(1.0, abs=1e-9)


def test_simulate_table_sequence_reaches_maximal_entanglement(capsys):
    code, out = run_cli(capsys, "simulate", "--T", "10", "--set", "H,I",
                        "--bits", "table", "--init", "H")
    assert code == 0
    table = parse_table(out)
    assert len(table.rows) == 10
    assert table.metadata["bits"] == "0010111111"
    last = dict(zip(table.columns, table.rows[-1]))
    assert last["S_E"] == pytest.approx(1.0, abs=1e-9)


def test_fidelity_curve_table_values(capsys):
    code, out = run_cli(capsys, "fidelity-curve", "--T-range", "2:10",
                        "--set", "H,I", "--bits", "table")
    assert code == 0
    table = parse_table(out)
    fidelities = [row[3] for row in table.rows]
    assert fidelities[0] < 1.0 - 1e-6  # no optimal string exists at T = 2
    assert all(f == pytest.approx(1.0, abs=1e-9) for f in fidelities[1:])


def test_fidelity_curve_hadamard_only(capsys):
    code, out = run_cli(capsys, "fidelity-curve", "--T-range", "2:12", "--set", "H")
    assert code == 0
    table = parse_table(out)
    values = [row[3] for row in table.rows]
    assert all(v < 0.8 for v in values)
    assert all(row[2] == "0" * row[0] for row in table.rows)


def test_search_brute_metadata(capsys):
    code, out = run_cli(capsys, "search", "brute", "--T", "5", "--set", "H,I")
    assert code == 0
    table = parse_table(out)
    assert table.metadata["count_optimal"] == 8
    assert table.metadata["evaluations"] == 32
    assert table.metadata["count_1e-06"] == 8
    assert table.metadata["count_1e-09"] == 8
    assert table.metadata["count_1e-12"] == 8
    assert len(table.rows) == 8
    assert table.rows[0][0] == "00111"


def test_search_anneal_deterministic(capsys):
    code_a, out_a = run_cli(capsys, "search", "anneal", "--T", "3", "--seed", "7",
                            "--set", "H,I")
    code_b, out_b = run_cli(capsys, "search", "anneal", "--T", "3", "--seed", "7",
                            "--set", "H,I")
    assert code_a == code_b == 0
    assert out_a == out_b
    table = parse_table(out_a)
    assert table.rows[0][2] == pytest.approx(1.0, abs=1e-6)


def test_search_landscape_grid(capsys):
    code, out = run_cli(capsys, "search", "landscape", "--T", "3", "--grid", "5")
    assert code == 0
    table = parse_table(out)
    assert len(table.rows) == 25
    best = max(row[2] for row in table.rows)
    assert best == pytest.approx(1.0, abs=1e-9)


def test_verify_sweep_all_agree(capsys):
    code, out = run_cli(capsys, "verify", "--max-T", "6")
    assert code == 0
    table = parse_table(out)
    assert table.metadata["disagreements"] == 0
    assert all(row[3] == "true" for row in table.rows)


def test_verify_agrees_up_to_its_limit(capsys):
    code, out = run_cli(capsys, "verify", "--max-T", str(cli.VERIFY_MAX_T))
    assert code == 0
    table = parse_table(out)
    assert table.metadata["disagreements"] == 0
    n = cli.VERIFY_MAX_T
    assert len(table.rows) == n * (n + 1) // 2 + n * (n - 1) * (n + 1) // 6  # one or two 0s


def test_verify_single_patterns(capsys):
    code, out = run_cli(capsys, "verify", "--pattern", "1,0")
    assert code == 0
    table = parse_table(out)
    assert table.rows[0][:2] == ("1,0", "false")
    assert table.rows[0][2] < 1.0 - 1e-6

    code, out = run_cli(capsys, "verify", "--pattern", "0,0,1")
    assert code == 0
    table = parse_table(out)
    assert table.rows[0][:2] == ("0,0,1", "true")
    assert table.rows[0][2] == pytest.approx(1.0, abs=1e-9)


def _data_rows(out: str) -> list[list[str]]:
    """The CSV cells of a table's rows, as printed."""
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    return list(csv.reader(lines[1:]))


def test_verify_pattern_prints_the_sweep_row(capsys):
    # a fidelity depends on its string alone, not on the strings scored with it
    code, out = run_cli(capsys, "verify", "--max-T", "12")
    assert code == 0
    sweep = {row[0]: row for row in _data_rows(out)}
    patterns = [p for p in sweep if sum(map(int, p.split(","))) + p.count(",") in (6, 12)]
    assert len(patterns) == 21 + 78
    for pattern in patterns:
        code, out = run_cli(capsys, "verify", "--pattern", pattern)
        assert code == 0
        assert _data_rows(out) == [sweep[pattern]], pattern


def test_verify_disagreement_exits_four(capsys):
    # an impossible tolerance forces the measured side to disagree
    code, out = run_cli(capsys, "verify", "--pattern", "0,0,1", "--tol", "1e-18")
    assert code == 4
    table = parse_table(out)
    assert table.metadata["disagreements"] == 1


def test_bloch_optimal_collapses_to_origin(capsys):
    code, out = run_cli(capsys, "bloch", "--T", "10", "--set", "H,I",
                        "--bits", "table", "--n", "64")
    assert code == 0
    table = parse_table(out)
    assert len(table.rows) == 64
    assert table.metadata["max_output_norm"] < 1e-9


def test_bloch_fourier_reference_is_spread_out(capsys):
    code, out = run_cli(capsys, "bloch", "--T", "4", "--set", "H,F",
                        "--bits", "table", "--n", "64")
    assert code == 0
    table = parse_table(out)
    assert table.metadata["max_output_norm"] > 0.1


def test_bloch_zero_steps_is_identity(capsys):
    code, out = run_cli(capsys, "bloch", "--T", "0", "--n", "16")
    assert code == 0
    table = parse_table(out)
    for row in table.rows:
        assert row[:3] == row[3:]


def test_exit_code_usage_errors(capsys):
    assert run_cli(capsys, "simulate", "--T", "3", "--set", "Q,R")[0] == 2
    assert run_cli(capsys, "simulate", "--T", "0")[0] == 2
    assert run_cli(capsys, "simulate", "--T", "3", "--bits", "01")[0] == 2
    assert run_cli(capsys, "fidelity-curve", "--T-range", "5")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert main(["verify", "--max-T", "0"]) == 2
    assert capsys.readouterr().err == "error: --max-T must be >= 1, got 0\n"
    for spec in ("H,", ",,H", "H,,I"):  # an empty name is refused, not dropped
        assert main(["search", "brute", "--T", "4", "--set", spec]) == 2
        assert capsys.readouterr().err == f"error: coin set names must not be empty, got {spec!r}\n"


def test_exit_code_resource_guard(capsys):
    assert run_cli(capsys, "search", "brute", "--T", "30")[0] == 3
    assert run_cli(capsys, "search", "landscape", "--T", "13")[0] == 3


def test_resource_guard_message_and_brute_best(capsys):
    assert main(["search", "brute", "--T", "30"]) == 3
    assert capsys.readouterr().err == "error: brute force supports 1 <= T <= 24, got 30\n"
    assert main(["simulate", "--T", "30", "--set", "H,X", "--bits", "brute-best"]) == 3


# one small run of each subcommand and search mode
EVERY_SUBCOMMAND = [
    ["search", "brute", "--T", "3"],
    ["verify", "--max-T", "3"],
    ["simulate", "--T", "3"],
    ["fidelity-curve", "--T-range", "2:3"],
    ["bloch", "--T", "3", "--n", "4"],
    ["search", "anneal", "--T", "3", "--set", "H,I"],
    ["search", "landscape", "--T", "2", "--grid", "2"],
]


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1"])
@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND)
def test_tolerance_outside_the_unit_interval_is_a_usage_error(argv, tol, capsys):
    assert main(argv + ["--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --tol must be a number in (0, 1)")


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND)
def test_negative_seed_is_a_usage_error(argv, capsys):
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be a non-negative integer, got '-1'\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--T", "3", "--set", "H,I\n", "--bits", "001"],
    ["verify", "--pattern", "1,0\n"],
    ["search", "brute", "--T", "3", "--seed", "1\r2"],
    ["bloch", "--T", "3", "--n", "4", "--out", "a\u2028b"],
])
def test_line_break_in_an_echoed_value_is_a_usage_error(argv, capsys):
    # the value would split the one-line '# command=' metadata
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "must not contain a line break" in captured.err


@pytest.mark.parametrize("angle, accepted", [
    (-1e-9, False),
    (0.0, True),
    (1.5707963267949, True),  # pi/2 rounded up, within the 1e-12 slack
    (math.pi / 2.0 + 1e-11, False),
])
def test_coin_angle_range_is_shared_by_set_and_landscape(angle, accepted, capsys):
    code = main(["search", "brute", "--T", "2", "--set", f"g:0.5,{angle!r}"])
    captured = capsys.readouterr()
    if accepted:
        assert code == 0
        assert len(landscape_scan(1, [0.5, angle])) == 4
    else:
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: coin angles must lie in [0, pi/2], got {angle!r}\n"
        with pytest.raises(ValueError, match=r"grid angles must lie in \[0, pi/2\]"):
            landscape_scan(1, [0.5, angle])


def test_optimal_set_beyond_the_row_limit_is_refused(capsys, monkeypatch):
    import walkmeg.search as search

    # {H, 1} at T=7 has 24 optimal strings at the default tolerance
    monkeypatch.setattr(search, "BRUTE_LIST_MAX_ROWS", 23)
    assert main(["search", "brute", "--T", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: brute force lists at most 23 optimal strings, got 24 at tolerance 1e-09\n"
    )
    monkeypatch.setattr(search, "BRUTE_LIST_MAX_ROWS", 24)
    code, out = run_cli(capsys, "search", "brute", "--T", "7")
    assert code == 0
    assert parse_table(out).metadata["count_optimal"] == 24


@pytest.mark.parametrize("argv", [
    ["simulate", "--T", "3", "--set", "H", "--bits", "xyz"],
    ["simulate", "--T", "3", "--set", "H", "--bits", "0101"],
    ["fidelity-curve", "--T-range", "2:3", "--set", "H", "--bits", "01010"],
    ["bloch", "--T", "0", "--bits", "xyz"],
    ["bloch", "--T", "0", "--bits", "01"],
])
def test_single_coin_set_checks_a_literal_bit_string(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


# an option the mode would ignore is refused rather than echoed but unused
@pytest.mark.parametrize("argv", [
    # the scan sweeps the coin angles itself
    ["search", "landscape", "--T", "2", "--grid", "2", "--set", "H,I"],
    ["search", "brute", "--T", "3", "--grid", "3"],
    ["search", "anneal", "--T", "3", "--set", "H,I", "--grid", "3"],
    ["verify", "--pattern", "3,2", "--max-T", "5"],
], ids=["landscape-set", "brute-grid", "anneal-grid", "verify-pattern-max-T"])
def test_an_option_the_mode_ignores_is_refused(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    # a directory cannot be opened for writing
    assert main(["search", "brute", "--T", "3", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {tmp_path}: ")
    assert list(tmp_path.iterdir()) == []


def test_single_coin_set_walks_the_first_coin(capsys):
    for bits in ("101", "table", "brute-best"):
        code, out = run_cli(capsys, "simulate", "--T", "3", "--set", "H", "--bits", bits)
        assert code == 0
        assert parse_table(out).metadata["bits"] == "000"


# one oversized request per guard: (argv, what the error names, limit, request)
GUARDED = {
    "simulate": (["simulate", "--T", str(cli.SIMULATE_MAX_T + 1)],
                 "simulate --T", cli.SIMULATE_MAX_T, cli.SIMULATE_MAX_T + 1),
    "anneal": (["search", "anneal", "--T", "2000", "--set", "H,I"],
               "search anneal --T", cli.ANNEAL_MAX_T, 2000),
    "ensemble": (["bloch", "--T", "0", "--ensemble", str(cli.BLOCH_MAX_SAMPLES + 1)],
                 "bloch --ensemble", cli.BLOCH_MAX_SAMPLES, cli.BLOCH_MAX_SAMPLES + 1),
    "grid": (["search", "landscape", "--T", "3", "--grid", str(cli.LANDSCAPE_MAX_GRID + 1)],
             "search landscape --grid", cli.LANDSCAPE_MAX_GRID, cli.LANDSCAPE_MAX_GRID + 1),
    "T-range": (["fidelity-curve", "--T-range", f"2:{cli.FIDELITY_CURVE_MAX_T + 1}"],
                "fidelity-curve --T-range", cli.FIDELITY_CURVE_MAX_T,
                cli.FIDELITY_CURVE_MAX_T + 1),
    "bloch T": (["bloch", "--T", str(cli.BLOCH_MAX_T + 1)],
                "bloch --T", cli.BLOCH_MAX_T, cli.BLOCH_MAX_T + 1),
    "max-T": (["verify", "--max-T", str(cli.VERIFY_MAX_T + 1)],
              "verify --max-T", cli.VERIFY_MAX_T, cli.VERIFY_MAX_T + 1),
    "pattern": (["verify", "--pattern", f"{cli.VERIFY_PATTERN_MAX_T},0"],
                "verify --pattern length", cli.VERIFY_PATTERN_MAX_T,
                cli.VERIFY_PATTERN_MAX_T + 1),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_resource_guard_refuses_oversized_input(name, capsys):
    argv, what, limit, request = GUARDED[name]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} is limited to {limit}, got {request}\n"


# one request per sized option below its minimum: (argv, flag, minimum, value)
UNDERSIZED = {
    "simulate T": (["simulate", "--T", "0"], "--T", 1, 0),
    "brute T": (["search", "brute", "--T", "0"], "--T", 1, 0),
    "grid": (["search", "landscape", "--T", "3", "--grid", "1"], "--grid", 2, 1),
    "max-T": (["verify", "--max-T", "0"], "--max-T", 1, 0),
    "bloch T": (["bloch", "--T", "-1"], "--T", 0, -1),
    "ensemble": (["bloch", "--T", "2", "--ensemble", "0"], "--ensemble", 1, 0),
}


@pytest.mark.parametrize("name", sorted(UNDERSIZED))
def test_sized_option_refuses_a_value_below_its_minimum(name, capsys):
    argv, flag, minimum, value = UNDERSIZED[name]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= {minimum}, got {value}\n"


def test_resource_limits_admit_documented_runs():
    assert cli.SIMULATE_MAX_T >= 200
    assert cli.ANNEAL_MAX_T >= 12
    assert cli.BLOCH_MAX_SAMPLES >= 296
    assert cli.BLOCH_MAX_T >= 12  # the benchmark's single workload runs bloch at T 8..12
    assert cli.LANDSCAPE_MAX_GRID >= 17
    assert cli.FIDELITY_CURVE_MAX_T >= 12
    assert cli.VERIFY_MAX_T >= 12  # the benchmark's single workload runs verify --max-T 12


def test_output_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, _ = run_cli(capsys, "fidelity-curve", "--T-range", "3:5", "--set", "H,I",
                      "--bits", "table", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert parse_table(text).metadata["command"].startswith("fidelity-curve")
    # --out is part of the echoed command; the table body matches stdout runs
    code2, out2 = run_cli(capsys, "fidelity-curve", "--T-range", "3:5", "--set", "H,I",
                          "--bits", "table")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    body2 = [line for line in out2.splitlines() if not line.startswith("#")]
    assert body == body2


def test_pure_coin_walk_csv_round_trips(capsys):
    # the entropies of a pure-coin walk are -0.0, printed as 0
    code, out = run_cli(capsys, "simulate", "--T", "2", "--set", "I")
    assert code == 0
    assert parse_table(out).to_csv() == out


def test_json_format(capsys):
    code, out = run_cli(capsys, "simulate", "--T", "2", "--set", "H,I", "--bits", "00",
                        "--format", "json")
    assert code == 0
    table = parse_table(out)
    assert table.metadata["bits"] == "00"
    assert len(table.rows) == 2


def test_thread_cap_below_one_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WALKMEG_THREADS", "0")
    assert main(["search", "brute", "--T", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: WALKMEG_THREADS must be an integer >= 1, got '0'\n"


# the README's headline commands, plus a single pattern, the identity self-test
# and a search without optimal rows
SAME_TABLE_IN_BOTH_FORMATS = [
    ("simulate", "--T", "10", "--set", "H,I", "--bits", "table", "--init", "+"),
    ("fidelity-curve", "--T-range", "2:12", "--set", "H,X"),
    ("search", "brute", "--T", "16", "--set", "H,I"),
    ("search", "anneal", "--T", "8", "--seed", "3"),
    ("search", "landscape", "--T", "5", "--grid", "17"),
    ("verify", "--max-T", "12"),
    ("bloch", "--T", "10", "--set", "H,I", "--bits", "table", "--n", "296"),
    ("verify", "--pattern", "3,2"),
    ("bloch", "--T", "0", "--n", "4"),
    ("search", "brute", "--T", "3"),
]


@pytest.mark.parametrize("args", SAME_TABLE_IN_BOTH_FORMATS, ids=" ".join)
def test_csv_and_json_carry_the_same_table(args, capsys, monkeypatch):
    # main runs in both formats; an anneal's result is computed once
    # (test_anneal_deterministic checks that a rerun gives the same result)
    monkeypatch.setattr(cli, "anneal", functools.cache(cli.anneal))
    code, csv_text = run_cli(capsys, *args)
    code_json, json_text = run_cli(capsys, *args, "--format", "json")
    assert code == code_json == 0
    from_csv, from_json = parse_table(csv_text), parse_table(json_text)
    assert from_csv.columns == from_json.columns
    assert from_csv.rows == from_json.rows
    # the echoed commands differ in their --format only
    echo = from_csv.metadata.pop("command")
    assert " --format csv" in echo
    assert from_json.metadata.pop("command") == echo.replace(" --format csv", " --format json")
    assert from_csv.metadata == from_json.metadata


def test_replay_property(capsys):
    commands = [
        ("simulate", "--T", "3", "--set", "H,I", "--bits", "001", "--init", "+"),
        ("search", "anneal", "--T", "3", "--seed", "5", "--set", "H,I"),
        ("bloch", "--T", "3", "--set", "H,I", "--bits", "table", "--n", "8"),
        ("verify", "--max-T", "4"),
        ("fidelity-curve", "--T-range", "2:5", "--set", "H,X"),
        ("search", "brute", "--T", "6", "--set", "g:0.4,1.1"),
        ("search", "landscape", "--T", "2"),
        ("verify", "--pattern", "3,2"),
        ("verify",),
        ("bloch", "--T", "0", "--n", "4"),
        ("simulate", "--T", "3", "--set", "H,X", "--bits", "brute-best", "--init", "1.0,2.0",
         "--format", "json"),
    ]
    echoes = {}
    for args in commands:
        code, out = run_cli(capsys, *args)
        assert code == 0
        echoed = echoes[args] = parse_table(out).metadata["command"]
        code2, out2 = run_cli(capsys, *shlex.split(echoed))
        assert code2 == 0
        assert out2 == out
    # a default that applies in one mode only is echoed there
    assert " --grid 17 " in echoes[("search", "landscape", "--T", "2")]
    assert echoes[("verify",)].startswith("verify --max-T 10 ")
    assert "--max-T" not in echoes[("verify", "--pattern", "3,2")]
    assert "--grid" not in echoes[("search", "brute", "--T", "6", "--set", "g:0.4,1.1")]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "walkmeg.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("walkmeg ")


def test_search_brute_does_not_depend_on_blas_threads(capsys):
    # BLAS may add threads of its own to the sweep's; a top set must not move with them
    args = ["search", "brute", "--T", "16", "--set", "g:0.4,1.1"]
    code, out = run_cli(capsys, *args)
    proc = subprocess.run(
        [sys.executable, "-m", "walkmeg.cli", *args],
        capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert code == proc.returncode == 0
    assert proc.stdout == out


def test_angle_set_spec(capsys):
    code, out = run_cli(capsys, "search", "brute", "--T", "3",
                        "--set", "g:0.0,0.7853981633974483")
    assert code == 0
    table = parse_table(out)
    assert table.metadata["count_optimal"] == 4