"""Command-line surface: subcommands, exit codes, determinism, replay."""

import shlex
import subprocess
import sys

import numpy as np
import pytest

from walkmeg import cli
from walkmeg.cli import main
from walkmeg.results import parse_table


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
    assert run_cli(capsys, "verify", "--max-T", "40")[0] == 2


def test_exit_code_resource_guard(capsys):
    assert run_cli(capsys, "search", "brute", "--T", "30")[0] == 3
    assert run_cli(capsys, "search", "landscape", "--T", "13")[0] == 3


def test_resource_guard_message_and_brute_best(capsys):
    assert main(["search", "brute", "--T", "30"]) == 3
    assert capsys.readouterr().err == "error: brute force supports 1 <= T <= 24, got 30\n"
    assert main(["simulate", "--T", "30", "--set", "H,X", "--bits", "brute-best"]) == 3


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1"])
@pytest.mark.parametrize("argv", [["search", "brute", "--T", "3"], ["verify", "--max-T", "3"]])
def test_tolerance_outside_the_unit_interval_is_a_usage_error(argv, tol, capsys):
    assert main(argv + ["--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --tol must be a number in (0, 1)")


@pytest.mark.parametrize("argv", [
    ["simulate", "--T", "3", "--set", "H", "--bits", "xyz"],
    ["simulate", "--T", "3", "--set", "H", "--bits", "0101"],
    ["fidelity-curve", "--T-range", "2:3", "--set", "H", "--bits", "01010"],
])
def test_single_coin_set_checks_a_literal_bit_string(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


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


def test_resource_limits_admit_documented_runs():
    assert cli.SIMULATE_MAX_T >= 200
    assert cli.ANNEAL_MAX_T >= 12
    assert cli.BLOCH_MAX_SAMPLES >= 296
    assert cli.LANDSCAPE_MAX_GRID >= 17
    assert cli.FIDELITY_CURVE_MAX_T >= 12


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


def test_json_format(capsys):
    code, out = run_cli(capsys, "simulate", "--T", "2", "--set", "H,I", "--bits", "00",
                        "--format", "json")
    assert code == 0
    table = parse_table(out)
    assert table.metadata["bits"] == "00"
    assert len(table.rows) == 2


def test_replay_property(capsys):
    commands = [
        ("simulate", "--T", "3", "--set", "H,I", "--bits", "001", "--init", "+"),
        ("search", "anneal", "--T", "3", "--seed", "5", "--set", "H,I"),
        ("bloch", "--T", "3", "--set", "H,I", "--bits", "table", "--n", "8"),
        ("verify", "--max-T", "4"),
    ]
    for args in commands:
        code, out = run_cli(capsys, *args)
        assert code == 0
        echoed = parse_table(out).metadata["command"]
        code2, out2 = run_cli(capsys, *shlex.split(echoed))
        assert code2 == 0
        assert out2 == out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "walkmeg.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("walkmeg ")


def test_angle_set_spec(capsys):
    code, out = run_cli(capsys, "search", "brute", "--T", "3",
                        "--set", "g:0.0,0.7853981633974483")
    assert code == 0
    table = parse_table(out)
    assert table.metadata["count_optimal"] == 4