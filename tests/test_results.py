"""Deterministic table serialization."""

import math

import numpy as np
import pytest

from walkmeg.results import ResultTable, format_float, parse_table


def sample_table() -> ResultTable:
    table = ResultTable(
        ("T", "set", "bits", "fidelity"),
        metadata={
            "tool": "walkmeg 0.1.0",
            "command": "fidelity-curve --T-range 3:4 --set H,I",
            "seed": 0,
            "best_fidelity": 1.0 - 2.5e-16,
        },
    )
    table.append(3, "H,I", "001", 1.0)
    table.append(4, "H,I", "0011", 0.9999999999999998)
    return table


def test_rows_enter_only_through_append():
    with pytest.raises(TypeError):
        ResultTable(("a",), rows=[(1, 2)])  # would skip append's width check
    table = ResultTable(("a",))
    with pytest.raises(ValueError, match="expected 1 values, got 2"):
        table.append(1, 2)
    assert table.rows == []


def test_format_float_round_trips_doubles():
    for value in (math.pi, 1.0, 0.1, 1e-300, 5.0 / 3.0, 1.0 - 2.5e-16, -0.0):
        assert float(format_float(value)) == value


def test_csv_round_trip_is_byte_identical():
    table = sample_table()
    text = table.to_csv()
    parsed = parse_table(text)
    assert parsed.columns == table.columns
    assert parsed.rows == table.rows
    assert parsed.metadata == table.metadata
    assert parsed.to_csv() == text


def test_json_round_trip_is_byte_identical():
    table = sample_table()
    text = table.to_json()
    parsed = parse_table(text)
    assert parsed.columns == table.columns
    assert parsed.rows == table.rows
    assert parsed.metadata == table.metadata
    assert parsed.to_json() == text


def test_comma_bearing_cells_survive_csv():
    table = ResultTable(("pattern", "agree"))
    table.append("0,0,1", "true")
    text = table.to_csv()
    parsed = parse_table(text)
    assert parsed.rows == [("0,0,1", "true")]
    assert parsed.to_csv() == text


def test_bit_strings_keep_leading_zeros():
    table = ResultTable(("bits", "fidelity"))
    table.append("0011", 0.5)
    parsed = parse_table(table.to_csv())
    assert parsed.rows[0][0] == "0011"


def test_floats_have_seventeen_significant_digits():
    table = ResultTable(("fidelity",))
    table.append(2.0 / 3.0)
    assert "0.66666666666666663" in table.to_csv()
    assert "0.66666666666666663" in table.to_json()


def test_json_prints_negative_zero_as_zero():
    # a pure state's entropy is -0.0; neither format prints the sign
    table = ResultTable(("S_E",), metadata={"m": -0.0})
    table.append(-0.0)
    assert table.to_csv().splitlines()[-1] == "0"
    assert "-0" not in table.to_csv()
    assert "-0" not in table.to_json()


@pytest.mark.parametrize("value, text", [
    (0.1, "0.10000000000000001"),
    (-0.0, "0"),
    (7, "7"),
    (True, "true"),
    (np.float64(0.25), "0.25"),
])
def test_csv_and_json_print_a_number_alike(value, text):
    table = ResultTable(("x",), metadata={"m": value})
    table.append(value)
    csv_lines = table.to_csv().splitlines()
    assert csv_lines[0] == f"# m={text}"
    assert csv_lines[-1] == text
    json_lines = [line.strip() for line in table.to_json().splitlines()]
    assert f'"m": {text}' in json_lines
    assert text in json_lines  # the row's one cell


def test_write_and_read_file(tmp_path):
    table = sample_table()
    path = tmp_path / "out.csv"
    table.write(str(path), "csv")
    assert parse_table(path.read_text()).to_csv() == table.to_csv()
    jpath = tmp_path / "out.json"
    table.write(str(jpath), "json")
    assert parse_table(jpath.read_text()).to_json() == table.to_json()


def test_append_width_checked():
    table = ResultTable(("a", "b"))
    with pytest.raises(ValueError):
        table.append(1)
    with pytest.raises(ValueError):
        ResultTable(("a", "a"))


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        sample_table().to_text("yaml")


def test_parse_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row width"):
        parse_table("a,b\n1,2,3\n")