"""Deterministic tabular output.

Every table serializes to CSV or JSON with floats printed via %.17g, so a
round trip reproduces the double exactly (negative zero prints as 0) and
repeated runs with the same inputs produce byte-identical files. Metadata
travels as '#'-prefixed key=value lines ahead of the CSV header, or as an
object alongside the rows in JSON. No timestamps, hostnames, or other run-variant values
belong in a table.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

__all__ = ["ResultTable", "format_float", "parse_table"]

# Columns whose values stay strings when parsing back (bit strings would
# otherwise lose leading zeros through float conversion).
STRING_COLUMNS = frozenset({"bits", "pattern", "set", "agree", "predicate"})


def format_float(value: float) -> str:
    """Shortest representation that survives a parse round trip (%.17g).

    Negative zero (a pure state's entropy) prints as 0, so that it parses
    back to the int 0 and re-prints as the same bytes.
    """
    return "%.17g" % (float(value) + 0.0)


def _format_cell(value) -> str:
    """CSV text of one cell; also the JSON text of every number."""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format_float(value)


def _parse_cell(column: str, text: str):
    if column in STRING_COLUMNS:
        return text
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


@dataclass
class ResultTable:
    """Rows of homogeneous records plus free-form metadata.

    Rows enter only through append, which checks each row's width.
    """

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list, init=False)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("column names must be unique")

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(tuple(values))

    # -- CSV ---------------------------------------------------------------

    def to_csv(self) -> str:
        out = io.StringIO()
        for key in self.metadata:
            out.write(f"# {key}={_format_cell(self.metadata[key])}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows([_format_cell(v) for v in row] for row in self.rows)
        return out.getvalue()

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> str:
        payload = {"metadata": self.metadata, "columns": self.columns, "rows": self.rows}
        return _dump_json(payload) + "\n"

    def to_text(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")

    def write(self, path: str, fmt: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_text(fmt))


def _dump_json(value, indent: int = 0) -> str:
    """json.dumps with every number rendered through _format_cell.

    The stock encoder prints repr(float), which round trips but is not the
    %.17g form the CSV writer uses; printing the numbers of both formats
    through one formatter keeps them byte-consistent with each other.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(k)}: {_dump_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{_dump_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if value is None or isinstance(value, str):
        return json.dumps(value)
    return _format_cell(value)


def parse_table(text: str) -> ResultTable:
    """Read back a table from its CSV or JSON serialization."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        table = ResultTable(tuple(payload["columns"]), metadata=dict(payload["metadata"]))
        for row in payload["rows"]:
            table.append(*row)
        return table

    metadata: dict = {}
    lines = [line for line in text.splitlines() if line]
    body_start = 0
    for line in lines:
        if not line.startswith("#"):
            break
        body_start += 1
        key, _, raw = line.lstrip("# ").partition("=")
        metadata[key] = _parse_cell(key, raw)
    if body_start >= len(lines):
        raise ValueError("missing CSV header line")
    records = list(csv.reader(lines[body_start:]))
    columns = tuple(records[0])
    table = ResultTable(columns, metadata=metadata)
    for cells in records[1:]:
        if len(cells) != len(columns):
            raise ValueError(f"row width {len(cells)} != header width {len(columns)}")
        table.append(*(_parse_cell(c, v) for c, v in zip(columns, cells)))
    return table
