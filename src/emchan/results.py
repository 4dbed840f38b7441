"""Tabular study results with CSV and JSON writers.

CSV headers carry units as ``name(unit)`` and floats are written with
``repr`` so a read-back reproduces the exact binary values.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import NumericalError, ShapeError, ValidationError

SCHEMA_VERSION = "1.0"

_HEADER_RE = re.compile(r"^(?P<name>[^()]+)\((?P<unit>[^()]*)\)$")


@dataclass(frozen=True)
class Column:
    name: str
    unit: str = ""

    def __post_init__(self):
        if not self.name or "(" in self.name or ")" in self.name:
            raise ValidationError(["column names must be nonempty and parenthesis-free"])
        if "(" in self.unit or ")" in self.unit:
            raise ValidationError(["units must not contain parentheses"])

    def header(self) -> str:
        return f"{self.name}({self.unit})"


@dataclass
class ResultTable:
    columns: tuple[Column, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(
            c if isinstance(c, Column) else Column(*c) if isinstance(c, tuple) else Column(c)
            for c in self.columns
        )
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValidationError(["column names must be unique"])
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ShapeError("row width must match the column count")

    def append(self, *values):
        """Add one row; a NaN or infinite cell raises NumericalError."""
        if len(values) != len(self.columns):
            raise ShapeError("row width must match the column count")
        row = tuple(_plain(v) for v in values)
        for column, v in zip(self.columns, row):
            if isinstance(v, float) and not math.isfinite(v):
                raise NumericalError(f"column {column.name}: non-finite value {v!r}")
        self.rows.append(row)

    def column(self, name: str) -> list:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return [row[i] for row in self.rows]
        raise KeyError(name)


def _plain(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


def _cell_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results(table: ResultTable, path, fmt: str = "csv") -> Path:
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([c.header() for c in table.columns])
            for row in table.rows:
                writer.writerow([_cell_text(v) for v in row])
    elif fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "metadata": table.metadata,
            "columns": [{"name": c.name, "unit": c.unit} for c in table.columns],
            "rows": [list(row) for row in table.rows],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ValidationError([f"unknown output format: {fmt!r}"])
    return path


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_result_csv(path) -> ResultTable:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(["result file is empty"]) from None
        columns = []
        for cell in header:
            m = _HEADER_RE.match(cell)
            if not m:
                raise ValidationError([f"malformed column header: {cell!r}"])
            columns.append(Column(name=m.group("name"), unit=m.group("unit")))
        table = ResultTable(columns=tuple(columns))
        for row in reader:
            if len(row) != len(columns):
                raise ValidationError([f"row width {len(row)} does not match header"])
            table.rows.append(tuple(_parse_cell(c) for c in row))
    return table


def read_result_json(path) -> ResultTable:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError([f"unsupported schema version: {payload.get('schema_version')!r}"])
    columns = tuple(Column(name=c["name"], unit=c.get("unit", "")) for c in payload["columns"])
    table = ResultTable(columns=columns, metadata=payload.get("metadata", {}))
    for row in payload["rows"]:
        table.rows.append(tuple(row))
    return table


def result_schema() -> dict:
    """The JSON schema the json writer conforms to."""
    text = resources.files("emchan.data").joinpath("result_table.schema.json").read_text()
    return json.loads(text)
