"""Correctness gate: a run's tables against the stored reference tables.

Reference tables live in reference/<workload>/seed-<n>/, and tables that
came out byte-identical for every reference seed live once in
reference/<workload>/all-seeds/. Numeric cells must agree within
RTOL/ATOL, other cells exactly, and any non-finite number fails.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import ATOL, RTOL

REFERENCE = Path(__file__).resolve().parent / "reference"


def reference_dirs(workload: str, seed: int) -> list[Path]:
    base = REFERENCE / workload
    return [d for d in (base / "all-seeds", base / f"seed-{seed}") if d.is_dir()]


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare_table(got_path: Path, want_path: Path, rtol: float = RTOL,
                  atol: float = ATOL) -> list[str]:
    """Problems found comparing one CSV table with its reference."""
    got, want = _read(got_path), _read(want_path)
    name = got_path.name
    problems = []
    for r, row in enumerate(got):
        for c, cell in enumerate(row):
            value = _number(cell)
            if value is not None and not math.isfinite(value):
                problems.append(f"{name} row {r} col {c}: non-finite value {cell!r}")
    if not got or got[0] != want[0]:
        return problems + [f"{name}: header {got[:1]} differs from reference {want[:1]}"]
    if len(got) != len(want):
        return problems + [f"{name}: {len(got) - 1} rows, reference has {len(want) - 1}"]
    for r, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(row) != len(ref):
            problems.append(f"{name} row {r}: {len(row)} cells, reference has {len(ref)}")
            continue
        for c, (cell, ref_cell) in enumerate(zip(row, ref)):
            a, b = _number(cell), _number(ref_cell)
            if a is None or b is None:
                ok = cell == ref_cell
            else:
                ok = abs(a - b) <= atol + rtol * max(abs(a), abs(b))
            if not ok:
                problems.append(f"{name} row {r} col {c}: {cell} != reference {ref_cell}")
    return problems


def check_tables(tables_dir: Path, ref_dirs: list[Path]) -> list[str]:
    """Every reference table must be produced and match; nothing extra."""
    if not ref_dirs:
        return ["no reference tables for this workload and seed"]
    expected = {p.name: p for d in ref_dirs for p in d.glob("*.csv")}
    produced = {p.name: p for p in tables_dir.glob("*.csv")}
    problems = [f"missing table {n}" for n in sorted(expected.keys() - produced.keys())]
    problems += [f"unexpected table {n}" for n in sorted(produced.keys() - expected.keys())]
    for name in sorted(expected.keys() & produced.keys()):
        problems += compare_table(produced[name], expected[name])
    return problems

