"""Tests of the benchmark harness's own logic (not of emchan).

    python3 -m pytest bench/tests
"""

import itertools
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from gate import REFERENCE, check_tables, compare_table  # noqa: E402
from run import END_TO_END, PER_LAYER, Run, end_to_end_samples  # noqa: E402
from spans import SpanRecorder, svd_gflop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def ticking_clock():
    """A clock that advances one second per reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


def test_self_time_of_nested_spans():
    rec = SpanRecorder(clock=ticking_clock())
    leaf = rec.wrap("leaf", lambda: None)
    mid = rec.wrap("mid", lambda: (leaf(), leaf()))
    root = rec.wrap("root", lambda: (mid(), leaf()))
    root()
    # clock readings: root 0..9, mid 1..6 (leaves 2..3, 4..5), leaf 7..8
    layers = rec.layers()
    assert layers["root"] == {"calls": 1, "total_s": 9.0, "self_s": 3.0, "durations": [9.0]}
    assert layers["mid"]["total_s"] == 5.0 and layers["mid"]["self_s"] == 3.0
    assert layers["leaf"]["calls"] == 3 and layers["leaf"]["self_s"] == 3.0
    # self times of the whole tree add up to the root's duration
    assert rec.trees() == {"root": {"total_s": 9.0, "self_sum_s": 9.0}}


def test_wrapper_returns_result_and_reraises():
    rec = SpanRecorder(clock=ticking_clock())
    assert rec.wrap("ok", lambda x, y=1: x + y)(2, y=3) == 5

    def boom():
        raise KeyError("inner")

    with pytest.raises(KeyError, match="inner"):
        rec.wrap("boom", boom)()
    # the failed call's span is closed and no span is left open
    assert [s[0] for s in rec.spans] == ["ok", "boom"]
    assert all(s[2] is not None for s in rec.spans)
    assert rec.wrap("after", lambda: None)() is None
    assert rec.spans[-1][3] is None


def test_counters_and_patch_restore():
    class Owner:
        @staticmethod
        def f(n):
            return list(range(n))

    rec = SpanRecorder(clock=ticking_clock())
    rec.patch(Owner, "f", "owner.f", count=lambda args, kwargs, result: {"items": len(result)})
    assert Owner.f(3) == [0, 1, 2]
    Owner.f(4)
    assert rec.counters == {"owner.f.items": 7}
    rec.restore()
    Owner.f(2)
    assert rec.layers()["owner.f"]["calls"] == 2


def test_svd_flops_are_computed_from_shapes():
    real = np.zeros((10, 4))
    assert svd_gflop((real,), {"compute_uv": False}, None)["gflop_computed"] == pytest.approx(
        (4 * 10 * 16 - 4 * 64 / 3) / 1e9)
    assert svd_gflop((real,), {}, None)["gflop_computed"] == pytest.approx(
        (4 * 100 * 4 + 22 * 64) / 1e9)
    cplx = np.zeros((3, 4, 10), dtype=complex)  # batch of 3, m = 10, n = 4
    assert svd_gflop((cplx, False), {}, None)["gflop_computed"] == pytest.approx(
        3 * 4 * (6 * 10 * 16 + 20 * 64) / 1e9)


def _reference_table():
    return next(REFERENCE.glob("capacity-mc/seed-0/densely-spaced_*.csv"))


def _perturbed_copy(src: Path, dst: Path, factor: float, value=None):
    """Copy a table with the third cell of its first row scaled or replaced."""
    text = src.read_bytes().decode()
    cell = text.splitlines()[1].split(",")[2]
    new = value if value is not None else repr(float(cell) * factor)
    assert new != cell
    dst.write_bytes(text.replace(cell, new, 1).encode())


def test_gate_accepts_reference_and_last_bit_changes(tmp_path):
    ref = _reference_table()
    assert compare_table(ref, ref) == []
    got = tmp_path / ref.name
    _perturbed_copy(ref, got, 1.0 + 1e-13)
    assert compare_table(got, ref) == []


@pytest.mark.parametrize("factor, value, message", [
    (1.0 + 1e-6, None, "!= reference"),
    (1.0, "nan", "non-finite"),
    (1.0, "inf", "non-finite"),
    (1.0, "ideal", "!= reference"),
])
def test_gate_fails_on_perturbed_table(tmp_path, factor, value, message):
    ref = _reference_table()
    got = tmp_path / ref.name
    _perturbed_copy(ref, got, factor, value)
    problems = compare_table(got, ref)
    assert problems and message in problems[0]


def test_gate_requires_every_table_and_no_other(tmp_path):
    ref_dir = _reference_table().parent
    assert check_tables(ref_dir, [ref_dir]) == []
    (tmp_path / "extra.csv").write_text("a()\n1\n")
    problems = check_tables(tmp_path, [ref_dir])
    assert any(p.startswith("missing table") for p in problems)
    assert any(p.startswith("unexpected table") for p in problems)
    assert check_tables(tmp_path, []) == ["no reference tables for this workload and seed"]


def _run(study_s: float, problems=()) -> Run:
    report = {"t_loaded": 1.0, "t_studied": 1.0 + study_s, "t_written": 2.0 + study_s,
              "work": 10}
    return Run(out=Path("run"), problems=list(problems), report=report, cpu_s=study_s)


def test_end_to_end_samples_skip_failed_runs():
    samples = end_to_end_samples([_run(1.0), _run(99.0, ["table differs"]), _run(2.0)])
    assert samples["cpu_s"] == [1.0, 2.0]
    assert samples["work_per_s"] == [10.0, 5.0]
    with pytest.raises(RuntimeError, match="no run passed"):
        end_to_end_samples([_run(1.0, ["exit code 1"])])


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {w["name"] for w in spec["workloads"]} <= WORKLOADS.keys()
