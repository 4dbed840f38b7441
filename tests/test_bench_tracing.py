"""The benchmark's traced run wraps names that the program looks up at call
time, and its correctness gate compares each run's tables with stored
references. If a wrapped name is renamed or removed, `bench/run.py --trace 1`
breaks, and if the CDL-B response drifts past the gate, every benchmark run
fails; these tests make both a tier-1 failure instead."""

import sys
from pathlib import Path

import numpy as np
import pytest

from emchan import (DenselySpacedScenario, TriPolScenario, load_scenario, nearfield, run_study,
                    studies, wavenumber, write_results)

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
BENCH_MODULES = ("child", "envinfo", "spans", "workloads")


def test_install_tracing_wraps_live_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    loaded = {name: sys.modules.pop(name) for name in BENCH_MODULES if name in sys.modules}
    owners = (studies, wavenumber, nearfield, np.linalg)
    before = [dict(vars(owner)) for owner in owners]
    try:
        import child
        import spans

        recorder = spans.SpanRecorder()
        child.install_tracing(recorder)
        try:
            run_study(DenselySpacedScenario(name="ds", tx_side_wavelengths=2.0,
                                            realizations=3, quadrature_order=4))
            run_study(TriPolScenario(name="tp", cells=1, ues_per_cell=3, bs_ports=16))
        finally:
            recorder.restore()
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(loaded)
    layers = recorder.layers()
    for name in ("wavenumber.assemble_channel", "wavenumber.cell_power_fractions",
                 "wavenumber.sample_wavenumber_channel", "wavenumber.apply_polarization",
                 "wavenumber.fourier_harmonics", "capacity.capacity_equal_power",
                 "capacity.capacity_waterfilling", "tripol.simulate_tripol_channel",
                 "tripol.group_ports", "tripol.estimate_joint",
                 "tripol.benchmark_uplink_only", "tripol.scalar_aligned"):
        assert layers.get(name, {}).get("calls", 0) > 0, name
    for owner, names in zip(owners, before):
        assert {k: v for k, v in vars(owner).items() if k in names} == names, owner.__name__


@pytest.mark.parametrize("seed", [0, 1])
def test_cdl_response_passes_the_benchmark_gate(seed, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    names = BENCH_MODULES + ("gate",)
    loaded = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    try:
        import child
        import gate
        import workloads

        wl = workloads.WORKLOADS["nearfield-cdl"]
        scn = load_scenario(ROOT / "scenarios" / wl.scenarios[0][0])
        table, _ = child.cdl_response(scn, workloads.program_seed(seed), wl.cdl_rays)
        got = tmp_path / "cdl-b-response_summary.csv"
        write_results(table, got, fmt="csv")
        assert gate.compare_table(got, gate.REFERENCE / wl.name / f"seed-{seed}" / got.name) == []
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(loaded)
