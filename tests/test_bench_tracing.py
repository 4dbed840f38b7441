"""The benchmark's traced run wraps names that the program looks up at call
time, and its correctness gate compares each run's tables with stored
references. If a wrapped name is renamed or removed, `bench/run.py --trace 1`
breaks, and if a workload's tables drift past the gate, every benchmark run
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


def test_install_tracing_sees_the_near_field_workload(monkeypatch):
    """The near-field studies and the CDL-B response, traced as the
    nearfield-cdl workload traces them: the response entry points and the
    ray draw record calls, and the bench's `nearfield.entries` is nonzero."""
    monkeypatch.syspath_prepend(str(BENCH))
    names = BENCH_MODULES + ("gate", "run")
    loaded = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    try:
        import child
        import run
        import spans
        import workloads

        wl = workloads.WORKLOADS["nearfield-cdl"]
        scenarios = [load_scenario(ROOT / "scenarios" / name) for name, _ in wl.scenarios]
        assert {scn.study for scn in scenarios} == {"near-field"}
        recorder = spans.SpanRecorder()
        child.install_tracing(recorder)
        try:
            traced_run_study = recorder.wrap("studies.run_study", run_study)
            for scn, (_, scale) in zip(scenarios, wl.scenarios):
                traced_run_study(scn, seed=0, scale=scale, jobs=1)
            child.cdl_response(scenarios[0], workloads.program_seed(0), wl.cdl_rays)
        finally:
            recorder.restore()
        layers = recorder.layers()
        report = {"t_import": 0.0, "t_imported": 0.0, "layers": layers,
                  "counters": recorder.counters, "realizations": 0}
        values = run.layer_values(run.Run(out=ROOT, report=report))
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(loaded)
    for name in ("nearfield.channel_impulse_response", "nearfield.planar_wave_channel",
                 "cdl.cluster_rays"):
        assert layers.get(name, {}).get("calls", 0) > 0, name
    assert values["nearfield.entries"] > 0


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


@pytest.mark.parametrize("seed", [0, 1])
def test_capacity_mc_tables_pass_the_benchmark_gate(seed, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    names = BENCH_MODULES + ("gate",)
    loaded = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    try:
        import gate
        import workloads

        wl = workloads.WORKLOADS["capacity-mc"]
        for file_name, scale in wl.scenarios:
            scn = load_scenario(ROOT / "scenarios" / file_name)
            tables = run_study(scn, seed=workloads.program_seed(seed), scale=scale, jobs=1)
            for key, table in tables.items():
                write_results(table, tmp_path / f"{scn.name}_{key}.csv", fmt="csv")
        # every reference table is produced, nothing else is, and each one
        # passes gate.compare_table
        refs = gate.reference_dirs(wl.name, workloads.program_seed(seed))
        assert gate.check_tables(tmp_path, refs) == []
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(loaded)
