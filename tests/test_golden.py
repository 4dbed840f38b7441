"""Golden-table gate for the near-field engine.

Fresh runs must match the committed tables in ``tests/golden/`` within
``|a - b| <= 1e-12 + 1e-9 * max(|a|, |b|)`` on numeric cells (the benchmark's
correctness rule) and exactly on all other cells. Regenerate the tables with

    PYTHONPATH=src python tests/test_golden.py

only from a commit whose numbers are known to be right.
"""

from pathlib import Path

import numpy as np
import pytest

from emchan import (ArrayGeometry, MotionState, PatternSet, VisibilityModel, WaveContext,
                    bundled_cdl_b, channel_impulse_response, cluster_rays, dipole,
                    load_scenario, narrowband_channel, planar_wave_channel, read_result_csv,
                    run_study, spatial_correlation, write_results)
from emchan.emcore import SPEED_OF_LIGHT
from emchan.results import Column, ResultTable

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
NEAR_FIELD_SCENARIOS = ("nearfield_6p7ghz.json", "nearfield_15ghz.json")
RTOL = 1e-9
ATOL = 1e-12


def nlos_summary() -> ResultTable:
    """Seeded CDL-B response with visibility, per-element dipoles and motion."""
    ctx = WaveContext.from_frequency(6.7e9)
    n_tx, n_rx = 16, 2
    tx = np.stack([np.zeros(n_tx), np.linspace(-0.5, 0.5, n_tx), np.zeros(n_tx)], axis=1)
    rx = np.array([[15.0, 2.0, 1.0], [15.0, 2.0 + ctx.wavelength / 2.0, 1.0]])
    axes = ("x", "y", "z")
    geom = ArrayGeometry(
        tx_positions=tx, rx_positions=rx,
        tx_patterns=PatternSet.per_element([dipole(axes[s % 3]) for s in range(n_tx)]),
        rx_patterns=PatternSet.per_element([dipole(axes[(u + 1) % 3]) for u in range(n_rx)]),
    )
    direct = float(np.linalg.norm(tx[0] - rx[0]))
    rays = cluster_rays(bundled_cdl_b(), 100e-9, direct / SPEED_OF_LIGHT, rng_seed=11,
                        rays_per_cluster=4)
    kwargs = dict(k_factor=1.0, visibility=VisibilityModel(), t=2e-3,
                  motion=MotionState(velocity=np.array([3.0, -1.0, 0.5])), ctx=ctx,
                  visibility_seed=5)
    exact = channel_impulse_response(geom, rays, **kwargs)
    planar = planar_wave_channel(geom, rays, **kwargs)
    h_exact = narrowband_channel(exact)
    h_planar = narrowband_channel(planar)

    table = ResultTable(columns=(Column("metric"), Column("value")))
    table.append("rays", len(rays))
    table.append("taps_exact", len(exact))
    table.append("taps_planar", len(planar))
    table.append("rho", spatial_correlation(h_planar, h_exact))
    for label, h in (("exact", h_exact), ("planar", h_planar)):
        total = complex(h.sum())
        table.append(f"norm_{label}", float(np.linalg.norm(h)))
        table.append(f"sum_re_{label}", total.real)
        table.append(f"sum_im_{label}", total.imag)
    return table


def fresh_tables() -> dict[str, ResultTable]:
    """Every golden table, keyed by its file name, computed now."""
    tables = {}
    for name in NEAR_FIELD_SCENARIOS:
        scn = load_scenario(ROOT / "scenarios" / name)
        for key, table in run_study(scn).items():
            tables[f"{scn.name}_{key}.csv"] = table
    tables["nearfield-nlos_summary.csv"] = nlos_summary()
    return tables


def _cells_match(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return bool(np.isfinite(a) and np.isfinite(b)
                    and abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b)))
    return a == b


@pytest.fixture(scope="module")
def fresh():
    return fresh_tables()


@pytest.mark.parametrize("filename", [
    "nearfield-6p7ghz_correlation.csv",
    "nearfield-6p7ghz_phase_profile.csv",
    "nearfield-15ghz_correlation.csv",
    "nearfield-15ghz_phase_profile.csv",
    "nearfield-nlos_summary.csv",
])
def test_matches_golden(fresh, tmp_path, filename):
    # write and read back, so the comparison sees exactly what a run writes
    got = read_result_csv(write_results(fresh[filename], tmp_path / filename))
    want = read_result_csv(GOLDEN / filename)
    assert got.columns == want.columns
    assert len(got.rows) == len(want.rows)
    for i, (row_got, row_want) in enumerate(zip(got.rows, want.rows)):
        for column, a, b in zip(want.columns, row_got, row_want):
            assert _cells_match(a, b), f"{filename} row {i} {column.name}: {a!r} != {b!r}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for filename, table in fresh_tables().items():
        write_results(table, GOLDEN / filename)
