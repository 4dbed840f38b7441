"""Golden-table gate for the study engines.

The reference scenarios run at the scales in ``SCENARIOS``; the densely-spaced
study runs at a reduced scale so that tier-1 stays fast. Fresh runs must match
the committed tables in ``tests/golden/`` within
``|a - b| <= 1e-12 + 1e-9 * max(|a|, |b|)`` on numeric cells (the benchmark's
correctness rule) and exactly on all other cells. Regenerate the tables with

    PYTHONPATH=src python tests/test_golden.py

only from a commit whose numbers are known to be right.
"""

from pathlib import Path

import numpy as np
import pytest

from emchan import (ArrayGeometry, MotionState, PatternSet, VisibilityModel, WaveContext,
                    bundled_cdl_b, cell_power_fractions, channel_impulse_response,
                    cluster_rays, dipole, isotropic_mixture, load_scenario,
                    mixture_from_clusters, narrowband_channel, planar_wave_channel,
                    read_result_csv, run_study, spatial_correlation, wavenumber_support,
                    write_results)
from emchan.emcore import SPEED_OF_LIGHT
from emchan.results import Column, ResultTable

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
# scenario file -> run scale
SCENARIOS = {
    "nearfield_6p7ghz.json": 1.0,
    "nearfield_15ghz.json": 1.0,
    "densely_spaced.json": 0.05,
    "tripol.json": 1.0,
    "emcore_validation.json": 1.0,
}
RTOL = 1e-9
ATOL = 1e-12


def nlos_summary(as_views: bool = False) -> ResultTable:
    """Seeded CDL-B response with visibility, per-element dipoles and motion,
    from the drawn RaySet or, with ``as_views``, from the list of its rows."""
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
    if as_views:
        rays = list(rays)
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


def wavenumber_fractions() -> ResultTable:
    """Cell power fractions of the densely-spaced study's supports and spectra,
    plus a non-square support."""
    ctx = WaveContext.from_frequency(4.7e9)
    lam = ctx.wavelength
    table = bundled_cdl_b()
    iso = isotropic_mixture()
    arrival = mixture_from_clusters(table, "arrival", "-x")
    departure = mixture_from_clusters(table, "departure", "+x")
    cases = (
        ("rx-1x1-iso", 1.0, 1.0, iso),
        ("tx-4x4-iso", 4.0, 4.0, iso),
        ("rx-1x1-cdl", 1.0, 1.0, arrival),
        ("tx-4x4-cdl", 4.0, 4.0, departure),
        ("rx-2.5x1-cdl", 2.5, 1.0, arrival),
    )
    out = ResultTable(columns=(Column("case"), Column("l_x"), Column("l_y"),
                               Column("fraction")))
    for case, side_x, side_y, mixture in cases:
        support = wavenumber_support(side_x * lam, side_y * lam, ctx)
        fractions = cell_power_fractions(support, mixture, ctx, order=16)
        for (l_x, l_y), fraction in zip(support.indices, fractions):
            out.append(case, l_x, l_y, float(fraction))
    return out


def fresh_tables() -> dict[str, ResultTable]:
    """Every golden table, keyed by its file name, computed now."""
    tables = {}
    for name, scale in SCENARIOS.items():
        scn = load_scenario(ROOT / "scenarios" / name)
        for key, table in run_study(scn, scale=scale).items():
            tables[f"{scn.name}_{key}.csv"] = table
    tables["nearfield-nlos_summary.csv"] = nlos_summary()
    tables["wavenumber-fractions.csv"] = wavenumber_fractions()
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
    "densely-spaced_capacity.csv",
    "tripol_capacity_cdf.csv",
    "tripol_summary.csv",
    "emcore-validation_decomposition.csv",
    "emcore-validation_regions.csv",
    "wavenumber-fractions.csv",
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


def test_nlos_summary_from_ray_views_is_the_same_table(fresh, tmp_path):
    tables = (fresh["nearfield-nlos_summary.csv"], nlos_summary(as_views=True))
    written = [write_results(table, tmp_path / f"{i}.csv").read_bytes()
               for i, table in enumerate(tables)]
    assert written[0] == written[1]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for filename, table in fresh_tables().items():
        write_results(table, GOLDEN / filename)
