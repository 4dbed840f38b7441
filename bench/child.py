"""One benchmark run of one workload, in a fresh process, as `emchan run` does it.

    python3 bench/child.py --workload NAME --seed N --out DIR [--trace | --import-only]

Steps: import emchan, load_scenario (validation included), run_study, then
write_results for every table plus the manifest. --import-only stops after
the imports; the harness uses it as its warm-up. Writes the tables under
DIR/tables and a JSON report to DIR/report.json holding CLOCK_MONOTONIC
timestamps of each step, so the parent can measure from the moment it
spawned this process. With --trace the layers' public entry points are
wrapped first and the report also holds per-layer span totals.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from envinfo import environment
from workloads import WORKLOADS, program_seed

ROOT = Path(__file__).resolve().parents[1]

# delay spread applied to the CDL-B normalized cluster delays, and the
# SeedSequence stream that draws the response's rays from the seed
CDL_DELAY_SPREAD_S = 100e-9
CDL_RAY_STREAM = 7


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--import-only", action="store_true")
    return parser.parse_args(argv)


def _entries(args, kwargs, taps) -> dict:
    return {"entries": sum(tap.coefficients.size for tap in taps)}


def _bytes(args, kwargs, path) -> dict:
    return {"bytes": Path(path).stat().st_size}


def install_tracing(recorder):
    """Wrap the names the studies, wavenumber and nearfield modules look up
    at call time, plus numpy.linalg.svd."""
    import numpy as np

    from emchan import nearfield, studies, wavenumber
    from spans import svd_gflop

    for attr, layer in (
        ("capacity_equal_power", "capacity"),
        ("capacity_waterfilling", "capacity"),
        ("sample_wavenumber_channel", "wavenumber"),
        ("apply_polarization", "wavenumber"),
        ("assemble_channel", "wavenumber"),
        ("fourier_harmonics", "wavenumber"),
        ("simulate_tripol_channel", "tripol"),
        ("group_ports", "tripol"),
        ("estimate_joint", "tripol"),
        ("benchmark_uplink_only", "tripol"),
        ("scalar_aligned", "tripol"),
    ):
        recorder.patch(studies, attr, f"{layer}.{attr}")
    recorder.patch(wavenumber, "cell_power_fractions", "wavenumber.cell_power_fractions")
    for attr in ("channel_impulse_response", "planar_wave_channel"):
        recorder.patch(nearfield, attr, f"nearfield.{attr}", count=_entries)
    for attr in ("locate_bounce_scatterers", "los_coefficient", "nlos_coefficient"):
        recorder.patch(nearfield, attr, f"nearfield.{attr}")
    recorder.patch(nearfield, "cluster_rays", "cdl.cluster_rays")
    recorder.patch(np.linalg, "svd", "numpy.linalg.svd", count=svd_gflop)


def cdl_response(nf_scn, seed: int, n_rays: int):
    """Spherical and planar CDL-B NLOS responses on the scenario's arrays.

    The base station (transmitter) is the scenario's linear array, so the
    per-cluster visibility acts across the large aperture; the user is a
    half-wavelength linear array at the first drop distance. Rays are drawn
    from the seed and `n_rays` of them, chosen by the seed, are kept.
    """
    import numpy as np

    from emchan import nearfield
    from emchan.cdl import bundled_cdl_b
    from emchan.emcore import SPEED_OF_LIGHT, WaveContext
    from emchan.results import Column, ResultTable

    ctx = WaveContext.from_frequency(nf_scn.frequency_hz)

    def line(length, count, x):
        ys = np.linspace(-length / 2.0, length / 2.0, count)
        return np.stack([np.full(count, x), ys, np.zeros(count)], axis=1)

    bs = line(nf_scn.aperture_m, nf_scn.bs_elements, 0.0)
    ue_len = (nf_scn.ue_elements - 1) * nf_scn.ue_spacing_wavelengths * ctx.wavelength
    ue = line(ue_len, nf_scn.ue_elements, float(nf_scn.drop_distances_m[0]))
    geom = nearfield.ArrayGeometry(tx_positions=bs, rx_positions=ue)
    direct = float(np.linalg.norm(bs[0] - ue[0]))
    rng = np.random.default_rng(np.random.SeedSequence([seed, CDL_RAY_STREAM]))
    rays = nearfield.cluster_rays(bundled_cdl_b(), CDL_DELAY_SPREAD_S,
                                  direct / SPEED_OF_LIGHT, rng)
    rays = [rays[i] for i in np.sort(rng.choice(len(rays), size=n_rays, replace=False))]
    vis = nearfield.VisibilityModel()
    kwargs = dict(k_factor=0.0, visibility=vis, ctx=ctx, visibility_seed=seed)
    exact = nearfield.channel_impulse_response(geom, rays, **kwargs)
    planar = nearfield.planar_wave_channel(geom, rays, **kwargs)
    h_exact = nearfield.narrowband_channel(exact)
    h_planar = nearfield.narrowband_channel(planar)

    table = ResultTable(columns=(Column("metric"), Column("value")))
    table.append("rays", len(rays))
    table.append("taps_exact", len(exact))
    table.append("taps_planar", len(planar))
    table.append("rho", nearfield.spatial_correlation(h_planar, h_exact))
    for label, h in (("exact", h_exact), ("planar", h_planar)):
        total = complex(h.sum())
        table.append(f"norm_{label}", float(np.linalg.norm(h)))
        table.append(f"sum_re_{label}", total.real)
        table.append(f"sum_im_{label}", total.imag)
    entries = sum(t.coefficients.size for t in exact + planar)
    return table, entries


def monte_carlo_count(scn, scale: float) -> int:
    """Realizations (densely-spaced) or trials (tri-pol) a study runs."""
    if scn.study == "densely-spaced":
        return max(1, int(round(scn.realizations * scale)))
    if scn.study == "tri-pol":
        return scn.trials(scale)
    return 0


def near_field_entries(scn) -> int:
    """Entries (tap x u x s) of the exact and planar LOS responses of a study."""
    cases = len(scn.drop_distances_m) + int(scn.include_far_field_check)
    return 2 * (cases * scn.bs_elements * scn.ue_elements + scn.profile_elements)


def main(argv=None) -> int:
    args = _parse(argv)
    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    tables_dir = out / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t_import = time.monotonic()
    import emchan
    from emchan.results import write_results
    from emchan.scenario import load_scenario
    from emchan.studies import manifest_text, run_study
    t_imported = time.monotonic()
    if not Path(emchan.__file__).resolve().is_relative_to(src):
        print(f"emchan imported from {emchan.__file__}, not from {src}", file=sys.stderr)
        return 3
    if args.import_only:
        return 0

    recorder = None
    if args.trace:
        from spans import SpanRecorder
        recorder = SpanRecorder()
        install_tracing(recorder)
        load_scenario = recorder.wrap("scenario.load_scenario", load_scenario)
        run_study = recorder.wrap("studies.run_study", run_study)
        write_results = recorder.wrap("results.write_results", write_results, count=_bytes)

    scenarios = [(load_scenario(ROOT / "scenarios" / name), scale)
                 for name, scale in wl.scenarios]
    t_loaded = time.monotonic()

    seed = program_seed(args.seed)
    results = [(scn, scale, run_study(scn, seed=seed, scale=scale, jobs=1))
               for scn, scale in scenarios]
    cdl_table, cdl_entries = (cdl_response(scenarios[0][0], seed, wl.cdl_rays) if wl.cdl_rays
                              else (None, 0))
    realizations = sum(monte_carlo_count(scn, scale) for scn, scale in scenarios)
    work = realizations + cdl_entries + sum(near_field_entries(scn) for scn, _ in scenarios
                                            if scn.study == "near-field")
    t_studied = time.monotonic()

    for scn, scale, tables in results:
        for key, table in tables.items():
            write_results(table, tables_dir / f"{scn.name}_{key}.csv", fmt="csv")
        (tables_dir / f"{scn.name}_manifest.txt").write_text(
            manifest_text(scn, tables, "csv", seed, scale))
    if cdl_table is not None:
        write_results(cdl_table, tables_dir / "cdl-b-response_summary.csv", fmt="csv")
    t_written = time.monotonic()

    report = {
        "t_import": t_import, "t_imported": t_imported, "t_loaded": t_loaded,
        "t_studied": t_studied, "t_written": t_written,
        "work": work, "realizations": realizations, "env": environment(),
    }
    if recorder is not None:
        recorder.restore()
        report["layers"] = recorder.layers()
        report["counters"] = recorder.counters
        report["trees"] = recorder.trees()
    (out / "report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
