"""The batched Monte Carlo engine of the densely-spaced study against the
per-realization computation it replaced, and its independence of chunking,
worker count and worker BLAS threads."""

import ctypes
import os
import re

import numpy as np
import pytest

from emchan import DenselySpacedScenario, TriPolScenario, load_scenario, studies, write_results
from emchan import scenario as sc
from emchan.cdl import bundled_cdl_b, mixture_from_clusters
from emchan.emcore import WaveContext
from emchan.patterns import PatternSet, dipole, unit_gain
from emchan.seeds import STUDY_IDS, realization_rng
from emchan.wavenumber import (EfficiencyMatrix, apply_polarization, assemble_channel,
                               coupling_variances, fourier_harmonics, isotropic_mixture,
                               sample_wavenumber_channel, uniform_planar_array,
                               wavenumber_support)

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def densely_spaced_oracle(scn, seed: int, count: int) -> np.ndarray:
    """Capacities of realizations 0..count-1, one realization at a time: a
    fresh draw per scheme, the full receive harmonics, one SVD per channel."""
    ctx = WaveContext.from_frequency(sc.REFERENCE_FREQUENCY_HZ)
    lam = ctx.wavelength
    l_s = scn.tx_side_wavelengths * lam
    l_r = scn.rx_side_wavelengths * lam
    sup_s = wavenumber_support(l_s, l_s, ctx)
    sup_r = wavenumber_support(l_r, l_r, ctx)
    table = bundled_cdl_b()
    mix_dep = mixture_from_clusters(table, "departure", scn.tx_boresight)
    mix_arr = mixture_from_clusters(table, "arrival", scn.rx_boresight)
    iso = isotropic_mixture()
    var_iso = coupling_variances(sup_r, sup_s, iso, iso, ctx, scn.quadrature_order)
    var_cdl = coupling_variances(sup_r, sup_s, mix_arr, mix_dep, ctx, scn.quadrature_order)
    patterns = {"unit": PatternSet.uniform(unit_gain()), "dipole": PatternSet.uniform(dipole())}
    tx_array = uniform_planar_array(l_s, l_s, scn.tx_spacing_wavelengths * lam,
                                    scn.tx_spacing_wavelengths * lam)
    psi_s = {p: fourier_harmonics(tx_array, sup_s, patterns[p], ctx) for p in patterns}
    psi_r = {}
    for spacing in scn.rx_spacing_wavelengths:
        arr = uniform_planar_array(l_r, l_r, spacing * lam, spacing * lam)
        for p in patterns:
            psi_r[(spacing, p)] = fourier_harmonics(arr, sup_r, patterns[p], ctx)
    scheme_defs = {
        "ideal": (var_iso, "unit", 1.0),
        "ni": (var_cdl, "unit", 1.0),
        "ni-pd": (var_cdl, "dipole", 1.0),
        "proposed": (var_cdl, "dipole", scn.element_efficiency),
    }
    n_tx = tx_array.count
    coef = 10.0 ** (scn.snr_db / 10.0)  # P / (K sigma^2) with P = K * SNR
    rows = []
    for i in range(count):
        row = []
        for name in scn.schemes:
            variances, pattern, efficiency = scheme_defs[name]
            amplitude = float(np.sqrt(efficiency))
            rng = realization_rng(seed, STUDY_IDS[sc.DENSELY_SPACED], i)
            h_a = sample_wavenumber_channel(variances, rng)
            pol = apply_polarization(h_a, scn.xpr_mu_db, scn.xpr_sigma_db, rng)
            gamma_s = EfficiencyMatrix.uniform(amplitude, n_tx)
            for spacing in scn.rx_spacing_wavelengths:
                harmonics = psi_r[(spacing, pattern)]
                gamma_r = EfficiencyMatrix.uniform(amplitude, harmonics.shape[0])
                h = assemble_channel(gamma_r, harmonics, pol, psi_s[pattern], gamma_s)
                sv = np.linalg.svd(h, compute_uv=False)
                row.append(float(np.sum(np.log2(1.0 + coef * sv**2))))
        rows.append(row)
    return np.array(rows)


def test_engine_matches_per_realization_oracle():
    scn = load_scenario(os.path.join(SCENARIOS, "densely_spaced.json"))
    count = studies._CHUNK + 3  # one full chunk and one partial chunk
    labels, caps = studies._densely_spaced_capacities(scn, 5, count, jobs=1)
    assert labels == [(name, spacing) for name in scn.schemes
                      for spacing in scn.rx_spacing_wavelengths]
    assert len(labels) == 12
    want = densely_spaced_oracle(scn, 5, count)
    assert caps.shape == want.shape == (count, 12)
    assert np.allclose(caps, want, rtol=1e-12, atol=0.0)


def _tables(tmp_path, tag, scenarios, jobs) -> dict:
    out = {}
    for scn in scenarios:
        for key, table in studies.run_study(scn, jobs=jobs).items():
            path = write_results(table, tmp_path / f"{tag}_{scn.name}_{key}.csv")
            out[(scn.name, key)] = path.read_bytes()
    return out


def test_tables_identical_for_any_chunk_size_and_job_count(tmp_path, monkeypatch):
    scenarios = (
        DenselySpacedScenario(name="ds", tx_side_wavelengths=2.0, realizations=17,
                              quadrature_order=6),
        TriPolScenario(name="tp", cells=1, ues_per_cell=17, bs_ports=16),
    )
    reference = _tables(tmp_path, "ref", scenarios, jobs=1)
    for chunk in (1, 8, 7):
        monkeypatch.setattr(studies, "_CHUNK", chunk)
        for jobs in (1, 2):
            assert _tables(tmp_path, f"c{chunk}j{jobs}", scenarios, jobs) == reference, (chunk, jobs)


_BLAS_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def blas_thread_counts() -> list[int]:
    """Thread count of every loaded lib*blas* library that exports a getter."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh}
    counts = []
    for path in sorted(paths):
        if path.startswith("/") and re.match(r"lib.*blas", os.path.basename(path).lower()):
            lib = ctypes.CDLL(path)
            for symbol in _BLAS_THREAD_GETTERS:
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    counts.append(int(getter()))
    return counts


def _worker_thread_rows(start: int, stop: int) -> np.ndarray:
    counts = blas_thread_counts()
    return np.array([[len(counts), max(counts, default=0)]] * (stop - start))


def test_workers_run_blas_on_one_thread():
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("loaded libraries are listed in /proc/self/maps only")
    parent = blas_thread_counts()
    if not parent:
        pytest.skip("no loaded BLAS library exports a thread-count getter")
    rows = studies._map_chunks(_worker_thread_rows, 4 * studies._CHUNK, jobs=2)
    assert rows.shape == (4 * studies._CHUNK, 2)
    assert np.all(rows[:, 0] == len(parent))
    assert np.all(rows[:, 1] == 1)
    assert blas_thread_counts() == parent  # the parent process keeps its threads


def test_one_assembly_per_variance_set_and_pattern_per_chunk(monkeypatch):
    calls = []
    real = studies.assemble_channel

    def counted(*args):
        calls.append(args[1].shape)  # stacked receive factors: (spacings, rows, 2 x support)
        return real(*args)

    monkeypatch.setattr(studies, "assemble_channel", counted)
    scn = load_scenario(os.path.join(SCENARIOS, "densely_spaced.json"))
    studies._densely_spaced_capacities(scn, 5, 2 * studies._CHUNK, jobs=1)
    # ideal (isotropic, unit), ni (CDL-B, unit), ni-pd and proposed (CDL-B, dipole)
    assert len(calls) == 2 * 3
    assert all(shape[0] == len(scn.rx_spacing_wavelengths) for shape in calls)

    calls.clear()
    scn = DenselySpacedScenario(name="pd", schemes=("ni-pd", "proposed"), realizations=3)
    studies._densely_spaced_capacities(scn, 5, 3, jobs=1)
    assert len(calls) == 1


def test_padded_stacked_rx_factors_match_per_spacing_channels():
    ctx = WaveContext.from_frequency(sc.REFERENCE_FREQUENCY_HZ)
    lam = ctx.wavelength
    sup_r = wavenumber_support(lam, lam, ctx)
    sup_s = wavenumber_support(2 * lam, 2 * lam, ctx)
    pats = PatternSet.uniform(dipole())
    psi_s = fourier_harmonics(uniform_planar_array(2 * lam, 2 * lam, lam / 2, lam / 2),
                              sup_s, pats, ctx)
    harmonics = [fourier_harmonics(uniform_planar_array(lam, lam, d * lam, d * lam),
                                   sup_r, pats, ctx) for d in (0.5, 0.25, 0.125)]
    r = studies._rx_factors(harmonics)
    rows = 2 * sup_r.count
    assert r.shape == (3, rows, rows)
    rng = np.random.default_rng(8)
    shape = (2, sup_r.count, sup_s.count)  # two draws
    pol = apply_polarization(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                             8.0, 3.0, rng)
    ones_s = EfficiencyMatrix.uniform(1.0, psi_s.shape[0])
    stacked = assemble_channel(EfficiencyMatrix.uniform(1.0, rows), r, pol, psi_s, ones_s)
    assert stacked.shape == (3, 2, rows, psi_s.shape[0])
    for j, psi in enumerate(harmonics):
        factor = np.linalg.qr(psi, mode="r")
        n = factor.shape[0]
        alone = assemble_channel(EfficiencyMatrix.uniform(1.0, n), factor, pol, psi_s, ones_s)
        np.testing.assert_allclose(stacked[j, :, :n], alone, rtol=1e-13, atol=0)
        assert not np.any(stacked[j, :, n:])
        # the factor keeps the singular values of the full receive harmonics
        full = assemble_channel(EfficiencyMatrix.uniform(1.0, psi.shape[0]), psi, pol, psi_s,
                                ones_s)
        sv_full = np.linalg.svd(full, compute_uv=False)
        np.testing.assert_allclose(np.linalg.svd(stacked[j], compute_uv=False)[:, :n],
                                   sv_full[:, :n], rtol=1e-10, atol=1e-12 * sv_full.max())
