"""The batched Monte Carlo engines of the densely-spaced and tri-pol studies
against the per-realization computations they replaced, their independence
of chunking and worker count, and the BLAS threads they run on."""

import ctypes
import functools
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from emchan import (DenselySpacedScenario, EmCoreValidationScenario, NearFieldScenario,
                    TriPolScenario, load_scenario, nearfield, studies, wavenumber,
                    write_results)
from emchan import scenario as sc
from emchan.cdl import bundled_cdl_b, mixture_from_clusters
from emchan.capacity import capacity_equal_power, capacity_waterfilling
from emchan.emcore import WaveContext
from emchan.errors import NumericalError
from emchan.patterns import PatternSet, dipole, unit_gain, vertical
from emchan.seeds import STUDY_IDS, realization_rng
from emchan.tripol import (benchmark_uplink_only, estimate_joint, group_ports, scalar_aligned,
                           simulate_tripol_channel)
from emchan.wavenumber import (apply_polarization, assemble_channel, coupling_variances,
                               fourier_harmonics, isotropic_mixture, sample_wavenumber_channel,
                               uniform_planar_array, wavenumber_support)

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
            for spacing in scn.rx_spacing_wavelengths:
                # amplitude sqrt(efficiency) on every element of both sides
                h = assemble_channel(amplitude * psi_r[(spacing, pattern)], pol,
                                     amplitude * psi_s[pattern])
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


@pytest.mark.parametrize("tx_spacing, rx_spacings", [
    (0.5, (0.5, 0.25, 0.125)),
    (1.0, (1.0, 0.5)),  # 9 tx elements for B_s = 13, 4 rx elements for B_r = 5
])
def test_chunk_matches_capacity_of_full_element_space_channels(tx_spacing, rx_spacings):
    """Every scheme's capacities equal capacity_equal_power of the full
    (n_r, n_t) channel Psi_R H_pol Psi_S^H of the same draw, with every
    element's harmonics scaled by the amplitude sqrt(efficiency)."""
    scn = DenselySpacedScenario(name="small", tx_side_wavelengths=2.0,
                                tx_spacing_wavelengths=tx_spacing,
                                rx_spacing_wavelengths=rx_spacings, quadrature_order=8)
    count = 4
    studies._bind_study(sc.DENSELY_SPACED)  # as load_scenario binds it
    _, caps = studies._densely_spaced_capacities(scn, 3, count, jobs=1)
    ctx = WaveContext.from_frequency(sc.REFERENCE_FREQUENCY_HZ)
    lam = ctx.wavelength
    sup_s = wavenumber_support(2 * lam, 2 * lam, ctx)
    sup_r = wavenumber_support(lam, lam, ctx)
    mix_dep, mix_arr = (mixture_from_clusters(bundled_cdl_b(), side, boresight)
                        for side, boresight in (("departure", "+x"), ("arrival", "-x")))
    iso = isotropic_mixture()
    variances = {"ideal": coupling_variances(sup_r, sup_s, iso, iso, ctx, 8)}
    variances["ni"] = variances["ni-pd"] = variances["proposed"] = coupling_variances(
        sup_r, sup_s, mix_arr, mix_dep, ctx, 8)
    patterns = {"ideal": unit_gain(), "ni": unit_gain(), "ni-pd": dipole(), "proposed": dipole()}
    tx_array = uniform_planar_array(2 * lam, 2 * lam, tx_spacing * lam, tx_spacing * lam)
    rx_arrays = [uniform_planar_array(lam, lam, d * lam, d * lam) for d in rx_spacings]
    assert len(tx_array) == (25 if tx_spacing == 0.5 else 9) and len(sup_s.indices) == 13
    want = []
    for name in scn.schemes:
        pats = PatternSet.uniform(patterns[name])
        amplitude = np.sqrt(scn.element_efficiency if name == "proposed" else 1.0)
        rngs = [realization_rng(3, STUDY_IDS[sc.DENSELY_SPACED], i) for i in range(count)]
        pol = apply_polarization(sample_wavenumber_channel(variances[name], rngs),
                                 scn.xpr_mu_db, scn.xpr_sigma_db, rngs)
        psi_s = fourier_harmonics(tx_array, sup_s, pats, ctx)
        for rx_array in rx_arrays:
            psi_r = fourier_harmonics(rx_array, sup_r, pats, ctx)
            h = assemble_channel(amplitude * psi_r, pol, amplitude * psi_s)
            # P/(K sigma^2) = SNR for K = n_t streams
            want.append(capacity_equal_power(h, 10.0 ** (scn.snr_db / 10.0) * len(tx_array), 1.0))
    want = np.array(want).T
    assert caps.shape == want.shape == (count, 4 * len(rx_spacings))
    np.testing.assert_allclose(caps, want, rtol=1e-12, atol=0.0)


def householder_row_space_capacity(h: np.ndarray, estimate: np.ndarray, power: float):
    """Water-filling capacity of h on the orthonormal basis V = conj(Q) of the
    estimate's row space, from the Householder QR estimate^T = Q R; both may
    carry a leading trial axis."""
    q, _ = np.linalg.qr(estimate.swapaxes(-1, -2))
    return capacity_waterfilling(np.vecdot(q.swapaxes(-1, -2)[..., None, :, :], h[..., None, :]),
                                 power, 1.0).capacity


def tri_pol_trial_oracle(i: int, payload) -> tuple:
    """(joint capacity, benchmark capacity, joint MSE, benchmark MSE) of tri-pol
    trial i alone: one channel, one call per step."""
    seed, study_id, rx_split, tx_split, z_gain_db, xpr_db, pilot_snr_db = payload
    seq = np.random.SeedSequence([seed, study_id, i])
    ch_seed, est_seed, bench_seed = seq.spawn(3)
    channel = simulate_tripol_channel(rx_ports=rx_split, tx_ports=tx_split,
                                      z_gain_db=z_gain_db, xpr_db=xpr_db,
                                      rng=np.random.default_rng(ch_seed))
    h = channel.matrix
    row_power = np.mean(np.abs(h) ** 2, axis=1)
    grouping = group_ports(row_power, rule="median")
    est = estimate_joint(channel, grouping, pilot_snr_db, pilot_snr_db, est_seed)
    per_port = pilot_snr_db + 10.0 * np.log10(row_power / row_power.max())
    bench = benchmark_uplink_only(channel, per_port, bench_seed)

    _, err_joint = scalar_aligned(est.assembled, h)
    _, err_bench = scalar_aligned(bench, h)

    power = 10.0 ** (pilot_snr_db / 10.0)
    return (householder_row_space_capacity(h, est.assembled, power),
            householder_row_space_capacity(h, bench, power), err_joint**2, err_bench**2)


@pytest.mark.parametrize("ue_ports", [8, 12])
def test_tri_pol_chunks_match_per_trial_oracle(ue_ports):
    scn = TriPolScenario(ue_ports=ue_ports)
    half = scn.bs_ports // 2
    payload = (5, STUDY_IDS[sc.TRI_POL], scn.rx_split(), (half, scn.bs_ports - half, 0),
               scn.z_gain_db, scn.xpr_db, scn.pilot_snr_db)
    count = studies._CHUNK + 3  # one full chunk and one partial chunk
    rows = studies._map_chunks(functools.partial(studies._tri_pol_chunk, payload=payload),
                               count, jobs=1)
    want = np.array([tri_pol_trial_oracle(i, payload) for i in range(count)])
    assert rows.shape == want.shape == (count, 4)
    np.testing.assert_allclose(rows, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("ue_ports", [8, 12])
def test_cholesky_qr_row_space_capacity_matches_householder_oracle(ue_ports):
    rng = np.random.default_rng(ue_ports)
    q = ue_ports // 4
    for seed in range(6):
        channel = simulate_tripol_channel(rx_ports=(q, 2 * q, q), tx_ports=(128, 128, 0),
                                          z_gain_db=-10.0, xpr_db=8.0,
                                          rng=[500 + 10 * seed + k for k in range(7)])
        h = channel.matrix
        assert h.shape == (7, ue_ports, 256)
        snr = rng.uniform(-5.0, 25.0, size=h.shape[:2])
        estimate = benchmark_uplink_only(channel, snr, [900 + 10 * seed + k for k in range(7)])
        for power in (0.1, 10.0, 1e3):
            got = studies._row_space_capacity(h, estimate, power)
            assert got.shape == (7,)
            np.testing.assert_allclose(got, householder_row_space_capacity(h, estimate, power),
                                       rtol=1e-12, atol=0.0)
            # one trial alone gives what it gives in the stack
            assert studies._row_space_capacity(h[3], estimate[3], power) == got[3]
    # more receive ports than transmit ports: the row space is everything
    channel = simulate_tripol_channel(rx_ports=(q, 2 * q, q), tx_ports=(3, 3, 0),
                                      rng=[1, 2, 3])
    estimate = benchmark_uplink_only(channel, np.full((3, ue_ports), 10.0), [4, 5, 6])
    np.testing.assert_allclose(studies._row_space_capacity(channel.matrix, estimate, 10.0),
                               householder_row_space_capacity(channel.matrix, estimate, 10.0),
                               rtol=1e-12, atol=0.0)


def test_row_space_capacity_of_a_rank_deficient_estimate_raises():
    channel = simulate_tripol_channel(rx_ports=(2, 4, 2), tx_ports=(128, 128, 0),
                                      z_gain_db=-10.0, xpr_db=8.0, rng=[1, 2])
    estimate = channel.matrix.copy()
    estimate[1, 5] = 0.0  # a port with no estimate leaves a 7-dimensional row space
    with pytest.raises(NumericalError, match="deficient rank"):
        studies._row_space_capacity(channel.matrix, estimate, 10.0)


def test_capacity_kernels_take_no_eigendecomposition_or_qr_they_do_not_need(monkeypatch):
    """Equal power is a QR log-det, so densely-spaced makes no eigvalsh
    call; the tri-pol row space is Cholesky-QR, so its chunk makes no QR."""
    counts = {"eigvalsh": 0, "qr": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counted(name))
    scn = load_scenario(os.path.join(SCENARIOS, "densely_spaced.json"))
    studies.run_study(scn, scale=0.05)
    assert counts["eigvalsh"] == 0 and counts["qr"] > 0
    counts.update(eigvalsh=0, qr=0)
    scn = load_scenario(os.path.join(SCENARIOS, "tripol.json"))
    half = scn.bs_ports // 2
    payload = (5, STUDY_IDS[sc.TRI_POL], scn.rx_split(), (half, scn.bs_ports - half, 0),
               scn.z_gain_db, scn.xpr_db, scn.pilot_snr_db)
    studies._tri_pol_chunk(0, studies._CHUNK, payload)
    assert counts["qr"] == 0 and counts["eigvalsh"] == 2


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
        if chunk == 7:
            # and one (node, cell) pair per block of the cell quadrature
            monkeypatch.setattr(wavenumber, "_QUAD_POINTS", 1)
        for jobs in (1, 2):
            assert _tables(tmp_path, f"c{chunk}j{jobs}", scenarios, jobs) == reference, (chunk, jobs)


_SPAWNED_WORKERS = """
import multiprocessing, sys
from pathlib import Path
multiprocessing.set_start_method("spawn")
from emchan import load_scenario, run_study, write_results
for name in ("densely_spaced.json", "tripol.json"):
    scn = load_scenario(Path(sys.argv[1]) / name)
    for jobs in (1, 2):
        for key, table in run_study(scn, scale=0.05, jobs=jobs).items():
            write_results(table, Path(sys.argv[2]) / f"jobs{jobs}" / f"{scn.name}_{key}.csv")
print(multiprocessing.get_start_method())
"""


def test_spawned_workers_give_the_serial_tables(tmp_path):
    """A spawned worker imports the package afresh, so its chunk functions
    must find their channel-module names themselves."""
    for jobs in (1, 2):
        (tmp_path / f"jobs{jobs}").mkdir()
    assert _fresh_python(_SPAWNED_WORKERS, SCENARIOS, str(tmp_path)).split() == ["spawn"]
    tables = {jobs: {path.name: path.read_bytes() for path in sorted((tmp_path / jobs).iterdir())}
              for jobs in ("jobs1", "jobs2")}
    assert len(tables["jobs1"]) == 3
    assert tables["jobs2"] == tables["jobs1"]


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_workers_run_blas_on_one_thread(jobs):
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("loaded libraries are listed in /proc/self/maps only")
    parent = blas_thread_counts()
    if not parent:
        pytest.skip("no loaded BLAS library exports a thread-count getter")
    rows = studies._map_chunks(_worker_thread_rows, 4 * studies._CHUNK, jobs=jobs)
    assert rows.shape == (4 * studies._CHUNK, 2)
    assert np.all(rows[:, 0] == len(parent))
    assert np.all(rows[:, 1] == 1)
    assert blas_thread_counts() == parent  # the parent process keeps its threads


@pytest.mark.parametrize("jobs, chunks, cores, workers", [
    (2, 1, 2, 1), (8, 3, 16, 3), (8, 5, 2, 2), (4, 40, None, 1), (3, 40, 4, 3)])
def test_map_chunks_starts_at_most_one_worker_per_chunk_and_core(monkeypatch, jobs, chunks,
                                                                  cores, workers):
    import concurrent.futures

    pools = []

    class SerialPool:
        """Records its arguments and maps in this process."""

        def __init__(self, max_workers, initializer):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, *iterables, chunksize):
            pools.append(chunksize)
            return map(func, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    rows = studies._map_chunks(lambda start, stop: np.arange(start, stop), chunks * studies._CHUNK,
                               jobs)
    assert np.array_equal(rows, np.arange(chunks * studies._CHUNK))
    assert pools == [workers, max(1, chunks // (workers * 4))]


@pytest.fixture
def two_blas_threads():
    """Every loaded BLAS library set to two threads for the test, and back to
    its own count afterwards; yields the counts the test starts from."""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("loaded libraries are listed in /proc/self/maps only")
    pairs = [pair for _, library, _ in studies._blas_libraries() for pair in library]
    before = [get_threads() for get_threads, _ in pairs]
    for _, set_threads in pairs:
        set_threads(2)
    try:
        counts = blas_thread_counts()
        if max(counts, default=0) < 2:
            pytest.skip("no loaded BLAS library runs two threads here")
        yield counts
    finally:
        for (_, set_threads), count in zip(pairs, before):
            set_threads(count)


def test_serial_map_chunks_runs_blas_on_one_thread(two_blas_threads):
    rows = studies._map_chunks(_worker_thread_rows, 2 * studies._CHUNK, jobs=1)
    assert np.all(rows[:, 1] == 1)
    assert blas_thread_counts() == two_blas_threads


def _record_blas_threads(monkeypatch, owner, name) -> list:
    """Wrap owner.name so that each call records the largest BLAS thread count."""
    seen = []
    real = getattr(owner, name)

    def recorded(*args, **kwargs):
        seen.append(max(blas_thread_counts()))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return seen


@pytest.mark.parametrize("scn, kernel", [
    (DenselySpacedScenario(name="ds", tx_side_wavelengths=1.0, rx_side_wavelengths=0.5,
                           rx_spacing_wavelengths=(0.5,), realizations=3, quadrature_order=4),
     "capacity_equal_power"),
    (TriPolScenario(name="tp", cells=1, ues_per_cell=3, bs_ports=16), "capacity_waterfilling"),
])
def test_serial_monte_carlo_studies_run_blas_on_one_thread(scn, kernel, two_blas_threads,
                                                           monkeypatch):
    seen = _record_blas_threads(monkeypatch, studies, kernel)
    studies.run_study(scn, jobs=1)
    assert seen and set(seen) == {1}
    assert blas_thread_counts() == two_blas_threads


def test_run_study_restores_blas_threads_when_a_study_raises(two_blas_threads, monkeypatch):
    def broken(*args):
        assert max(blas_thread_counts()) == 1
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(studies, "capacity_waterfilling", broken)
    with pytest.raises(RuntimeError, match="kernel failed"):
        studies.run_study(TriPolScenario(name="tp", cells=1, ues_per_cell=3, bs_ports=16))
    assert blas_thread_counts() == two_blas_threads


def test_near_field_and_em_core_studies_keep_the_blas_thread_count(two_blas_threads,
                                                                  monkeypatch):
    seen = _record_blas_threads(monkeypatch, nearfield, "_los_matrix")
    studies.run_study(NearFieldScenario(name="nf", bs_elements=8, ue_elements=2,
                                        drop_distances_m=(5.0,), profile_elements=4))
    em_seen = _record_blas_threads(monkeypatch, studies, "green_decomposition")
    studies.run_study(EmCoreValidationScenario(name="em", samples=25))
    assert seen and em_seen
    assert set(seen + em_seen) == {max(two_blas_threads)}
    assert blas_thread_counts() == two_blas_threads


def test_near_field_and_em_core_studies_do_not_look_up_blas(monkeypatch):
    """Only the Monte Carlo chunks pin BLAS, so the short studies never read
    /proc/self/maps."""
    monkeypatch.setattr(studies, "_blas_libraries", lambda: pytest.fail("BLAS looked up"))
    studies.run_study(NearFieldScenario(name="nf", bs_elements=8, ue_elements=2,
                                        drop_distances_m=(5.0,), profile_elements=4))
    studies.run_study(EmCoreValidationScenario(name="em", samples=25))


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(studies.__file__)))
_THREAD_VARIABLE = re.compile(r"(OPENBLAS|GOTO|OMP|MKL)_")


def _fresh_python(code: str, *args: str, **variables: str) -> str:
    """stdout of `python -c code args` with the package on PYTHONPATH and no
    BLAS or OpenMP thread variable in its environment but the given ones."""
    env = {key: value for key, value in os.environ.items() if not _THREAD_VARIABLE.match(key)}
    env.update(variables, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


# Runs the preamble's imports, then reports the process's OS threads, its BLAS
# thread counts and whether the preamble left the environment unchanged.
_START_UP_PROBE = """
import json, os
before = dict(os.environ)
{preamble}
threads = len(os.listdir("/proc/self/task"))
import ctypes, re
_BLAS_THREAD_GETTERS = {getters!r}
{counts}
print(json.dumps({{"threads": threads, "counts": blas_thread_counts(),
                  "environ_kept": dict(os.environ) == before}}))
"""


def _start_up(preamble: str, **variables) -> dict:
    code = _START_UP_PROBE.format(preamble=preamble, getters=_BLAS_THREAD_GETTERS,
                                  counts=inspect.getsource(blas_thread_counts))
    return json.loads(_fresh_python(code, **variables))


def test_import_emchan_starts_blas_on_one_thread_unless_told_otherwise():
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("loaded libraries are listed in /proc/self/maps only")
    default = _start_up("import numpy")["counts"]
    if not default:
        pytest.skip("no loaded BLAS library exports a thread-count getter")
    pinned = _start_up("import emchan")
    assert pinned == {"threads": 1, "counts": [1] * len(default), "environ_kept": True}
    # importing numpy first keeps its own default
    assert _start_up("import numpy, emchan")["counts"] == default
    if max(default) < 2:
        pytest.skip("numpy starts BLAS on one thread here already")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):  # the user's variable wins
        assert _start_up("import emchan", **{name: "2"})["counts"] == [2] * len(default), name


_RUN_EVERY_SCENARIO = """
import sys
from pathlib import Path
from emchan.cli import main
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    assert main(["run", str(path), "--scale", "0.05", "--jobs", sys.argv[3],
                 "--out", sys.argv[2]]) == 0
"""


def test_tables_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every scenario file's tables and manifest, from a default start-up at
    one and two jobs and from two BLAS threads for the whole run."""
    runs = {"jobs1": ("1", {}), "jobs2": ("2", {}),
            "two_threads": ("1", {"OPENBLAS_NUM_THREADS": "2"})}
    outputs = {}
    for tag, (jobs, variables) in runs.items():
        out = tmp_path / tag
        _fresh_python(_RUN_EVERY_SCENARIO, SCENARIOS, str(out), jobs, **variables)
        outputs[tag] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert sum(name.endswith("_manifest.txt") for name in outputs["jobs1"]) == 5
    assert outputs["jobs2"] == outputs["jobs1"]
    assert outputs["two_threads"] == outputs["jobs1"]


def test_one_assembly_per_variance_set_and_pattern_per_chunk(monkeypatch):
    calls = []
    capacity_calls = []
    qr_calls = []
    real = studies.assemble_channel
    real_capacity = studies.capacity_equal_power
    real_qr = np.linalg.qr

    def counted(*args):
        calls.append((args[0], args[1].shape))  # receive side, polarized draws
        return real(*args)

    def counted_capacity(g, power, noise_power):
        capacity_calls.append((g.shape, np.shape(power)))
        return real_capacity(g, power, noise_power)

    def counted_qr(a, mode="reduced"):
        qr_calls.append(a.shape)
        return real_qr(a, mode)

    monkeypatch.setattr(studies, "assemble_channel", counted)
    monkeypatch.setattr(studies, "capacity_equal_power", counted_capacity)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    scn = load_scenario(os.path.join(SCENARIOS, "densely_spaced.json"))
    spacings = len(scn.rx_spacing_wavelengths)
    studies._densely_spaced_capacities(scn, 5, 2 * studies._CHUNK, jobs=1)
    # ideal (isotropic, unit), ni (CDL-B, unit), ni-pd and proposed (CDL-B, dipole):
    # three assemblies per chunk, and one capacity call for all four schemes
    assert len(calls) == 2 * 3
    assert len(capacity_calls) == 2
    # M = E_R H_pol Psi~_S^H is assembled once per assembly and chunk, with the
    # pattern's gain block E_R = [D_theta D_phi] for the receive side, and
    # every rx spacing's factor is B x B (B = 5 on 1 wavelength): the
    # harmonics of one element at the origin are its gains [D_theta D_phi]
    ctx = WaveContext.from_frequency(sc.REFERENCE_FREQUENCY_HZ)
    sup_r = wavenumber_support(ctx.wavelength, ctx.wavelength, ctx)
    e_r = {}
    for name, pattern in (("unit", unit_gain()), ("dipole", dipole())):
        gains = fourier_harmonics(np.zeros((1, 3)), sup_r, PatternSet.uniform(pattern), ctx)
        e_r[name] = np.hstack([np.diag(gains[0, :5]), np.diag(gains[0, 5:])])
    assert np.array_equal(e_r["unit"], np.hstack([np.eye(5), np.eye(5)]))
    for (rx, draws), pattern in zip(calls, ["unit", "unit", "dipole"] * 2):
        assert np.array_equal(rx, e_r[pattern]) and draws == (studies._CHUNK, 10, 98)
    assert capacity_calls == [((4, spacings, studies._CHUNK, 5, 5), (4, 1, 1))] * 2
    # one phase factor for the tx array and one per rx spacing, then per chunk
    # one QR of every assembly's M^T (B_s = 49) and the capacity kernel's one
    # QR of [sqrt(c) g; I]
    chunk_qrs = [shape for shape in qr_calls if len(shape) > 2]
    assert len(qr_calls) - len(chunk_qrs) == 1 + spacings
    assert chunk_qrs == [(3, studies._CHUNK, 49, 5), (4, spacings, studies._CHUNK, 10, 5)] * 2

    calls.clear()
    capacity_calls.clear()
    scn = DenselySpacedScenario(name="pd", schemes=("ni-pd", "proposed"), realizations=3)
    studies._densely_spaced_capacities(scn, 5, 3, jobs=1)
    assert len(calls) == 1
    assert capacity_calls == [((2, spacings, 3, 5, 5), (2, 1, 1))]


@pytest.mark.parametrize("pattern", [unit_gain(), dipole()], ids=lambda p: p.name)
def test_harmonics_factor_into_phases_and_per_index_gains(pattern):
    """[Psi^theta Psi^phi] = Phi [D_theta D_phi] bit for bit, with Phi the
    theta half of a vertical element's harmonics, and the compressed
    R [D_theta D_phi] keeps the Gram matrix of the harmonics."""
    studies._bind_study(sc.DENSELY_SPACED)  # as load_scenario binds it
    ctx = WaveContext.from_frequency(sc.REFERENCE_FREQUENCY_HZ)
    lam = ctx.wavelength
    pats = PatternSet.uniform(pattern)
    for side, spacing in ((4.0, 0.5), (1.0, 1.0), (1.0, 0.5), (1.0, 0.25), (1.0, 0.125)):
        support = wavenumber_support(side * lam, side * lam, ctx)
        b = len(support.indices)
        array = uniform_planar_array(side * lam, side * lam, spacing * lam, spacing * lam)
        vertical_harmonics = fourier_harmonics(array, support, PatternSet.uniform(vertical()), ctx)
        assert not np.any(vertical_harmonics[:, b:])
        phases = vertical_harmonics[:, :b]
        gains = pats.element_gains(*wavenumber._plane_waves(support, ctx)[1])
        assert gains.shape == (b, 2)
        psi = fourier_harmonics(array, support, pats, ctx)
        assert np.array_equal(psi, np.hstack([phases * gains[:, 0], phases * gains[:, 1]]))
        compressed = studies._gain_block(studies._phase_factors([array], support, ctx)[0],
                                         support, pats, ctx)
        assert compressed.shape == (b, 2 * b)
        np.testing.assert_allclose(compressed.conj().T @ compressed, psi.conj().T @ psi,
                                   rtol=0.0, atol=1e-13)


def test_padded_stacked_rx_factors_match_per_spacing_channels():
    studies._bind_study(sc.DENSELY_SPACED)  # as load_scenario binds it
    ctx = WaveContext.from_frequency(sc.REFERENCE_FREQUENCY_HZ)
    lam = ctx.wavelength
    sup_r = wavenumber_support(lam, lam, ctx)
    sup_s = wavenumber_support(2 * lam, 2 * lam, ctx)
    b_r, b_s = len(sup_r.indices), len(sup_s.indices)
    pats = PatternSet.uniform(dipole())
    tx_array = uniform_planar_array(2 * lam, 2 * lam, lam / 2, lam / 2)
    psi_s = fourier_harmonics(tx_array, sup_s, pats, ctx)
    psi_s_factor = studies._gain_block(studies._phase_factors([tx_array], sup_s, ctx)[0],
                                       sup_s, pats, ctx)
    e_r = studies._gain_block(np.eye(b_r), sup_r, pats, ctx)
    # 4 elements at a 1-wavelength spacing, fewer than B_r = 5: one padded row
    arrays = [uniform_planar_array(lam, lam, d * lam, d * lam) for d in (1.0, 0.5, 0.25, 0.125)]
    r = studies._phase_factors(arrays, sup_r, ctx)
    assert r.shape == (4, b_r, b_r)
    rng = np.random.default_rng(8)
    shape = (2, b_r, b_s)  # two draws
    pol = apply_polarization(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                             8.0, 3.0, rng)
    m = assemble_channel(e_r, pol, psi_s_factor)
    stacked = r[:, None] @ m
    assert stacked.shape == (4, 2, b_r, b_s)
    for j, array in enumerate(arrays):
        n = min(len(array), b_r)
        phases = fourier_harmonics(array, sup_r, PatternSet.uniform(vertical()), ctx)[:, :b_r]
        assert np.array_equal(r[j, :n], np.linalg.qr(phases, mode="r"))
        assert not np.any(r[j, n:])
        # the factor keeps the singular values of the full receive harmonics,
        # whose rank is at most B_r
        psi = fourier_harmonics(array, sup_r, pats, ctx)
        full = assemble_channel(psi, pol, psi_s)
        sv_full = np.linalg.svd(full, compute_uv=False)
        np.testing.assert_allclose(np.linalg.svd(stacked[j], compute_uv=False)[:, :n],
                                   sv_full[:, :n], rtol=1e-10, atol=1e-12 * sv_full.max())
        assert np.all(sv_full[:, n:] <= 1e-12 * sv_full.max())
