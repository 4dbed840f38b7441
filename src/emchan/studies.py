"""Study runners: wire the channel modules into reproducible batch runs.

Realization i of a study always derives its generator from
(master seed, study id, i), so results are independent of evaluation order,
of the worker count and of the chunk size.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import math
import os
import re
import sys

import numpy as np

from . import scenario as sc
from .cdl import bundled_cdl_b, load_cluster_table, mixture_from_clusters
from .emcore import WaveContext, green_decomposition, dyadic_green, rayleigh_distance, reactive_boundary
from .errors import NumericalError, ValidationError
from .results import Column, ResultTable
from .scenario import scenario_hash, validate_scenario
from .seeds import STUDY_IDS, realization_rng

VERSION = "1.0.0"

# The channel modules each study's runner calls. They are bound into this
# namespace, each with every name that emchan._EXPORTS maps to it, when a
# scenario file of the study is loaded (load_scenario), and on first use by
# run_study and by the functions that spawned workers or tests call alone, so
# a process imports only the modules of the studies it runs, and imports them
# before the study starts.
_STUDY_MODULES = {
    sc.DENSELY_SPACED: ("capacity", "patterns", "wavenumber"),
    sc.NEAR_FIELD: ("nearfield",),
    sc.TRI_POL: ("capacity", "tripol"),
    sc.EM_CORE_VALIDATION: (),
}


def _bind_study(study: str) -> None:
    """Bind the modules of a study's runner here, with their exported names.
    A name already set, such as a tracing wrapper or a test's stand-in, is kept."""
    modules = _STUDY_MODULES[study]
    exports = sys.modules[__package__]._EXPORTS
    for name in [*modules, *(name for name, home in exports.items() if home in modules)]:
        if name not in globals():
            __getattr__(name)


def __getattr__(name: str):
    """Bind one study module or one of its exported names, also when it is
    looked up before its study is bound (say, to wrap it)."""
    package = sys.modules[__package__]
    home = package._EXPORTS.get(name, name)
    if not any(home in modules for modules in _STUDY_MODULES.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(package, name)
    return value


# Realizations (or trials) per chunk; results do not depend on it. A chunk
# runs as one stacked pass: per (variance set, pattern) one assemble_channel
# call, then one QR and one capacity_equal_power call (densely-spaced), or
# all trials built, estimated and water-filled at once (tri-pol). Chunks of
# 16 and 32 ran capacity-mc's studies in 147 and 144 ms against 159 ms,
# inside the runs' spread (medians of 30 alternating fresh runs, 2 vCPU),
# and held 1.5 and 3.5 MB more peak RSS.
_CHUNK = 8

# thread-count functions of OpenBLAS builds: {prefix}_get_num_threads{suffix}
# and {prefix}_set_num_threads{suffix}
_BLAS_PREFIXES = ("openblas", "scipy_openblas")
_BLAS_SUFFIXES = ("", "64_")


@functools.cache
def _blas_controls(path: str) -> tuple[tuple, object]:
    """((get, set) thread-count function pairs, thread-pool shutdown function
    or None) of the BLAS library at path; no pairs if it cannot be loaded."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return (), None
    pairs = []
    for prefix in _BLAS_PREFIXES:
        for suffix in _BLAS_SUFFIXES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            pairs.append((get, put))
    shutdown = getattr(lib, "blas_thread_shutdown_", None)
    if shutdown is not None:
        shutdown.argtypes, shutdown.restype = [], ctypes.c_int
    return tuple(pairs), shutdown


def _blas_libraries() -> list[tuple[str, tuple, object]]:
    """(path, *_blas_controls(path)) of each lib*blas* library mapped into
    this process, listed from /proc/self/maps on each call, because one can
    load after another (scipy brings its own OpenBLAS); empty where that file
    is missing."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return []
    return [(path, *_blas_controls(path)) for path in sorted(paths)
            if path.startswith("/") and re.match(r"lib.*blas", os.path.basename(path).lower())]


def _pin_blas_threads() -> None:
    """Limit every loaded BLAS library to one thread (worker initializer).

    Workers run side by side, so BLAS threads of their own would only
    oversubscribe the cores. In a forked worker, OpenBLAS's setter first
    restarts the thread pool that the fork stopped, and its idle threads spin
    beside the other workers' work for a while, so the pool is stopped again
    once the count is 1.
    """
    for _, pairs, shutdown in _blas_libraries():
        for _, set_threads in pairs:
            set_threads(1)
        if pairs and shutdown is not None:
            shutdown()


@contextlib.contextmanager
def _one_blas_thread():
    """Run BLAS on one thread inside the block, and give every library its
    previous thread count back afterwards, also on error."""
    pairs = [pair for _, library, _ in _blas_libraries() for pair in library]
    before = [get_threads() for get_threads, _ in pairs]
    for _, set_threads in pairs:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(pairs, before):
            set_threads(count)


def _map_chunks(func, count: int, jobs: int) -> np.ndarray:
    """Rows of func(start, stop) for consecutive chunks of range(count), in
    order. A second BLAS thread only spins on the chunks' many small products
    and factorizations, so BLAS runs on one, here and in each worker."""
    starts = range(0, count, _CHUNK)
    stops = [min(start + _CHUNK, count) for start in starts]
    workers = min(jobs, len(stops), os.cpu_count() or 1)
    with _one_blas_thread():
        if jobs <= 1:
            parts = list(map(func, starts, stops))
        else:
            # the pool's modules (multiprocessing, sockets, ...) load only here
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas_threads) as pool:
                parts = list(pool.map(func, starts, stops,
                                      chunksize=max(1, len(stops) // (workers * 4))))
    return np.concatenate(parts)


def _metadata(scn, seed: int, scale: float) -> dict:
    return {"study": scn.study, "name": scn.name, "seed": seed, "scale": scale,
            "version": VERSION, "scenario_hash": scenario_hash(scn)}


# ---------------------------------------------------------------------------
# densely spaced capacity sweep


@dataclasses.dataclass(frozen=True, eq=False)
class _Assembly:
    """A variance set and a pattern, shared by the schemes that differ only
    in efficiency: one product M = E_R H_pol Psi~_S^H per chunk. A uniform
    pattern's harmonics are Psi = Phi [D_theta D_phi] = Q R [D_theta D_phi]
    (_phase_factors), so Psi_R H_pol Psi_S^H = Q_R R_R M Q_S^H, and R_R M,
    with B_r rows, has the singular values of the full channel."""

    variance_set: int  # index into the variance sets of the shared draw
    psi_s: np.ndarray  # Psi~_S = R_S [D_theta D_phi], (B_s, 2 B_s)
    e_r: np.ndarray  # E_R = [D_theta D_phi], (B_r, 2 B_r)


def _gain_block(factor: np.ndarray, support, patterns, ctx) -> np.ndarray:
    """factor [D_theta D_phi] for the (B,) gains D of a uniform pattern set
    toward each support index."""
    gains = patterns.element_gains(*wavenumber._plane_waves(support, ctx)[1])
    return np.hstack([factor * gains[:, 0], factor * gains[:, 1]])


def _phase_factors(arrays, support, ctx) -> np.ndarray:
    """R of the thin QR Phi = Q R of each array's (n, B) plane-wave phases (a
    vertical element's theta harmonics), zero-padded to B rows where n < B
    and stacked: zero rows leave R^H R, and so the singular values, unchanged."""
    b = len(support.indices)
    r = np.zeros((len(arrays), b, b), dtype=complex)
    for j, array in enumerate(arrays):
        phases = fourier_harmonics(array, support, PatternSet.uniform(vertical()), ctx)[:, :b]
        r[j, : min(phases.shape)] = np.linalg.qr(phases, mode="r")
    return r


def _densely_spaced_chunk(start: int, stop: int, payload) -> np.ndarray:
    """Capacities of realizations [start, stop), one column per (scheme, rx spacing)."""
    _bind_study(sc.DENSELY_SPACED)  # a spawned worker starts with none bound
    seed, study_id, mu, sigma, snr, variances, r_r, schemes, assemblies = payload
    # one draw per realization (noise, phases, XPR), shared by every scheme
    rngs = [realization_rng(seed, study_id, i) for i in range(start, stop)]
    h_pol = apply_polarization(sample_wavenumber_channel(variances, rngs), mu, sigma, rngs)
    ones_r, ones_s = (EfficiencyMatrix.uniform(1.0, len(x))
                      for x in (assemblies[0].e_r, assemblies[0].psi_s))
    m = np.stack([assemble_channel(ones_r, a.e_r, h_pol[a.variance_set], a.psi_s, ones_s)
                  for a in assemblies])
    # M = F Q^T with F = R^T of M^T = Q R, so F F^H = M M^H: one QR call
    # for every assembly and draw, (assembly, draw, B_r, min(B_s, B_r))
    f = np.linalg.qr(m.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)
    # g[s, j, k] = R_R,j F: scheme s, rx spacing j, realization k
    which, efficiencies = (np.array(column) for column in zip(*schemes))
    g = r_r[:, None] @ f[which, None]
    # amplitude sqrt(efficiency) on every element of both sides scales H
    # by the efficiency, so H H^H and the power by its square; one call
    # scores every scheme, with P/K = SNR on g's columns
    power = snr * g.shape[-1] * np.square(efficiencies)
    return capacity_equal_power(g, power[:, None, None], 1.0).reshape(-1, stop - start).T


def _densely_spaced_capacities(scn: sc.DenselySpacedScenario, seed: int, count: int,
                               jobs: int) -> tuple[list, np.ndarray]:
    """(scheme, rx spacing) labels and the capacities of realizations
    0..count-1, one row per realization and one column per label."""
    ctx = WaveContext.from_frequency(sc.REFERENCE_FREQUENCY_HZ)
    lam = ctx.wavelength
    l_s = scn.tx_side_wavelengths * lam
    l_r = scn.rx_side_wavelengths * lam
    sup_s = wavenumber_support(l_s, l_s, ctx)
    sup_r = wavenumber_support(l_r, l_r, ctx)

    table = bundled_cdl_b() if scn.cluster_table is None else load_cluster_table(scn.cluster_table)
    mix_dep = mixture_from_clusters(table, "departure", scn.tx_boresight)
    mix_arr = mixture_from_clusters(table, "arrival", scn.rx_boresight)
    if scn.cluster_weights is not None:
        mix_dep, mix_arr = (dataclasses.replace(m, clusters=tuple(
            dataclasses.replace(c, weight=float(w))
            for w, c in zip(scn.cluster_weights, m.clusters))) for m in (mix_dep, mix_arr))
    iso = isotropic_mixture()
    order = scn.quadrature_order
    variances = np.stack([coupling_variances(sup_r, sup_s, iso, iso, ctx, order),
                          coupling_variances(sup_r, sup_s, mix_arr, mix_dep, ctx, order)])

    element_patterns = {"unit": PatternSet.uniform(unit_gain()),
                        "dipole": PatternSet.uniform(dipole())}
    d_s = scn.tx_spacing_wavelengths * lam
    r_s = _phase_factors([uniform_planar_array(l_s, l_s, d_s, d_s)], sup_s, ctx)[0]
    r_r = _phase_factors([uniform_planar_array(l_r, l_r, d * lam, d * lam)
                          for d in scn.rx_spacing_wavelengths], sup_r, ctx)

    # scheme: (variance set, element pattern, element efficiency)
    scheme_defs = {
        "ideal": (0, "unit", 1.0),
        "ni": (1, "unit", 1.0),
        "ni-pd": (1, "dipole", 1.0),
        "proposed": (1, "dipole", scn.element_efficiency),
    }
    shared = {}  # (variance set, pattern) -> index of its assembly
    schemes = []  # (assembly index, element efficiency) of each scheme, in order
    for name in scn.schemes:
        var, pat, eff = scheme_defs[name]
        schemes.append((shared.setdefault((var, pat), len(shared)), float(eff)))
    eye_r = np.eye(len(sup_r.indices))
    assemblies = tuple(_Assembly(variance_set=var,
                                 psi_s=_gain_block(r_s, sup_s, element_patterns[pat], ctx),
                                 e_r=_gain_block(eye_r, sup_r, element_patterns[pat], ctx))
                       for var, pat in shared)
    payload = (seed, STUDY_IDS[sc.DENSELY_SPACED], scn.xpr_mu_db, scn.xpr_sigma_db,
               10.0 ** (scn.snr_db / 10.0), variances, r_r, tuple(schemes), assemblies)
    caps = _map_chunks(functools.partial(_densely_spaced_chunk, payload=payload), count, jobs)
    return [(name, spacing) for name in scn.schemes for spacing in scn.rx_spacing_wavelengths], caps


def _run_densely_spaced(scn: sc.DenselySpacedScenario, seed: int, scale: float,
                        jobs: int) -> dict[str, ResultTable]:
    n_real = max(1, int(round(scn.realizations * scale)))
    labels, caps = _densely_spaced_capacities(scn, seed, n_real, jobs)
    out = ResultTable(
        columns=(Column("scheme"), Column("rx_spacing", "wavelengths"),
                 Column("mean_capacity", "bit/s/Hz"), Column("std_capacity", "bit/s/Hz"),
                 Column("realizations", "count")),
        metadata=_metadata(scn, seed, scale))
    for (name, spacing), series in zip(labels, caps.T):
        out.append(name, float(spacing), float(series.mean()),
                   float(series.std(ddof=1)) if n_real > 1 else 0.0, n_real)
    return {"capacity": out}


# ---------------------------------------------------------------------------
# near-field correlation map


def _linear_array(length: float, count: int) -> np.ndarray:
    ys = np.linspace(-length / 2.0, length / 2.0, count) if count > 1 else np.zeros(1)
    return np.stack([np.zeros(count), ys, np.zeros(count)], axis=1)


def _los_stacks(geom, shifts, scn: sc.NearFieldScenario, ctx) -> list[np.ndarray]:
    """Exact and planar (C, n_rx, n_tx) LOS channels of every placement."""
    motion = nearfield.MotionState(velocity=np.asarray(scn.velocity_mps, dtype=float))
    return [nearfield._los_matrix(geom, scn.time_s, motion, ctx, planar, shifts)
            for planar in (False, True)]


def _run_near_field(scn: sc.NearFieldScenario, seed: int, scale: float,
                    jobs: int) -> dict[str, ResultTable]:
    ctx = WaveContext.from_frequency(scn.frequency_hz)
    lam = ctx.wavelength
    rayleigh = rayleigh_distance(scn.aperture_m, ctx)

    corr = ResultTable(
        columns=(Column("case"), Column("distance", "m"), Column("rho")),
        metadata={**_metadata(scn, seed, scale), "rayleigh_distance_m": rayleigh})
    cases = [("drop", float(d)) for d in scn.drop_distances_m]
    if scn.include_far_field_check:
        cases.append(("far-field", 10.0 * rayleigh))
    ue = _linear_array((scn.ue_elements - 1) * scn.ue_spacing_wavelengths * lam,
                       scn.ue_elements)
    geom = nearfield.ArrayGeometry(tx_positions=ue,
                                   rx_positions=_linear_array(scn.aperture_m, scn.bs_elements))
    shifts = np.array([[dist, 0.0, 0.0] for _, dist in cases])
    for (case, dist), h_exact, h_planar in zip(cases, *_los_stacks(geom, shifts, scn, ctx)):
        corr.append(case, dist, nearfield.spatial_correlation(h_planar, h_exact))

    prof = nearfield.ArrayGeometry(
        tx_positions=np.array([[scn.profile_distance_m, 0.0, 0.0]]),
        rx_positions=_linear_array(scn.profile_aperture_m, scn.profile_elements))
    exact, planar = (h[0, :, 0] for h in _los_stacks(prof, None, scn, ctx))
    # exact * conj(planar), rounded as the scalar product rounds it (an
    # array product may fuse its multiply-adds)
    deviation = np.arctan2(exact.imag * planar.real - exact.real * planar.imag,
                           exact.real * planar.real + exact.imag * planar.imag)
    profile = ResultTable(
        columns=(Column("element", "index"), Column("exact_phase", "rad"),
                 Column("planar_phase", "rad"), Column("deviation", "rad")),
        metadata=_metadata(scn, seed, scale))
    for u, row in enumerate(zip(*np.angle([exact, planar]).tolist(), deviation.tolist())):
        profile.append(u, *row)
    return {"correlation": corr, "phase_profile": profile}


# ---------------------------------------------------------------------------
# tri-polarized estimation comparison


def _row_space_capacity(h: np.ndarray, estimate: np.ndarray, power: float):
    """Water-filling capacity of h precoded on an orthonormal basis V of the
    estimate's row space (any such V gives the same capacity); both may carry
    a leading trial axis. V = E^H L^-H for L L^H = E E^H (Cholesky-QR), so
    h V = (h E^H) L^-H is r x r, and an estimate of deficient rank raises
    NumericalError. A tall estimate spans the whole space: V = I."""
    _bind_study(sc.TRI_POL)  # also called on its own
    if estimate.shape[-2] > estimate.shape[-1]:
        return capacity_waterfilling(h, power, 1.0).capacity
    eh = estimate.conj().swapaxes(-1, -2)
    try:
        chol = np.linalg.cholesky(estimate @ eh)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("estimate has deficient rank") from exc
    # (h V)^H = L^-1 E h^H has the eigenvalues of h V
    return capacity_waterfilling(np.linalg.solve(chol, (h @ eh).conj().swapaxes(-1, -2)),
                                 power, 1.0).capacity


def _tri_pol_chunk(start: int, stop: int, payload) -> np.ndarray:
    """(joint capacity, benchmark capacity, joint MSE, benchmark MSE) of
    trials [start, stop), one row per trial, from one stacked pass."""
    _bind_study(sc.TRI_POL)  # a spawned worker starts with none bound
    seed, study_id, rx_split, tx_split, z_gain_db, xpr_db, pilot_snr_db = payload
    # trial i draws its channel, estimate and benchmark noise from three
    # streams of its own, exactly as it would alone: the spawn(3) children
    # of SeedSequence([seed, study_id, i])
    ch_seeds, est_seeds, bench_seeds = (
        [np.random.SeedSequence([seed, study_id, i], spawn_key=(j,)) for i in range(start, stop)]
        for j in range(3))
    channel = simulate_tripol_channel(rx_ports=rx_split, tx_ports=tx_split,
                                      z_gain_db=z_gain_db, xpr_db=xpr_db, rng=ch_seeds)
    h = channel.matrix
    row_power = np.mean(np.abs(h) ** 2, axis=-1)
    power = 10.0 ** (pilot_snr_db / 10.0)
    est = estimate_joint(channel, group_ports(row_power, rule="median"), pilot_snr_db,
                         pilot_snr_db, est_seeds).assembled
    err_joint = scalar_aligned(est, h)[1]
    c_joint = _row_space_capacity(h, est, power)
    del est  # finish one estimate before building the next: few channel-sized stacks live
    per_port = pilot_snr_db + 10.0 * np.log10(row_power / row_power.max(axis=-1, keepdims=True))
    est = benchmark_uplink_only(channel, per_port, bench_seeds)
    err_bench = scalar_aligned(est, h)[1]
    c_bench = _row_space_capacity(h, est, power)
    return np.stack([c_joint, c_bench, err_joint**2, err_bench**2], axis=-1)


def _run_tri_pol(scn: sc.TriPolScenario, seed: int, scale: float,
                 jobs: int) -> dict[str, ResultTable]:
    trials = scn.trials(scale)
    half = scn.bs_ports // 2
    payload = (seed, STUDY_IDS[sc.TRI_POL], scn.rx_split(),
               (half, scn.bs_ports - half, 0), scn.z_gain_db, scn.xpr_db, scn.pilot_snr_db)
    rows = _map_chunks(functools.partial(_tri_pol_chunk, payload=payload), trials, jobs)
    c_joint, c_bench, mse_joint, mse_bench = np.ascontiguousarray(rows.T)

    cdf = ResultTable(
        columns=(Column("percentile", "%"), Column("joint_capacity", "bit/s/Hz"),
                 Column("benchmark_capacity", "bit/s/Hz")),
        metadata=_metadata(scn, seed, scale))
    for p, joint, bench in zip(scn.percentiles, tripol.percentiles(c_joint, scn.percentiles),
                               tripol.percentiles(c_bench, scn.percentiles)):
        cdf.append(float(p), joint, bench)

    summary = ResultTable(columns=(Column("metric"), Column("value")),
                          metadata=_metadata(scn, seed, scale))
    for metric, value in (("trials", trials), ("mean_capacity_joint_bit_s_hz", c_joint.mean()),
                          ("mean_capacity_benchmark_bit_s_hz", c_bench.mean()),
                          ("mean_mse_joint", mse_joint.mean()),
                          ("mean_mse_benchmark", mse_bench.mean()),
                          ("joint_mse_win_fraction", np.mean(mse_joint < mse_bench))):
        summary.append(metric, float(value))
    return {"capacity_cdf": cdf, "summary": summary}


# ---------------------------------------------------------------------------
# core-kernel validation sweep


def _run_em_core(scn: sc.EmCoreValidationScenario, seed: int, scale: float,
                 jobs: int) -> dict[str, ResultTable]:
    ctx = WaveContext.from_frequency(sc.REFERENCE_FREQUENCY_HZ)
    rng = realization_rng(seed, STUDY_IDS[sc.EM_CORE_VALIDATION], 0)
    k0 = ctx.wavenumber
    sweep = np.geomspace(scn.k0r_min, scn.k0r_max, sc.EM_CORE_SWEEP_POINTS)

    decomp = ResultTable(columns=(Column("k0r"), Column("relative_residual")),
                         metadata=_metadata(scn, seed, scale))
    per_point = scn.samples // sweep.size
    s = np.zeros(3)
    for k0r in sweep:
        # one batch of random directions per sweep point; the rows come out
        # of the generator in the order single draws of 3 would
        directions = rng.standard_normal((per_point, 3))
        r = directions / np.linalg.norm(directions, axis=-1, keepdims=True) * (k0r / k0)
        g_inf, g_rnf, g_ff = green_decomposition(r, s, ctx)
        g = dyadic_green(r, s, ctx)
        residual = (np.linalg.norm(g_inf + g_rnf + g_ff - g, axis=(-2, -1))
                    / np.linalg.norm(g, axis=(-2, -1)))
        decomp.append(float(k0r), float(residual.max()))

    regions = ResultTable(
        columns=(Column("frequency", "Hz"), Column("aperture", "m"),
                 Column("reactive_boundary", "m"), Column("rayleigh_distance", "m")),
        metadata=_metadata(scn, seed, scale))
    for freq, aperture in scn.region_cases:
        case_ctx = WaveContext.from_frequency(float(freq))
        regions.append(float(freq), float(aperture),
                       float(reactive_boundary(float(aperture), case_ctx)),
                       float(rayleigh_distance(float(aperture), case_ctx)))
    return {"decomposition": decomp, "regions": regions}


# ---------------------------------------------------------------------------
# dispatch


_RUNNERS = {
    sc.DENSELY_SPACED: _run_densely_spaced,
    sc.NEAR_FIELD: _run_near_field,
    sc.TRI_POL: _run_tri_pol,
    sc.EM_CORE_VALIDATION: _run_em_core,
}

_AXES_NOTES = {
    (sc.DENSELY_SPACED, "capacity"):
        "x: receive element spacing (wavelengths); y: mean capacity (bit/s/Hz); one series per scheme",
    (sc.NEAR_FIELD, "correlation"):
        "x: user distance (m); y: correlation between planar and exact wavefront channels",
    (sc.NEAR_FIELD, "phase_profile"):
        "x: element index; y: per-element phase (rad), exact vs planar",
    (sc.TRI_POL, "capacity_cdf"):
        "x: capacity (bit/s/Hz); y: cumulative probability (percentile rows)",
    (sc.TRI_POL, "summary"):
        "scalar comparison metrics, one per row",
    (sc.EM_CORE_VALIDATION, "decomposition"):
        "x: normalized distance k0*r; y: worst relative residual of the three-term kernel split",
    (sc.EM_CORE_VALIDATION, "regions"):
        "field-region boundary distances per carrier/aperture case",
}


def run_study(scn, seed: int | None = None, scale: float = 1.0,
              jobs: int = 1) -> dict[str, ResultTable]:
    """Run one study; returns result tables keyed by table name."""
    problems = validate_scenario(scn)
    if seed is not None and seed < 0:
        problems.append(f"seed: must be nonnegative, got {seed!r}")
    if not math.isfinite(scale):
        problems.append(f"scale: must be finite, got {scale!r}")
    elif scale <= 0:
        problems.append("scale: must be positive")
    if jobs < 1:
        problems.append("jobs: must be >= 1")
    if problems:
        raise ValidationError(problems)
    _bind_study(scn.study)  # a scenario built in code
    effective = scn.master_seed if seed is None else int(seed)
    return _RUNNERS[scn.study](scn, effective, scale, jobs)


def axes_note(study: str, table_key: str) -> str:
    return _AXES_NOTES.get((study, table_key), "tabular output")


def manifest_text(scn, tables: dict[str, ResultTable], fmt: str, seed: int,
                  scale: float) -> str:
    lines = [f"study: {scn.study}", f"scenario: {scn.name}", f"seed: {seed}", f"scale: {scale}",
             f"version: {VERSION}", f"scenario_hash: {scenario_hash(scn)}", ""]
    for key, table in tables.items():
        lines += [f"table: {key}.{fmt}",
                  f"  columns: {', '.join(c.header() for c in table.columns)}",
                  f"  rows: {len(table.rows)}", f"  axes: {axes_note(scn.study, key)}"]
    return "\n".join(lines) + "\n"
