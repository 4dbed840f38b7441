import dataclasses
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from emchan import (
    DomainError,
    Pattern,
    PatternSet,
    ShapeError,
    VmfCluster,
    VmfMixture,
    WaveContext,
    apply_polarization,
    assemble_channel,
    bundled_cdl_b,
    cell_power_fractions,
    coupling_variances,
    dipole,
    fourier_harmonics,
    hannan_efficiency,
    isotropic_mixture,
    mixture_from_clusters,
    patch,
    sample_wavenumber_channel,
    uniform_planar_array,
    unit_gain,
    vertical,
    vmf_pdf,
    wavenumber_support,
)
from emchan import wavenumber
from emchan.wavenumber import _box_masses, _gauss_legendre, _hemisphere_mass, _scaled_i0

CTX = WaveContext.from_frequency(4.7e9)
LAM = CTX.wavelength


def sphere_integral(fn, n_theta=128, n_phi=256):
    tg, tw = leggauss(n_theta)
    pg, pw = leggauss(n_phi)
    theta = 0.5 * np.pi * (tg + 1)
    phi = np.pi * (pg + 1)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    w = np.outer(0.5 * np.pi * tw, np.pi * pw)
    return float(np.sum(w * fn(th, ph) * np.sin(th)))


def wavenumber_to_angles(l_x, l_y, length_x, length_y, ctx):
    """Propagation angles (theta, phi) of one lattice index on the front
    hemisphere, one index at a time."""
    lam = ctx.wavelength
    if (l_x * lam / length_x) ** 2 + (l_y * lam / length_y) ** 2 > 1.0:
        raise DomainError(f"index ({l_x}, {l_y}) lies outside the propagating disk")
    k0 = ctx.wavenumber
    k_x = 2.0 * np.pi * l_x / length_x
    k_y = 2.0 * np.pi * l_y / length_y
    k_z = np.sqrt(max(k0**2 - k_x**2 - k_y**2, 0.0))
    return float(np.arccos(np.clip(k_z / k0, -1.0, 1.0))), float(np.arctan2(k_y, k_x))


def brute_support(length_x, length_y, lam, margin=6):
    nx = int(np.ceil(length_x / lam)) + margin
    ny = int(np.ceil(length_y / lam)) + margin
    out = []
    for lx in range(-nx, nx + 1):
        for ly in range(-ny, ny + 1):
            if (lx * lam / length_x) ** 2 + (ly * lam / length_y) ** 2 <= 1.0:
                out.append((lx, ly))
    return sorted(out)


def test_support_counts_for_study_apertures():
    assert len(wavenumber_support(4 * LAM, 4 * LAM, CTX).indices) == 49
    assert len(wavenumber_support(LAM, LAM, CTX).indices) == 5


def test_support_matches_brute_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(20):
        lx = rng.uniform(0.3, 6.0) * LAM
        ly = rng.uniform(0.3, 6.0) * LAM
        sup = wavenumber_support(lx, ly, CTX)
        assert list(sup.indices) == brute_support(lx, ly, LAM)


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0, 10.0, 50.0])
def test_vmf_normalization(alpha):
    cluster = VmfCluster(weight=1.0, mean_theta=0.9, mean_phi=-2.1, concentration=alpha)
    total = sphere_integral(lambda th, ph: vmf_pdf(th, ph, cluster))
    # front hemisphere only covers theta in [0, pi/2]; integrate both halves
    tg, tw = leggauss(128)
    pg, pw = leggauss(256)
    theta = 0.5 * np.pi * (tg + 1) + 0.5 * np.pi
    phi = np.pi * (pg + 1)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    w = np.outer(0.5 * np.pi * tw, np.pi * pw)
    total += float(np.sum(w * vmf_pdf(th, ph, cluster) * np.sin(th)))
    assert abs(total - 1.0) < 1e-6


def test_vmf_mixture_weight_check():
    c = VmfCluster(weight=0.5, mean_theta=0.3, mean_phi=0.0, concentration=2.0)
    with pytest.raises(DomainError):
        VmfMixture(clusters=(c,))
    with pytest.raises(DomainError):
        VmfCluster(weight=1.0, mean_theta=0.0, mean_phi=0.0, concentration=-1.0)


def vmf_pdf_oracle(theta, phi, cluster):
    """One cluster's density with its own sin and cos of theta."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    a = cluster.concentration
    if a == 0.0:
        return np.broadcast_to(1.0 / (4.0 * np.pi), np.broadcast_shapes(theta.shape, phi.shape)).copy()
    cosg = (
        np.sin(theta) * np.sin(cluster.mean_theta) * np.cos(phi - cluster.mean_phi)
        + np.cos(theta) * np.cos(cluster.mean_theta)
    )
    return a * np.exp(a * (cosg - 1.0)) / (2.0 * np.pi * (1.0 - np.exp(-2.0 * a)))


def mixture_pdf_oracle(aps, theta, phi):
    """The mixture density as a per-cluster sum of vmf_pdf_oracle, in cluster order."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast_shapes(theta.shape, np.shape(phi)), dtype=float)
    for c in aps.clusters:
        out += c.weight * vmf_pdf_oracle(theta, phi, c)
    return out


def hemisphere_mass_oracle(aps, n_theta=512, n_phi=1024):
    """Front-hemisphere mass on a full meshgrid of numpy's Gauss-Legendre nodes."""
    tg, tw = leggauss(n_theta)
    pg, pw = leggauss(n_phi)
    theta = 0.25 * np.pi * (tg + 1.0)
    phi = np.pi * (pg + 1.0)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    wt = np.outer(0.25 * np.pi * tw, np.pi * pw)
    return float(np.sum(wt * mixture_pdf_oracle(aps, th, ph) * np.sin(th)))


QUADRATURE_SPECTRA = {
    "isotropic": isotropic_mixture(),
    "cdl-b": mixture_from_clusters(bundled_cdl_b(), "arrival", "-x"),
    # an isotropic floor under two directional clusters
    "mixed": VmfMixture(clusters=(VmfCluster(0.2, 0.0, 0.0, 0.0),
                                  VmfCluster(0.5, 0.4, -1.2, 12.0),
                                  VmfCluster(0.3, 1.5, 2.0, 300.0))),
}


@pytest.mark.parametrize("spectrum", sorted(QUADRATURE_SPECTRA))
def test_mixture_pdf_equals_per_cluster_sum_bit_for_bit(spectrum):
    aps = QUADRATURE_SPECTRA[spectrum]
    rng = np.random.default_rng(21)
    theta = rng.uniform(0.0, np.pi, 37)
    phi = rng.uniform(-np.pi, np.pi, 53)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    grids = {
        "meshgrid": (th, ph),
        "broadcast": (theta[:, None], phi[None, :]),
        "broadcast-3d": (theta[:, None, None], np.stack([phi, phi[::-1]], axis=-1)[None]),
    }
    for label, (t, p) in grids.items():
        got = aps.pdf(t, p)
        want = mixture_pdf_oracle(aps, t, p)
        assert got.shape == want.shape, label
        assert np.array_equal(got, want), label
    assert np.array_equal(aps.pdf(*grids["broadcast"]), aps.pdf(th, ph))
    for c in aps.clusters:
        assert np.array_equal(vmf_pdf(th, ph, c), vmf_pdf_oracle(th, ph, c))


def test_scaled_bessel_matches_mpmath_on_both_sides_of_the_series_switch():
    # np.i0(x) exp(-x) up to x = 700, the large-argument series beyond
    x = np.array([0.0, 1e-3, 1.0, 8.0, 30.0, 699.5, 700.0, 700.5, 1e4, 1e9])
    want = [float(mp.besseli(0, v) * mp.exp(-v)) for v in map(mp.mpf, x)]
    np.testing.assert_allclose(_scaled_i0(x), want, rtol=2e-15, atol=0)


def mp_legendre_pair(n, x):
    """P_{n-1}(x) and P_n(x) in mpmath by the three-term recurrence."""
    prev, cur = mp.mpf(1), x
    for j in range(2, n + 1):
        prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
    return prev, cur


def gauss_legendre_oracle(n):
    """The n-point rule at 32 digits: Newton's method on P_n from numpy's
    nodes, and weights 2 (1 - x^2) / (n P_{n-1}(x))^2."""
    nodes, weights = [], []
    with mp.workdps(32):
        for start in leggauss(n)[0]:
            x = mp.mpf(float(start))
            for _ in range(3):
                prev, cur = mp_legendre_pair(n, x)
                step = cur * (1 - x * x) / (n * (prev - x * cur))
                x -= step
            assert abs(step) < mp.mpf(10) ** -28
            prev, _ = mp_legendre_pair(n, x)
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * prev) ** 2))
    return np.array(nodes), np.array(weights)


def test_gauss_legendre_nodes_are_cached_and_read_only():
    nodes, weights = _gauss_legendre(128)
    assert _gauss_legendre(128)[0] is nodes
    for arr in (nodes, weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for n in (1, 2, 16, 64, 128, 256):
        nodes, weights = _gauss_legendre(n)
        ref_nodes, ref_weights = gauss_legendre_oracle(n)
        assert np.all(np.abs(nodes - ref_nodes) <= 2 * np.spacing(np.abs(ref_nodes))), n
        assert np.max(np.abs(weights - ref_weights)) <= 2e-14, n
        if n <= 64:
            for k in range(2 * n):
                exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                assert abs(np.sum(weights * nodes**k) - exact) <= 1e-14, (n, k)


# a densely-spaced run with every numpy eigensolver refused; prints the
# numpy.polynomial modules the process loaded
_EIGENSOLVER_FREE_RUN = """
import sys
import numpy as np
import emchan

def refuse(*args, **kwargs):
    raise AssertionError("an eigensolver ran")

np.linalg.eigh = np.linalg.eigvalsh = refuse
emchan.run_study(emchan.DenselySpacedScenario(name="d"), scale=0.02, jobs=1)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "polynomial"]))
"""


def test_densely_spaced_run_needs_no_eigensolver_and_no_polynomial_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wavenumber.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _EIGENSOLVER_FREE_RUN], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def cell_measure_oracle(l_x, l_y, length_x, length_y, aps, ctx, order):
    """Integral of the spectrum over one lattice cell clipped to the disk, one
    Python step per k_x node: the reference for the array-valued quadrature."""
    k0 = ctx.wavenumber
    xg, xw = leggauss(order)
    kx_lo = max(2.0 * np.pi * (l_x - 0.5) / length_x, -k0)
    kx_hi = min(2.0 * np.pi * (l_x + 0.5) / length_x, k0)
    if kx_hi <= kx_lo:
        return 0.0
    kx = 0.5 * (kx_hi + kx_lo) + 0.5 * (kx_hi - kx_lo) * xg
    wx = 0.5 * (kx_hi - kx_lo) * xw
    total = 0.0
    for kxi, wxi in zip(kx, wx):
        b2 = k0**2 - kxi**2
        if b2 <= 0.0:
            continue
        b = np.sqrt(b2)
        ky_lo = max(2.0 * np.pi * (l_y - 0.5) / length_y, -b)
        ky_hi = min(2.0 * np.pi * (l_y + 0.5) / length_y, b)
        if ky_hi <= ky_lo:
            continue
        u_lo = np.arcsin(np.clip(ky_lo / b, -1.0, 1.0))
        u_hi = np.arcsin(np.clip(ky_hi / b, -1.0, 1.0))
        u = 0.5 * (u_hi + u_lo) + 0.5 * (u_hi - u_lo) * xg
        wu = 0.5 * (u_hi - u_lo) * xw
        ky = b * np.sin(u)
        kz = b * np.cos(u)
        theta = np.arccos(np.clip(kz / k0, -1.0, 1.0))
        phi = np.arctan2(ky, kxi)
        total += wxi * float(np.sum(wu * aps.pdf(theta, phi))) / k0
    return total


def cell_fractions_oracle(support, aps, ctx, order):
    """Per-cell fractions from one oracle call per cell, rim slivers merged
    into the nearest support cells in row-major order."""
    lengths = (support.length_x, support.length_y)
    values = {idx: cell_measure_oracle(*idx, *lengths, aps, ctx, order) for idx in support.indices}
    in_support = set(support.indices)
    nx = int(np.ceil(support.length_x / support.wavelength)) + 2
    ny = int(np.ceil(support.length_y / support.wavelength)) + 2
    for lx in range(-nx, nx + 1):
        for ly in range(-ny, ny + 1):
            if (lx, ly) in in_support:
                continue
            mass = cell_measure_oracle(lx, ly, *lengths, aps, ctx, order)
            if mass <= 0.0:
                continue
            dists = [
                (((lx - sx) / lengths[0]) ** 2 + ((ly - sy) / lengths[1]) ** 2, (sx, sy))
                for sx, sy in support.indices
            ]
            dmin = min(dists)[0]
            nearest = [s for d, s in dists if d <= dmin * (1.0 + 1e-12)]
            for s in nearest:
                values[s] += mass / len(nearest)
    return np.array([values[idx] for idx in support.indices]) / _hemisphere_mass(aps)


ORACLE_SPECTRA = {
    "isotropic": isotropic_mixture(),
    "cdl-b": mixture_from_clusters(bundled_cdl_b(), "arrival", "-x"),
    "rim-cluster": VmfMixture(clusters=(VmfCluster(1.0, np.radians(88.0), 0.3, 200.0),)),
    "two-cluster": VmfMixture(clusters=(VmfCluster(0.7, 0.4, -1.2, 12.0),
                                        VmfCluster(0.3, 1.3, 2.0, 3.0))),
}
ORACLE_SUPPORTS = ((1.0, 1.0), (4.0, 4.0), (0.6, 0.6), (7.3, 7.3), (2.5, 1.0), (4.0, 0.6))


HEMISPHERE_SPECTRA = {
    **QUADRATURE_SPECTRA,
    **ORACLE_SPECTRA,
    "cdl-b-departure": mixture_from_clusters(bundled_cdl_b(), "departure", "+x"),
    # the peak on the pole, and one whose x = kappa sin(theta) sin(theta_c)
    # reaches 1,740, beyond the switch to the series at 700
    "pole": VmfMixture(clusters=(VmfCluster(1.0, 0.0, 0.3, 1000.0),)),
    "kappa-2000": VmfMixture(clusters=(VmfCluster(1.0, 1.2, 0.3, 2000.0),)),
}


@pytest.mark.parametrize("spectrum", sorted(HEMISPHERE_SPECTRA))
def test_hemisphere_mass_matches_meshgrid_oracle(spectrum):
    # the closed-form azimuth against a 512 x 1024 grid over (theta, phi)
    aps = HEMISPHERE_SPECTRA[spectrum]
    got, want = _hemisphere_mass(aps), hemisphere_mass_oracle(aps)
    rtol = 1e-13 if spectrum.startswith("cdl-b") else 1e-12
    assert abs(got - want) <= rtol * want, (got, want)


def test_hemisphere_mass_has_the_closed_form_values():
    # the uniform spectrum holds half its power in front, a cluster on the
    # pole (1 - e^-kappa) / (1 - e^-2 kappa) of it, one on the rim half of it
    assert _hemisphere_mass(isotropic_mixture()) == 0.5
    for kappa in (0.5, 3.0, 40.0, 1000.0):
        got = _hemisphere_mass(VmfMixture(clusters=(VmfCluster(1.0, 0.0, 0.3, kappa),)))
        want = np.expm1(-kappa) / np.expm1(-2.0 * kappa)
        assert abs(got - want) <= 1e-15 * want, kappa
    for kappa in (3.0, 200.0, 2000.0):
        got = _hemisphere_mass(VmfMixture(clusters=(VmfCluster(1.0, 0.5 * np.pi, 0.3, kappa),)))
        assert abs(got - 0.5) <= 1e-15, kappa


@pytest.mark.parametrize("order", [4, 16])
@pytest.mark.parametrize("spectrum", sorted(ORACLE_SPECTRA))
def test_cell_fractions_match_per_cell_oracle(spectrum, order):
    aps = ORACLE_SPECTRA[spectrum]
    for side_x, side_y in ORACLE_SUPPORTS:
        sup = wavenumber_support(side_x * LAM, side_y * LAM, CTX)
        np.testing.assert_allclose(cell_power_fractions(sup, aps, CTX, order),
                                   cell_fractions_oracle(sup, aps, CTX, order),
                                   rtol=1e-13, atol=0, err_msg=f"{side_x}x{side_y} wavelengths")


def box_masses_oracle(length_x, length_y, nx, ny, aps, ctx, order, live_counts=None):
    """The quadrature as one array-valued pass per k_x node over the whole
    (2nx+1) x (2ny+1) box, dead (node, cell) pairs masked to zero; appends
    each node's live pair count to ``live_counts`` when given."""
    k0 = ctx.wavenumber
    xg, xw = _gauss_legendre(order)
    l_x = np.arange(-nx, nx + 1)[:, None, None]
    l_y = np.arange(-ny, ny + 1)[None, :, None]
    kx_lo = np.maximum(2.0 * np.pi * (l_x - 0.5) / length_x, -k0)
    kx_hi = np.minimum(2.0 * np.pi * (l_x + 0.5) / length_x, k0)
    total = np.zeros((l_x.size, l_y.size, 1))
    for g, w in zip(xg, xw):
        kx = 0.5 * (kx_hi + kx_lo) + 0.5 * (kx_hi - kx_lo) * g
        b2 = k0**2 - kx**2
        live = (kx_hi > kx_lo) & (b2 > 0.0)
        b = np.sqrt(np.where(live, b2, 1.0))
        ky_lo = np.maximum(2.0 * np.pi * (l_y - 0.5) / length_y, -b)
        ky_hi = np.minimum(2.0 * np.pi * (l_y + 0.5) / length_y, b)
        u_lo = np.arcsin(np.clip(ky_lo / b, -1.0, 1.0))
        u_hi = np.arcsin(np.clip(ky_hi / b, -1.0, 1.0))
        u = 0.5 * (u_hi + u_lo) + 0.5 * (u_hi - u_lo) * xg
        wu = 0.5 * (u_hi - u_lo) * xw
        theta = np.arccos(np.clip(b * np.cos(u) / k0, -1.0, 1.0))
        phi = np.arctan2(b * np.sin(u), kx)
        mass = 0.5 * (kx_hi - kx_lo) * w * np.sum(wu * aps.pdf(theta, phi), -1, keepdims=True) / k0
        total += np.where(live & (ky_hi > ky_lo), mass, 0.0)
        if live_counts is not None:
            live_counts.append(int(np.count_nonzero(live & (ky_hi > ky_lo))))
    return total[..., 0]


def box_args(side_x, side_y):
    """_box_masses arguments before the spectrum: the sides and a box two cells wider than the support."""
    return (side_x * LAM, side_y * LAM, int(np.ceil(side_x)) + 2, int(np.ceil(side_y)) + 2)


# order 300 runs the supports up to 2.5 wavelengths: the per-node oracle takes
# about a minute more on the boxes with a 4- or 7.3-wavelength side
@pytest.mark.parametrize("order", [4, 16, 300])
@pytest.mark.parametrize("spectrum", sorted(ORACLE_SPECTRA))
def test_box_masses_equal_per_node_loop_bit_for_bit(spectrum, order):
    aps = ORACLE_SPECTRA[spectrum]
    for side_x, side_y in ORACLE_SUPPORTS:
        if order > 16 and max(side_x, side_y) > 2.5:
            continue
        args = box_args(side_x, side_y)
        assert np.array_equal(_box_masses(*args, aps, CTX, order),
                              box_masses_oracle(*args, aps, CTX, order)), f"{side_x}x{side_y}"


@pytest.mark.parametrize("spectrum", sorted(ORACLE_SPECTRA))
def test_box_masses_do_not_depend_on_the_block_size(spectrum, monkeypatch):
    aps, order = ORACLE_SPECTRA[spectrum], 16
    for side_x, side_y in ORACLE_SUPPORTS:
        args = box_args(side_x, side_y)
        counts = []
        want = box_masses_oracle(*args, aps, CTX, order, counts)
        assert counts[0] >= 3
        # one pair per block; then node 0 split over two blocks, the second
        # of which runs on into node 1
        for points in (order, (counts[0] - 1) * order):
            monkeypatch.setattr(wavenumber, "_QUAD_POINTS", points)
            assert np.array_equal(_box_masses(*args, aps, CTX, order), want), (side_x, side_y, points)


@pytest.mark.parametrize("spectrum", ["isotropic", "cdl-b"])
def test_cell_fractions_memory_is_linear_in_order(spectrum):
    # 300 Gauss nodes per axis on a 4-wavelength support (169 box cells): a
    # (cells, order, order) array takes 122 MB, a (cells, order) one 0.4 MB;
    # the 23-cluster CDL-B spectrum holds its per-point temporaries too
    sup = wavenumber_support(4 * LAM, 4 * LAM, CTX)
    tracemalloc.start()
    try:
        f = cell_power_fractions(sup, ORACLE_SPECTRA[spectrum], CTX, order=300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert abs(f.sum() - 1.0) < 1e-3


def test_cell_fractions_partition_of_unity():
    sup = wavenumber_support(4 * LAM, 4 * LAM, CTX)
    iso = isotropic_mixture()
    f = cell_power_fractions(sup, iso, CTX)
    assert f.shape == (49,)
    assert np.all(f >= 0)
    assert abs(f.sum() - 1.0) < 1e-3

    sup_r = wavenumber_support(LAM, LAM, CTX)
    f_r = cell_power_fractions(sup_r, iso, CTX)
    assert abs(f_r.sum() - 1.0) < 1e-3


def test_cell_fractions_concentrate_on_cluster_cell():
    # concentration 50 aimed at the center of lattice cell (3, 1) of the
    # 4-wavelength aperture: that cell must capture most of the power
    length = 4 * LAM
    kx = 2 * np.pi * 3 / length
    ky = 2 * np.pi * 1 / length
    k0 = CTX.wavenumber
    gamma = np.sqrt(k0**2 - kx**2 - ky**2)
    theta = float(np.arccos(gamma / k0))
    phi = float(np.arctan2(ky, kx))
    mix = VmfMixture(clusters=(VmfCluster(1.0, theta, phi, 50.0),))
    sup = wavenumber_support(length, length, CTX)
    f = cell_power_fractions(sup, mix, CTX)
    idx = list(sup.indices).index((3, 1))
    assert f[idx] > 0.5
    assert abs(f.sum() - 1.0) < 1e-3


def test_coupling_variances_outer_product():
    sup_s = wavenumber_support(4 * LAM, 4 * LAM, CTX)
    sup_r = wavenumber_support(LAM, LAM, CTX)
    iso = isotropic_mixture()
    cv = coupling_variances(sup_r, sup_s, iso, iso, CTX)
    assert cv.shape == (5, 49)
    f_r = cell_power_fractions(sup_r, iso, CTX)
    f_s = cell_power_fractions(sup_s, iso, CTX)
    assert np.allclose(cv, np.outer(f_r, f_s), rtol=0, atol=1e-15)


def test_sampling_moments():
    rng = np.random.default_rng(8)
    var = np.outer(np.linspace(0.5, 1.5, 5), np.linspace(0.2, 2.0, 5))
    var /= var.sum()
    n = 20000
    acc = np.zeros((5, 5))
    mean_acc = np.zeros((5, 5), dtype=complex)
    for _ in range(n):
        h = sample_wavenumber_channel(var, rng)
        acc += np.abs(h) ** 2
        mean_acc += h
    assert np.max(np.abs(acc / n - var) / var) < 0.06
    assert np.max(np.abs(mean_acc / n)) < 0.02


def test_polarization_blocks():
    rng = np.random.default_rng(4)
    h_a = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    pol = apply_polarization(h_a, 8.0, 3.0, rng)
    assert pol.shape == (10, 14)
    h_tt, h_tp, h_pt, h_pp = pol[:5, :7], pol[:5, 7:], pol[5:, :7], pol[5:, 7:]
    for blk in (h_tt, h_pp):
        assert np.allclose(np.abs(blk), np.abs(h_a), rtol=0, atol=1e-12)
    ratio_t = np.abs(h_tp) / np.abs(h_tt)
    ratio_p = np.abs(h_pt) / np.abs(h_pp)
    assert np.allclose(ratio_t, ratio_p, rtol=1e-12, atol=0)
    assert np.all(ratio_t > 0)

    huge = apply_polarization(h_a, 300.0, 0.0, rng)
    assert np.max(np.abs(huge[:5, 7:])) < 1e-14 * np.max(np.abs(h_a))


def test_harmonics_reference_column_and_entry_oracle():
    sup = wavenumber_support(LAM, LAM, CTX)
    arr = uniform_planar_array(LAM, LAM, LAM / 2, LAM / 2)
    pats = PatternSet.uniform(unit_gain())
    psi_t, psi_p = np.split(fourier_harmonics(arr, sup, pats, CTX), 2, axis=1)
    n = len(arr)
    assert n == 9
    i00 = list(sup.indices).index((0, 0))
    assert np.allclose(psi_t[:, i00], np.full(n, 1 / np.sqrt(n)), rtol=0, atol=1e-14)
    assert np.allclose(np.abs(psi_p[:, i00]), np.abs(psi_t[:, i00]), atol=1e-14)

    # entrywise oracle with a directional pattern
    pats_d = PatternSet.uniform(dipole())
    psi_t, psi_p = np.split(fourier_harmonics(arr, sup, pats_d, CTX), 2, axis=1)
    k0 = CTX.wavenumber
    pat = dipole()
    for q in (0, 4, 8):
        for i, (lx, ly) in enumerate(sup.indices):
            kx = 2 * np.pi * lx / LAM
            ky = 2 * np.pi * ly / LAM
            gamma = np.sqrt(max(k0**2 - kx**2 - ky**2, 0.0))
            ft, fp = pat.gains(*wavenumber_to_angles(lx, ly, LAM, LAM, CTX))
            x, y, z = arr[q]
            want = np.exp(1j * (kx * x + ky * y + gamma * z)) / np.sqrt(n)
            assert abs(psi_t[q, i] - want * complex(ft)) < 1e-14
            assert abs(psi_p[q, i] - want * complex(fp)) < 1e-14


def test_per_element_harmonics_entry_oracle_and_count():
    sup = wavenumber_support(2 * LAM, LAM, CTX)
    arr = uniform_planar_array(2 * LAM, LAM, LAM / 2, LAM / 2, z=0.1 * LAM)
    kinds = (dipole("x"), dipole("y"), dipole("z"), patch(70.0), unit_gain())
    pats = PatternSet.per_element([kinds[q % len(kinds)] for q in range(len(arr))])
    psi = fourier_harmonics(arr, sup, pats, CTX)
    assert psi.shape == (len(arr), 2 * len(sup.indices))
    psi_t, psi_p = np.split(psi, 2, axis=1)
    k0 = CTX.wavenumber
    n = len(arr)
    for q in range(n):
        for i, (lx, ly) in enumerate(sup.indices):
            kx = 2 * np.pi * lx / (2 * LAM)
            ky = 2 * np.pi * ly / LAM
            gamma = np.sqrt(max(k0**2 - kx**2 - ky**2, 0.0))
            ft, fp = pats.patterns[q].gains(*wavenumber_to_angles(lx, ly, 2 * LAM, LAM, CTX))
            x, y, z = arr[q]
            want = np.exp(1j * (kx * x + ky * y + gamma * z)) / np.sqrt(n)
            assert abs(psi_t[q, i] - want * complex(ft)) < 1e-14
            assert abs(psi_p[q, i] - want * complex(fp)) < 1e-14

    for count in (n - 1, n + 1):
        wrong = PatternSet.per_element([dipole()] * count)
        with pytest.raises(ShapeError):
            fourier_harmonics(arr, sup, wrong, CTX)


def test_wavenumber_angles_roundtrip_and_domain():
    # the angles fourier_harmonics hands the element pattern, per support index
    seen = {}

    def probe(theta, phi):
        seen["theta"], seen["phi"] = theta, phi
        return np.ones_like(theta)

    sup = wavenumber_support(3 * LAM, 2 * LAM, CTX)
    arr = uniform_planar_array(3 * LAM, 2 * LAM, LAM / 2, LAM / 2)
    fourier_harmonics(arr, sup, PatternSet.uniform(Pattern("probe", probe, probe)), CTX)
    for i, (lx, ly) in enumerate(sup.indices):
        theta, phi = wavenumber_to_angles(lx, ly, 3 * LAM, 2 * LAM, CTX)
        assert np.allclose(seen["theta"][:, i], theta, rtol=0.0, atol=1e-12)
        assert np.allclose(seen["phi"][:, i], phi, rtol=0.0, atol=1e-12)
    evanescent = dataclasses.replace(sup, indices=((7, 0),))
    with pytest.raises(DomainError, match="evanescent"):
        fourier_harmonics(arr, evanescent, PatternSet.uniform(unit_gain()), CTX)

    theta, phi = wavenumber_to_angles(0, 0, LAM, LAM, CTX)
    assert theta == pytest.approx(0.0, abs=1e-12)
    k0 = CTX.wavenumber
    for lx, ly in ((1, 0), (0, -1), (2, 1)):
        length = 4 * LAM
        theta, phi = wavenumber_to_angles(lx, ly, length, length, CTX)
        kx = k0 * np.sin(theta) * np.cos(phi)
        ky = k0 * np.sin(theta) * np.sin(phi)
        assert kx == pytest.approx(2 * np.pi * lx / length, abs=1e-9)
        assert ky == pytest.approx(2 * np.pi * ly / length, abs=1e-9)
    with pytest.raises(DomainError):
        wavenumber_to_angles(2, 0, LAM, LAM, CTX)


def test_hannan_efficiency_values():
    assert hannan_efficiency(LAM / 2, LAM / 2, CTX) == pytest.approx(np.pi / 4, abs=1e-12)
    assert hannan_efficiency(LAM / 8, LAM / 8, CTX) == pytest.approx(np.pi / 64, abs=1e-12)
    assert hannan_efficiency(LAM / 4, LAM / 4, CTX) == pytest.approx(np.pi / 16, abs=1e-12)
    assert hannan_efficiency(LAM, LAM, CTX) == 1.0


def test_uniform_planar_array_grid():
    arr = uniform_planar_array(LAM, LAM, LAM / 8, LAM / 8)
    assert len(arr) == 81
    assert arr[:, 0].min() == 0.0
    assert arr[:, 0].max() == pytest.approx(LAM)
    with pytest.raises(DomainError):
        uniform_planar_array(LAM, LAM, 0.3 * LAM, 0.3 * LAM)


def test_assemble_channel_block_oracle():
    rng = np.random.default_rng(12)
    sup = wavenumber_support(LAM, LAM, CTX)
    arr_r = uniform_planar_array(LAM, LAM, LAM / 2, LAM / 2)
    arr_s = uniform_planar_array(LAM, LAM, LAM / 4, LAM / 4)
    pats = PatternSet.uniform(dipole())
    psi_r = fourier_harmonics(arr_r, sup, pats, CTX)
    psi_s = fourier_harmonics(arr_s, sup, pats, CTX)
    pr_t, pr_p = np.split(psi_r, 2, axis=1)
    ps_t, ps_p = np.split(psi_s, 2, axis=1)
    h_a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    pol = apply_polarization(h_a, 8.0, 3.0, rng)
    h_tt, h_tp, h_pt, h_pp = pol[:5, :5], pol[:5, 5:], pol[5:, :5], pol[5:, 5:]
    c_r, c_s = 0.9, 0.7
    h = assemble_channel(c_r * psi_r, pol, c_s * psi_s)
    assert h.shape == (len(arr_r), len(arr_s))
    for u in (0, 5):
        for v in (0, 11):
            acc = 0j
            for b in range(5):
                for a in range(5):
                    acc += pr_t[u, b] * h_tt[b, a] * np.conj(ps_t[v, a])
                    acc += pr_t[u, b] * h_tp[b, a] * np.conj(ps_p[v, a])
                    acc += pr_p[u, b] * h_pt[b, a] * np.conj(ps_t[v, a])
                    acc += pr_p[u, b] * h_pp[b, a] * np.conj(ps_p[v, a])
            want = c_r * c_s * acc
            assert abs(h[u, v] - want) < 1e-12 * max(1.0, abs(want))


def test_assemble_channel_linearity():
    rng = np.random.default_rng(13)
    sup = wavenumber_support(LAM, LAM, CTX)
    arr = uniform_planar_array(LAM, LAM, LAM / 2, LAM / 2)
    pats = PatternSet.uniform(unit_gain())
    psi = fourier_harmonics(arr, sup, pats, CTX)
    h_a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    pol = apply_polarization(h_a, 8.0, 3.0, rng)
    h1 = assemble_channel(psi, pol, psi)

    # doubling H_a doubles each block, so the assembled channel doubles
    h2 = assemble_channel(psi, 2 * pol, psi)
    assert np.allclose(h2, 2 * h1, rtol=1e-12, atol=0)


def test_assemble_channel_refuses_stacked_receive_harmonics():
    sup = wavenumber_support(LAM, LAM, CTX)
    arr = uniform_planar_array(LAM, LAM, LAM / 2, LAM / 2)
    pats = PatternSet.uniform(unit_gain())
    psi = fourier_harmonics(arr, sup, pats, CTX)
    rng = np.random.default_rng(1)
    pol = apply_polarization(rng.normal(size=(5, 5)) + 0j, 8.0, 3.0, rng)
    # one set of receive harmonics: a stack of them is refused, not broadcast
    with pytest.raises(ShapeError):
        assemble_channel(np.stack([psi, psi]), pol, psi)


def test_shared_draw_equals_one_draw_per_variance_set_bit_for_bit():
    sup_r = wavenumber_support(LAM, LAM, CTX)
    sup_s = wavenumber_support(2 * LAM, 2 * LAM, CTX)
    iso = isotropic_mixture()
    cdl = mixture_from_clusters(bundled_cdl_b(), "arrival", "-x")
    sets = np.stack([coupling_variances(sup_r, sup_s, iso, iso, CTX, 6),
                     coupling_variances(sup_r, sup_s, cdl, iso, CTX, 6)])
    rng = np.random.default_rng(np.random.SeedSequence([3, 1, 7]))
    shared = apply_polarization(sample_wavenumber_channel(sets, rng), 8.0, 3.0, rng)
    assert shared.shape == (2, 2 * len(sup_r.indices), 2 * len(sup_s.indices))
    for j, var in enumerate(sets):
        rng = np.random.default_rng(np.random.SeedSequence([3, 1, 7]))
        alone = apply_polarization(sample_wavenumber_channel(var, rng), 8.0, 3.0, rng)
        assert np.array_equal(shared[j], alone)


def test_stacked_assemble_channel_matches_per_draw_calls():
    rng = np.random.default_rng(14)
    sup = wavenumber_support(LAM, LAM, CTX)
    arr_r = uniform_planar_array(LAM, LAM, LAM / 4, LAM / 4)
    arr_s = uniform_planar_array(LAM, LAM, LAM / 2, LAM / 2)
    pats = PatternSet.uniform(dipole())
    psi_r = fourier_harmonics(arr_r, sup, pats, CTX)
    psi_s = fourier_harmonics(arr_s, sup, pats, CTX)
    psi_r, psi_s = 0.9 * psi_r, 0.9 * psi_s  # per-element amplitude weights
    draws = [apply_polarization(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)),
                                8.0, 3.0, rng) for _ in range(3)]
    h = assemble_channel(psi_r, np.stack(draws), psi_s)
    assert h.shape == (3, len(arr_r), len(arr_s))
    for d, h_d in zip(draws, h):
        assert np.array_equal(h_d, assemble_channel(psi_r, d, psi_s))


def _study_variance_sets():
    """The densely-spaced study's two variance sets at reduced quadrature
    order: 1-wavelength receive and 2-wavelength transmit apertures."""
    sup_r = wavenumber_support(LAM, LAM, CTX)
    sup_s = wavenumber_support(2 * LAM, 2 * LAM, CTX)
    iso = isotropic_mixture()
    cdl = mixture_from_clusters(bundled_cdl_b(), "arrival", "-x")
    return np.stack([coupling_variances(sup_r, sup_s, iso, iso, CTX, 6),
                     coupling_variances(sup_r, sup_s, cdl, iso, CTX, 6)])


@pytest.mark.parametrize("draws", [1, 3])
def test_list_of_generators_equals_one_call_per_generator_bit_for_bit(draws):
    sets = _study_variance_sets()
    seeds = [np.random.SeedSequence([3, 1, i]) for i in range(draws)]
    rngs = [np.random.default_rng(s) for s in seeds]
    h_a = sample_wavenumber_channel(sets, rngs)
    assert h_a.shape == (2, draws) + sets.shape[1:]
    pol = apply_polarization(h_a, 8.0, 3.0, rngs)
    assert pol.shape == (2, draws, 2 * sets.shape[1], 2 * sets.shape[2])
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        alone = sample_wavenumber_channel(sets, rng)
        assert np.array_equal(h_a[:, k], alone)
        assert np.array_equal(pol[:, k], apply_polarization(alone, 8.0, 3.0, rng))
    # seeds work in place of generators, and one list entry is the stack of one
    assert np.array_equal(sample_wavenumber_channel(sets[1], seeds[:1])[0],
                          sample_wavenumber_channel(sets[1], np.random.default_rng(seeds[0])))


def test_list_of_generators_needs_one_draw_per_generator():
    h_a = np.ones((2, 3, 4), dtype=complex)
    with pytest.raises(ShapeError):
        apply_polarization(h_a, 8.0, 3.0, [np.random.default_rng(0)] * 3)
    assert apply_polarization(h_a, 8.0, 3.0, [0, 1]).shape == (2, 6, 8)


@pytest.mark.parametrize("draws", [1, 2, 7, 8])
def test_flat_transmit_product_equals_per_draw_product_bit_for_bit(draws):
    # the densely-spaced study's shapes: (10, 98) polarized draws of a
    # 1-wavelength receive and 4-wavelength transmit support, the (5, 10)
    # receive gain block E_R = [D_theta D_phi] and the (49, 98) compressed
    # transmit harmonics R [D_theta D_phi] of 81 elements
    sup_r = wavenumber_support(LAM, LAM, CTX)
    sup_s = wavenumber_support(4 * LAM, 4 * LAM, CTX)
    pats = PatternSet.uniform(dipole())
    phases = fourier_harmonics(uniform_planar_array(4 * LAM, 4 * LAM, LAM / 2, LAM / 2), sup_s,
                               PatternSet.uniform(vertical()), CTX)[:, :49]
    r = np.linalg.qr(phases, mode="r")
    d_s, d_r = (pats.element_gains(*wavenumber._plane_waves(sup, CTX)[1]) for sup in (sup_s, sup_r))
    psi_s = 0.8 * np.hstack([r * d_s[:, 0], r * d_s[:, 1]])  # with per-element weights
    e_r = np.hstack([np.diag(d_r[:, 0]), np.diag(d_r[:, 1])])
    rng = np.random.default_rng(draws)
    shape = (draws, 2 * len(sup_r.indices), 2 * len(sup_s.indices))
    h_pol = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stacked = assemble_channel(e_r, h_pol, psi_s)
    assert stacked.shape == (draws, 5, 49)
    for h_k, t_k in zip(h_pol, stacked):
        assert np.array_equal(e_r @ (h_k @ psi_s.conj().T), t_k)
        assert np.array_equal(assemble_channel(e_r, h_k, psi_s), t_k)
