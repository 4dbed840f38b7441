import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from emchan import (
    Aperture,
    DomainError,
    FAR,
    NumericalError,
    PortFunction,
    RADIATING_NEAR,
    REACTIVE_NEAR,
    ShapeError,
    SingularityError,
    WaveContext,
    assemble_em_channel,
    delta_aperture,
    delta_ports,
    dyadic_green,
    field_region,
    green_decomposition,
    rayleigh_distance,
    reactive_boundary,
)
from emchan import emcore
from emchan.emcore import _max_pairwise_distance

CTX = WaveContext.from_frequency(4.7e9)


def scalar_green(p, ctx):
    """e^{-j k |p|} / (4 pi |p|) for a separation vector p."""
    r = float(np.linalg.norm(p))
    return complex(np.exp(-1j * ctx.wavenumber * r) / (4.0 * np.pi * r))


def em_channel_entry(phi, psi, aperture_r, aperture_s, ctx):
    """One port-to-port channel entry: the 1 x 1 assembly of one-port stacks."""
    return complex(assemble_em_channel(PortFunction(samples=phi[None], kind="combining"),
                                       PortFunction(samples=psi[None], kind="precoding"),
                                       aperture_r, aperture_s, ctx)[0, 0])


def fd_dyadic_oracle(r, s, ctx, dps=40):
    """[I + Hessian/k0^2] of the scalar kernel by high-precision central differences.

    Plain float64 differences at step 1e-6 lambda lose ~3 digits to phase
    rounding at k0 R ~ 100, so the oracle runs in 40-digit arithmetic.
    """
    mp.mp.dps = dps
    k = mp.mpf(repr(float(ctx.wavenumber)))
    j = mp.mpc(0, 1)

    def g(p):
        rr = mp.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
        return mp.exp(-j * k * rr) / (4 * mp.pi * rr)

    base = [mp.mpf(repr(float(r[i] - s[i]))) for i in range(3)]
    h = mp.mpf(repr(float(ctx.wavelength))) * mp.mpf("1e-6")
    g0 = g(base)

    def shifted(di, dj=None, sj=0):
        p = list(base)
        p[di[0]] += di[1] * h
        if dj is not None:
            p[dj] += sj * h
        return p

    out = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for jj in range(3):
            if i == jj:
                hij = (g(shifted((i, 1))) - 2 * g0 + g(shifted((i, -1)))) / h**2
            else:
                hij = (
                    g(shifted((i, 1), jj, 1))
                    - g(shifted((i, 1), jj, -1))
                    - g(shifted((i, -1), jj, 1))
                    + g(shifted((i, -1), jj, -1))
                ) / (4 * h**2)
            val = (g0 if i == jj else 0) + hij / k**2
            out[i, jj] = complex(float(mp.re(val)), float(mp.im(val)))
    return out


def test_scalar_green_frozen_value():
    got = scalar_green(np.array([0.3, 0.0, 0.0]), CTX)
    assert abs(got - (-0.076795045821734 + 0.253898511264234j)) < 1e-12


def test_scalar_green_magnitude_and_phase():
    p = np.array([0.1, -0.2, 0.05])
    r = np.linalg.norm(p)
    got = scalar_green(p, CTX)
    assert abs(abs(got) - 1.0 / (4 * np.pi * r)) < 1e-15
    assert abs(np.angle(got) - np.angle(np.exp(-1j * CTX.wavenumber * r))) < 1e-12


def test_dyadic_green_far_field_is_the_transverse_scalar_kernel():
    # G -> g(R) (I - R^ R^T) with relative corrections of order 1/(k0 R)
    rng = np.random.default_rng(3)
    for k0r in (1e3, 1e5):
        for _ in range(5):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            r = direction * (k0r / CTX.wavenumber)
            want = scalar_green(r, CTX) * (np.eye(3) - np.outer(direction, direction))
            got = dyadic_green(r, np.zeros(3), CTX)
            assert np.linalg.norm(got - want) <= 2.0 / k0r * np.linalg.norm(want)


@pytest.mark.parametrize("k0r", [0.5, 3.0, 100.0])
def test_dyadic_green_against_fd_hessian_oracle(k0r):
    direction = np.array([0.3, -0.7, 0.648])
    direction /= np.linalg.norm(direction)
    r = direction * (k0r / CTX.wavenumber)
    s = np.zeros(3)
    got = dyadic_green(r, s, CTX)
    want = fd_dyadic_oracle(r, s, CTX)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-5


def test_dyadic_green_symmetric_and_reciprocal():
    rng = np.random.default_rng(11)
    r = rng.normal(size=3)
    s = rng.normal(size=3)
    g_rs = dyadic_green(r, s, CTX)
    g_sr = dyadic_green(s, r, CTX)
    assert np.allclose(g_rs, g_rs.T, rtol=0, atol=1e-15 * np.abs(g_rs).max())
    assert np.allclose(g_rs, g_sr.T, rtol=0, atol=1e-15 * np.abs(g_rs).max())


def test_dyadic_green_singular():
    p = np.array([0.4, 0.0, 0.1])
    with pytest.raises(SingularityError):
        dyadic_green(p, p, CTX)


def test_decomposition_identity_random_points():
    rng = np.random.default_rng(5)
    n = 200
    k0r = np.exp(rng.uniform(np.log(0.1), np.log(1e4), size=n))
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r = dirs * (k0r / CTX.wavenumber)[:, None]
    s = np.zeros((n, 3))
    g_inf, g_rnf, g_ff = green_decomposition(r, s, CTX)
    g = dyadic_green(r, s, CTX)
    resid = np.linalg.norm(g_inf + g_rnf + g_ff - g, axis=(1, 2))
    ref = np.linalg.norm(g, axis=(1, 2))
    assert float((resid / ref).max()) < 1e-10


def test_decomposition_term_scaling_far_field():
    # Frobenius prefactors: G_INF carries sqrt(6), G_FF carries sqrt(2); the
    # normalized ratio must fall off as (k0 R)^-2.
    k0r = 100.0
    r = np.array([1.0, 0.0, 0.0]) * (k0r / CTX.wavenumber)
    g_inf, _, g_ff = green_decomposition(r, np.zeros(3), CTX)
    ratio = (np.linalg.norm(g_inf) / np.sqrt(6)) / (np.linalg.norm(g_ff) / np.sqrt(2))
    assert ratio < 1.1e-4
    assert abs(ratio - 1.0 / k0r**2) < 1e-9


def test_rnf_term_quadrature_sign():
    # the 1/R^2 part must complete the identity; flipping its sign must not
    r = np.array([0.02, 0.013, -0.007])
    g_inf, g_rnf, g_ff = green_decomposition(r, np.zeros(3), CTX)
    g = dyadic_green(r, np.zeros(3), CTX)
    good = np.linalg.norm(g_inf + g_rnf + g_ff - g)
    bad = np.linalg.norm(g_inf - g_rnf + g_ff - g)
    assert good < 1e-12 * np.linalg.norm(g)
    assert bad > 1e3 * good


def test_field_region_boundaries():
    ctx67 = WaveContext.from_frequency(6.7e9)
    ctx15 = WaveContext.from_frequency(15.0e9)
    assert abs(rayleigh_distance(1.53, ctx67) - 104.0) <= 2.0
    assert abs(rayleigh_distance(1.4, ctx15) - 196.0) <= 2.0

    d = 1.53
    rb = reactive_boundary(d, ctx67)
    rd = rayleigh_distance(d, ctx67)
    eps = 1e-9
    assert field_region(rb * (1 - eps), d, ctx67) == REACTIVE_NEAR
    assert field_region(rb * (1 + eps), d, ctx67) == RADIATING_NEAR
    assert field_region(rd * (1 - eps), d, ctx67) == RADIATING_NEAR
    assert field_region(rd * (1 + eps), d, ctx67) == FAR
    with pytest.raises(DomainError):
        field_region(0.0, d, ctx67)
    with pytest.raises(DomainError):
        rayleigh_distance(-1.0, ctx67)


def test_field_region_refuses_a_nan_distance():
    # a nan distance compares false with both boundaries, so it would read "far"
    with pytest.raises(DomainError, match="distance must be positive"):
        field_region(math.nan, 1.0, CTX)


def test_region_boundaries_beyond_the_float_range_raise_numerical_error():
    ctx = WaveContext.from_frequency(6.7e9)
    lam = ctx.wavelength
    for d in (1e-3, 1.53, 1e100):  # finite boundaries keep their formulas, bit for bit
        assert reactive_boundary(d, ctx) == 0.62 * np.sqrt(d**3 / lam)
        assert rayleigh_distance(d, ctx) == 2.0 * d**2 / lam
    # d**3 or d**2 raises OverflowError; 2 d**2 / lambda gives inf
    for boundary, d in ((reactive_boundary, 1e110), (reactive_boundary, 1e200),
                        (rayleigh_distance, 1e155), (rayleigh_distance, 1.3e154)):
        with pytest.raises(NumericalError, match="overflows a float"):
            boundary(d, ctx)
    with pytest.raises(DomainError):
        reactive_boundary(math.nan, ctx)


def test_wave_context_consistency_checks():
    ctx = WaveContext.from_frequency(4.7e9)
    lam = 299792458.0 / 4.7e9
    assert ctx.wavelength == lam
    assert ctx.wavenumber == 2.0 * np.pi / lam
    assert ctx.angular_frequency == 2.0 * np.pi * 4.7e9
    assert ctx.permeability == 4.0e-7 * np.pi
    for bad in (dict(frequency=-1.0), dict(frequency=np.inf),
                dict(frequency=4.7e9, permeability=0.0)):
        with pytest.raises(DomainError):
            WaveContext(**bad)


def test_wave_context_refuses_a_wavelength_beyond_the_float_range():
    # c / 1e-300 overflows to inf, so k0 would be 0.0
    with pytest.raises(DomainError, match="frequency 1e-300 Hz has a wavelength beyond a float"):
        WaveContext.from_frequency(1e-300)
    ctx = WaveContext.from_frequency(2e-300)  # just inside: every derived value is finite
    assert ctx.wavelength == 299792458.0 / 2e-300 and ctx.wavenumber > 0.0


def test_delta_ports_degenerate_to_port_matrix():
    rng = np.random.default_rng(3)
    n = 3
    rx = rng.uniform(0.5, 1.0, size=(n, 3))
    tx = rng.uniform(-1.0, -0.5, size=(n, 3))
    ap_r = delta_aperture(rx)
    ap_s = delta_aperture(tx)
    h = assemble_em_channel(
        delta_ports(n, "combining"), delta_ports(n, "precoding"), ap_r, ap_s, CTX
    )
    scale = -1j * CTX.angular_frequency * CTX.permeability
    for m in range(n):
        for q in range(n):
            want = scale * dyadic_green(rx[m], tx[q], CTX)[2, 2]
            assert abs(h[m, q] - want) <= 1e-12 * abs(want)


def test_assemble_matches_triple_loop_oracle():
    rng = np.random.default_rng(9)
    nq, np_, m_ports, n_ports = 3, 4, 2, 2
    rx = rng.uniform(0.2, 0.4, size=(nq, 3))
    tx = rng.uniform(-0.4, -0.2, size=(np_, 3))
    wq = rng.uniform(0.5, 1.5, size=nq)
    wp = rng.uniform(0.5, 1.5, size=np_)
    ap_r = Aperture(points=rx, weights=wq)
    ap_s = Aperture(points=tx, weights=wp)
    phi = np.stack([rng.normal(size=(nq, 3)) + 1j * rng.normal(size=(nq, 3))
                    for _ in range(m_ports)])
    psi = np.stack([rng.normal(size=(np_, 3)) + 1j * rng.normal(size=(np_, 3))
                    for _ in range(n_ports)])
    got = assemble_em_channel(PortFunction(samples=phi, kind="combining"),
                              PortFunction(samples=psi, kind="precoding"), ap_r, ap_s, CTX)
    scale = -1j * CTX.angular_frequency * CTX.permeability
    for m in range(m_ports):
        for n in range(n_ports):
            acc = 0.0 + 0.0j
            for q in range(nq):
                for p in range(np_):
                    g = dyadic_green(rx[q], tx[p], CTX)
                    acc += wq[q] * wp[p] * np.conj(phi[m, q]) @ g @ psi[n, p]
            want = scale * acc
            assert abs(got[m, n] - want) <= 1e-12 * max(1e-300, abs(want))
    one = em_channel_entry(phi[0], psi[0], ap_r, ap_s, CTX)
    assert abs(one - got[0, 0]) < 1e-15 * abs(got[0, 0])


def test_assemble_linearity_in_ports():
    rng = np.random.default_rng(21)
    pts_r = rng.uniform(0.5, 0.7, size=(2, 3))
    pts_s = rng.uniform(-0.7, -0.5, size=(2, 3))
    ap_r = delta_aperture(pts_r)
    ap_s = delta_aperture(pts_s)
    phi = rng.normal(size=(2, 3)) + 0j
    psi = rng.normal(size=(2, 3)) + 0j
    base = em_channel_entry(phi, psi, ap_r, ap_s, CTX)
    c = 0.7 - 1.3j
    assert abs(em_channel_entry(c * phi, psi, ap_r, ap_s, CTX) - np.conj(c) * base) < 1e-12 * abs(base)
    assert abs(em_channel_entry(phi, c * psi, ap_r, ap_s, CTX) - c * base) < 1e-12 * abs(base)


def _weighted_link(seed, nq, np_, m_ports=4, n_ports=4):
    """Random weighted apertures a few wavelengths apart with random port stacks."""
    rng = np.random.default_rng(seed)
    ap_r = Aperture(points=rng.uniform(0.5, 1.0, size=(nq, 3)), weights=rng.uniform(0.5, 1.5, nq))
    ap_s = Aperture(points=rng.uniform(-1.0, -0.5, size=(np_, 3)),
                    weights=rng.uniform(0.5, 1.5, np_))
    phi = rng.normal(size=(m_ports, nq, 3)) + 1j * rng.normal(size=(m_ports, nq, 3))
    psi = rng.normal(size=(n_ports, np_, 3)) + 1j * rng.normal(size=(n_ports, np_, 3))
    return (PortFunction(samples=phi, kind="combining"), PortFunction(samples=psi, kind="precoding"),
            ap_r, ap_s)


@pytest.mark.parametrize("pairs", [1, 7])
def test_assemble_is_independent_of_the_block_size(monkeypatch, pairs):
    # 13 x 3 pairs: one block by default; 13 one-row blocks at 1 pair and
    # 6 two-row blocks plus one of one row at 7
    link = _weighted_link(4, 13, 3)
    want = assemble_em_channel(*link, CTX)
    monkeypatch.setattr(emcore, "_BLOCK_PAIRS", pairs)
    got = assemble_em_channel(*link, CTX)
    assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()


def test_assemble_memory_is_bounded_in_the_aperture_sizes():
    # the all-pairs Green tensor of 1,000 x 1,000 points alone takes 144 MB
    link = _weighted_link(0, 1000, 1000)
    tracemalloc.start()
    try:
        h = assemble_em_channel(*link, CTX)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert h.shape == (4, 4) and np.isfinite(h).all()


def test_aperture_validation():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ap = Aperture(points=pts, weights=np.ones(2))
    assert ap.extent == pytest.approx(1.0)
    with pytest.raises(DomainError):
        Aperture(points=pts, weights=np.array([1.0, -1.0]))
    with pytest.raises(ShapeError):
        Aperture(points=pts, weights=np.ones(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_aperture_points_and_weights_are_refused(bad):
    # a nan weight passes w <= 0, and a nan point would give extent 0.0
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DomainError, match="points must be finite"):
        Aperture(points=np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]]), weights=np.ones(2))
    with pytest.raises(DomainError, match="weights must be finite"):
        Aperture(points=pts, weights=np.array([1.0, bad]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_port_samples_are_refused(bad):
    samples = np.zeros((2, 2, 3), dtype=complex)
    for value in (bad, complex(0.0, bad)):
        samples[1, 0, 2] = value
        with pytest.raises(DomainError, match="samples must be finite"):
            PortFunction(samples=samples, kind="precoding")


@pytest.mark.parametrize("n", [1, 2, 7, 600])
def test_blocked_extent_equals_all_pairs(n):
    pts = np.random.default_rng(n).normal(size=(n, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    assert _max_pairwise_distance(pts) == float(np.sqrt((diff**2).sum(-1)).max())


def test_large_aperture_extent_memory_is_bounded():
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5000, 3))
    tracemalloc.start()
    try:
        extent = Aperture(points=pts, weights=np.ones(5000)).extent
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert 0.0 < extent <= 2.0 * np.sqrt(3.0)


def test_aperture_construction_is_linear_in_points():
    # the extent is computed on demand, so building an aperture holds no
    # pairwise block: 5,000 points and weights take 160 kB
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5000, 3))
    weights = np.ones(5000)
    tracemalloc.start()
    try:
        Aperture(points=pts, weights=weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_port_kind_enforcement():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ap = delta_aperture(pts)
    good = delta_ports(2, "combining")
    bad = delta_ports(2, "precoding")
    with pytest.raises(DomainError):
        assemble_em_channel(bad, bad, ap, ap, CTX)
    with pytest.raises(DomainError):
        assemble_em_channel(good, good, ap, ap, CTX)
    with pytest.raises(DomainError):
        PortFunction(samples=np.zeros((1, 2, 3)), kind="mixing")
