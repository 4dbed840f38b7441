import math

import numpy as np
import pytest

from emchan import (
    ClusterRow,
    ClusterTable,
    DomainError,
    PatternSet,
    ShapeError,
    TablePattern,
    bundled_cdl_b,
    dipole,
    load_cluster_table,
    load_pattern_table,
    mixture_from_clusters,
    patch,
    unit_gain,
    vertical,
)
from emchan.geometry import (
    PANEL_FRAMES,
    angles_from_vector,
    panel_frame,
    to_local_angles,
    unit_vector,
)


def test_analytic_pattern_gains():
    th = np.array([0.0, np.pi / 4, np.pi / 2])
    ph = np.array([0.0, np.pi / 3, np.pi])
    ft, fp = unit_gain().gains(th, ph)
    assert np.allclose(ft, 1.0) and np.allclose(fp, 1.0)
    ft, fp = vertical().gains(th, ph)
    assert np.allclose(ft, 1.0) and np.allclose(fp, 0.0)

    # x-axis dipole projects x_hat onto the spherical basis
    ft, fp = dipole("x").gains(th, ph)
    assert np.allclose(ft, np.cos(th) * np.cos(ph), atol=1e-15)
    assert np.allclose(fp, -np.sin(ph), atol=1e-15)
    ft, fp = dipole("z").gains(th, ph)
    assert np.allclose(ft, -np.sin(th), atol=1e-15)
    assert np.allclose(fp, 0.0, atol=1e-15)
    with pytest.raises(DomainError):
        dipole("w")


@pytest.mark.parametrize("pattern", [patch(70.0), patch(120.0), dipole("x"), unit_gain(),
                                     vertical()], ids=lambda p: p.name)
def test_scalar_angles_give_the_array_gains(pattern):
    rng = np.random.default_rng(11)
    th = rng.uniform(0.0, np.pi, 2000)
    ph = rng.uniform(-np.pi, np.pi, 2000)
    ft, fp = pattern.gains(th, ph)
    scalar = [pattern.gains(t, p) for t, p in zip(th, ph)]
    assert all(g.shape == () for pair in scalar for g in pair)
    assert np.array_equal([g for g, _ in scalar], ft)
    assert np.array_equal([g for _, g in scalar], fp)


def test_patch_envelope():
    p = patch(70.0)
    ft0, _ = p.gains(0.0, 0.0)
    assert ft0 == pytest.approx(1.0)
    half = np.radians(35.0)
    fth, _ = p.gains(half, 0.0)
    # half-power beamwidth: amplitude drops to 1/sqrt(2) at half the HPBW
    assert abs(fth) == pytest.approx(2.0 ** -0.5, rel=1e-12)
    fb, _ = p.gains(2.5, 0.0)
    assert fb == 0.0
    with pytest.raises(DomainError):
        patch(0.0)
    with pytest.raises(DomainError):
        patch(180.0)


def test_table_pattern_bilinear_and_roundtrip(tmp_path):
    theta = np.array([0.0, 45.0, 90.0])
    phi = np.array([0.0, 180.0, 360.0])
    rng = np.random.default_rng(6)
    ft = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    fp = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pat = TablePattern(theta, phi, ft, fp, name="synthetic")
    # nodes reproduce exactly
    got_t, got_p = pat.gains(np.radians(45.0), np.radians(180.0))
    assert got_t == pytest.approx(ft[1, 1], abs=1e-12)
    assert got_p == pytest.approx(fp[1, 1], abs=1e-12)
    # midpoint of a cell is the average of its corners (bilinear)
    got_t, _ = pat.gains(np.radians(22.5), np.radians(90.0))
    want = 0.25 * (ft[0, 0] + ft[0, 1] + ft[1, 0] + ft[1, 1])
    assert got_t == pytest.approx(want, abs=1e-12)

    path = tmp_path / "pat.csv"
    lines = ["theta_deg,phi_deg,f_theta_re,f_theta_im,f_phi_re,f_phi_im"]
    for i, t in enumerate(theta):
        for j, p in enumerate(phi):
            lines.append(f"{t},{p},{ft[i,j].real},{ft[i,j].imag},{fp[i,j].real},{fp[i,j].imag}")
    path.write_text("\n".join(lines) + "\n")
    loaded = load_pattern_table(path, name="roundtrip")
    th_q = np.radians([10.0, 30.0, 77.0])
    ph_q = np.radians([5.0, 200.0, 350.0])
    a_t, a_p = pat.gains(th_q, ph_q)
    b_t, b_p = loaded.gains(th_q, ph_q)
    assert np.allclose(a_t, b_t, atol=1e-12)
    assert np.allclose(a_p, b_p, atol=1e-12)


def _scipy_table_gains(theta, phi, tables, th, ph):
    """TablePattern's azimuth wrap and hull clamp, then scipy's linear interpolator."""
    from scipy.interpolate import RegularGridInterpolator  # oracle only

    th_d = np.degrees(th)
    ph_d = np.degrees(np.mod(ph, 2.0 * np.pi))
    ph_d = np.where(ph_d > phi[-1], ph_d - 360.0, ph_d)
    th_b, ph_b = np.broadcast_arrays(th_d, ph_d)
    pts = np.stack([np.clip(th_b, theta[0], theta[-1]), np.clip(ph_b, phi[0], phi[-1])], -1)
    return [RegularGridInterpolator((theta, phi), f, method="linear")(pts.reshape(-1, 2))
            .reshape(th_b.shape) for f in tables]


def test_table_pattern_matches_scipy_interpolator():
    rng = np.random.default_rng(11)
    theta = np.concatenate([[0.0], np.sort(rng.uniform(1.0, 89.0, 7)), [90.0, 120.0]])
    phi = np.concatenate([[-20.0], np.sort(rng.uniform(-10.0, 300.0, 9)), [310.0]])
    shape = (theta.size, phi.size)
    tables = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2)]
    pat = TablePattern(theta, phi, *tables)

    inside = (np.radians(rng.uniform(0.0, 120.0, 200)), np.radians(rng.uniform(-20.0, 310.0, 200)))
    # theta beyond the grid; azimuths past the last column, negative and beyond 360 deg
    outside = (np.radians(rng.uniform(-30.0, 180.0, 200)), np.radians(rng.uniform(-720.0, 720.0, 200)))
    nodes = np.meshgrid(np.radians(theta), np.radians(phi), indexing="ij")
    cases = [inside, outside, nodes,
             (np.radians(33.3), np.radians(-5.0)),  # scalar pair
             (np.radians(150.0), np.radians(350.0)),  # clamped theta, wrapped azimuth
             (np.radians(theta)[:, None], np.radians([-400.0, -15.0, 0.0, 305.0, 355.0])[None, :]),
             (np.radians(45.0), np.radians(np.linspace(-360.0, 360.0, 37)))]
    for th, ph in cases:
        for got, want in zip(pat.gains(th, ph), _scipy_table_gains(theta, phi, tables, th, ph)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    # a single azimuth column: every azimuth clamps onto it
    column = [tables[0][:, :1], tables[1][:, 4:5]]
    th, ph = outside
    for got, want in zip(TablePattern(theta, [30.0], *column).gains(th, ph),
                         _scipy_table_gains(theta, np.array([30.0]), column, th, ph)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_table_pattern_validation(tmp_path):
    with pytest.raises(ShapeError):
        TablePattern([0.0, 90.0], [0.0, 90.0], np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(DomainError):
        TablePattern([10.0, 50.0], [0.0, 90.0], np.zeros((2, 2)), np.zeros((2, 2)))
    bad = tmp_path / "bad.csv"
    bad.write_text("theta_deg,phi_deg,f_theta_re\n0,0,1\n")
    with pytest.raises(DomainError):
        load_pattern_table(bad)
    holes = tmp_path / "holes.csv"
    holes.write_text(
        "theta_deg,phi_deg,f_theta_re,f_theta_im,f_phi_re,f_phi_im\n"
        "0,0,1,0,0,0\n90,0,1,0,0,0\n0,90,1,0,0,0\n"
    )
    with pytest.raises(DomainError):
        load_pattern_table(holes)


def test_pattern_set_modes():
    shared = PatternSet.uniform(unit_gain())
    assert shared.count() is None
    assert shared.shared and len(shared.patterns) == 1
    per = PatternSet.per_element([unit_gain(), dipole("x")])
    assert per.count() == 2
    assert not per.shared and per.patterns[1].name == "dipole-x"
    with pytest.raises(DomainError):
        PatternSet.per_element([])


def test_bundled_table_contents():
    t = bundled_cdl_b()
    assert t.count == 23
    assert t.rows[0] == ClusterRow(1, 0.0, 0.0, 9.3, -173.3, 105.8, 78.9)
    assert t.rows[22] == ClusterRow(23, 4.7834, -11.3, -77.6, -60.4, 115.7, 62.3)
    assert t.spreads_deg == (10.0, 22.0, 3.0, 7.0)
    assert (t.xpr_mu_db, t.xpr_sigma_db) == (8.0, 3.0)
    p = t.normalized_powers()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    # row 1 sits at 0 dB, every other row is negative, so it dominates
    assert p.argmax() == 0
    assert t.powers_linear()[0] == 1.0
    assert np.all(t.powers_linear()[1:] < 1.0)


def test_load_cluster_table_roundtrip(tmp_path):
    t = bundled_cdl_b()
    path = tmp_path / "copy.csv"
    lines = ["cluster,delay_norm,power_db,aod_deg,aoa_deg,zod_deg,zoa_deg"]
    for r in t.rows:
        lines.append(f"{r.index},{r.delay_norm},{r.power_db},{r.aod_deg},"
                     f"{r.aoa_deg},{r.zod_deg},{r.zoa_deg}")
    path.write_text("\n".join(lines) + "\n")
    t2 = load_cluster_table(path, spreads_deg=(5.0, 11.0, 1.5, 3.5), xpr_mu_db=9.0,
                            xpr_sigma_db=2.0)
    assert t2.rows == t.rows
    assert t2.spreads_deg == (5.0, 11.0, 1.5, 3.5)
    assert t2.xpr_mu_db == 9.0

    with pytest.raises(DomainError):
        ClusterTable(rows=())
    with pytest.raises(DomainError):
        ClusterTable(rows=t.rows, spreads_deg=(0.0, 1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        ClusterTable(rows=(ClusterRow(1, -0.1, 0.0, 0.0, 0.0, 90.0, 90.0),))
    for power_db in (-300.0, 300.0):
        assert ClusterTable(rows=(ClusterRow(1, 0.0, power_db, 0.0, 0.0, 90.0, 90.0),)).count == 1
        beyond = math.nextafter(power_db, math.copysign(math.inf, power_db))
        with pytest.raises(DomainError, match="power_db must lie within"):
            ClusterTable(rows=(ClusterRow(1, 0.0, beyond, 0.0, 0.0, 90.0, 90.0),))
    for column in range(1, 7):
        for bad in (math.nan, math.inf):
            numbers = [1, 0.0, 0.0, 0.0, 0.0, 90.0, 90.0]
            numbers[column] = bad
            with pytest.raises(DomainError, match="must be finite"):
                ClusterTable(rows=(ClusterRow(*numbers),))


def test_mixture_from_clusters_weights_and_concentration():
    t = bundled_cdl_b()
    dep = mixture_from_clusters(t, "departure", "+x")
    arr = mixture_from_clusters(t, "arrival", "-x")
    assert len(dep.clusters) == 23 and len(arr.clusters) == 23
    assert sum(c.weight for c in dep.clusters) == pytest.approx(1.0, abs=1e-12)
    want_dep = 1.0 / (np.radians(10.0) * np.radians(3.0))
    want_arr = 1.0 / (np.radians(22.0) * np.radians(7.0))
    assert all(c.concentration == pytest.approx(want_dep) for c in dep.clusters)
    assert all(c.concentration == pytest.approx(want_arr) for c in arr.clusters)
    with pytest.raises(DomainError):
        mixture_from_clusters(t, "sideways", "+x")


def test_mixture_boresight_mapping():
    t = bundled_cdl_b()
    dep = mixture_from_clusters(t, "departure", "+x")
    r = t.rows[0]
    th_g, ph_g = np.radians(r.zod_deg), np.radians(r.aod_deg)
    d_global = unit_vector(th_g, ph_g)
    frame = panel_frame("+x")
    th_l, ph_l = angles_from_vector(frame @ d_global)
    assert dep.clusters[0].mean_theta == pytest.approx(float(th_l), abs=1e-12)
    assert dep.clusters[0].mean_phi == pytest.approx(float(ph_l), abs=1e-12)

    arr = mixture_from_clusters(t, "arrival", "-x")
    th_g, ph_g = np.radians(r.zoa_deg), np.radians(r.aoa_deg)
    th_l, ph_l = angles_from_vector(panel_frame("-x") @ unit_vector(th_g, ph_g))
    assert arr.clusters[0].mean_theta == pytest.approx(float(th_l), abs=1e-12)
    assert arr.clusters[0].mean_phi == pytest.approx(float(ph_l), abs=1e-12)


def test_panel_frames_orthonormal_right_handed():
    for name, m in PANEL_FRAMES.items():
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-15), name
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12), name
        # boresight (local +z) points along the named global axis
        axis = {"x": 0, "y": 1, "z": 2}[name[1]]
        sign = 1.0 if name[0] == "+" else -1.0
        assert m[2, axis] == sign
    with pytest.raises(DomainError):
        panel_frame("+w")


def test_to_local_angles_boresight_is_zenith():
    for name in PANEL_FRAMES:
        frame = panel_frame(name)
        bore = frame[2]
        th_g, ph_g = angles_from_vector(bore)
        th_l, _ = to_local_angles(th_g, ph_g, name)
        assert float(th_l) == pytest.approx(0.0, abs=1e-12)
