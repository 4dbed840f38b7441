import collections.abc
import dataclasses
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import expit

from emchan import (
    ArrayGeometry,
    BounceGeometry,
    ClusterRay,
    DomainError,
    GeometryError,
    MotionState,
    PatternSet,
    RaySet,
    ShapeError,
    Tap,
    VisibilityModel,
    WaveContext,
    angles_from_vector,
    attenuation_factor,
    bundled_cdl_b,
    channel_impulse_response,
    cluster_rays,
    dipole,
    locate_bounce_scatterers,
    los_coefficient,
    narrowband_channel,
    nlos_coefficient,
    patch,
    planar_wave_channel,
    rayleigh_distance,
    spatial_correlation,
    unit_vector,
    vertical,
    visibility_probability,
)
from emchan import nearfield
from emchan.scenario import NearFieldScenario
from emchan.studies import run_study
from emchan.emcore import SPEED_OF_LIGHT
from emchan.nearfield import (LOS_POLARIZATION, RAY_OFFSETS, _RAY_COLUMNS, _locate_bounces,
                              _logistic, _los_matrix, _nlos_block, _ray_factors, _take)

CTX = WaveContext.from_frequency(6.7e9)
LAM = CTX.wavelength
STILL = MotionState()
MOVING = MotionState(velocity=np.array([-3.0, 1.5, 0.5]))


def bs_ue_geometry(n_bs=64, aperture=1.4, dist=20.0, n_ue=1, ue_spacing=None):
    """Receive ULA along y at the origin, transmit ULA at (dist, 0, 0)."""
    y = np.linspace(-aperture / 2, aperture / 2, n_bs)
    rx = np.stack([np.zeros(n_bs), y, np.zeros(n_bs)], axis=1)
    if n_ue == 1:
        tx = np.array([[dist, 0.0, 0.0]])
    else:
        sp = ue_spacing if ue_spacing is not None else LAM / 2
        ty = (np.arange(n_ue) - (n_ue - 1) / 2) * sp
        tx = np.stack([np.full(n_ue, dist), ty, np.zeros(n_ue)], axis=1)
    return ArrayGeometry(tx_positions=tx, rx_positions=rx)


# Per-entry reference implementations: one pattern call per side and entry.


def element(patterns, index):
    """The pattern of element ``index`` of a PatternSet."""
    return patterns.patterns[0 if patterns.shared else index]


def los_oracle(u, s, t, geom, motion, ctx):
    """Exact-geometry LOS entry for receive element u and transmit element s."""
    sep = geom.tx_positions[s] - geom.rx_positions[u]
    d_us = float(np.linalg.norm(sep))
    d_ref = float(np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0]))
    arr_dir = sep / d_us
    th_r, ph_r = angles_from_vector(arr_dir)
    th_t, ph_t = angles_from_vector(-arr_dir)
    fr = np.array(element(geom.rx_patterns, u).gains(th_r, ph_r))
    ft = np.array(element(geom.tx_patterns, s).gains(th_t, ph_t))
    gain = fr @ LOS_POLARIZATION @ ft
    lam = ctx.wavelength
    phase = np.exp(-2j * np.pi * d_ref / lam) * np.exp(2j * np.pi * (d_ref - d_us) / lam)
    doppler = np.exp(2j * np.pi * (arr_dir @ motion.velocity) / lam * t)
    return complex(gain * phase * doppler)


def planar_los_oracle(u, s, t, geom, motion, ctx):
    """Planar-wave LOS entry: centroid direction, phase anchored at element 0."""
    rx, tx = geom.rx_positions, geom.tx_positions
    axis = tx.mean(axis=0) - rx.mean(axis=0)
    arr_dir = axis / np.linalg.norm(axis)
    d_ref = float(np.linalg.norm(tx[0] - rx[0]))
    lam = ctx.wavelength
    lin = (rx[u] - rx[0]) @ arr_dir + (tx[s] - tx[0]) @ (-arr_dir)
    phase = np.exp(-2j * np.pi * d_ref / lam) * np.exp(2j * np.pi * lin / lam)
    th_r, ph_r = angles_from_vector(arr_dir)
    th_t, ph_t = angles_from_vector(-arr_dir)
    fr = np.array(element(geom.rx_patterns, u).gains(th_r, ph_r))
    ft = np.array(element(geom.tx_patterns, s).gains(th_t, ph_t))
    doppler = np.exp(2j * np.pi * (arr_dir @ motion.velocity) / lam * t)
    return complex(fr @ LOS_POLARIZATION @ ft * phase * doppler)


def nlos_oracle(u, s, ray, bounce, t, geom, motion, ctx):
    """One bounce-ray entry: pattern/XPR contraction times phase offsets."""
    fr = np.array(element(geom.rx_patterns, u).gains(bounce.rx_theta[u], bounce.rx_phi[u]))
    ft = np.array(element(geom.tx_patterns, s).gains(bounce.tx_theta[s], bounce.tx_phi[s]))
    inv = 1.0 / np.sqrt(ray.xpr)
    p_tt, p_tp, p_pt, p_pp = ray.phases
    pol = np.array([[np.exp(1j * p_tt), inv * np.exp(1j * p_tp)],
                    [inv * np.exp(1j * p_pt), np.exp(1j * p_pp)]])
    gain = fr @ pol @ ft
    lam = ctx.wavelength
    phase_rx = np.exp(2j * np.pi * (bounce.rx_distances[0] - bounce.rx_distances[u]) / lam)
    phase_tx = np.exp(2j * np.pi * (bounce.tx_distances[0] - bounce.tx_distances[s]) / lam)
    arr_dir = unit_vector(bounce.rx_theta[u], bounce.rx_phi[u])
    doppler = np.exp(2j * np.pi * (arr_dir @ motion.velocity) / lam * t)
    amp = np.sqrt(ray.power / ray.ray_count)
    return complex(amp * gain * phase_rx * phase_tx * doppler)


def oracle_matrix(entry, geom, *args):
    return np.array([[entry(u, s, *args) for s in range(geom.n_tx)]
                     for u in range(geom.n_rx)])


def mixed_pattern_geometry(seed=0, n_tx=5, n_rx=6):
    """Random non-collinear arrays a few meters apart with mixed per-element patterns."""
    rng = np.random.default_rng(seed)
    tx = np.array([4.0, 1.0, 0.5]) + rng.uniform(-0.3, 0.3, size=(n_tx, 3))
    rx = rng.uniform(-0.3, 0.3, size=(n_rx, 3))
    kinds = (dipole("x"), dipole("y"), dipole("z"), patch(70.0), patch(120.0))
    return ArrayGeometry(
        tx_positions=tx, rx_positions=rx,
        tx_patterns=PatternSet.per_element([kinds[s % 5] for s in range(n_tx)]),
        rx_patterns=PatternSet.per_element([kinds[(u + 2) % 5] for u in range(n_rx)]),
    )


# Per-ray reference implementations of the ray-batched bounce geometry, NLOS
# blocks, tap assembly and ray-set construction.


def closest_ray_points_oracle(origin_a, dir_a, origin_b, dir_b):
    """Nonnegative ray parameters minimizing the inter-ray distance."""
    w = origin_a - origin_b
    dot = float(dir_a @ dir_b)
    denom = 1.0 - dot * dot
    if denom < 1e-12:
        return None  # parallel
    wa = float(w @ dir_a)
    wb = float(w @ dir_b)
    a = (dot * wb - wa) / denom
    b = (wb - dot * wa) / denom
    return max(a, 0.0), max(b, 0.0)


def bounce_oracle(ray, geom):
    """First/last bounce points of one ray and its paths to every element."""
    tx0 = geom.tx_positions[0]
    rx0 = geom.rx_positions[0]
    total = SPEED_OF_LIGHT * ray.delay
    direct = float(np.linalg.norm(rx0 - tx0))
    if total <= direct:
        raise GeometryError("ray delay is not longer than the direct path")
    u_dep = unit_vector(*ray.departure)
    u_arr = unit_vector(*ray.arrival)
    closest = closest_ray_points_oracle(tx0, u_dep, rx0, u_arr)
    if closest is None or closest[0] + closest[1] <= 0.0:
        a0 = b0 = total / 2.0
    else:
        a0, b0 = closest
        if a0 <= 0.0 or b0 <= 0.0:
            # a leg collapsed onto its own array; fall back to an even split
            a0 = b0 = total / 2.0
    leftover = total - (a0 + b0)
    if leftover > 0.0:
        a, b, inter = a0, b0, leftover
    else:
        shrink = total / (a0 + b0)
        a, b, inter = shrink * a0, shrink * b0, 0.0
    first = tx0 + a * u_dep
    last = rx0 + b * u_arr
    tx_vec = first - geom.tx_positions
    rx_vec = last - geom.rx_positions
    tx_theta, tx_phi = angles_from_vector(tx_vec)
    rx_theta, rx_phi = angles_from_vector(rx_vec)
    return BounceGeometry(
        first_bounce=first, last_bounce=last, inter_distance=inter,
        tx_distances=np.linalg.norm(tx_vec, axis=1), rx_distances=np.linalg.norm(rx_vec, axis=1),
        tx_theta=tx_theta, tx_phi=tx_phi, rx_theta=rx_theta, rx_phi=rx_phi,
    )


def planar_bounce_oracle(ray, geom):
    """Far-field variant: ray directions extended linearly from the references."""
    exact = bounce_oracle(ray, geom)
    u_dep = unit_vector(*ray.departure)
    u_arr = unit_vector(*ray.arrival)
    tx_dist = exact.tx_distances[0] - (geom.tx_positions - geom.tx_positions[0]) @ u_dep
    rx_dist = exact.rx_distances[0] - (geom.rx_positions - geom.rx_positions[0]) @ u_arr
    n_tx, n_rx = geom.n_tx, geom.n_rx
    return dataclasses.replace(
        exact, tx_distances=tx_dist, rx_distances=rx_dist,
        tx_theta=np.full(n_tx, ray.departure[0]), tx_phi=np.full(n_tx, ray.departure[1]),
        rx_theta=np.full(n_rx, ray.arrival[0]), rx_phi=np.full(n_rx, ray.arrival[1]),
    )


def nlos_matrix_oracle(ray, bounce, t, geom, motion, ctx):
    """One ray's (n_rx, n_tx) entries: per-element pattern gains, one 2 x 2 XPR matrix."""
    fr = geom.rx_patterns.element_gains(bounce.rx_theta, bounce.rx_phi)
    ft = geom.tx_patterns.element_gains(bounce.tx_theta, bounce.tx_phi)
    inv = 1.0 / np.sqrt(ray.xpr)
    p_tt, p_tp, p_pt, p_pp = ray.phases
    pol = np.array([[np.exp(1j * p_tt), inv * np.exp(1j * p_tp)],
                    [inv * np.exp(1j * p_pt), np.exp(1j * p_pp)]])
    gain = fr @ pol @ ft.T
    lam = ctx.wavelength
    phase_rx = np.exp(2j * np.pi * (bounce.rx_distances[0] - bounce.rx_distances) / lam)
    phase_tx = np.exp(2j * np.pi * (bounce.tx_distances[0] - bounce.tx_distances) / lam)
    rate = unit_vector(bounce.rx_theta, bounce.rx_phi) @ motion.velocity / lam
    doppler = np.exp(2j * np.pi * rate * t)
    amp = np.sqrt(ray.power / ray.ray_count)
    return amp * gain * phase_rx[:, None] * phase_tx[None, :] * doppler[:, None]


def element_attenuation_oracle(tx_distances, d_min, d_max, visibility, rolloff):
    if d_max <= d_min:
        norm = np.zeros_like(tx_distances)
    else:
        norm = (tx_distances - d_min) / (d_max - d_min)
    return _logistic(-(norm - visibility) * rolloff)


def taps_oracle(geom, rays, k_factor, visibility, t, motion, ctx, visibility_seed,
                drop_below, planar):
    """One bounce, one attenuation and one NLOS matrix per ray, in a Python loop."""
    w_los, w_nlos = nearfield._k_weights(k_factor)
    locate = planar_bounce_oracle if planar else bounce_oracle
    bounces = [locate(ray, geom) for ray in rays]
    vis_state = {}
    if visibility is not None:
        powers = {}
        for ray in rays:
            powers.setdefault(ray.cluster, ray.power)
        max_power = max(powers.values())
        for n, p in sorted(powers.items()):
            seed = np.random.SeedSequence([int(visibility_seed), int(n)])
            v_n = visibility_probability(p, max_power, visibility, seed)
            span = np.concatenate(
                [b.tx_distances for r, b in zip(rays, bounces) if r.cluster == n])
            vis_state[n] = (v_n, float(span.min()), float(span.max()))
    # the LOS tap comes from the shared LOS path; only the NLOS loop is re-derived here
    los = nearfield._assemble_taps(geom, [], k_factor, visibility, t, motion, ctx,
                                   visibility_seed, drop_below, planar)
    taps = list(los)
    for ray, bounce in zip(rays, bounces):
        if visibility is None:
            alpha = np.ones(geom.n_tx)
        else:
            v_n, d_min, d_max = vis_state[ray.cluster]
            alpha = element_attenuation_oracle(bounce.tx_distances, d_min, d_max, v_n,
                                               visibility.rolloff)
        if drop_below > 0.0 and float(alpha.max()) <= drop_below:
            continue
        coeff = nlos_matrix_oracle(ray, bounce, t, geom, motion, ctx)
        taps.append(Tap(delay=ray.delay, coefficients=w_nlos * alpha[None, :] * coeff))
    return taps


def cluster_rays_oracle(table, delay_spread, los_delay, rng_seed, rays_per_cluster=20,
                        delay_margin=5e-9):
    """One ClusterRay per loop pass, every angle a scalar expression."""
    rng = np.random.default_rng(rng_seed)
    offsets = np.concatenate([RAY_OFFSETS[: rays_per_cluster // 2],
                              -RAY_OFFSETS[: rays_per_cluster // 2]])
    asd, asa, zsd, zsa = (np.radians(s) for s in table.spreads_deg)
    powers = table.normalized_powers()
    rays = []
    for n, (row, p_n) in enumerate(zip(table.rows, powers), start=1):
        delay = los_delay + delay_margin + row.delay_norm * delay_spread
        perm = {key: rng.permutation(rays_per_cluster) for key in ("aod", "zod", "aoa", "zoa")}
        xpr_db = rng.normal(table.xpr_mu_db, table.xpr_sigma_db, size=rays_per_cluster)
        phases = rng.uniform(-np.pi, np.pi, size=(rays_per_cluster, 4))
        for m in range(rays_per_cluster):
            aod = np.radians(row.aod_deg) + asd * offsets[perm["aod"][m]]
            zod = np.radians(row.zod_deg) + zsd * offsets[perm["zod"][m]]
            aoa = np.radians(row.aoa_deg) + asa * offsets[perm["aoa"][m]]
            zoa = np.radians(row.zoa_deg) + zsa * offsets[perm["zoa"][m]]
            rays.append(
                ClusterRay(
                    cluster=n, ray=m, power=float(p_n), ray_count=rays_per_cluster,
                    delay=float(delay),
                    departure=(float(np.clip(zod, 1e-6, np.pi - 1e-6)), float(aod)),
                    arrival=(float(np.clip(zoa, 1e-6, np.pi - 1e-6)), float(aoa)),
                    xpr=float(10.0 ** (xpr_db[m] / 10.0)),
                    phases=tuple(phases[m]),
                )
            )
    return rays


def assert_matches_oracle(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def one_ray_block(ray, bounce, t, geom, motion):
    """The (n_rx, n_tx) unweighted entries of one ray, from the batched block."""
    return _nlos_block(*_ray_factors(RaySet.stack([ray])), _take(bounce, None),
                       np.ones((1, geom.n_tx)), t, geom, motion, CTX)[0]


def test_los_matrix_matches_per_entry_oracle():
    geom = mixed_pattern_geometry()
    moving = MotionState(velocity=np.array([4.0, -2.5, 1.0]))
    t = 7e-3
    assert_matches_oracle(_los_matrix(geom, t, moving, CTX, planar=False)[0],
                          oracle_matrix(los_oracle, geom, t, geom, moving, CTX))
    assert_matches_oracle(_los_matrix(geom, t, moving, CTX, planar=True)[0],
                          oracle_matrix(planar_los_oracle, geom, t, geom, moving, CTX))


# placements of the mixed-pattern transmit array, all clear of the receive array
PLACEMENTS = np.array([[0.0, 0.0, 0.0], [1.5, -0.4, 0.2], [-2.0, 0.3, 0.0],
                       [6.0, 2.0, -1.0], [0.5, 0.5, 0.5]])


def one_call_per_placement(geom, shifts, planar, t=7e-3, motion=MOVING):
    return np.stack([
        _los_matrix(dataclasses.replace(geom, tx_positions=geom.tx_positions + shift),
                    t, motion, CTX, planar)[0]
        for shift in shifts
    ])


@pytest.mark.parametrize("planar", [False, True])
def test_los_stack_matches_one_call_per_placement(planar):
    geom = mixed_pattern_geometry(seed=4)
    got = _los_matrix(geom, 7e-3, MOVING, CTX, planar, shifts=PLACEMENTS)
    assert got.shape == (len(PLACEMENTS), geom.n_rx, geom.n_tx)
    assert got.tobytes() == one_call_per_placement(geom, PLACEMENTS, planar).tobytes()
    # no shift is the array where it stands
    assert (_los_matrix(geom, 7e-3, MOVING, CTX, planar)[0].tobytes()
            == _los_matrix(geom, 7e-3, MOVING, CTX, planar, shifts=PLACEMENTS[:1])[0].tobytes())


@pytest.mark.parametrize("planar", [False, True])
def test_los_stack_does_not_depend_on_block_size(monkeypatch, planar):
    geom = mixed_pattern_geometry(seed=6)
    want = one_call_per_placement(geom, PLACEMENTS, planar)
    per_placement = geom.n_rx * geom.n_tx
    # one placement per block, blocks of two with a short last one, one block
    for budget in (1, 2 * per_placement + 1, sys.maxsize):
        monkeypatch.setattr(nearfield, "_BLOCK_ENTRIES", budget)
        got = _los_matrix(geom, 7e-3, MOVING, CTX, planar, shifts=PLACEMENTS)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("planar, message", [(False, "coincident transmit and receive"),
                                             (True, "coincident array centroids")])
def test_degenerate_placement_raises_as_alone(monkeypatch, planar, message):
    # placement 2 lays the transmit array exactly onto the receive array
    geom = ArrayGeometry(tx_positions=np.array([[4.0, 0.0, 0.0], [4.0, 0.5, 0.0]]),
                         rx_positions=np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0]]))
    shifts = np.array([[1.0, 0.0, 0.0], [2.0, 0.5, 0.0], [-4.0, 0.0, 0.0]])
    with pytest.raises(DomainError, match=message):
        one_call_per_placement(geom, shifts[2:], planar)
    monkeypatch.setattr(nearfield, "_BLOCK_ENTRIES", 2 * geom.n_rx * geom.n_tx)
    with pytest.raises(DomainError, match=message):
        _los_matrix(geom, 7e-3, MOVING, CTX, planar, shifts=shifts)
    one_call_per_placement(geom, shifts[:2], planar)  # the others are fine


def test_near_field_study_builds_los_in_one_pass_per_kind(monkeypatch):
    """Every distance of the sweep shares one exact and one planar build, and
    the phase profile takes one of each, whatever the number of distances."""
    builds = []
    original = nearfield._los_matrix

    def counted(geom, t, motion, ctx, planar, shifts=None):
        builds.append((planar, 1 if shifts is None else len(shifts)))
        return original(geom, t, motion, ctx, planar, shifts)

    monkeypatch.setattr(nearfield, "_los_matrix", counted)
    runs = {}
    for drops in (7, 20):
        builds.clear()
        scn = dataclasses.replace(NearFieldScenario(),
                                  drop_distances_m=tuple(np.geomspace(20.0, 500.0, drops)))
        run_study(scn)
        runs[drops] = list(builds)
    assert runs[7] == [(False, 8), (True, 8), (False, 1), (True, 1)]
    assert runs[20] == [(False, 21), (True, 21), (False, 1), (True, 1)]


def test_nlos_matrix_matches_per_entry_oracle():
    geom = mixed_pattern_geometry(seed=1)
    moving = MotionState(velocity=np.array([-3.0, 1.5, 0.5]))
    t = 4e-3
    direct = np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0])
    rays = cluster_rays(bundled_cdl_b(), 100e-9, direct / SPEED_OF_LIGHT, rng_seed=4,
                        rays_per_cluster=2)
    assert len(rays) >= 20
    batch = _locate_bounces(rays, geom, False)
    planar_batch = _locate_bounces(rays, geom, True)
    block = _nlos_block(*_ray_factors(rays), batch, np.ones((len(rays), geom.n_tx)),
                        t, geom, moving, CTX)
    for i, ray in enumerate(rays):
        own = locate_bounce_scatterers(ray, geom, CTX)
        planar = _take(_locate_bounces(RaySet.stack([ray]), geom, True), 0)
        for bounce in (own, planar):
            assert_matches_oracle(
                one_ray_block(ray, bounce, t, geom, moving),
                oracle_matrix(nlos_oracle, geom, ray, bounce, t, geom, moving, CTX),
            )
        # the per-entry functions index the batched rays, and one ray alone
        # is its row of the batch bit for bit, exact and planar
        row = _take(batch, i)
        for alone, batched in ((own, row), (planar, _take(planar_batch, i))):
            for f in dataclasses.fields(row):
                assert np.array_equal(getattr(alone, f.name), getattr(batched, f.name)), f.name
        # from the same bounce row, each entry is the batched one bit for bit
        got = oracle_matrix(nlos_coefficient, geom, ray, row, t, geom, moving, CTX)
        assert np.array_equal(got, block[i])


def test_nlos_coefficient_takes_a_hand_built_bounce():
    geom = mixed_pattern_geometry(seed=7, n_tx=3, n_rx=4)
    rng = np.random.default_rng(11)
    # one ray's record as a caller writes it: Python floats and lists, no ray axis
    bounce = BounceGeometry(
        first_bounce=[6.0, 3.0, 1.0], last_bounce=[-2.0, 4.0, 0.5], inter_distance=2.5,
        tx_distances=rng.uniform(3.0, 4.0, geom.n_tx).tolist(),
        rx_distances=rng.uniform(4.0, 5.0, geom.n_rx).tolist(),
        tx_theta=rng.uniform(0.2, 3.0, geom.n_tx).tolist(),
        tx_phi=rng.uniform(-np.pi, np.pi, geom.n_tx).tolist(),
        rx_theta=rng.uniform(0.2, 3.0, geom.n_rx).tolist(),
        rx_phi=rng.uniform(-np.pi, np.pi, geom.n_rx).tolist(),
    )
    ray = feasible_ray(geom)
    args = (ray, bounce, 2e-3, geom, MOVING, CTX)
    assert_matches_oracle(oracle_matrix(nlos_coefficient, geom, *args),
                          oracle_matrix(nlos_oracle, geom, *args))


def test_responses_make_no_per_entry_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-entry coefficient called")

    monkeypatch.setattr(nearfield, "los_coefficient", refuse)
    monkeypatch.setattr(nearfield, "nlos_coefficient", refuse)
    geom = mixed_pattern_geometry(seed=2)
    direct = np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0])
    rays = cluster_rays(bundled_cdl_b(), 100e-9, direct / SPEED_OF_LIGHT, rng_seed=6,
                        rays_per_cluster=2)
    kwargs = dict(k_factor=1.0, visibility=VisibilityModel(), t=1e-3,
                  motion=MotionState(velocity=np.array([1.0, 2.0, 0.0])), ctx=CTX)
    for response in (channel_impulse_response, planar_wave_channel):
        taps = response(geom, rays, **kwargs)
        assert len(taps) == len(rays) + 1


def test_per_element_pattern_count_must_match_elements():
    tx = np.array([[10.0, 0.0, 0.0], [10.0, 0.1, 0.0], [10.0, 0.2, 0.0]])
    rx = np.zeros((1, 3))
    for count in (2, 4):
        patterns = PatternSet.per_element([dipole("x")] * count)
        with pytest.raises(ShapeError):
            ArrayGeometry(tx_positions=tx, rx_positions=rx, tx_patterns=patterns)
        with pytest.raises(ShapeError):
            ArrayGeometry(tx_positions=rx, rx_positions=tx, rx_patterns=patterns)
    ArrayGeometry(tx_positions=tx, rx_positions=rx,
                  tx_patterns=PatternSet.per_element([dipole("x")] * 3))

def test_los_reference_pair_phase():
    geom = bs_ue_geometry(n_bs=4, aperture=0.3)
    d_ref = np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0])
    c = los_coefficient(0, 0, 0.0, geom, STILL, CTX)
    want = np.exp(-2j * np.pi * d_ref / LAM)
    assert abs(c - want) < 1e-12


def test_los_phase_against_high_precision_distances():
    geom = bs_ue_geometry(n_bs=64, aperture=1.4, dist=20.0)
    d_ref = float(np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0]))
    mp.mp.dps = 40
    lam = mp.mpf(LAM)
    worst = 0.0
    for u in range(64):
        got = los_coefficient(u, 0, 0.0, geom, STILL, CTX)
        x, y, z = (mp.mpf(float(v)) for v in geom.tx_positions[0] - geom.rx_positions[u])
        d = mp.sqrt(x * x + y * y + z * z)
        arg = -2 * mp.pi * mp.mpf(d_ref) / lam + 2 * mp.pi * (mp.mpf(d_ref) - d) / lam
        oracle = complex(mp.cos(arg), mp.sin(arg))
        worst = max(worst, abs(np.angle(got * np.conj(oracle))))
    assert worst < 1e-9


def test_los_doppler():
    geom = bs_ue_geometry(n_bs=2, aperture=0.1)
    v = 12.0
    moving = MotionState(velocity=np.array([v, 0.0, 0.0]))
    t = 3e-3
    c0 = los_coefficient(0, 0, 0.0, geom, moving, CTX)
    ct = los_coefficient(0, 0, t, geom, moving, CTX)
    # rate is the velocity projected on the arrival direction (Rx toward Tx)
    sep = geom.tx_positions[0] - geom.rx_positions[0]
    rate = (sep / np.linalg.norm(sep)) @ moving.velocity / LAM
    assert ct / c0 == pytest.approx(np.exp(2j * np.pi * rate * t), abs=1e-12)


def test_los_coincident_elements_rejected():
    geom = ArrayGeometry(tx_positions=np.zeros((1, 3)), rx_positions=np.zeros((1, 3)))
    with pytest.raises(DomainError):
        los_coefficient(0, 0, 0.0, geom, STILL, CTX)


def feasible_ray(geom, extra=10.0, departure=(np.pi / 2, np.pi / 4),
                 arrival=(np.pi / 2, 3 * np.pi / 4), power=1.0, xpr=4.0,
                 phases=(0.3, -1.1, 2.0, 0.7)):
    direct = np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0])
    return ClusterRay(cluster=1, ray=0, power=power, ray_count=1,
                      delay=(direct + extra) / SPEED_OF_LIGHT,
                      departure=departure, arrival=arrival, xpr=xpr, phases=phases)


def test_bounce_geometry_consistency():
    geom = bs_ue_geometry(n_bs=4, aperture=0.5, dist=10.0, n_ue=2, ue_spacing=0.2)
    rng = np.random.default_rng(3)
    for _ in range(12):
        dep = (rng.uniform(0.2, np.pi - 0.2), rng.uniform(-np.pi, np.pi))
        arr = (rng.uniform(0.2, np.pi - 0.2), rng.uniform(-np.pi, np.pi))
        ray = feasible_ray(geom, extra=rng.uniform(0.5, 30.0), departure=dep, arrival=arr)
        b = locate_bounce_scatterers(ray, geom, CTX)
        total = b.tx_distances[0] + b.inter_distance + b.rx_distances[0]
        assert total == pytest.approx(SPEED_OF_LIGHT * ray.delay, abs=1e-9)
        assert b.inter_distance >= 0.0
        # bounce points sit on the declared departure/arrival rays
        assert np.allclose(b.first_bounce - geom.tx_positions[0],
                           b.tx_distances[0] * np.array([np.sin(dep[0]) * np.cos(dep[1]),
                                                         np.sin(dep[0]) * np.sin(dep[1]),
                                                         np.cos(dep[0])]), atol=1e-9)
        assert np.allclose(b.last_bounce - geom.rx_positions[0],
                           b.rx_distances[0] * np.array([np.sin(arr[0]) * np.cos(arr[1]),
                                                         np.sin(arr[0]) * np.sin(arr[1]),
                                                         np.cos(arr[0])]), atol=1e-9)
        # per-element distances and angles match brute-force geometry
        for s in range(geom.n_tx):
            vec = b.first_bounce - geom.tx_positions[s]
            assert b.tx_distances[s] == pytest.approx(np.linalg.norm(vec), abs=1e-12)
            assert b.tx_theta[s] == pytest.approx(np.arccos(vec[2] / np.linalg.norm(vec)), abs=1e-9)
            assert b.tx_phi[s] == pytest.approx(np.arctan2(vec[1], vec[0]), abs=1e-9)
        for u in range(geom.n_rx):
            vec = b.last_bounce - geom.rx_positions[u]
            assert b.rx_distances[u] == pytest.approx(np.linalg.norm(vec), abs=1e-12)


def test_bounce_infeasible_delay():
    geom = bs_ue_geometry(n_bs=2, aperture=0.2, dist=10.0)
    ray = feasible_ray(geom)
    bad = ClusterRay(cluster=1, ray=0, power=1.0, ray_count=1,
                     delay=5.0 / SPEED_OF_LIGHT, departure=ray.departure,
                     arrival=ray.arrival, xpr=1.0, phases=(0, 0, 0, 0))
    with pytest.raises(GeometryError):
        locate_bounce_scatterers(bad, geom, CTX)


def test_nlos_reference_magnitude_and_symbolic_entry():
    geom = ArrayGeometry(
        tx_positions=np.array([[10.0, 0.0, 0.0], [10.0, 0.11, 0.0]]),
        rx_positions=np.array([[0.0, 0.0, 0.0], [0.0, -0.07, 0.02]]),
        tx_patterns=PatternSet.uniform(dipole("x")),
        rx_patterns=PatternSet.uniform(dipole("z")),
    )
    ray = feasible_ray(geom, extra=7.0, power=0.37, xpr=2.5)
    b = locate_bounce_scatterers(ray, geom, CTX)
    got = nlos_coefficient(1, 1, ray, b, 0.0, geom, STILL, CTX)

    # independent recomputation of every factor
    inv = 1.0 / np.sqrt(ray.xpr)
    p = ray.phases
    pol = np.array([[np.exp(1j * p[0]), inv * np.exp(1j * p[1])],
                    [inv * np.exp(1j * p[2]), np.exp(1j * p[3])]])
    fr = np.array(dipole("z").gains(b.rx_theta[1], b.rx_phi[1]))
    ft = np.array(dipole("x").gains(b.tx_theta[1], b.tx_phi[1]))
    want = (np.sqrt(ray.power / ray.ray_count) * (fr @ pol @ ft)
            * np.exp(2j * np.pi * (b.rx_distances[0] - b.rx_distances[1]) / LAM)
            * np.exp(2j * np.pi * (b.tx_distances[0] - b.tx_distances[1]) / LAM))
    assert abs(got - complex(want)) < 1e-14

    # vertical patterns: the (0, 0) entry has unit gain and zero phase offsets
    geom_v = ArrayGeometry(tx_positions=geom.tx_positions, rx_positions=geom.rx_positions)
    got00 = nlos_coefficient(0, 0, ray, locate_bounce_scatterers(ray, geom_v, CTX),
                             0.0, geom_v, STILL, CTX)
    assert abs(got00) == pytest.approx(np.sqrt(ray.power / ray.ray_count), abs=1e-12)


def test_high_xpr_suppresses_cross_terms():
    geom = bs_ue_geometry(n_bs=2, aperture=0.2)
    ray = feasible_ray(geom, xpr=10.0 ** 30, phases=(0.0, 0.0, 0.0, 0.0))
    b = locate_bounce_scatterers(ray, geom, CTX)
    # theta-polarized Tx, phi-polarized Rx picks out only cross terms
    geom_cross = ArrayGeometry(
        tx_positions=geom.tx_positions, rx_positions=geom.rx_positions,
        tx_patterns=PatternSet.uniform(vertical()),
        rx_patterns=PatternSet.uniform(
            type(vertical())("horizontal", lambda th, ph: np.zeros_like(th),
                             lambda th, ph: np.ones_like(th))
        ),
    )
    c = nlos_coefficient(0, 0, ray, b, 0.0, geom_cross, STILL, CTX)
    assert abs(c) < 1e-14


def test_visibility_probability_behavior():
    flat = VisibilityModel(amplitude=0.6, decay=10.0, floor=0.4, jitter_std=0.0)
    assert visibility_probability(1.0, 1.0, flat, 0) == pytest.approx(1.0)
    # deep fade: exponential term dies, the floor remains
    assert visibility_probability(1e-9, 1e4, flat, 0) == pytest.approx(0.4, abs=1e-12)
    powers = np.linspace(0.0, 5.0, 40)
    vals = [visibility_probability(p, 5.0, flat, 0) for p in powers]
    assert np.all(np.diff(vals) >= 0.0)
    with pytest.raises(DomainError):
        visibility_probability(2.0, 1.0, flat, 0)

    jitt = VisibilityModel(amplitude=0.2, decay=10.0, floor=0.4, jitter_std=0.05)
    draws = np.array([visibility_probability(1.0, 1.0, jitt, i) for i in range(100_000)])
    assert draws.mean() == pytest.approx(0.6, abs=0.002)
    assert draws.std() == pytest.approx(0.05, rel=0.05)

    with pytest.raises(DomainError):
        VisibilityModel(amplitude=-0.1)
    with pytest.raises(DomainError):
        VisibilityModel(floor=1.5)
    with pytest.raises(DomainError):
        VisibilityModel(decay=0.0)


def test_attenuation_factor_values():
    assert attenuation_factor(0.0, 10.0) == pytest.approx(0.5, abs=1e-15)
    assert attenuation_factor(-0.5, 10.0) == pytest.approx(1.0 / (1.0 + np.exp(-5.0)), abs=1e-12)
    assert attenuation_factor(50.0, 10.0) < 1e-200
    assert attenuation_factor(-50.0, 10.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        attenuation_factor(0.0, 0.0)


def test_logistic_matches_expit_without_overflow():
    x = np.concatenate([np.linspace(-50.0, 50.0, 100_001), [-800.0, 800.0]])
    want = expit(x)
    with np.errstate(over="raise", invalid="raise"):
        got = _logistic(x)
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    assert got[-2] == 0.0 and got[-1] == 1.0
    assert attenuation_factor(80.0, 10.0) == 0.0
    assert attenuation_factor(-80.0, 10.0) == 1.0


def test_impulse_response_tap_structure():
    geom = bs_ue_geometry(n_bs=3, aperture=0.3, dist=12.0, n_ue=2, ue_spacing=0.1)
    direct = np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0])
    rays = [feasible_ray(geom, extra=5.0), feasible_ray(geom, extra=9.0)]
    taps = channel_impulse_response(geom, rays, k_factor=1.0, ctx=CTX)
    assert len(taps) == 3
    assert taps[0].delay == pytest.approx(direct / SPEED_OF_LIGHT)
    assert taps[1].delay == rays[0].delay and taps[2].delay == rays[1].delay
    assert taps[0].coefficients.shape == (3, 2)
    # both rays carry the same (cluster, ray) ids; each tap still uses its own bounce
    for tap, ray in zip(taps[1:], rays):
        own = one_ray_block(ray, locate_bounce_scatterers(ray, geom, CTX), 0.0, geom, STILL)
        assert np.allclose(tap.coefficients, own / np.sqrt(2.0), rtol=0.0, atol=1e-14)

    # K = 1 splits power evenly between the LOS and NLOS branches
    los_only = channel_impulse_response(geom, [], k_factor=np.inf, ctx=CTX)
    assert np.allclose(taps[0].coefficients, los_only[0].coefficients / np.sqrt(2.0))
    inf_taps = channel_impulse_response(geom, rays, k_factor=np.inf, ctx=CTX)
    assert np.allclose(inf_taps[1].coefficients, 0.0)
    assert np.allclose(inf_taps[2].coefficients, 0.0)

    with pytest.raises(DomainError):
        channel_impulse_response(geom, rays, k_factor=-0.5, ctx=CTX)
    with pytest.raises(DomainError):
        channel_impulse_response(geom, rays, k_factor=1.0)
    with pytest.raises(DomainError):
        narrowband_channel([])

    nb = narrowband_channel(taps)
    assert np.allclose(nb, taps[0].coefficients + taps[1].coefficients + taps[2].coefficients)


def test_total_power_invariance():
    geom = bs_ue_geometry(n_bs=2, aperture=0.15, dist=15.0, n_ue=2, ue_spacing=0.08)
    direct = np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0])
    rays = cluster_rays(bundled_cdl_b(), delay_spread=100e-9,
                        los_delay=direct / SPEED_OF_LIGHT,
                        rng_seed=5, rays_per_cluster=4)
    for k in (0.0, 1.0, 3.7):
        taps = channel_impulse_response(geom, rays, k_factor=k, ctx=CTX)
        total = sum(np.sum(np.abs(t.coefficients) ** 2) for t in taps)
        # vertical patterns give unit per-ray gain, so the K-split is exact
        assert total == pytest.approx(geom.n_rx * geom.n_tx, rel=1e-12)


def test_drop_below_removes_attenuated_taps():
    geom = bs_ue_geometry(n_bs=3, aperture=0.3, dist=12.0)
    rays = [feasible_ray(geom, extra=5.0)]
    taps = channel_impulse_response(geom, rays, k_factor=1.0, ctx=CTX, drop_below=1.0)
    assert len(taps) == 1  # every NLOS tap is at or below a full-scale threshold


def test_visibility_attenuation_applied_per_element():
    geom = bs_ue_geometry(n_bs=2, aperture=0.2, dist=12.0, n_ue=3, ue_spacing=0.4)
    rays = [feasible_ray(geom, extra=5.0)]
    model = VisibilityModel(amplitude=0.6, decay=10.0, floor=0.4, jitter_std=0.0,
                            rolloff=10.0)
    taps = channel_impulse_response(geom, rays, k_factor=0.0, visibility=model,
                                    ctx=CTX, visibility_seed=7)
    bare = channel_impulse_response(geom, rays, k_factor=0.0, ctx=CTX)
    ratio = np.abs(taps[1].coefficients) / np.abs(bare[1].coefficients)
    # attenuation is a per-transmit-element column scaling in (0, 1]
    assert np.allclose(ratio, ratio[0:1, :], atol=1e-12)
    assert np.all(ratio > 0.0) and np.all(ratio <= 1.0)
    b = locate_bounce_scatterers(rays[0], geom, CTX)
    order = np.argsort(b.tx_distances)
    col_alpha = ratio[0]
    # farther transmit elements never get stronger under the logistic roll-off
    assert np.all(np.diff(col_alpha[order]) <= 1e-12)


def test_planar_matches_exact_for_single_elements():
    geom = bs_ue_geometry(n_bs=1, aperture=0.0, dist=18.0)
    exact = channel_impulse_response(geom, [], k_factor=np.inf, ctx=CTX)
    planar = planar_wave_channel(geom, ctx=CTX)
    assert abs(exact[0].coefficients[0, 0] - planar[0].coefficients[0, 0]) < 1e-12


def test_planar_phase_is_affine_along_ula():
    # tilt the link so the arrival direction has a y-component
    rx_y = np.linspace(-0.7, 0.7, 32)
    rx = np.stack([np.zeros(32), rx_y, np.zeros(32)], axis=1)
    tx = np.array([[40.0, 25.0, 0.0]])
    geom = ArrayGeometry(tx_positions=tx, rx_positions=rx)
    h = planar_wave_channel(geom, ctx=CTX)[0].coefficients[:, 0]
    ratios = h[1:] / h[:-1]
    assert np.allclose(ratios, ratios[0], atol=1e-9)
    h_exact = channel_impulse_response(geom, [], np.inf, ctx=CTX)[0].coefficients[:, 0]
    ratios_exact = h_exact[1:] / h_exact[:-1]
    assert not np.allclose(ratios_exact, ratios_exact[0], atol=1e-6)

    # broadside: direction orthogonal to the array makes the phase constant
    geom_b = bs_ue_geometry(n_bs=16, aperture=1.4, dist=20.0)
    hb = planar_wave_channel(geom_b, ctx=CTX)[0].coefficients[:, 0]
    assert np.allclose(hb, hb[0], atol=1e-12)


def test_planar_deviation_small_beyond_rayleigh():
    aperture = 1.4
    ray_d = rayleigh_distance(aperture, CTX)
    geom = bs_ue_geometry(n_bs=64, aperture=aperture, dist=100.0 * ray_d)
    exact = narrowband_channel(channel_impulse_response(geom, [], np.inf, ctx=CTX))
    planar = narrowband_channel(planar_wave_channel(geom, ctx=CTX))
    dev = np.abs(np.angle(exact * np.conj(planar)))
    assert dev.max() < 0.01


def test_spatial_correlation_properties():
    rng = np.random.default_rng(11)
    h = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    assert spatial_correlation(h, 2.5j * h) == pytest.approx(1.0, abs=1e-12)
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert spatial_correlation(a, b) == 0.0
    with pytest.raises(DomainError):
        spatial_correlation(np.zeros((2, 2)), h[:2, :2])
    with pytest.raises(ShapeError):
        spatial_correlation(h, h[:2, :2])

    def rho(dist):
        geom = bs_ue_geometry(n_bs=64, aperture=1.4, dist=dist, n_ue=2)
        hp = narrowband_channel(planar_wave_channel(geom, ctx=CTX))
        hs = narrowband_channel(channel_impulse_response(geom, [], np.inf, ctx=CTX))
        return spatial_correlation(hp, hs)

    assert rho(500.0) > rho(100.0) > rho(20.0)


# a low visibility floor spreads the rays' strongest attenuation across (0, 1)
LOW_VISIBILITY = VisibilityModel(amplitude=0.3, floor=0.2)


def cdl_rays(geom, seed, rays_per_cluster=2):
    direct = np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0])
    return cluster_rays(bundled_cdl_b(), 100e-9, direct / SPEED_OF_LIGHT, rng_seed=seed,
                        rays_per_cluster=rays_per_cluster)


def shared_pattern_geometry(seed=0):
    geom = mixed_pattern_geometry(seed)
    return ArrayGeometry(tx_positions=geom.tx_positions, rx_positions=geom.rx_positions,
                         tx_patterns=PatternSet.uniform(dipole("y")),
                         rx_patterns=PatternSet.uniform(patch(90.0)))


def assert_same_taps(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.delay == b.delay
        assert np.array_equal(a.coefficients, b.coefficients)


@pytest.mark.parametrize("planar", [False, True])
@pytest.mark.parametrize("make_geom", [shared_pattern_geometry, mixed_pattern_geometry])
@pytest.mark.parametrize("k_factor, visibility, drop_below, motion", [
    (0.0, None, 0.0, STILL),
    (1.0, VisibilityModel(), 0.0, MOVING),
    (np.inf, VisibilityModel(), 0.0, MOVING),
    (1.0, LOW_VISIBILITY, 0.9, MOVING),
])
def test_taps_match_per_ray_oracle(planar, make_geom, k_factor, visibility, drop_below, motion):
    geom = make_geom(seed=3)
    rays = cdl_rays(geom, seed=9)
    args = (k_factor, visibility, 2e-3, motion, CTX, 4, drop_below, planar)
    got = nearfield._assemble_taps(geom, rays, *args)
    want = taps_oracle(geom, rays, *args)
    if drop_below > 0.0:
        assert 1 < len(want) < len(rays) + 1  # some rays dropped, some kept
    assert [tap.delay for tap in got] == [tap.delay for tap in want]
    for a, b in zip(got, want):
        assert_matches_oracle(a.coefficients, b.coefficients)


def test_bounce_branches_match_oracle():
    geom = ArrayGeometry(
        tx_positions=np.array([[10.0, 0.0, 0.0], [10.0, 0.3, 0.1], [9.8, -0.2, 0.0]]),
        rx_positions=np.array([[0.0, 0.0, 0.0], [0.0, 0.25, 0.0], [0.1, -0.3, 0.2]]),
    )
    side = np.arctan2(0.6, 0.8)
    cases = {  # branch: departure, arrival, path length beyond the direct one
        "parallel": ((np.pi / 2, np.pi / 2), (np.pi / 2, np.pi / 2), 4.0),
        "collapsed": ((np.arccos(0.8), 0.0), (np.pi / 2, side), 4.0),
        "shrink": ((np.pi / 2, 2 * np.pi / 3), (np.pi / 2, np.pi / 3), 1.0),
        "leftover": ((np.pi / 2, 2 * np.pi / 3), (np.pi / 2, np.pi / 3), 30.0),
    }
    rays = [feasible_ray(geom, extra=extra, departure=dep, arrival=arr)
            for dep, arr, extra in cases.values()]
    for planar, oracle in ((False, bounce_oracle), (True, planar_bounce_oracle)):
        batch = _locate_bounces(RaySet.stack(rays), geom, planar=planar)
        for i, ray in enumerate(rays):
            want = oracle(ray, geom)
            for f in dataclasses.fields(want):
                np.testing.assert_allclose(getattr(batch, f.name)[i], getattr(want, f.name),
                                           rtol=1e-12, atol=1e-12, err_msg=f.name)
        got = dict(zip(cases, (_take(batch, i) for i in range(len(rays)))))
        for branch in ("parallel", "collapsed"):  # even split of the path length
            assert got[branch].tx_distances[0] == pytest.approx(got[branch].rx_distances[0])
            assert got[branch].inter_distance == 0.0
        assert got["shrink"].inter_distance == 0.0
        assert got["leftover"].inter_distance > 0.0

    short = dataclasses.replace(rays[0], delay=5.0 / SPEED_OF_LIGHT)
    with pytest.raises(GeometryError):
        channel_impulse_response(geom, rays + [short], k_factor=1.0, ctx=CTX)


def test_taps_do_not_depend_on_block_size(monkeypatch):
    geom = mixed_pattern_geometry(seed=5)
    rays = cdl_rays(geom, seed=8)
    per_ray = geom.n_rx * geom.n_tx
    kwargs = dict(k_factor=1.0, visibility=VisibilityModel(), t=3e-3, motion=MOVING, ctx=CTX,
                  visibility_seed=2)
    runs = []
    for budget in (per_ray, 7 * per_ray, sys.maxsize):
        monkeypatch.setattr(nearfield, "_BLOCK_ENTRIES", budget)
        runs.append([response(geom, rays, **kwargs)
                     for response in (channel_impulse_response, planar_wave_channel)])
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert_same_taps(got, want)


def test_responses_share_one_visibility_draw_per_cluster(monkeypatch):
    """The spherical and planar responses on the same rays and seed make one
    visibility draw per cluster and one for the LOS tap between them, and
    give the taps they give when every call draws anew."""
    calls = []
    draw = nearfield.visibility_probability

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(nearfield, "visibility_probability", counted)
    geom = mixed_pattern_geometry(seed=7)
    rays = cdl_rays(geom, seed=12)
    draws = len({ray.cluster for ray in rays}) + 1
    kwargs = dict(k_factor=1.0, visibility=VisibilityModel(), t=3e-3, motion=MOVING, ctx=CTX,
                  visibility_seed=13)
    responses = (channel_impulse_response, planar_wave_channel)

    cached = nearfield._seeded_visibility
    with monkeypatch.context() as m:
        m.setattr(nearfield, "_seeded_visibility", cached.__wrapped__)
        uncached = [response(geom, rays, **kwargs) for response in responses]
    assert len(calls) == 2 * draws

    calls.clear()
    cached.cache_clear()
    for response, want in zip(responses, uncached):
        assert_same_taps(response(geom, rays, **kwargs), want)
    assert len(calls) == draws
    channel_impulse_response(geom, rays, **{**kwargs, "visibility_seed": 14})
    assert len(calls) == 2 * draws  # a new seed draws anew


def test_block_temporaries_stay_within_the_budget(monkeypatch):
    """Above the returned taps, the NLOS part holds a few blocks and per-ray
    geometry; it never holds an array of every ray's entries."""
    n_tx, n_rx = 96, 48
    tx = np.stack([np.full(n_tx, 15.0), np.linspace(-0.6, 0.6, n_tx), np.zeros(n_tx)], axis=1)
    rx = np.stack([np.zeros(n_rx), np.linspace(-0.3, 0.3, n_rx), np.zeros(n_rx)], axis=1)
    geom = ArrayGeometry(tx_positions=tx, rx_positions=rx,
                         tx_patterns=PatternSet.uniform(dipole("y")),
                         rx_patterns=PatternSet.uniform(dipole("z")))
    rays = cdl_rays(geom, seed=3)
    budget = 2 * n_rx * n_tx
    monkeypatch.setattr(nearfield, "_BLOCK_ENTRIES", budget)
    kwargs = dict(k_factor=1.0, visibility=VisibilityModel(), motion=MOVING, t=1e-3, ctx=CTX)
    los_only = channel_impulse_response(geom, [], **kwargs)  # warm every code path
    tracemalloc.start()
    try:
        taps = channel_impulse_response(geom, rays, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    taps_bytes = sum(tap.coefficients.nbytes for tap in taps)
    all_entries = len(rays) * n_rx * n_tx * 16
    assert len(taps) == len(rays) + 1 and los_only
    assert peak - taps_bytes <= 4 * budget * 16 < all_entries


def test_cluster_rays_construction():
    table = bundled_cdl_b()
    rays = cluster_rays(table, delay_spread=100e-9, los_delay=1e-7, rng_seed=2,
                        rays_per_cluster=20)
    assert len(rays) == 23 * 20
    total = sum(r.power / r.ray_count for r in rays)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert all(r.delay > 1e-7 for r in rays)
    first = [r for r in rays if r.cluster == 1]
    assert len(first) == 20 and all(r.power == first[0].power for r in first)
    assert all(r.xpr > 0.0 for r in rays)
    assert all(0.0 < r.departure[0] < np.pi for r in rays)

    with pytest.raises(DomainError):
        cluster_rays(table, 100e-9, 1e-7, 2, rays_per_cluster=5)
    with pytest.raises(DomainError):
        cluster_rays(table, 100e-9, 1e-7, 2, rays_per_cluster=50)
    with pytest.raises(DomainError):
        cluster_rays(table, -1e-9, 1e-7, 2)


@pytest.mark.parametrize("rays_per_cluster", [2, 4, 20])
def test_cluster_rays_match_loop_oracle(rays_per_cluster):
    table = bundled_cdl_b()
    for seed in (0, 1, 7, np.random.SeedSequence([3, 7])):
        got = cluster_rays(table, 100e-9, 1e-7, seed, rays_per_cluster=rays_per_cluster)
        want = cluster_rays_oracle(table, 100e-9, 1e-7, seed, rays_per_cluster=rays_per_cluster)
        assert [dataclasses.astuple(r) for r in got] == [dataclasses.astuple(r) for r in want]


def test_dataclass_validation():
    with pytest.raises(DomainError):
        MotionState(velocity=np.array([1.0, 2.0]))
    with pytest.raises(ShapeError):
        ArrayGeometry(tx_positions=np.zeros((2, 2)), rx_positions=np.zeros((1, 3)))
    with pytest.raises(DomainError):
        ClusterRay(1, 0, -1.0, 1, 1e-7, (0.1, 0.0), (0.1, 0.0), 1.0, (0, 0, 0, 0))
    with pytest.raises(DomainError):
        ClusterRay(1, 0, 1.0, 1, 1e-7, (0.1, 0.0), (0.1, 0.0), 0.0, (0, 0, 0, 0))
    with pytest.raises(DomainError):
        ClusterRay(1, 0, 1.0, 0, 1e-7, (0.1, 0.0), (0.1, 0.0), 1.0, (0, 0, 0, 0))


def test_cluster_rays_builds_no_ray_objects(monkeypatch):
    built = []
    check = ClusterRay.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ClusterRay, "__post_init__", counted)
    rays = cluster_rays(bundled_cdl_b(), 100e-9, 1e-7, 3)
    assert isinstance(rays, RaySet) and len(rays) == 460 and built == []
    assert rays[7] == built[0]  # an integer index builds the one view it returns


def test_ray_set_indexing_and_iteration():
    table = bundled_cdl_b()
    rays = cluster_rays(table, 100e-9, 1e-7, 3, rays_per_cluster=4)
    want = cluster_rays_oracle(table, 100e-9, 1e-7, 3, rays_per_cluster=4)
    assert len(rays) == len(want) == 92
    assert isinstance(rays, collections.abc.Sequence)
    # a view holds Python numbers and tuples of floats, as a hand-built ray does
    view = rays[5]
    assert [type(v) for v in dataclasses.astuple(view)] == [
        int, int, float, int, float, tuple, tuple, float, tuple]
    assert {type(x) for x in view.departure + view.arrival + view.phases} == {float}
    assert view == want[5]
    assert rays[np.int64(5)] == want[5]
    assert rays[-1] == want[-1] and rays[np.int32(-92)] == want[0]
    for index in (92, -93, np.int64(92)):
        with pytest.raises(IndexError):
            rays[index]
    selections = {
        "slice": (slice(3, 20, 4), want[3:20:4]),
        "index array": (np.array([7, 0, 7]), [want[7], want[0], want[7]]),
        "mask": (rays.cluster == 2, [r for r in want if r.cluster == 2]),
    }
    for name, (index, expected) in selections.items():
        picked = rays[index]
        assert isinstance(picked, RaySet), name
        assert [dataclasses.astuple(r) for r in picked] == [
            dataclasses.astuple(r) for r in expected], name
    assert [dataclasses.astuple(r) for r in rays] == [dataclasses.astuple(r) for r in want]
    assert list(reversed(rays))[0] == want[-1]
    # read-only columns; stacking a RaySet returns it, stacking its views rebuilds it
    with pytest.raises(ValueError):
        rays.power[0] = 1.0
    with pytest.raises(AttributeError):
        rays.power = np.zeros(len(rays))
    assert RaySet.stack(rays) is rays
    stacked = RaySet.stack(list(rays))
    for name in _RAY_COLUMNS:
        got, expected = getattr(stacked, name), getattr(rays, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
    empty = RaySet.stack([])
    assert len(empty) == 0 and empty.departure.shape == (0, 2) and list(empty) == []


@pytest.mark.parametrize("planar", [False, True])
def test_responses_from_a_ray_set_and_its_views_are_bit_identical(planar):
    geom = mixed_pattern_geometry(seed=3)
    rays = cdl_rays(geom, seed=9)
    response = planar_wave_channel if planar else channel_impulse_response
    kwargs = dict(k_factor=1.0, visibility=LOW_VISIBILITY, t=2e-3, motion=MOVING, ctx=CTX,
                  visibility_seed=4, drop_below=0.9)
    got = response(geom, rays, **kwargs)
    assert 1 < len(got) < len(rays) + 1  # some rays dropped, some kept
    assert_same_taps(got, response(geom, list(rays), **kwargs))


def _ray_columns(rays):
    return {name: np.array(getattr(rays, name)) for name in _RAY_COLUMNS}


@pytest.mark.parametrize("name, cut", [
    ("power", lambda c: c[:-1]),
    ("cluster", lambda c: c[:-1]),
    ("cluster", lambda c: c[0]),
    ("departure", lambda c: c[:, :1]),
    ("phases", lambda c: c.reshape(-1, 2, 2)),
])
def test_ray_set_columns_of_mismatched_shape_are_refused(name, cut):
    columns = _ray_columns(cluster_rays(bundled_cdl_b(), 100e-9, 1e-7, 1, rays_per_cluster=2))
    columns[name] = cut(columns[name])
    with pytest.raises(ShapeError, match="ray column"):
        RaySet(**columns)


@pytest.mark.parametrize("name", ["delay_spread", "los_delay", "delay_margin"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_cluster_rays_refuse_non_finite_delays(name, value):
    args = dict(delay_spread=100e-9, los_delay=1e-7, delay_margin=5e-9)
    with pytest.raises(DomainError, match="finite"):
        cluster_rays(bundled_cdl_b(), rng_seed=0, **{**args, name: value})


NON_FINITE_FIELDS = ["power", "delay", "xpr", "departure", "arrival", "phases"]


@pytest.mark.parametrize("name", NON_FINITE_FIELDS)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_cluster_ray_refuses_non_finite_values(name, value):
    ray = feasible_ray(bs_ue_geometry(n_bs=2, aperture=0.2))
    old = getattr(ray, name)
    new = (value, *old[1:]) if isinstance(old, tuple) else value
    with pytest.raises(DomainError, match="finite"):
        dataclasses.replace(ray, **{name: new})


@pytest.mark.parametrize("name", NON_FINITE_FIELDS)
@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_ray_set_refuses_non_finite_values(name, value):
    columns = _ray_columns(cluster_rays(bundled_cdl_b(), 100e-9, 1e-7, 1, rays_per_cluster=2))
    columns[name][-1] = value  # the last ray; the last angle row's first entry
    with pytest.raises(DomainError, match="finite"):
        RaySet(**columns)


@pytest.mark.parametrize("name, value, message", [
    ("power", -1.0, "power"), ("xpr", 0.0, "cross-polarization"), ("delay", -1e-9, "delay"),
    ("ray_count", 0, "ray_count"),
])
def test_ray_set_refuses_what_a_ray_refuses(name, value, message):
    columns = _ray_columns(cluster_rays(bundled_cdl_b(), 100e-9, 1e-7, 1, rays_per_cluster=2))
    columns[name][3] = value
    with pytest.raises(DomainError, match=message):
        RaySet(**columns)
