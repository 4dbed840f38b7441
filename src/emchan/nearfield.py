"""Spherical-wavefront cluster channel for large apertures.

Per-element exact-distance LOS and bounce-ray NLOS coefficients, K-factor
impulse-response assembly, per-cluster visibility with logistic power
attenuation across the transmit array, and the planar-wave baseline used for
wavefront-mismatch correlation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cdl import ClusterTable
from .emcore import SPEED_OF_LIGHT, WaveContext
from .errors import DomainError, GeometryError, ShapeError
from .geometry import angles_from_vector, unit_vector
from .patterns import PatternSet, vertical

# ray offset grid (in units of the per-cluster angular spread), mirrored +/-
RAY_OFFSETS = np.array(
    [0.0447, 0.1413, 0.2492, 0.3715, 0.5129, 0.6797, 0.8844, 1.1481, 1.5195, 2.1551]
)

LOS_POLARIZATION = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class MotionState:
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=float)
        if v.shape != (3,) or not np.all(np.isfinite(v)):
            raise DomainError("velocity must be a finite 3-vector")
        object.__setattr__(self, "velocity", v)


@dataclass(frozen=True)
class ArrayGeometry:
    """Tx/Rx element positions; element 0 on each side is the phase reference."""

    tx_positions: np.ndarray
    rx_positions: np.ndarray
    tx_patterns: PatternSet = field(default_factory=lambda: PatternSet.uniform(vertical()))
    rx_patterns: PatternSet = field(default_factory=lambda: PatternSet.uniform(vertical()))

    def __post_init__(self):
        for name in ("tx_positions", "rx_positions"):
            pos = np.asarray(getattr(self, name), dtype=float)
            if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
                raise ShapeError(f"{name} must have shape (n, 3) with n >= 1")
            object.__setattr__(self, name, pos)
        for side, n in (("tx", self.n_tx), ("rx", self.n_rx)):
            count = getattr(self, f"{side}_patterns").count()
            if count not in (None, n):
                raise ShapeError(f"{side}_patterns holds {count} patterns for {n} elements")

    @property
    def n_tx(self) -> int:
        return self.tx_positions.shape[0]

    @property
    def n_rx(self) -> int:
        return self.rx_positions.shape[0]


@dataclass(frozen=True)
class ClusterRay:
    cluster: int
    ray: int
    power: float  # cluster power P_n, linear
    ray_count: int  # rays per cluster M
    delay: float  # absolute delay of the cluster, seconds
    departure: tuple[float, float]  # (theta, phi) from the Tx reference, rad
    arrival: tuple[float, float]  # (theta, phi) at the Rx reference, rad
    xpr: float  # kappa, linear
    phases: tuple[float, float, float, float]  # theta-theta, theta-phi, phi-theta, phi-phi

    def __post_init__(self):
        if self.power < 0.0:
            raise DomainError("cluster power must be nonnegative")
        if self.xpr <= 0.0:
            raise DomainError("cross-polarization ratio must be positive")
        if self.delay < 0.0:
            raise DomainError("delay must be nonnegative")
        if self.ray_count < 1:
            raise DomainError("ray_count must be at least 1")


@dataclass(frozen=True)
class BounceGeometry:
    first_bounce: np.ndarray
    last_bounce: np.ndarray
    inter_distance: float
    tx_distances: np.ndarray
    rx_distances: np.ndarray
    tx_theta: np.ndarray
    tx_phi: np.ndarray
    rx_theta: np.ndarray
    rx_phi: np.ndarray


@dataclass(frozen=True)
class VisibilityModel:
    amplitude: float = 0.6
    decay: float = 10.0  # exponential constant in linear power units
    floor: float = 0.4
    jitter_std: float = 0.05
    rolloff: float = 10.0

    def __post_init__(self):
        if self.amplitude < 0.0:
            raise DomainError("visibility amplitude must be nonnegative")
        if self.decay <= 0.0:
            raise DomainError("visibility decay constant must be positive")
        if not 0.0 <= self.floor <= 1.0:
            raise DomainError("visibility floor must lie in [0, 1]")
        if self.jitter_std < 0.0:
            raise DomainError("jitter std must be nonnegative")
        if self.rolloff <= 0.0:
            raise DomainError("rolloff coefficient must be positive")


@dataclass(frozen=True)
class Tap:
    delay: float
    coefficients: np.ndarray  # (n_rx, n_tx)


# ---------------------------------------------------------------------------
# LOS


def _doppler(direction: np.ndarray, motion: MotionState, t: float, ctx: WaveContext):
    rate = direction @ motion.velocity / ctx.wavelength
    return np.exp(2j * np.pi * rate * t)


def los_coefficient(u: int, s: int, t: float, geom: ArrayGeometry,
                    motion: MotionState, ctx: WaveContext) -> complex:
    """Exact-geometry LOS entry for receive element u and transmit element s."""
    return complex(_los_matrix(geom, t, motion, ctx, planar=False)[u, s])


def _los_matrix(geom: ArrayGeometry, t: float, motion: MotionState, ctx: WaveContext,
                planar: bool) -> np.ndarray:
    rx = geom.rx_positions
    tx = geom.tx_positions
    lam = ctx.wavelength
    d_ref = float(np.linalg.norm(tx[0] - rx[0]))
    if planar:
        # expansion directions from the array centroids, absolute phase
        # anchored at the element-0 pair
        axis = tx.mean(axis=0) - rx.mean(axis=0)
        dist = np.linalg.norm(axis)
        if dist == 0.0:
            raise DomainError("coincident array centroids")
        arr_dir = axis / dist  # arrival direction, points from Rx toward Tx
        lin = (rx - rx[0]) @ arr_dir
        lin_t = (tx - tx[0]) @ (-arr_dir)
        phase = np.exp(-2j * np.pi * d_ref / lam) * np.exp(
            2j * np.pi * (lin[:, None] + lin_t[None, :]) / lam
        )
        th_r, ph_r = angles_from_vector(np.broadcast_to(arr_dir, rx.shape))
        th_t, ph_t = angles_from_vector(np.broadcast_to(-arr_dir, tx.shape))
        fr = geom.rx_patterns.element_gains(th_r, ph_r)
        ft = geom.tx_patterns.element_gains(th_t, ph_t)
        gains = fr @ (LOS_POLARIZATION @ ft.T)
        return gains * phase * _doppler(arr_dir, motion, t, ctx)
    sep = tx[None, :, :] - rx[:, None, :]  # (n_rx, n_tx, 3)
    d_us = np.linalg.norm(sep, axis=-1)
    if np.any(d_us == 0.0):
        raise DomainError("coincident transmit and receive elements")
    arr_dir = sep / d_us[..., None]
    th_r, ph_r = angles_from_vector(arr_dir)
    th_t, ph_t = angles_from_vector(-arr_dir)
    fr = geom.rx_patterns.element_gains(th_r, ph_r)
    ft = geom.tx_patterns.element_gains(th_t.T, ph_t.T).transpose(1, 0, 2)
    gain = np.einsum("...i,ij,...j->...", fr, LOS_POLARIZATION, ft)
    phase = np.exp(-2j * np.pi * d_ref / lam) * np.exp(2j * np.pi * (d_ref - d_us) / lam)
    return gain * phase * _doppler(arr_dir, motion, t, ctx)


# ---------------------------------------------------------------------------
# bounce geometry


def _closest_ray_points(origin_a, dir_a, origin_b, dir_b):
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


def locate_bounce_scatterers(ray: ClusterRay, geom: ArrayGeometry,
                             ctx: WaveContext) -> BounceGeometry:
    """Place first/last bounce points consistent with the ray's delay.

    The last bounce sits on the arrival ray from the Rx reference element and
    the first bounce on the departure ray from the Tx reference; path lengths
    satisfy d_tx + d_inter + d_rx = c*tau with d_inter the nonnegative
    leftover (both legs shrink proportionally when the leftover is negative).
    """
    tx0 = geom.tx_positions[0]
    rx0 = geom.rx_positions[0]
    total = SPEED_OF_LIGHT * ray.delay
    direct = float(np.linalg.norm(rx0 - tx0))
    if total <= direct:
        raise GeometryError(
            f"ray delay {ray.delay!r} s is not longer than the direct path {direct / SPEED_OF_LIGHT!r} s"
        )
    u_dep = unit_vector(*ray.departure)
    u_arr = unit_vector(*ray.arrival)
    closest = _closest_ray_points(tx0, u_dep, rx0, u_arr)
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
    tx_dist = np.linalg.norm(tx_vec, axis=1)
    rx_dist = np.linalg.norm(rx_vec, axis=1)
    if np.any(tx_dist == 0.0) or np.any(rx_dist == 0.0):
        raise GeometryError("bounce point coincides with an array element")
    tx_theta, tx_phi = angles_from_vector(tx_vec)
    rx_theta, rx_phi = angles_from_vector(rx_vec)
    return BounceGeometry(
        first_bounce=first, last_bounce=last, inter_distance=inter,
        tx_distances=tx_dist, rx_distances=rx_dist,
        tx_theta=tx_theta, tx_phi=tx_phi, rx_theta=rx_theta, rx_phi=rx_phi,
    )


def _planar_bounce(ray: ClusterRay, geom: ArrayGeometry, ctx: WaveContext) -> BounceGeometry:
    """Far-field variant: ray directions extended linearly from the references."""
    exact = locate_bounce_scatterers(ray, geom, ctx)
    u_dep = unit_vector(*ray.departure)
    u_arr = unit_vector(*ray.arrival)
    tx_dist = exact.tx_distances[0] - (geom.tx_positions - geom.tx_positions[0]) @ u_dep
    rx_dist = exact.rx_distances[0] - (geom.rx_positions - geom.rx_positions[0]) @ u_arr
    n_tx, n_rx = geom.n_tx, geom.n_rx
    return BounceGeometry(
        first_bounce=exact.first_bounce, last_bounce=exact.last_bounce,
        inter_distance=exact.inter_distance,
        tx_distances=tx_dist, rx_distances=rx_dist,
        tx_theta=np.full(n_tx, ray.departure[0]), tx_phi=np.full(n_tx, ray.departure[1]),
        rx_theta=np.full(n_rx, ray.arrival[0]), rx_phi=np.full(n_rx, ray.arrival[1]),
    )


# ---------------------------------------------------------------------------
# NLOS


def _ray_pol_matrix(ray: ClusterRay) -> np.ndarray:
    inv = 1.0 / np.sqrt(ray.xpr)
    p_tt, p_tp, p_pt, p_pp = ray.phases
    return np.array(
        [
            [np.exp(1j * p_tt), inv * np.exp(1j * p_tp)],
            [inv * np.exp(1j * p_pt), np.exp(1j * p_pp)],
        ]
    )


def nlos_coefficient(u: int, s: int, ray: ClusterRay, bounce: BounceGeometry,
                     t: float, geom: ArrayGeometry, motion: MotionState,
                     ctx: WaveContext) -> complex:
    """One bounce-ray entry: pattern/XPR contraction times phase offsets."""
    return complex(_nlos_matrix(ray, bounce, t, geom, motion, ctx)[u, s])


def _nlos_matrix(ray: ClusterRay, bounce: BounceGeometry, t: float, geom: ArrayGeometry,
                 motion: MotionState, ctx: WaveContext) -> np.ndarray:
    fr = geom.rx_patterns.element_gains(bounce.rx_theta, bounce.rx_phi)
    ft = geom.tx_patterns.element_gains(bounce.tx_theta, bounce.tx_phi)
    gain = fr @ _ray_pol_matrix(ray) @ ft.T
    lam = ctx.wavelength
    phase_rx = np.exp(2j * np.pi * (bounce.rx_distances[0] - bounce.rx_distances) / lam)
    phase_tx = np.exp(2j * np.pi * (bounce.tx_distances[0] - bounce.tx_distances) / lam)
    doppler = _doppler(unit_vector(bounce.rx_theta, bounce.rx_phi), motion, t, ctx)
    amp = np.sqrt(ray.power / ray.ray_count)
    return amp * gain * phase_rx[:, None] * phase_tx[None, :] * doppler[:, None]


# ---------------------------------------------------------------------------
# visibility and attenuation


def visibility_probability(power: float, max_power: float, model: VisibilityModel,
                           rng_seed) -> float:
    """V = clamp(A exp(-(maxP - P)/decay) + floor + jitter, 0, 1)."""
    if power > max_power * (1.0 + 1e-12):
        raise DomainError("cluster power cannot exceed the maximum power")
    jitter = 0.0
    if model.jitter_std > 0.0:
        jitter = float(np.random.default_rng(rng_seed).normal(0.0, model.jitter_std))
    raw = model.amplitude * np.exp(-(max_power - power) / model.decay) + model.floor + jitter
    return float(np.clip(raw, 0.0, 1.0))


def _logistic(x):
    """1 / (1 + exp(-x)), written so that no argument overflows."""
    return np.exp(-np.logaddexp(0.0, -x))


def attenuation_factor(delta_d: float, rolloff: float) -> float:
    """Logistic roll-off 1 / (1 + exp(delta_d * rolloff))."""
    if rolloff <= 0.0:
        raise DomainError("rolloff coefficient must be positive")
    return float(_logistic(-delta_d * rolloff))


def _element_attenuation(tx_distances: np.ndarray, d_min: float, d_max: float,
                         visibility: float, rolloff: float) -> np.ndarray:
    if d_max <= d_min:
        norm = np.zeros_like(tx_distances)
    else:
        norm = (tx_distances - d_min) / (d_max - d_min)
    return _logistic(-(norm - visibility) * rolloff)


# ---------------------------------------------------------------------------
# impulse response


def _k_weights(k_factor: float) -> tuple[float, float]:
    if k_factor < 0.0:
        raise DomainError("K-factor must be nonnegative")
    if np.isinf(k_factor):
        return 1.0, 0.0
    return float(np.sqrt(k_factor / (k_factor + 1.0))), float(np.sqrt(1.0 / (k_factor + 1.0)))


def _assemble_taps(geom: ArrayGeometry, rays, k_factor: float,
                   visibility: VisibilityModel | None, t: float, motion: MotionState,
                   ctx: WaveContext, visibility_seed: int, drop_below: float,
                   planar: bool) -> list[Tap]:
    w_los, w_nlos = _k_weights(k_factor)
    rays = list(rays) if rays is not None else []
    locate = _planar_bounce if planar else locate_bounce_scatterers
    bounces = [locate(ray, geom, ctx) for ray in rays]

    # per-cluster visibility draws and distance spans across rays and elements
    vis_state = {}
    if visibility is not None:
        powers = {}
        for ray in rays:
            powers.setdefault(ray.cluster, ray.power)
        max_power = max(powers.values()) if powers else 1.0
        for n, p in sorted(powers.items()):
            seed = np.random.SeedSequence([int(visibility_seed), int(n)])
            v_n = visibility_probability(p, max_power, visibility, seed)
            span = np.concatenate(
                [b.tx_distances for r, b in zip(rays, bounces) if r.cluster == n]
            )
            vis_state[n] = (v_n, float(span.min()), float(span.max()))

    d_ref = float(np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0]))
    taps = [None]  # LOS placeholder keeps the first position
    los = _los_matrix(geom, t, motion, ctx, planar=planar)
    if visibility is None:
        alpha_los = np.ones(geom.n_tx)
    else:
        seed = np.random.SeedSequence([int(visibility_seed), 0])
        v_los = visibility_probability(1.0, 1.0, visibility, seed)
        if planar:
            axis = geom.tx_positions.mean(0) - geom.rx_positions.mean(0)
            u_ax = axis / np.linalg.norm(axis)
            d_los = d_ref - (geom.tx_positions - geom.tx_positions[0]) @ (-u_ax)
        else:
            d_los = np.linalg.norm(geom.rx_positions[0] - geom.tx_positions, axis=1)
        alpha_los = _element_attenuation(
            d_los, float(d_los.min()), float(d_los.max()), v_los, visibility.rolloff
        )
    taps[0] = Tap(delay=d_ref / SPEED_OF_LIGHT, coefficients=w_los * alpha_los[None, :] * los)

    for ray, bounce in zip(rays, bounces):
        if visibility is None:
            alpha = np.ones(geom.n_tx)
        else:
            v_n, d_min, d_max = vis_state[ray.cluster]
            alpha = _element_attenuation(bounce.tx_distances, d_min, d_max, v_n,
                                         visibility.rolloff)
        if drop_below > 0.0 and float(alpha.max()) <= drop_below:
            continue
        coeff = _nlos_matrix(ray, bounce, t, geom, motion, ctx)
        taps.append(Tap(delay=ray.delay, coefficients=w_nlos * alpha[None, :] * coeff))
    return taps


def channel_impulse_response(geom: ArrayGeometry, rays, k_factor: float,
                             visibility: VisibilityModel | None = None, t: float = 0.0,
                             motion: MotionState = MotionState(), ctx: WaveContext = None,
                             visibility_seed: int = 0, drop_below: float = 0.0) -> list[Tap]:
    """Spherical-wavefront taps: one LOS tap plus one tap per surviving ray."""
    if ctx is None:
        raise DomainError("a WaveContext is required")
    return _assemble_taps(geom, rays, k_factor, visibility, t, motion, ctx,
                          visibility_seed, drop_below, planar=False)


def planar_wave_channel(geom: ArrayGeometry, rays=None, k_factor: float = np.inf,
                        visibility: VisibilityModel | None = None, t: float = 0.0,
                        motion: MotionState = MotionState(), ctx: WaveContext = None,
                        visibility_seed: int = 0, drop_below: float = 0.0) -> list[Tap]:
    """Far-field baseline with the same tap layout as the spherical response."""
    if ctx is None:
        raise DomainError("a WaveContext is required")
    return _assemble_taps(geom, rays, k_factor, visibility, t, motion, ctx,
                          visibility_seed, drop_below, planar=True)


def narrowband_channel(taps: list[Tap]) -> np.ndarray:
    """Sum of all tap coefficient matrices (zero-bandwidth collapse)."""
    if not taps:
        raise DomainError("need at least one tap")
    # in place and in tap order, with no (taps, n_rx, n_tx) stack; np.sum over
    # such a stack adds in the same order, except for 1 x 1 channels
    h = np.array(taps[0].coefficients, dtype=complex)
    for tap in taps[1:]:
        h += tap.coefficients
    return h


def spatial_correlation(h_planar, h_spherical) -> float:
    """|<h_P, h_S>| / (||h_P|| ||h_S||) over flattened channel entries."""
    a = np.asarray(h_planar, dtype=complex).ravel()
    b = np.asarray(h_spherical, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ShapeError("channel vectors must have equal length")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DomainError("correlation undefined for a zero vector")
    return float(min(abs(np.vdot(a, b)) / (na * nb), 1.0))


# ---------------------------------------------------------------------------
# ray-set construction from a cluster table


def cluster_rays(table: ClusterTable, delay_spread: float, los_delay: float,
                 rng_seed, rays_per_cluster: int = 20,
                 delay_margin: float = 5e-9) -> list[ClusterRay]:
    """Expand a cluster table into per-ray parameters.

    Cluster powers are normalized to unit total. Each cluster's delay is
    los_delay + delay_margin + delay_norm * delay_spread, so every ray is
    strictly longer than the direct path. Ray angles offset the cluster means
    by the fixed grid scaled with the per-side spreads, with the azimuth and
    zenith offset orders decoupled per cluster.
    """
    if rays_per_cluster < 2 or rays_per_cluster % 2 != 0 or rays_per_cluster > 2 * RAY_OFFSETS.size:
        raise DomainError(f"rays_per_cluster must be even and at most {2 * RAY_OFFSETS.size}")
    if delay_spread < 0.0 or los_delay < 0.0 or delay_margin <= 0.0:
        raise DomainError("delays must be nonnegative and the margin positive")
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
