"""Spherical-wavefront cluster channel for large apertures.

Per-element exact-distance LOS and bounce-ray NLOS coefficients, K-factor
impulse-response assembly, per-cluster visibility with logistic power
attenuation across the transmit array, and the planar-wave baseline used for
wavefront-mismatch correlation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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

# NLOS taps are built in blocks of whole rays holding at most this many
# (ray, u, s) entries, or one ray if a ray alone holds more. It bounds the
# per-block temporaries; the taps do not depend on it.
_BLOCK_ENTRIES = 1 << 12


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


def _locate_bounces(departure, arrival, delay, geom: ArrayGeometry,
                    planar: bool) -> BounceGeometry:
    """Bounce geometry of R rays, as in `locate_bounce_scatterers`; every
    field carries a leading ray axis.

    ``departure`` and ``arrival`` are (R, 2) arrays of (theta, phi) and
    ``delay`` is (R,). Parallel rays and a leg that collapses onto its own
    array split c*tau evenly between the legs. The planar variant keeps the
    bounce points and extends the ray directions linearly across each array:
    affine distances and the ray's own angles at every element.
    """
    tx, rx = geom.tx_positions, geom.rx_positions
    total = SPEED_OF_LIGHT * delay
    direct = float(np.linalg.norm(rx[0] - tx[0]))
    short = np.flatnonzero(total <= direct)
    if short.size:
        raise GeometryError(
            f"ray delay {float(delay[short[0]])!r} s is not longer than the direct path "
            f"{direct / SPEED_OF_LIGHT!r} s"
        )
    u_dep = unit_vector(departure[:, 0], departure[:, 1])
    u_arr = unit_vector(arrival[:, 0], arrival[:, 1])

    # closest points of the two rays, parameters clamped to be nonnegative
    w = tx[0] - rx[0]
    dot = np.sum(u_dep * u_arr, axis=1)
    denom = 1.0 - dot * dot
    parallel = denom < 1e-12
    denom = np.where(parallel, 1.0, denom)
    wa = u_dep @ w
    wb = u_arr @ w
    a = np.maximum((dot * wb - wa) / denom, 0.0)
    b = np.maximum((wb - dot * wa) / denom, 0.0)
    even = parallel | (a <= 0.0) | (b <= 0.0)
    a = np.where(even, total / 2.0, a)
    b = np.where(even, total / 2.0, b)
    leftover = total - (a + b)
    fits = leftover > 0.0
    shrink = np.where(fits, 1.0, total / (a + b))
    a, b = shrink * a, shrink * b
    inter = np.where(fits, leftover, 0.0)
    first = tx[0] + a[:, None] * u_dep
    last = rx[0] + b[:, None] * u_arr

    if planar:
        tx_dist = np.linalg.norm(first - tx[0], axis=1)[:, None] - u_dep @ (tx - tx[0]).T
        rx_dist = np.linalg.norm(last - rx[0], axis=1)[:, None] - u_arr @ (rx - rx[0]).T
        tx_theta, tx_phi = (np.broadcast_to(x[:, None], tx_dist.shape) for x in departure.T)
        rx_theta, rx_phi = (np.broadcast_to(x[:, None], rx_dist.shape) for x in arrival.T)
    else:
        tx_vec = first[:, None, :] - tx
        rx_vec = last[:, None, :] - rx
        tx_dist = np.linalg.norm(tx_vec, axis=-1)
        rx_dist = np.linalg.norm(rx_vec, axis=-1)
        if np.any(tx_dist == 0.0) or np.any(rx_dist == 0.0):
            raise GeometryError("bounce point coincides with an array element")
        tx_theta, tx_phi = angles_from_vector(tx_vec)
        rx_theta, rx_phi = angles_from_vector(rx_vec)
    return BounceGeometry(
        first_bounce=first, last_bounce=last, inter_distance=inter,
        tx_distances=tx_dist, rx_distances=rx_dist,
        tx_theta=tx_theta, tx_phi=tx_phi, rx_theta=rx_theta, rx_phi=rx_phi,
    )


def _take(bounce: BounceGeometry, index) -> BounceGeometry:
    """The rays ``index`` selects from a ray-batched BounceGeometry."""
    return BounceGeometry(**{f.name: getattr(bounce, f.name)[index] for f in fields(bounce)})


def _one_ray_bounce(ray: ClusterRay, geom: ArrayGeometry, planar: bool) -> BounceGeometry:
    batch = _locate_bounces(np.array([ray.departure]), np.array([ray.arrival]),
                            np.array([ray.delay]), geom, planar)
    return _take(batch, 0)


def locate_bounce_scatterers(ray: ClusterRay, geom: ArrayGeometry,
                             ctx: WaveContext) -> BounceGeometry:
    """Place first/last bounce points consistent with the ray's delay.

    The last bounce sits on the arrival ray from the Rx reference element and
    the first bounce on the departure ray from the Tx reference; path lengths
    satisfy d_tx + d_inter + d_rx = c*tau with d_inter the nonnegative
    leftover (both legs shrink proportionally when the leftover is negative).
    """
    return _one_ray_bounce(ray, geom, planar=False)


def _planar_bounce(ray: ClusterRay, geom: ArrayGeometry, ctx: WaveContext) -> BounceGeometry:
    """Far-field variant: ray directions extended linearly from the references."""
    return _one_ray_bounce(ray, geom, planar=True)


# ---------------------------------------------------------------------------
# NLOS


def _nlos_block(pol: np.ndarray, amp: np.ndarray, bounce: BounceGeometry, tx_weight: np.ndarray,
                t: float, geom: ArrayGeometry, motion: MotionState,
                ctx: WaveContext) -> np.ndarray:
    """(R, n_rx, n_tx) bounce-ray entries of a block of R rays.

    Per ray: the pattern/XPR contraction fr P ftᵀ, times the per-element
    phase offsets and the Doppler factor, times the amplitude ``amp``. The
    transmit columns are scaled by ``tx_weight`` (R, n_tx). The per-element
    factors scale fr and ft before the contraction, so no temporary has an
    (R, n_rx, n_tx) shape.
    """
    # element_gains wants the element index on axis 0
    fr = geom.rx_patterns.element_gains(bounce.rx_theta.T, bounce.rx_phi.T).transpose(1, 0, 2)
    ft = geom.tx_patterns.element_gains(bounce.tx_theta.T, bounce.tx_phi.T).transpose(1, 0, 2)
    lam = ctx.wavelength
    phase_rx = np.exp(2j * np.pi * (bounce.rx_distances[:, :1] - bounce.rx_distances) / lam)
    phase_tx = np.exp(2j * np.pi * (bounce.tx_distances[:, :1] - bounce.tx_distances) / lam)
    doppler = _doppler(unit_vector(bounce.rx_theta, bounce.rx_phi), motion, t, ctx)
    rx_side = (fr @ pol) * (amp[:, None] * phase_rx * doppler)[..., None]
    tx_side = ft * (phase_tx * tx_weight)[..., None]
    return rx_side @ tx_side.transpose(0, 2, 1)


def _ray_factors(rays) -> tuple[np.ndarray, np.ndarray]:
    """(R, 2, 2) XPR/phase matrices and (R,) amplitudes sqrt(P_n / M)."""
    pol = np.exp(1j * np.array([r.phases for r in rays], dtype=float)).reshape(-1, 2, 2)
    inv = 1.0 / np.sqrt(np.array([r.xpr for r in rays]))
    pol[:, 0, 1] *= inv
    pol[:, 1, 0] *= inv
    return pol, np.sqrt(np.array([r.power / r.ray_count for r in rays]))


def nlos_coefficient(u: int, s: int, ray: ClusterRay, bounce: BounceGeometry,
                     t: float, geom: ArrayGeometry, motion: MotionState,
                     ctx: WaveContext) -> complex:
    """One bounce-ray entry: pattern/XPR contraction times phase offsets."""
    return complex(_nlos_matrix(ray, bounce, t, geom, motion, ctx)[u, s])


def _nlos_matrix(ray: ClusterRay, bounce: BounceGeometry, t: float, geom: ArrayGeometry,
                 motion: MotionState, ctx: WaveContext) -> np.ndarray:
    """One ray's (n_rx, n_tx) entries from its bounce geometry."""
    pol, amp = _ray_factors([ray])
    batch = BounceGeometry(**{f.name: np.asarray(getattr(bounce, f.name))[None]
                              for f in fields(bounce)})
    return _nlos_block(pol, amp, batch, np.ones((1, geom.n_tx)), t, geom, motion, ctx)[0]


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


def _element_attenuation(tx_distances: np.ndarray, d_min, d_max, visibility,
                         rolloff: float) -> np.ndarray:
    """Logistic roll-off of each distance's position within [d_min, d_max];
    the span, visibility and distances broadcast against each other."""
    span = d_max - d_min
    wide = span > 0.0
    norm = np.where(wide, (tx_distances - d_min) / np.where(wide, span, 1.0), 0.0)
    return _logistic(-(norm - visibility) * rolloff)


def _cluster_attenuation(rays, tx_distances: np.ndarray, model: VisibilityModel,
                         visibility_seed: int) -> np.ndarray:
    """(R, n_tx) attenuation of each ray at each transmit element.

    One visibility draw per cluster, seeded by (visibility_seed, cluster),
    and one distance span per cluster across its rays and the elements.
    """
    members = {}
    for i, ray in enumerate(rays):
        members.setdefault(ray.cluster, []).append(i)
    max_power = max(rays[idx[0]].power for idx in members.values())
    v, d_min, d_max = np.empty((3, len(rays), 1))
    for n, idx in sorted(members.items()):
        seed = np.random.SeedSequence([int(visibility_seed), int(n)])
        v[idx] = visibility_probability(rays[idx[0]].power, max_power, model, seed)
        span = tx_distances[idx]
        d_min[idx], d_max[idx] = span.min(), span.max()
    return _element_attenuation(tx_distances, d_min, d_max, v, model.rolloff)


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

    d_ref = float(np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0]))
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
    taps = [Tap(delay=d_ref / SPEED_OF_LIGHT, coefficients=w_los * alpha_los[None, :] * los)]
    if not rays:
        return taps

    bounce = _locate_bounces(np.array([r.departure for r in rays]),
                             np.array([r.arrival for r in rays]),
                             np.array([r.delay for r in rays]), geom, planar)
    if visibility is None:
        alpha = np.ones((len(rays), geom.n_tx))
    else:
        alpha = _cluster_attenuation(rays, bounce.tx_distances, visibility, visibility_seed)
    if drop_below > 0.0:
        keep = np.flatnonzero(alpha.max(axis=1) > drop_below)
        rays = [rays[i] for i in keep]
        bounce = _take(bounce, keep)
        alpha = alpha[keep]
    weight = w_nlos * alpha
    pol, amp = _ray_factors(rays)

    # blocks of whole rays with at most _BLOCK_ENTRIES entries (at least one ray)
    step = max(1, _BLOCK_ENTRIES // (geom.n_rx * geom.n_tx))
    for start in range(0, len(rays), step):
        block = slice(start, start + step)
        coeff = _nlos_block(pol[block], amp[block], _take(bounce, block), weight[block],
                            t, geom, motion, ctx)
        taps.extend(Tap(delay=ray.delay, coefficients=c) for ray, c in zip(rays[block], coeff))
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
    half = RAY_OFFSETS[: rays_per_cluster // 2]
    offsets = np.concatenate([half, -half])
    asd, asa, zsd, zsa = np.radians(table.spreads_deg)
    scale = np.array([asd, zsd, asa, zsa])[:, None]  # rows: aod, zod, aoa, zoa
    powers = table.normalized_powers().tolist()
    rays = []
    for n, (row, p_n) in enumerate(zip(table.rows, powers), start=1):
        delay = float(los_delay + delay_margin + row.delay_norm * delay_spread)
        perm = np.stack([rng.permutation(rays_per_cluster) for _ in range(4)])
        xpr_db = rng.normal(table.xpr_mu_db, table.xpr_sigma_db, size=rays_per_cluster).tolist()
        phases = rng.uniform(-np.pi, np.pi, size=(rays_per_cluster, 4)).tolist()
        means = np.radians([row.aod_deg, row.zod_deg, row.aoa_deg, row.zoa_deg])[:, None]
        angles = means + scale * offsets[perm]
        angles[1::2] = np.clip(angles[1::2], 1e-6, np.pi - 1e-6)
        aod, zod, aoa, zoa = angles.tolist()
        rays.extend(
            ClusterRay(
                cluster=n, ray=m, power=p_n, ray_count=rays_per_cluster, delay=delay,
                departure=(zod[m], aod[m]), arrival=(zoa[m], aoa[m]),
                # scalar power: an array ** may differ in the last bit
                xpr=10.0 ** (xpr_db[m] / 10.0),
                phases=tuple(phases[m]),
            )
            for m in range(rays_per_cluster)
        )
    return rays
