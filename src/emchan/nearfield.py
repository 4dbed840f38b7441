"""Spherical-wavefront cluster channel for large apertures.

Per-element exact-distance LOS and bounce-ray NLOS coefficients, K-factor
impulse-response assembly, per-cluster visibility with logistic power
attenuation across the transmit array, and the planar-wave baseline used for
wavefront-mismatch correlation studies.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .cdl import ClusterTable
from .emcore import SPEED_OF_LIGHT, WaveContext, _row_blocks
from .errors import DomainError, GeometryError, ShapeError
from .geometry import angles_from_vector, unit_vector
from .patterns import PatternSet, vertical

# ray offset grid (in units of the per-cluster angular spread), mirrored +/-
RAY_OFFSETS = np.array(
    [0.0447, 0.1413, 0.2492, 0.3715, 0.5129, 0.6797, 0.8844, 1.1481, 1.5195, 2.1551]
)

LOS_POLARIZATION = np.array([[1.0, 0.0], [0.0, -1.0]])

# NLOS taps and LOS placements are built in blocks of whole rays (or
# placements) holding at most this many (ray, u, s) entries, or one if it
# alone holds more. It bounds the per-block temporaries; no entry depends on it.
_BLOCK_ENTRIES = 1 << 12


@dataclass(frozen=True, eq=False)
class MotionState:
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=float)
        if v.shape != (3,) or not np.all(np.isfinite(v)):
            raise DomainError("velocity must be a finite 3-vector")
        object.__setattr__(self, "velocity", v)


@dataclass(frozen=True, eq=False)
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
    """One ray, as a `RaySet` row: Python numbers and tuples."""

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
        values = (self.power, self.delay, self.xpr, *self.departure, *self.arrival, *self.phases)
        if not all(map(math.isfinite, values)):
            raise DomainError(_NON_FINITE_RAY)
        for name, bad, message in _RAY_RULES:
            if bad(getattr(self, name)):
                raise DomainError(message)


_NON_FINITE_RAY = "ray power, delay, xpr, angles and phases must be finite"
# (field, test of a bad value, message) of a ray, and of each RaySet row
_RAY_RULES = (("power", lambda x: x < 0.0, "cluster power must be nonnegative"),
              ("xpr", lambda x: x <= 0.0, "cross-polarization ratio must be positive"),
              ("delay", lambda x: x < 0.0, "delay must be nonnegative"),
              ("ray_count", lambda x: x < 1, "ray_count must be at least 1"))

# RaySet column -> (dtype, per-ray shape)
_RAY_COLUMNS = {"cluster": (int, ()), "ray": (int, ()), "power": (float, ()),
                "ray_count": (int, ()), "delay": (float, ()), "departure": (float, (2,)),
                "arrival": (float, (2,)), "xpr": (float, ()), "phases": (float, (4,))}


class RaySet(Sequence):
    """R rays as read-only columns: the `ClusterRay` fields with a leading ray
    axis, shaped as `_RAY_COLUMNS` gives. As a sequence, an integer index
    gives that row's `ClusterRay`, and a slice, an index array or a mask
    gives a `RaySet`. A plain class, not a frozen dataclass: the generated
    methods of one take about a millisecond to build at import."""

    def __init__(self, cluster, ray, power, ray_count, delay, departure, arrival, xpr, phases):
        values = (cluster, ray, power, ray_count, delay, departure, arrival, xpr, phases)
        rows = np.shape(cluster) if np.ndim(cluster) == 1 else ("R",)
        for (name, (dtype, shape)), value in zip(_RAY_COLUMNS.items(), values):
            column = np.array(value, dtype=dtype)
            if column.shape != (*rows, *shape):
                raise ShapeError(f"ray column {name} has shape {column.shape}, "
                                 f"not {(*rows, *shape)}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        finite = (self.power, self.delay, self.xpr, self.departure, self.arrival, self.phases)
        if not all(np.isfinite(column).all() for column in finite):
            raise DomainError(_NON_FINITE_RAY)
        for name, bad, message in _RAY_RULES:
            if bad(getattr(self, name)).any():
                raise DomainError(message)

    def __setattr__(self, name, value):
        raise AttributeError(f"a RaySet is read-only: cannot set {name!r}")

    @classmethod
    def stack(cls, rays) -> RaySet:
        """``rays`` as one RaySet: a RaySet as it is, ClusterRay entries stacked."""
        if isinstance(rays, RaySet):
            return rays
        rays = list(rays)
        return cls(*(np.array([getattr(r, name) for r in rays], dtype).reshape(len(rays), *shape)
                     for name, (dtype, shape) in _RAY_COLUMNS.items()))

    def __len__(self) -> int:
        return len(self.cluster)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            i = range(len(self))[index]  # bounds and negative indices as a list has them
            return ClusterRay(int(self.cluster[i]), int(self.ray[i]), float(self.power[i]),
                              int(self.ray_count[i]), float(self.delay[i]),
                              tuple(self.departure[i].tolist()), tuple(self.arrival[i].tolist()),
                              float(self.xpr[i]), tuple(self.phases[i].tolist()))
        return RaySet(*(getattr(self, name)[index] for name in _RAY_COLUMNS))


# BounceGeometry fields, in the order of its constructor
_BOUNCE_FIELDS = ("first_bounce", "last_bounce", "inter_distance", "tx_distances",
                  "rx_distances", "tx_directions", "rx_directions")


class BounceGeometry:
    """One ray's bounce points and its paths to every element: ``first_bounce``
    and ``last_bounce`` (3,), the ``inter_distance`` between them, the path
    lengths ``tx_distances`` (n_tx,) and ``rx_distances`` (n_rx,), and
    ``tx_directions`` (n_tx, 3) and ``rx_directions`` (n_rx, 3), which point
    from each element toward its bounce point at any nonzero length. A
    ray-batched record puts a leading ray axis on every field. ``tx_theta``,
    ``tx_phi``, ``rx_theta`` and ``rx_phi`` are the directions' angles. A
    plain read-only class, as `RaySet` is."""

    def __init__(self, first_bounce, last_bounce, inter_distance, tx_distances, rx_distances,
                 tx_directions, rx_directions):
        values = (first_bounce, last_bounce, inter_distance, tx_distances, rx_distances,
                  tx_directions, rx_directions)
        for name, value in zip(_BOUNCE_FIELDS, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a BounceGeometry is read-only: cannot set {name!r}")

    @property
    def tx_theta(self) -> np.ndarray:
        return angles_from_vector(self.tx_directions)[0]

    @property
    def tx_phi(self) -> np.ndarray:
        return angles_from_vector(self.tx_directions)[1]

    @property
    def rx_theta(self) -> np.ndarray:
        return angles_from_vector(self.rx_directions)[0]

    @property
    def rx_phi(self) -> np.ndarray:
        return angles_from_vector(self.rx_directions)[1]


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


@dataclass(frozen=True, eq=False)
class Tap:
    delay: float
    coefficients: np.ndarray  # (n_rx, n_tx)


# ---------------------------------------------------------------------------
# LOS


def _moving(motion: MotionState, t: float) -> bool:
    """Whether the arrays have moved by time t. Where they have not, the
    Doppler factor is exp(0j) = 1, and it is not applied."""
    return bool((motion.velocity * t).any())


def _doppler(direction: np.ndarray, motion: MotionState, t: float, ctx: WaveContext):
    # v t first: the phase is 0 at t = 0 at any speed, where v / lam may overflow
    return np.exp((2j * np.pi / ctx.wavelength) * (direction @ (motion.velocity * t)))


def _gains(patterns: PatternSet, directions: np.ndarray, element_axis: int) -> np.ndarray:
    """`PatternSet.gains_toward` of ``directions`` whose axis ``element_axis``
    is the element index, the gains on the same axes; a constant (2,) pair
    as it is."""
    gains = patterns.gains_toward(directions.swapaxes(0, element_axis))
    return gains if gains.ndim == 1 else gains.swapaxes(0, element_axis)


def _los_gain(fr: np.ndarray, ft: np.ndarray):
    """The contraction fr P ftᵀ over the last axis, the rest broadcast; one
    complex number if both sides are constant (2,) pairs."""
    if fr.ndim == ft.ndim == 1:
        return complex(fr @ LOS_POLARIZATION @ ft)
    return np.einsum("...i,ij,...j->...", fr, LOS_POLARIZATION, ft)


def los_coefficient(u: int, s: int, t: float, geom: ArrayGeometry,
                    motion: MotionState, ctx: WaveContext) -> complex:
    """Exact-geometry LOS entry for receive element u and transmit element s."""
    return complex(_los_matrix(geom, t, motion, ctx, planar=False)[0, u, s])


def _los_matrix(geom: ArrayGeometry, t: float, motion: MotionState, ctx: WaveContext,
                planar: bool, shifts=None) -> np.ndarray:
    """(C, n_rx, n_tx) LOS entries of the transmit array moved by each row of
    ``shifts`` (C, 3), or where it stands (C = 1) if ``shifts`` is None. Each
    entry is bit for bit that of its placement alone: a batched norm would
    round the norms of single vectors (reference distance, planar axis)
    differently, so they are taken one placement at a time."""
    rx = geom.rx_positions
    tx = geom.tx_positions[None] if shifts is None else geom.tx_positions + shifts[:, None]
    lam = ctx.wavelength
    d_ref = np.array([float(np.linalg.norm(p[0] - rx[0])) for p in tx])
    anchor = np.array([np.exp(-2j * np.pi * d / lam) for d in d_ref.tolist()])
    out = np.empty((len(tx), geom.n_rx, geom.n_tx), dtype=complex)
    for c in _row_blocks(len(tx), geom.n_rx * geom.n_tx, _BLOCK_ENTRIES):
        if planar:
            # expansion directions from the array centroids, absolute phase
            # anchored at the element-0 pair
            axis = tx[c].mean(axis=1) - rx.mean(axis=0)
            dist = np.array([np.linalg.norm(a) for a in axis])
            if np.any(dist == 0.0):
                raise DomainError("coincident array centroids")
            arr_dir = axis / dist[:, None]  # arrival direction, points from Rx toward Tx
            lin = (rx - rx[0]) @ arr_dir[:, :, None]  # (C, n_rx, 1)
            lin_t = (tx[c] - tx[c, :1]) @ -arr_dir[:, :, None]  # (C, n_tx, 1)
            phase = anchor[c, None, None] * np.exp(
                2j * np.pi * (lin + lin_t.transpose(0, 2, 1)) / lam)
            # one direction per placement, which all its elements share
            arr_dir = arr_dir[:, None, None]
            fr = _gains(geom.rx_patterns, arr_dir, 1)
            ft = _gains(geom.tx_patterns, -arr_dir, 2)
        else:
            sep = tx[c, None] - rx[:, None]  # (C, n_rx, n_tx, 3)
            d_us = np.linalg.norm(sep, axis=-1)
            if np.any(d_us == 0.0):
                raise DomainError("coincident transmit and receive elements")
            fr = _gains(geom.rx_patterns, sep, 1)
            ft = _gains(geom.tx_patterns, -sep, 2)
            phase = anchor[c, None, None] * np.exp(
                2j * np.pi * (d_ref[c, None, None] - d_us) / lam)
        out[c] = _los_gain(fr, ft) * phase
        if _moving(motion, t):
            out[c] *= _doppler(arr_dir if planar else sep / d_us[..., None], motion, t, ctx)
    return out


# ---------------------------------------------------------------------------
# bounce geometry


def _locate_bounces(rays: RaySet, geom: ArrayGeometry, planar: bool) -> BounceGeometry:
    """Bounce geometry of the R ``rays``, as in `locate_bounce_scatterers`;
    every field carries a leading ray axis.

    Parallel rays and a leg that collapses onto its own array split c*tau
    evenly between the legs. The planar variant keeps the bounce points and
    extends the ray directions linearly across each array: affine distances
    and the ray's own angles at every element.
    """
    tx, rx = geom.tx_positions, geom.rx_positions
    departure, arrival, delay = rays.departure, rays.arrival, rays.delay
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
    # row-wise sums: a BLAS product rounds a row by its place in the batch
    wa = np.sum(u_dep * w, axis=1)
    wb = np.sum(u_arr * w, axis=1)
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
        tx_dist = (np.linalg.norm(first - tx[0], axis=1)[:, None]
                   - np.sum(u_dep[:, None] * (tx - tx[0]), axis=-1))
        rx_dist = (np.linalg.norm(last - rx[0], axis=1)[:, None]
                   - np.sum(u_arr[:, None] * (rx - rx[0]), axis=-1))
        tx_vec = np.broadcast_to(u_dep[:, None], tx_dist.shape + (3,))
        rx_vec = np.broadcast_to(u_arr[:, None], rx_dist.shape + (3,))
    else:
        tx_vec = first[:, None, :] - tx
        rx_vec = last[:, None, :] - rx
        tx_dist = np.linalg.norm(tx_vec, axis=-1)
        rx_dist = np.linalg.norm(rx_vec, axis=-1)
        if np.any(tx_dist == 0.0) or np.any(rx_dist == 0.0):
            raise GeometryError("bounce point coincides with an array element")
    return BounceGeometry(first, last, inter, tx_dist, rx_dist, tx_vec, rx_vec)


def _take(bounce: BounceGeometry, index) -> BounceGeometry:
    """The rays ``index`` selects from a ray-batched BounceGeometry; index
    None makes a one-ray record, even one of Python floats, a batch of one."""
    return BounceGeometry(*(np.asarray(getattr(bounce, name))[index]
                            for name in _BOUNCE_FIELDS))


def locate_bounce_scatterers(ray: ClusterRay, geom: ArrayGeometry,
                             ctx: WaveContext) -> BounceGeometry:
    """Place first/last bounce points consistent with the ray's delay.

    The last bounce sits on the arrival ray from the Rx reference element and
    the first bounce on the departure ray from the Tx reference; path lengths
    satisfy d_tx + d_inter + d_rx = c*tau with d_inter the nonnegative
    leftover (both legs shrink proportionally when the leftover is negative).
    """
    return _take(_locate_bounces(RaySet.stack([ray]), geom, planar=False), 0)


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
    (R, n_rx, n_tx) shape. A constant pattern pair is one (2,) row that
    every ray and element shares.
    """
    fr = _gains(geom.rx_patterns, bounce.rx_directions, 1)
    ft = _gains(geom.tx_patterns, bounce.tx_directions, 1)
    lam = ctx.wavelength
    phase_rx = np.exp(2j * np.pi * (bounce.rx_distances[:, :1] - bounce.rx_distances) / lam)
    phase_tx = np.exp(2j * np.pi * (bounce.tx_distances[:, :1] - bounce.tx_distances) / lam)
    rx_factor = amp[:, None] * phase_rx
    if _moving(motion, t):
        arr_dir = bounce.rx_directions
        rx_factor *= _doppler(arr_dir / np.linalg.norm(arr_dir, axis=-1, keepdims=True),
                              motion, t, ctx)
    rx_side = (fr @ pol).reshape(len(pol), -1, 2) * rx_factor[..., None]
    tx_side = ft * (phase_tx * tx_weight)[..., None]
    return rx_side @ tx_side.transpose(0, 2, 1)


def _ray_factors(rays: RaySet) -> tuple[np.ndarray, np.ndarray]:
    """(R, 2, 2) XPR/phase matrices and (R,) amplitudes sqrt(P_n / M)."""
    pol = np.exp(1j * rays.phases).reshape(-1, 2, 2)
    inv = 1.0 / np.sqrt(rays.xpr)
    pol[:, 0, 1] *= inv
    pol[:, 1, 0] *= inv
    return pol, np.sqrt(rays.power / rays.ray_count)


def nlos_coefficient(u: int, s: int, ray: ClusterRay, bounce: BounceGeometry,
                     t: float, geom: ArrayGeometry, motion: MotionState,
                     ctx: WaveContext) -> complex:
    """One bounce-ray entry: pattern/XPR contraction times phase offsets."""
    return complex(_nlos_block(*_ray_factors(RaySet.stack([ray])), _take(bounce, None),
                               np.ones((1, geom.n_tx)), t, geom, motion, ctx)[0, u, s])


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


@functools.lru_cache(maxsize=256)
def _seeded_visibility(power: float, max_power: float, model: VisibilityModel,
                       visibility_seed: int, cluster: int) -> float:
    """visibility_probability seeded by (visibility_seed, cluster), cluster 0
    being the LOS tap; the spherical and planar responses share each draw."""
    seed = np.random.SeedSequence([visibility_seed, cluster])
    return visibility_probability(power, max_power, model, seed)


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


def _cluster_attenuation(rays: RaySet, tx_distances: np.ndarray, model: VisibilityModel,
                         visibility_seed: int) -> np.ndarray:
    """(R, n_tx) attenuation of each ray at each transmit element.

    One visibility draw per cluster, seeded by (visibility_seed, cluster)
    with the power of the cluster's first ray, and one distance span per
    cluster across its rays and the elements.
    """
    clusters, first, member = np.unique(rays.cluster, return_index=True, return_inverse=True)
    powers = rays.power[first].tolist()
    max_power, seed = max(powers), int(visibility_seed)
    v = np.array([_seeded_visibility(p, max_power, model, seed, n)
                  for p, n in zip(powers, clusters.tolist())])
    d_min, d_max = np.full(len(clusters), np.inf), np.full(len(clusters), -np.inf)
    np.minimum.at(d_min, member, tx_distances.min(axis=1))
    np.maximum.at(d_max, member, tx_distances.max(axis=1))
    return _element_attenuation(tx_distances, d_min[member, None], d_max[member, None],
                                v[member, None], model.rolloff)


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
    if ctx is None:
        raise DomainError("a WaveContext is required")
    w_los, w_nlos = _k_weights(k_factor)
    rays = RaySet.stack(rays if rays is not None else ())

    d_ref = float(np.linalg.norm(geom.tx_positions[0] - geom.rx_positions[0]))
    los = _los_matrix(geom, t, motion, ctx, planar=planar)[0]
    if visibility is None:
        alpha_los = np.ones(geom.n_tx)
    else:
        v_los = _seeded_visibility(1.0, 1.0, visibility, int(visibility_seed), 0)
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

    bounce = _locate_bounces(rays, geom, planar)
    if visibility is None:
        alpha = np.ones((len(rays), geom.n_tx))
    else:
        alpha = _cluster_attenuation(rays, bounce.tx_distances, visibility, visibility_seed)
    if drop_below > 0.0:
        keep = np.flatnonzero(alpha.max(axis=1) > drop_below)
        rays = rays[keep]
        bounce = _take(bounce, keep)
        alpha = alpha[keep]
    weight = w_nlos * alpha
    pol, amp = _ray_factors(rays)

    for block in _row_blocks(len(rays), geom.n_rx * geom.n_tx, _BLOCK_ENTRIES):
        coeff = _nlos_block(pol[block], amp[block], _take(bounce, block), weight[block],
                            t, geom, motion, ctx)
        taps.extend(Tap(delay=d, coefficients=c)
                    for d, c in zip(rays.delay[block].tolist(), coeff))
    return taps


def channel_impulse_response(geom: ArrayGeometry, rays, k_factor: float,
                             visibility: VisibilityModel | None = None, t: float = 0.0,
                             motion: MotionState = MotionState(), ctx: WaveContext = None,
                             visibility_seed: int = 0, drop_below: float = 0.0) -> list[Tap]:
    """Spherical-wavefront taps: one LOS tap plus one tap per surviving ray."""
    return _assemble_taps(geom, rays, k_factor, visibility, t, motion, ctx,
                          visibility_seed, drop_below, planar=False)


def planar_wave_channel(geom: ArrayGeometry, rays=None, k_factor: float = np.inf,
                        visibility: VisibilityModel | None = None, t: float = 0.0,
                        motion: MotionState = MotionState(), ctx: WaveContext = None,
                        visibility_seed: int = 0, drop_below: float = 0.0) -> list[Tap]:
    """Far-field baseline with the same tap layout as the spherical response."""
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
                 delay_margin: float = 5e-9) -> RaySet:
    """Expand a cluster table into per-ray parameters, cluster by cluster.

    Cluster powers are normalized to unit total. Each cluster's delay is
    los_delay + delay_margin + delay_norm * delay_spread, so every ray is
    strictly longer than the direct path. Ray angles offset the cluster means
    by the fixed grid scaled with the per-side spreads, with the azimuth and
    zenith offset orders decoupled per cluster.
    """
    m = rays_per_cluster
    if m < 2 or m % 2 != 0 or m > 2 * RAY_OFFSETS.size:
        raise DomainError(f"rays_per_cluster must be even and at most {2 * RAY_OFFSETS.size}")
    if not all(map(math.isfinite, (delay_spread, los_delay, delay_margin))):
        raise DomainError("delay_spread, los_delay and delay_margin must be finite")
    if delay_spread < 0.0 or los_delay < 0.0 or delay_margin <= 0.0:
        raise DomainError("delays must be nonnegative and the margin positive")
    rng = np.random.default_rng(rng_seed)
    half = RAY_OFFSETS[: m // 2]
    offsets = np.concatenate([half, -half])
    asd, asa, zsd, zsa = np.radians(table.spreads_deg)
    scale = np.array([asd, zsd, asa, zsa])[:, None]  # rows: aod, zod, aoa, zoa
    n, order = table.count, np.tile(np.arange(m), (4, 1))
    perm, xpr_db, phases = np.empty((n, 4, m), dtype=int), np.empty((n, m)), np.empty((n, m, 4))
    for c in range(n):
        # one permuted call draws what four permutation calls would
        perm[c] = rng.permuted(order, axis=1)
        xpr_db[c] = rng.normal(table.xpr_mu_db, table.xpr_sigma_db, size=m)
        phases[c] = rng.uniform(-np.pi, np.pi, size=(m, 4))
    means = np.radians([[r.aod_deg, r.zod_deg, r.aoa_deg, r.zoa_deg] for r in table.rows])
    angles = means[:, :, None] + scale * offsets[perm]
    angles[:, 1::2] = np.clip(angles[:, 1::2], 1e-6, np.pi - 1e-6)
    aod, zod, aoa, zoa = angles.transpose(1, 0, 2).reshape(4, -1)
    delay = los_delay + delay_margin + np.array([r.delay_norm for r in table.rows]) * delay_spread
    return RaySet(
        cluster=np.repeat(np.arange(1, n + 1), m), ray=np.tile(np.arange(m), n),
        power=np.repeat(table.normalized_powers(), m), ray_count=np.full(n * m, m),
        delay=np.repeat(delay, m), departure=np.stack([zod, aod], axis=1),
        arrival=np.stack([zoa, aoa], axis=1),
        # scalar power: an array ** may differ in the last bit
        xpr=[10.0 ** (x / 10.0) for x in xpr_db.ravel().tolist()],
        phases=phases.reshape(-1, 4),
    )
