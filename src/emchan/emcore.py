"""Free-space electromagnetic primitives.

The dyadic Green function, the 1/R^3 + 1/R^2 + 1/R split with its
field-region classifier, and the port channel H = Phi^H K Psi on the
quadrature-weighted Green operator K = W_R^1/2 G W_S^1/2, which reduces to a
conventional MIMO matrix when the port functions are deltas.

Conventions: time dependence e^{+j omega t}, outgoing phase e^{-j k R}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ShapeError, SingularityError

SPEED_OF_LIGHT = 299792458.0
VACUUM_PERMEABILITY = 4.0e-7 * np.pi

REACTIVE_NEAR = "reactive-near"
RADIATING_NEAR = "radiating-near"
FAR = "far"

_BLOCK_PAIRS = 1 << 14  # (q, p) pairs per row block of K: 2.4 MB of 3 x 3 dyadics
_EXTENT_PAIRS = 1 << 18  # point pairs per row block of an aperture's extent


@dataclass(frozen=True)
class WaveContext:
    """Carrier and medium constants shared by all physics routines."""

    frequency: float
    permeability: float = VACUUM_PERMEABILITY

    def __post_init__(self):
        if any(not np.isfinite(v) or v <= 0.0 for v in (self.frequency, self.permeability)):
            raise DomainError("WaveContext fields must be finite and positive")
        if not math.isfinite(self.wavelength):
            raise DomainError(f"frequency {self.frequency!r} Hz has a wavelength beyond a float")

    @classmethod
    def from_frequency(cls, frequency: float, permeability: float = VACUUM_PERMEABILITY):
        return cls(frequency=frequency, permeability=permeability)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def angular_frequency(self) -> float:
        return 2.0 * np.pi * self.frequency


@dataclass(frozen=True, eq=False)
class Aperture:
    """Quadrature discretization of a source or observation region."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ShapeError("aperture points must have shape (n, 3)")
        if w.shape != (pts.shape[0],):
            raise ShapeError("one quadrature weight per aperture point required")
        if pts.shape[0] < 1:
            raise DomainError("aperture needs at least one point")
        if not np.isfinite(pts).all():
            raise DomainError("aperture points must be finite")
        if not (np.isfinite(w).all() and (w > 0.0).all()):
            raise DomainError("quadrature weights must be finite and positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def extent(self) -> float:
        """Largest distance between two points (the aperture's diameter)."""
        return _max_pairwise_distance(self.points)


@dataclass(frozen=True, eq=False)
class PortFunction:
    """M vector-valued port maps of one kind; samples[m, q] is port m at point q."""

    samples: np.ndarray  # (M, Q, 3)
    kind: str  # "precoding" (current density) or "combining" (field sampling)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 3 or s.shape[2] != 3 or s.shape[0] < 1:
            raise ShapeError("port samples must have shape (ports >= 1, points, 3)")
        if not np.isfinite(s).all():
            raise DomainError("port samples must be finite")
        if self.kind not in ("precoding", "combining"):
            raise DomainError("kind must be 'precoding' or 'combining'")
        object.__setattr__(self, "samples", s)


def _row_blocks(rows: int, cols: int, pairs: int):
    """Slices of ``rows`` rows of ``cols`` entries each: ``pairs // cols`` rows
    per slice, at least one."""
    step = max(1, pairs // cols)
    return (slice(start, start + step) for start in range(0, rows, step))


def _max_pairwise_distance(pts: np.ndarray) -> float:
    """Largest point-to-point distance, in row blocks of _EXTENT_PAIRS pairs."""
    n = pts.shape[0]
    return max(float(np.sqrt(((pts[rows, None, :] - pts[None, :, :]) ** 2).sum(-1)).max())
               for rows in _row_blocks(n, n, _EXTENT_PAIRS))


def _dyadic_terms(r, s):
    """Shared geometry for the dyadic forms; R may be broadcast (..., 3)."""
    rv = np.asarray(r, dtype=float) - np.asarray(s, dtype=float)
    dist = np.linalg.norm(rv, axis=-1)
    if np.any(dist == 0.0):
        raise SingularityError("dyadic Green function is singular at r = s")
    rhat = rv / dist[..., None]
    proj = rhat[..., :, None] * rhat[..., None, :]
    return dist, proj


def dyadic_green(r, s, ctx: WaveContext) -> np.ndarray:
    """Closed form of [I + grad grad^T / k0^2] applied to the scalar kernel."""
    dist, proj = _dyadic_terms(r, s)
    kr = ctx.wavenumber * dist
    # asarray keeps 0-d results indexable (scalar ops can decay to python complex)
    g = np.asarray(np.exp(-1j * kr) / (4.0 * np.pi * dist))
    a = np.asarray(1.0 - 1j / kr - 1.0 / kr**2)
    b = np.asarray(-1.0 + 3j / kr + 3.0 / kr**2)
    eye = np.eye(3)
    return g[..., None, None] * (a[..., None, None] * eye + b[..., None, None] * proj)


def green_decomposition(r, s, ctx: WaveContext):
    """(G_INF, G_RNF, G_FF): the 1/R^3, 1/R^2 and 1/R parts of the dyadic."""
    dist, proj = _dyadic_terms(r, s)
    k0 = ctx.wavenumber
    ph = np.exp(-1j * k0 * dist)[..., None, None]
    eye = np.eye(3)
    g_inf = ph / (4.0 * np.pi * k0**2 * dist[..., None, None] ** 3) * (3.0 * proj - eye)
    g_rnf = -1j * ph / (4.0 * np.pi * k0 * dist[..., None, None] ** 2) * (eye - 3.0 * proj)
    g_ff = ph / (4.0 * np.pi * dist[..., None, None]) * (eye - proj)
    return g_inf, g_rnf, g_ff


def _region_boundary(name: str, formula, aperture_extent: float) -> float:
    """formula(aperture_extent), or a NumericalError where it overflows a float
    (a float's ** raises OverflowError, its * and / give inf)."""
    if not aperture_extent > 0.0:
        raise DomainError("aperture extent must be positive")
    try:
        distance = formula(aperture_extent)
    except OverflowError:
        distance = math.inf
    if not math.isfinite(distance):
        raise NumericalError(f"{name} of a {aperture_extent!r} m aperture overflows a float")
    return distance


def reactive_boundary(aperture_extent: float, ctx: WaveContext) -> float:
    """Outer edge of the reactive near field, 0.62 sqrt(D^3 / lambda)."""
    return _region_boundary("reactive boundary",
                            lambda d: 0.62 * np.sqrt(d**3 / ctx.wavelength), aperture_extent)


def rayleigh_distance(aperture_extent: float, ctx: WaveContext) -> float:
    """Radiating-near/far boundary, 2 D^2 / lambda."""
    return _region_boundary("Rayleigh distance",
                            lambda d: 2.0 * d**2 / ctx.wavelength, aperture_extent)


def field_region(distance: float, aperture_extent: float, ctx: WaveContext) -> str:
    """Classify a distance as reactive-near, radiating-near or far."""
    if not distance > 0.0:
        raise DomainError("distance must be positive")
    if distance < reactive_boundary(aperture_extent, ctx):
        return REACTIVE_NEAR
    if distance < rayleigh_distance(aperture_extent, ctx):
        return RADIATING_NEAR
    return FAR


def _green_blocks(aperture_r: Aperture, aperture_s: Aperture, ctx: WaveContext):
    """Row blocks (rows, K[rows]) of K = W_R^1/2 G W_S^1/2, _BLOCK_PAIRS pairs each;
    K[q, p] is the weighted 3 x 3 dyadic, so a block has shape (len(rows), P, 3, 3)."""
    root_r = np.sqrt(aperture_r.weights)
    root_s = np.sqrt(aperture_s.weights)
    for rows in _row_blocks(aperture_r.count, aperture_s.count, _BLOCK_PAIRS):
        # dyadic_green raises on a point shared by both apertures
        k = dyadic_green(aperture_r.points[rows, None, :], aperture_s.points[None], ctx)
        k *= (root_r[rows, None] * root_s)[..., None, None]
        yield rows, k


def assemble_em_channel(phi: PortFunction, psi: PortFunction, aperture_r: Aperture,
                        aperture_s: Aperture, ctx: WaveContext) -> np.ndarray:
    """M x N port channel -j omega mu Phi~^H K Psi~, summed over row blocks of K;
    Phi~ and Psi~ are the ports scaled by the roots of their quadrature weights."""
    if phi.kind != "combining":
        raise DomainError("receive ports must be combining functions")
    if psi.kind != "precoding":
        raise DomainError("transmit ports must be precoding functions")
    if phi.samples.shape[1] != aperture_r.count:
        raise ShapeError("combining samples do not match receive aperture")
    if psi.samples.shape[1] != aperture_s.count:
        raise ShapeError("precoding samples do not match transmit aperture")
    phi_w = phi.samples.conj() * np.sqrt(aperture_r.weights)[:, None]
    psi_w = psi.samples * np.sqrt(aperture_s.weights)[:, None]
    h = np.zeros((phi_w.shape[0], psi_w.shape[0]), dtype=complex)
    for rows, k in _green_blocks(aperture_r, aperture_s, ctx):
        h += np.einsum("mqa,qpab,npb->mn", phi_w[:, rows], k, psi_w, optimize=True)
    return -1j * ctx.angular_frequency * ctx.permeability * h


def delta_aperture(positions) -> Aperture:
    """Point 'aperture' with unit weights, for conventional antenna arrays."""
    pts = np.asarray(positions, dtype=float)
    return Aperture(points=pts, weights=np.ones(pts.shape[0]))


def delta_ports(count: int, kind: str, polarizations=None) -> PortFunction:
    """One single-point port per aperture point, as one (count, count, 3) stack.

    Port m samples to zero everywhere except point m, where it takes the
    given polarization unit vector (z by default). With these ports the
    assembled channel degenerates to -j omega mu  e_m^T G(r_m, s_n) e_n.
    """
    if polarizations is None:
        polarizations = np.tile(np.array([0.0, 0.0, 1.0]), (count, 1))
    polarizations = np.asarray(polarizations, dtype=complex)
    if polarizations.shape != (count, 3):
        raise ShapeError("need one polarization vector per port")
    samples = np.zeros((count, count, 3), dtype=complex)
    samples[np.arange(count), np.arange(count)] = polarizations
    return PortFunction(samples=samples, kind=kind)
