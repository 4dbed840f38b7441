"""Free-space electromagnetic primitives.

The dyadic Green function, the 1/R^3 + 1/R^2 + 1/R split with its
field-region classifier, and the port-to-port channel quadrature that reduces
to a conventional MIMO matrix when the port functions are deltas.

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


@dataclass(frozen=True)
class WaveContext:
    """Carrier and medium constants shared by all physics routines."""

    frequency: float
    permeability: float = VACUUM_PERMEABILITY

    def __post_init__(self):
        if any(not np.isfinite(v) or v <= 0.0 for v in (self.frequency, self.permeability)):
            raise DomainError("WaveContext fields must be finite and positive")

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
        if np.any(w <= 0.0):
            raise DomainError("quadrature weights must be positive")
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
    """Vector-valued port map sampled on an aperture grid."""

    samples: np.ndarray
    kind: str  # "precoding" (current density) or "combining" (field sampling)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 2 or s.shape[1] != 3:
            raise ShapeError("port samples must have shape (n, 3)")
        if self.kind not in ("precoding", "combining"):
            raise DomainError("kind must be 'precoding' or 'combining'")
        object.__setattr__(self, "samples", s)


def _max_pairwise_distance(pts: np.ndarray) -> float:
    """Largest point-to-point distance, in row blocks of about 2**18 pairs each."""
    n = pts.shape[0]
    rows = max(1, 2**18 // n)
    best = 0.0
    for start in range(0, n, rows):
        diff = pts[start:start + rows, None, :] - pts[None, :, :]
        best = max(best, float(np.sqrt((diff**2).sum(-1)).max()))
    return best


def _dyadic_terms(r, s, ctx: WaveContext):
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
    dist, proj = _dyadic_terms(r, s, ctx)
    kr = ctx.wavenumber * dist
    # asarray keeps 0-d results indexable (scalar ops can decay to python complex)
    g = np.asarray(np.exp(-1j * kr) / (4.0 * np.pi * dist))
    a = np.asarray(1.0 - 1j / kr - 1.0 / kr**2)
    b = np.asarray(-1.0 + 3j / kr + 3.0 / kr**2)
    eye = np.eye(3)
    return g[..., None, None] * (a[..., None, None] * eye + b[..., None, None] * proj)


def green_decomposition(r, s, ctx: WaveContext):
    """(G_INF, G_RNF, G_FF): the 1/R^3, 1/R^2 and 1/R parts of the dyadic."""
    dist, proj = _dyadic_terms(r, s, ctx)
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
    if distance <= 0.0:
        raise DomainError("distance must be positive")
    if distance < reactive_boundary(aperture_extent, ctx):
        return REACTIVE_NEAR
    if distance < rayleigh_distance(aperture_extent, ctx):
        return RADIATING_NEAR
    return FAR


def _pairwise_green(aperture_r: Aperture, aperture_s: Aperture, ctx: WaveContext):
    rp = aperture_r.points
    sp = aperture_s.points
    return dyadic_green(rp[:, None, :], sp[None, :, :], ctx)


def assemble_em_channel(
    phis: list[PortFunction],
    psis: list[PortFunction],
    aperture_r: Aperture,
    aperture_s: Aperture,
    ctx: WaveContext,
) -> np.ndarray:
    """M x N port channel matrix; the pairwise Green tensor is shared."""
    if len(phis) < 1 or len(psis) < 1:
        raise DomainError("need at least one combining and one precoding port")
    for f in phis:
        if f.kind != "combining":
            raise DomainError("receive ports must be combining functions")
        if f.samples.shape[0] != aperture_r.count:
            raise ShapeError("combining samples do not match receive aperture")
    for f in psis:
        if f.kind != "precoding":
            raise DomainError("transmit ports must be precoding functions")
        if f.samples.shape[0] != aperture_s.count:
            raise ShapeError("precoding samples do not match transmit aperture")

    g = _pairwise_green(aperture_r, aperture_s, ctx)  # raises on any collision
    phi = np.stack([f.samples for f in phis])  # (M, Q, 3)
    psi = np.stack([f.samples for f in psis])  # (N, P, 3)
    scale = -1j * ctx.angular_frequency * ctx.permeability
    return scale * np.einsum(
        "q,p,mqa,qpab,npb->mn",
        aperture_r.weights,
        aperture_s.weights,
        phi.conj(),
        g,
        psi,
        optimize=True,
    )


def delta_aperture(positions) -> Aperture:
    """Point 'aperture' with unit weights, for conventional antenna arrays."""
    pts = np.asarray(positions, dtype=float)
    return Aperture(points=pts, weights=np.ones(pts.shape[0]))


def delta_ports(count: int, kind: str, polarizations=None) -> list[PortFunction]:
    """One single-point port per aperture point.

    Port m samples to zero everywhere except point m, where it takes the
    given polarization unit vector (z by default). With these ports the
    assembled channel degenerates to -j omega mu  e_m^T G(r_m, s_n) e_n.
    """
    if polarizations is None:
        polarizations = np.tile(np.array([0.0, 0.0, 1.0]), (count, 1))
    polarizations = np.asarray(polarizations, dtype=complex)
    if polarizations.shape != (count, 3):
        raise ShapeError("need one polarization vector per port")
    ports = []
    for m in range(count):
        samples = np.zeros((count, 3), dtype=complex)
        samples[m] = polarizations[m]
        ports.append(PortFunction(samples=samples, kind=kind))
    return ports
