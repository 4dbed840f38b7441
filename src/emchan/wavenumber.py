"""Wavenumber-domain channel generation for densely spaced planar arrays.

Pipeline: enumerate the propagating plane-wave lattice for each aperture,
integrate a directional power spectrum over the lattice cells to get coupling
variances, draw complex-Gaussian wavenumber coefficients, split them into
polarization blocks, and project onto element space through pattern-weighted
Fourier harmonics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .emcore import WaveContext, _row_blocks
from .errors import DomainError, NumericalError, ShapeError
from .geometry import grid_intervals
from .patterns import PatternSet
from .seeds import generators


# ---------------------------------------------------------------------------
# directional power spectra


@dataclass(frozen=True)
class VmfCluster:
    """One directional cluster: mean direction plus concentration."""

    weight: float
    mean_theta: float
    mean_phi: float
    concentration: float

    def __post_init__(self):
        if self.weight < 0.0:
            raise DomainError("cluster weight must be nonnegative")
        if self.concentration < 0.0:
            raise DomainError("concentration must be nonnegative")


@dataclass(frozen=True)
class VmfMixture:
    clusters: tuple[VmfCluster, ...]

    def __post_init__(self):
        if len(self.clusters) < 1:
            raise DomainError("mixture needs at least one cluster")
        total = sum(c.weight for c in self.clusters)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"mixture weights sum to {total!r}, expected 1")

    def pdf(self, theta, phi) -> np.ndarray:
        """Weighted sum of the cluster densities, with sin and cos of theta
        taken once for all clusters; equal to summing vmf_pdf bit for bit."""
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        out = np.zeros(np.broadcast_shapes(theta.shape, phi.shape), dtype=float)
        for c in self.clusters:
            out += c.weight * _vmf_density(sin_t, cos_t, phi, c)
        return out


def vmf_pdf(theta, phi, cluster: VmfCluster) -> np.ndarray:
    """Density on the sphere; alpha = 0 degenerates to the uniform 1/(4 pi).

    Evaluated as alpha * exp(alpha (cos(gamma) - 1)) / (2 pi (1 - e^{-2 alpha}))
    which stays finite for large concentrations.
    """
    theta = np.asarray(theta, dtype=float)
    return _vmf_density(np.sin(theta), np.cos(theta), np.asarray(phi, dtype=float), cluster)


def _vmf_density(sin_t: np.ndarray, cos_t: np.ndarray, phi: np.ndarray,
                 cluster: VmfCluster) -> np.ndarray:
    """vmf_pdf from sin(theta) and cos(theta)."""
    a = cluster.concentration  # nonnegative: VmfCluster checks it
    if a == 0.0:
        return np.broadcast_to(1.0 / (4.0 * np.pi), np.broadcast_shapes(sin_t.shape, phi.shape)).copy()
    cosg = (
        sin_t * np.sin(cluster.mean_theta) * np.cos(phi - cluster.mean_phi)
        + cos_t * np.cos(cluster.mean_theta)
    )
    return a * np.exp(a * (cosg - 1.0)) / (2.0 * np.pi * (1.0 - np.exp(-2.0 * a)))


def isotropic_mixture() -> VmfMixture:
    return VmfMixture(clusters=(VmfCluster(1.0, 0.0, 0.0, 0.0),))


# ---------------------------------------------------------------------------
# plane-wave lattice


@dataclass(frozen=True)
class WavenumberSupport:
    """Integer lattice indices of propagating plane waves for one aperture."""

    indices: tuple[tuple[int, int], ...]
    length_x: float
    length_y: float
    wavelength: float


def wavenumber_support(length_x: float, length_y: float, ctx: WaveContext) -> WavenumberSupport:
    """All (l_x, l_y) with (l_x lam/L_x)^2 + (l_y lam/L_y)^2 <= 1."""
    if length_x <= 0.0 or length_y <= 0.0:
        raise DomainError("aperture lengths must be positive")
    lam = ctx.wavelength
    nx = int(np.floor(length_x / lam))
    ny = int(np.floor(length_y / lam))
    indices = sorted(
        (lx, ly)
        for lx in range(-nx - 1, nx + 2)
        for ly in range(-ny - 1, ny + 2)
        if (lx * lam / length_x) ** 2 + (ly * lam / length_y) ** 2 <= 1.0
    )
    return WavenumberSupport(indices=tuple(indices), length_x=length_x, length_y=length_y,
                             wavelength=lam)


# ---------------------------------------------------------------------------
# coupling variances

# evaluation points (node-cell pairs x u nodes) per block of the cell quadrature
_QUAD_POINTS = 1 << 15


# Newton steps of _gauss_legendre from Tricomi's nodes; at most 5 run up to
# order 1000
_NEWTON_STEPS = 20


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_{n-1}(x) and P_n(x) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for j in range(2, n + 1):
        prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
    return prev, cur


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    computed once per process and returned read-only.

    Newton's method on P_n from Tricomi's nodes cos(pi (k - 1/4) / (n + 1/2)),
    with P_{n-1} and P_n from the recurrence: O(n^2) steps and O(n) memory.
    The weight 2 (1 - x^2) / (n P_{n-1}(x))^2 is taken with P_{n-1} - x P_n
    in place of P_{n-1}, equal at a root; its derivative, -(n + 1) P_n, is
    zero there, so the node's rounding moves the weight only through
    1 - x^2. Nodes and weights are then symmetrized about 0.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_STEPS):
        prev, cur = _legendre_pair(n, x)
        step = cur * (1.0 - x * x) / (n * (prev - x * cur))
        x = x - step
        if np.all(np.abs(step) <= 1e-15):
            break
    else:
        raise NumericalError(f"Gauss-Legendre nodes of order {n} did not converge")
    prev, cur = _legendre_pair(n, x)
    weights = 2.0 * (1.0 - x * x) / (n * (prev - x * cur)) ** 2
    nodes = 0.5 * (x - x[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _box_masses(length_x: float, length_y: float, nx: int, ny: int,
                aps: VmfMixture, ctx: WaveContext, order: int) -> np.ndarray:
    """Integral of the spectrum over each lattice cell |l_x| <= nx, |l_y| <= ny
    clipped to the disk, indexed [l_x + nx, l_y + ny].

    Work in (k_x, u) with k_y = B sin(u), B = sqrt(k0^2 - k_x^2); the
    substitution absorbs the 1/k_z area factor so the rim is regular. The k_x
    geometry of all nodes is laid out at once as (order, X, Y) arrays; the
    u-quadrature runs only on the (node, cell) pairs whose cell meets the disk,
    in blocks of at most _QUAD_POINTS points, and each cell sums its node
    contributions in node order. Memory is O(cells x order).
    """
    k0 = ctx.wavenumber
    xg, xw = _gauss_legendre(order)
    l_x = np.arange(-nx, nx + 1)[:, None]
    l_y = np.arange(-ny, ny + 1)
    kx_lo = np.maximum(2.0 * np.pi * (l_x - 0.5) / length_x, -k0)
    kx_hi = np.minimum(2.0 * np.pi * (l_x + 0.5) / length_x, k0)
    half = 0.5 * (kx_hi - kx_lo)
    # axes (node, l_x, l_y): kx and b are (order, X, 1), the ky bounds (order, X, Y)
    kx = 0.5 * (kx_hi + kx_lo) + half * xg[:, None, None]
    b2 = k0**2 - kx**2
    live = (kx_hi > kx_lo) & (b2 > 0.0)
    b = np.sqrt(np.where(live, b2, 1.0))
    ky_lo = np.maximum(2.0 * np.pi * (l_y - 0.5) / length_y, -b)
    ky_hi = np.minimum(2.0 * np.pi * (l_y + 0.5) / length_y, b)
    node, cx, cy = np.nonzero(live & (ky_hi > ky_lo))
    masses = np.zeros(ky_lo.shape)
    for block in _row_blocks(node.size, order, _QUAD_POINTS):
        n, i, j = node[block], cx[block], cy[block]
        bi = b[n, i]
        u_lo = np.arcsin(np.clip(ky_lo[n, i, j][:, None] / bi, -1.0, 1.0))
        u_hi = np.arcsin(np.clip(ky_hi[n, i, j][:, None] / bi, -1.0, 1.0))
        u = 0.5 * (u_hi + u_lo) + 0.5 * (u_hi - u_lo) * xg
        wu = 0.5 * (u_hi - u_lo) * xw
        theta = np.arccos(np.clip(bi * np.cos(u) / k0, -1.0, 1.0))
        phi = np.arctan2(bi * np.sin(u), kx[n, i])
        masses[n, i, j] = half[i, 0] * xw[n] * np.sum(wu * aps.pdf(theta, phi), -1) / k0
    # reducing the leading axis adds the nodes one after another, in node order
    return np.add.reduce(masses, axis=0)


# e^{-x} I_0(x) for x > 700, where exp(x) nears the float range: the first
# terms ((2k-1)!!)^2 / (k! 8^k) of the large-argument series in 1/x, times
# 1/sqrt(2 pi x); the first term left out is below 1e-17 there
_I0E_SERIES = (1.0, 1 / 8, 9 / 128, 225 / 3072, 11025 / 98304, 893025 / 3932160)

# a cluster's factor exp(kappa (cos(theta - theta_c) - 1)) falls below
# e^-_WINDOW_EXPONENT outside its theta window; each window is cut into
# _WINDOW_PANELS panels of 16 Gauss-Legendre nodes
_WINDOW_EXPONENT = 60.0
_WINDOW_PANELS = 6


def _scaled_i0(x: np.ndarray) -> np.ndarray:
    """e^{-x} I_0(x) for x >= 0."""
    small = np.minimum(x, 700.0)
    large = np.maximum(x, 700.0)
    series = np.polyval(_I0E_SERIES[::-1], 1.0 / large) / np.sqrt(2.0 * np.pi * large)
    return np.where(x <= 700.0, np.i0(small) * np.exp(-small), series)


def _hemisphere_mass(aps: VmfMixture) -> float:
    """Front-hemisphere integral of the spectrum, theta in [0, pi/2].

    The azimuth integral of a cluster is 2 pi I_0(x), x = kappa sin(theta)
    sin(theta_c) (Mardia and Jupp, Directional Statistics), which leaves per
    cluster the integral over theta of
        kappa / (1 - e^{-2 kappa}) e^{kappa (cos(theta - theta_c) - 1)} e^{-x} I_0(x) sin(theta).
    Its peak has width 1/sqrt(kappa), and the window around theta_c outside
    which the integrand is negligible shrinks with it, so a fixed panel rule
    on each window resolves the peak at any concentration. All clusters are
    evaluated as one (clusters, points) array; a kappa = 0 cluster (uniform)
    contributes half its weight.
    """
    clusters = aps.clusters
    weight = np.array([c.weight for c in clusters])
    kappa = np.array([c.concentration for c in clusters])[:, None]
    mean = np.array([c.mean_theta for c in clusters])[:, None]
    # the same mean direction with theta_c in [0, pi], so that x >= 0
    theta_c = np.abs(np.arctan2(np.sin(mean), np.cos(mean)))
    live = kappa > 0.0
    k = np.where(live, kappa, 1.0)
    # 2 kappa sin^2((theta - theta_c) / 2) <= _WINDOW_EXPONENT within +-half_width
    half_width = 2.0 * np.arcsin(np.sqrt(np.minimum(_WINDOW_EXPONENT / (2.0 * k), 1.0)))
    lo = np.clip(theta_c - half_width, 0.0, 0.5 * np.pi)
    panel = (np.clip(theta_c + half_width, 0.0, 0.5 * np.pi) - lo) / _WINDOW_PANELS
    xg, xw = _gauss_legendre(16)
    theta = lo + panel * (np.arange(_WINDOW_PANELS)[:, None] + 0.5 * (xg + 1.0)).ravel()
    x = k * np.sin(theta) * np.sin(theta_c)
    density = (k / -np.expm1(-2.0 * k) * np.exp(-2.0 * k * np.sin(0.5 * (theta - theta_c)) ** 2)
               * _scaled_i0(x) * np.sin(theta))
    mass = np.sum(0.5 * panel * np.tile(xw, _WINDOW_PANELS) * density, axis=1)
    return float(np.sum(weight * np.where(live[:, 0], mass, 0.5)))


def cell_power_fractions(support: WavenumberSupport, aps: VmfMixture,
                         ctx: WaveContext, order: int = 16) -> np.ndarray:
    """Per-cell share of the front-hemisphere power, summing to 1.

    Lattice cells outside the support whose rectangle still clips the disk
    (rim slivers) are merged into the nearest support cell so the cells tile
    the hemisphere; the result is normalized by an independently computed
    hemisphere mass.
    """
    nx = int(np.ceil(support.length_x / support.wavelength)) + 2
    ny = int(np.ceil(support.length_y / support.wavelength)) + 2
    masses = _box_masses(support.length_x, support.length_y, nx, ny, aps, ctx, order)
    idx = np.array(support.indices)
    cells = (idx[:, 0] + nx, idx[:, 1] + ny)
    values = masses[cells]
    rim = masses > 0.0
    rim[cells] = False
    for cx, cy in zip(*np.nonzero(rim)):
        dists = (((cx - cells[0]) / support.length_x) ** 2
                 + ((cy - cells[1]) / support.length_y) ** 2)
        nearest = dists <= dists.min() * (1.0 + 1e-12)
        values[nearest] += masses[cx, cy] / np.count_nonzero(nearest)
    hemi = _hemisphere_mass(aps)
    if not np.isfinite(hemi) or hemi <= 0.0:
        raise NumericalError(f"hemisphere power quadrature failed (mass={hemi!r})")
    fractions = values / hemi
    if not np.all(np.isfinite(fractions)) or np.any(fractions < 0.0):
        raise NumericalError("cell quadrature produced invalid fractions")
    return fractions


def coupling_variances(support_r: WavenumberSupport, support_s: WavenumberSupport,
                       aps_r: VmfMixture, aps_s: VmfMixture, ctx: WaveContext,
                       order: int = 16) -> np.ndarray:
    """sigma^2[beta, alpha], shape (R, S), as the product of per-side cell power fractions."""
    f_r = cell_power_fractions(support_r, aps_r, ctx, order)
    f_s = cell_power_fractions(support_s, aps_s, ctx, order)
    return np.outer(f_r, f_s)


# ---------------------------------------------------------------------------
# coefficient sampling and polarization


def sample_wavenumber_channel(variances: np.ndarray, rng) -> np.ndarray:
    """Draw H_a entrywise from CN(0, variance).

    One (R, S) complex-normal draw is scaled by every variance set on the
    leading axes, so set j of a stack equals set j alone on the same generator.
    ``rng`` may also be a list of n generators or seeds: the draws then stack
    on an axis of their own just before the last two, shape (..., n, R, S),
    and draw k equals a call with ``rng[k]`` alone, bit for bit.
    """
    stacked, rngs = generators(rng)
    shape = np.shape(variances)[-2:]
    noise = np.empty((len(rngs),) + shape, dtype=complex)
    for g, draw in zip(rngs, noise):
        draw[...] = g.standard_normal(shape) + 1j * g.standard_normal(shape)
    scale = np.sqrt(variances / 2.0)
    return scale[..., None, :, :] * noise if stacked else scale * noise[0]


def apply_polarization(h_a: np.ndarray, mu_xpr_db: float, sigma_xpr_db: float,
                       rng_seed) -> np.ndarray:
    """[[H_tt, H_tp], [H_pt, H_pp]] of shape (..., 2R, 2S) from H_a (..., R, S),
    with random phases and XPR attenuation.

    Co-pol blocks are phase rotations of H_a; cross-pol blocks additionally
    carry kappa^{-1/2} with kappa = 10^(X/10), X normal in dB. One kappa is
    drawn per entry and shared by both cross blocks. Phases and kappas are
    drawn over the last two axes of H_a and shared by any leading axes, which
    therefore hold one realization (e.g. under several variance sets).
    ``rng_seed`` may also be a list of n generators or seeds, one per draw of
    H_a shaped (..., n, R, S) as `sample_wavenumber_channel` stacks them;
    draw k then equals a call with ``rng_seed[k]`` alone, bit for bit.
    """
    h_a = np.asarray(h_a, dtype=complex)
    if not np.all(np.isfinite(h_a)):
        raise DomainError("wavenumber coefficients must be finite")
    stacked, rngs = generators(rng_seed)
    r, s = h_a.shape[-2:]
    if stacked and h_a.shape[-3:-2] != (len(rngs),):
        raise ShapeError("a list of n generators needs coefficients shaped (..., n, R, S)")
    # each generator draws its four phase arrays and then its XPRs; -pi + 2 pi u
    # is uniform(-pi, pi) and mu + sigma x is normal(mu, sigma), bit for bit
    u = np.empty((len(rngs), 4, r, s))
    x = np.empty((len(rngs), r, s))
    for g, u_k, x_k in zip(rngs, u, x):
        g.random(out=u_k)
        g.standard_normal(out=x_k)
    phases = np.exp(1j * (-np.pi + 2.0 * np.pi * u)).swapaxes(0, 1)  # (4, n, R, S)
    inv_sqrt_kappa = 10.0 ** (-(mu_xpr_db + sigma_xpr_db * x) / 20.0)
    if not stacked:
        phases, inv_sqrt_kappa = phases[:, 0], inv_sqrt_kappa[0]
    out = np.empty(h_a.shape[:-2] + (2 * r, 2 * s), dtype=complex)
    out[..., :r, :s] = h_a * phases[0]
    out[..., :r, s:] = h_a * phases[1] * inv_sqrt_kappa
    out[..., r:, :s] = h_a * phases[2] * inv_sqrt_kappa
    out[..., r:, s:] = h_a * phases[3]
    return out


# ---------------------------------------------------------------------------
# arrays, harmonics, efficiencies, assembly


def uniform_planar_array(length_x: float, length_y: float, spacing_x: float,
                         spacing_y: float, z: float = 0.0) -> np.ndarray:
    """(n, 3) element positions of an edge-inclusive uniform grid in the xy
    plane at height z: L/spacing + 1 elements per side."""
    nx = grid_intervals(length_x, spacing_x)
    ny = grid_intervals(length_y, spacing_y)
    xs = np.arange(nx + 1) * spacing_x
    ys = np.arange(ny + 1) * spacing_y
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, float(z))], axis=1)


def _plane_waves(support: WavenumberSupport, ctx: WaveContext):
    """((k_x, k_y, k_z), (theta, phi)): the wave vector and the direction of
    each support index's plane wave, each a (B,) array."""
    k0 = ctx.wavenumber
    idx = np.asarray(support.indices, dtype=float)
    k_x = 2.0 * np.pi * idx[:, 0] / support.length_x
    k_y = 2.0 * np.pi * idx[:, 1] / support.length_y
    gamma_sq = k0**2 - k_x**2 - k_y**2
    if np.any(gamma_sq < -1e-9 * k0**2):
        raise DomainError("support contains an evanescent index")
    gamma = np.sqrt(np.maximum(gamma_sq, 0.0))
    return (k_x, k_y, gamma), (np.arccos(np.clip(gamma / k0, -1.0, 1.0)), np.arctan2(k_y, k_x))


def fourier_harmonics(positions, support: WavenumberSupport,
                      patterns: PatternSet, ctx: WaveContext) -> np.ndarray:
    """[Psi^theta Psi^phi] = Phi [D_theta D_phi], shape (n, 2B): the (n, B)
    plane-wave phases Phi at the (n, 3) element positions (see _plane_waves),
    weighted by each element's pattern gains D toward each support index."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
        raise ShapeError("element positions must have shape (n, 3)")
    (k_x, k_y, gamma), (theta, phi) = _plane_waves(support, ctx)
    phase = np.exp(
        1j * (np.outer(pos[:, 0], k_x) + np.outer(pos[:, 1], k_y) + np.outer(pos[:, 2], gamma))
    ) / np.sqrt(len(pos))
    gains = patterns.element_gains(np.broadcast_to(theta, phase.shape),
                                   np.broadcast_to(phi, phase.shape))
    return np.hstack([phase * gains[..., 0], phase * gains[..., 1]])


def hannan_efficiency(spacing_x: float, spacing_y: float, ctx: WaveContext) -> float:
    """Dense-array embedded-element efficiency bound min(1, pi dx dy / lam^2)."""
    if spacing_x <= 0.0 or spacing_y <= 0.0:
        raise DomainError("spacings must be positive")
    return min(1.0, np.pi * spacing_x * spacing_y / ctx.wavelength**2)


def assemble_channel(psi_r: np.ndarray, h_pol: np.ndarray, psi_s: np.ndarray) -> np.ndarray:
    """H = [Psi_R^t Psi_R^p] H_pol [Psi_S^t Psi_S^p]^H.

    ``h_pol`` may carry leading stack axes, and H then carries them too. The
    transmit side is multiplied first, as one product of every row of H_pol's
    stack with the shared Psi_S^H; each draw's rows come out as that draw
    alone gives them. Per-element amplitude weights go in as scaled rows of
    Psi_R and Psi_S.
    """
    if psi_r.ndim != 2 or psi_r.shape[1] != h_pol.shape[-2] or psi_s.shape[1] != h_pol.shape[-1]:
        raise ShapeError("harmonic and polarization block shapes do not conform")
    tx = (h_pol.reshape(-1, h_pol.shape[-1]) @ psi_s.conj().T).reshape(h_pol.shape[:-1] + (-1,))
    return psi_r @ tx
