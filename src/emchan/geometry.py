"""Spherical/Cartesian angle helpers, planar-panel orientation frames and the
rule of a uniform array grid."""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Rows of each matrix are the local x/y/z axes expressed in global
# coordinates, so d_local = M @ d_global. The local +z axis is the panel
# boresight; the panel itself lies in the local xy plane.
PANEL_FRAMES = {
    "+x": np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
    "-x": np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]),
    "+y": np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    "-y": np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]),
    "+z": np.eye(3),
    "-z": np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),
}


def unit_vector(theta, phi) -> np.ndarray:
    """Cartesian unit vector(s) for zenith angle theta and azimuth phi."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta) * np.ones_like(phi)],
        axis=-1,
    )


def angles_from_vector(v) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`unit_vector`; accepts non-normalized vectors."""
    v = np.asarray(v, dtype=float)
    r = np.linalg.norm(v, axis=-1)
    if np.any(r == 0.0):
        raise DomainError("zero vector has no direction")
    theta = np.arccos(np.clip(v[..., 2] / r, -1.0, 1.0))
    phi = np.arctan2(v[..., 1], v[..., 0])
    return theta, phi


def panel_frame(boresight: str) -> np.ndarray:
    """Rotation matrix of a panel whose boresight is a signed global axis."""
    try:
        return PANEL_FRAMES[boresight].copy()
    except KeyError:
        raise DomainError(
            f"unknown boresight {boresight!r}; expected one of {sorted(PANEL_FRAMES)}"
        ) from None


def to_local_angles(theta, phi, boresight: str) -> tuple[np.ndarray, np.ndarray]:
    """Map global propagation angles into a panel's local frame."""
    frame = panel_frame(boresight)
    d = unit_vector(theta, phi)
    return angles_from_vector(d @ frame.T)


def grid_intervals(length: float, spacing: float) -> int:
    """Spacings along one aperture side, which must be a whole multiple of the spacing."""
    n = int(round(length / spacing))
    if abs(n * spacing - length) > 1e-9:
        raise DomainError("aperture length must be an integer multiple of the spacing")
    return n
