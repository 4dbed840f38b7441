"""Element directivity patterns.

A pattern maps local-frame angles (theta from boresight, azimuth phi) to the
complex gain pair (F_theta, F_phi). Analytic stand-ins cover the common
cases; measured patterns load from CSV tables with bilinear interpolation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .geometry import angles_from_vector


@dataclass(frozen=True)
class Pattern:
    """Directivity gains as a pair of broadcastable callables. ``constant``
    states the gain pair of a pattern that does not depend on direction, so
    that `PatternSet.gains_toward` need not evaluate it; None for any other."""

    name: str
    _f_theta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    _f_phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constant: tuple[complex, complex] | None = None

    def gains(self, theta, phi) -> tuple[np.ndarray, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        shape = np.broadcast_shapes(theta.shape, phi.shape)
        # 0-d angles are evaluated as length-1 arrays: numpy's scalar math
        # (say, **) can round differently from its array loops
        theta, phi = np.atleast_1d(theta, phi)
        full = np.broadcast_shapes(theta.shape, phi.shape)
        ft = np.broadcast_to(np.asarray(self._f_theta(theta, phi), dtype=complex), full)
        fp = np.broadcast_to(np.asarray(self._f_phi(theta, phi), dtype=complex), full)
        return ft.copy().reshape(shape), fp.copy().reshape(shape)


def unit_gain() -> Pattern:
    """F_theta = F_phi = 1 everywhere (idealized isotropic element)."""
    one = lambda th, ph: np.ones_like(th)
    return Pattern("unit", one, one, constant=(1.0, 1.0))


def vertical() -> Pattern:
    """Pure-theta unit element: (F_theta, F_phi) = (1, 0)."""
    return Pattern("vertical", lambda th, ph: np.ones_like(th), lambda th, ph: np.zeros_like(th),
                   constant=(1.0, 0.0))


def dipole(axis="x") -> Pattern:
    """Short dipole along a local axis: F = p_hat projected on theta/phi hats."""
    p = {
        "x": np.array([1.0, 0.0, 0.0]),
        "y": np.array([0.0, 1.0, 0.0]),
        "z": np.array([0.0, 0.0, 1.0]),
    }.get(axis)
    if p is None:
        raise DomainError("dipole axis must be 'x', 'y' or 'z'")

    def f_theta(th, ph):
        that = np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)], -1)
        return that @ p

    def f_phi(th, ph):
        phat = np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(ph)], -1)
        return phat @ p

    return Pattern(f"dipole-{axis}", f_theta, f_phi)


def patch(hpbw_deg: float = 70.0) -> Pattern:
    """cos^n(theta) envelope fit to a half-power beamwidth, zero behind."""
    if not 0.0 < hpbw_deg < 180.0:
        raise DomainError("half-power beamwidth must lie in (0, 180) degrees")
    half = np.radians(hpbw_deg) / 2.0
    n = np.log(0.5) / (2.0 * np.log(np.cos(half)))

    def envelope(th, ph):
        front = np.cos(np.minimum(th, np.pi / 2.0)) ** n
        return np.where(th <= np.pi / 2.0, front, 0.0)

    return Pattern(f"patch-{hpbw_deg:g}", envelope, envelope)


class TablePattern(Pattern):
    """Pattern sampled on a regular (theta, phi) grid, bilinear interpolation."""

    def __init__(self, theta_deg, phi_deg, f_theta, f_phi, name="table"):
        theta_deg = np.asarray(theta_deg, dtype=float)
        phi_deg = np.asarray(phi_deg, dtype=float)
        ft = np.asarray(f_theta, dtype=complex)
        fp = np.asarray(f_phi, dtype=complex)
        if ft.shape != (theta_deg.size, phi_deg.size) or fp.shape != ft.shape:
            raise ShapeError("pattern table shape must be (n_theta, n_phi)")
        if theta_deg.min() > 0.0 or theta_deg.max() < 90.0:
            raise DomainError("pattern grid must cover the front hemisphere 0..90 deg")
        if not (np.all(np.diff(theta_deg) > 0) and np.all(np.diff(phi_deg) > 0)):
            raise DomainError("pattern grid axes must be strictly increasing")

        def query(table, th, ph):
            th_d = np.degrees(th)
            ph_d = np.degrees(np.mod(ph, 2.0 * np.pi))
            # wrap azimuth into the tabulated range, then clamp to the hull
            ph_d = np.where(ph_d > phi_deg[-1], ph_d - 360.0, ph_d)
            i0, i1, u = _bracket(theta_deg, np.clip(th_d, theta_deg[0], theta_deg[-1]))
            j0, j1, v = _bracket(phi_deg, np.clip(ph_d, phi_deg[0], phi_deg[-1]))
            return ((1.0 - u) * ((1.0 - v) * table[i0, j0] + v * table[i0, j1])
                    + u * ((1.0 - v) * table[i1, j0] + v * table[i1, j1]))

        super().__init__(
            name,
            lambda th, ph: query(ft, th, ph),
            lambda th, ph: query(fp, th, ph),
        )


def _bracket(axis: np.ndarray, x):
    """Grid nodes lo <= x <= hi around each x of the hull, and x's weight on hi.

    A single-node axis brackets every x by that node with weight 0.
    """
    lo = np.clip(np.searchsorted(axis, x) - 1, 0, max(axis.size - 2, 0))
    hi = np.minimum(lo + 1, axis.size - 1)
    return lo, hi, (x - axis[lo]) / np.where(hi > lo, axis[hi] - axis[lo], 1.0)


def load_pattern_table(path, name=None) -> TablePattern:
    """Read a CSV pattern table (theta_deg, phi_deg, F components on a grid)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"theta_deg", "phi_deg", "f_theta_re", "f_theta_im", "f_phi_re", "f_phi_im"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise DomainError(f"pattern table {path} missing columns {sorted(need)}")
        for rec in reader:
            rows.append(
                (
                    float(rec["theta_deg"]),
                    float(rec["phi_deg"]),
                    float(rec["f_theta_re"]) + 1j * float(rec["f_theta_im"]),
                    float(rec["f_phi_re"]) + 1j * float(rec["f_phi_im"]),
                )
            )
    thetas = np.unique([r[0] for r in rows])
    phis = np.unique([r[1] for r in rows])
    if len(rows) != thetas.size * phis.size:
        raise DomainError(f"pattern table {path} is not a complete regular grid")
    ft = np.zeros((thetas.size, phis.size), dtype=complex)
    fp = np.zeros_like(ft)
    ti = {t: i for i, t in enumerate(thetas)}
    pi = {p: i for i, p in enumerate(phis)}
    for t, p, vt, vp in rows:
        ft[ti[t], pi[p]] = vt
        fp[ti[t], pi[p]] = vp
    return TablePattern(thetas, phis, ft, fp, name=name or str(path))


@dataclass(frozen=True)
class PatternSet:
    """Per-element patterns; a single shared pattern may serve all elements."""

    patterns: tuple[Pattern, ...]
    shared: bool = True

    @classmethod
    def uniform(cls, pattern: Pattern) -> "PatternSet":
        return cls(patterns=(pattern,), shared=True)

    @classmethod
    def per_element(cls, patterns: Sequence[Pattern]) -> "PatternSet":
        if len(patterns) < 1:
            raise DomainError("pattern set needs at least one pattern")
        return cls(patterns=tuple(patterns), shared=False)

    def count(self) -> int | None:
        return None if self.shared else len(self.patterns)

    def gains_toward(self, directions) -> np.ndarray:
        """(F_theta, F_phi) toward each direction (..., 3), of any nonzero
        length, on a new last axis; axis 0 of the directions is the element
        index, or has length 1 for directions every element shares. A shared
        pattern that states a constant pair returns that pair, of shape (2,),
        without reading the directions; any other set takes the angles once
        and calls `element_gains`."""
        pattern = self.patterns[0]
        if self.shared and pattern.constant is not None:
            return np.array(pattern.constant, dtype=complex)
        theta, phi = angles_from_vector(directions)
        if not self.shared and len(theta) == 1:
            theta, phi = (np.broadcast_to(x, (len(self.patterns), *x.shape[1:]))
                          for x in (theta, phi))
        return self.element_gains(theta, phi)

    def element_gains(self, theta, phi) -> np.ndarray:
        """(F_theta, F_phi) on a new last axis; axis 0 of the angles is the element
        index. One ``gains`` call if shared, else one per element on its angles."""
        if self.shared:
            return np.stack(self.patterns[0].gains(theta, phi), axis=-1)
        if len(theta) != len(self.patterns):
            raise ShapeError(f"{len(self.patterns)} per-element patterns for {len(theta)} elements")
        return np.stack([np.stack(p.gains(th, ph), axis=-1)
                         for p, th, ph in zip(self.patterns, theta, phi)])
