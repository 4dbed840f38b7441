"""MIMO capacity with equal-power and water-filling input covariances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Water-filling capacity in bits/s/Hz plus the allocation that achieved it.

    ``eigenvalues`` are those of G^H G sorted descending; ``allocation`` is
    aligned with them and sums to the power budget (zero for a zero channel).
    For a stack of channels every field gains the stack's leading axes.
    """

    capacity: float | np.ndarray
    allocation: np.ndarray
    eigenvalues: np.ndarray


def _checked(g, power, noise_power) -> np.ndarray:
    """G as a complex array, after both kernels' checks."""
    if not (np.isfinite(noise_power) and noise_power > 0.0):
        raise DomainError("noise power must be positive and finite")
    if not np.all(np.isfinite(power) & (np.asarray(power) >= 0.0)):
        raise DomainError("power must be nonnegative and finite")
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2:
        raise DomainError("channel matrix must be at least 2-D")
    if not np.all(np.isfinite(g)):
        raise DomainError("channel matrix entries must be finite")
    return g


def capacity_equal_power(g: np.ndarray, power, noise_power: float) -> float | np.ndarray:
    """log2 det(I + c G G^H), c = P/(K sigma^2) with K transmit streams, as
    2 sum log2 |diag(R)| for the Householder QR of M = [sqrt(c) G^H; I] for a
    wide G, else [sqrt(c) G; I]: M^H M is I + c times the smaller Gram
    matrix. QR is backward stable in M and sigma_min(M) >= 1, so this cannot
    fail on finite input and keeps the weak modes at any SNR and rank. G may
    carry stack axes and ``power`` may broadcast against them; each (power,
    matrix) pair gives exactly what it gives alone."""
    g = _checked(g, power, noise_power)
    m, k = g.shape[-2:]
    n = min(m, k)
    side = g.conj().swapaxes(-1, -2) if m < k else g
    scale = np.sqrt(np.asarray(power, dtype=float)[..., None, None] / (k * noise_power))
    # M, filled in place: sqrt(c) times the side on top, I below
    top = side.shape[-2]
    stack = np.empty(np.broadcast_shapes(scale.shape, side.shape)[:-2] + (top + n, n),
                     dtype=complex)
    np.multiply(scale, side, out=stack[..., :top, :])
    stack[..., top:, :] = np.eye(n)
    r = np.linalg.qr(stack, mode="r")
    cap = 2.0 * np.sum(np.log2(np.abs(np.diagonal(r, axis1=-2, axis2=-1))), axis=-1)
    return float(cap) if cap.ndim == 0 else cap


def capacity_waterfilling(g: np.ndarray, power: float, noise_power: float) -> CapacityResult:
    """Optimal power split across eigenmodes by the exact active-set rule.

    G may carry leading stack axes, as in capacity_equal_power.
    """
    g = _checked(g, power, noise_power)
    m, k = g.shape[-2:]
    gh = g.conj().swapaxes(-1, -2)
    gram = g @ gh if m < k else gh @ g  # the smaller side; its eigenvalues are G^H G's
    lam = np.zeros(gram.shape[:-2] + (k,))
    lam[..., : min(m, k)] = np.clip(np.linalg.eigvalsh(gram)[..., ::-1], 0.0, None)
    # eigenvalues are sorted descending, so the positive ones are a prefix;
    # the rest get no power and an infinite inverse gain
    positive = lam > 0.0
    inv = np.divide(noise_power, lam, out=np.full(lam.shape, np.inf), where=positive)
    modes = np.arange(1, k + 1)
    level = (power + np.cumsum(inv, axis=-1)) / modes
    # the active set is the longest prefix whose water level lies above the
    # inverse gain of its weakest mode: the drop-the-weakest rule, done for
    # every prefix at once
    fits = level > inv
    active = np.where(fits.any(axis=-1), k - np.argmax(fits[..., ::-1], axis=-1), 1)
    active = np.where(positive[..., 0], active, 0)[..., None]
    water = np.take_along_axis(level, np.maximum(active - 1, 0), axis=-1)
    alloc = np.subtract(water, inv, out=np.zeros_like(lam), where=modes <= active)
    cap = np.sum(np.log2(1.0 + alloc * lam / noise_power), axis=-1)
    return CapacityResult(capacity=float(cap) if cap.ndim == 0 else cap, allocation=alloc,
                          eigenvalues=lam)
