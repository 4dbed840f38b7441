"""MIMO capacity with equal-power and water-filling input covariances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Capacity in bits/s/Hz plus the eigenmode allocation that achieved it.

    ``eigenvalues`` are those of G^H G sorted descending; ``allocation`` is
    aligned with them and sums to the power budget (zero for a zero channel).
    For a stack of channels every field gains the stack's leading axes.
    """

    capacity: float | np.ndarray
    allocation: np.ndarray
    eigenvalues: np.ndarray


def _channel_eigenvalues(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of G^H G, descending along the last axis; G may carry
    leading stack axes, one matrix per index.

    They come from the smaller Gram matrix (G G^H for a wide G), whose
    nonzero eigenvalues are the same; the rest are zero.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2:
        raise DomainError("channel matrix must be at least 2-D")
    if not np.all(np.isfinite(g)):
        raise DomainError("channel matrix entries must be finite")
    m, k = g.shape[-2:]
    gh = g.conj().swapaxes(-1, -2)
    gram = g @ gh if m < k else gh @ g
    lam = np.zeros(g.shape[:-2] + (k,))
    lam[..., : min(m, k)] = np.clip(np.linalg.eigvalsh(gram)[..., ::-1], 0.0, None)
    return lam


def capacity_equal_power(g: np.ndarray, power, noise_power: float) -> CapacityResult:
    """log2 det(I + P/(K sigma^2) G G^H) with K transmit streams.

    G may carry leading stack axes; the capacity, allocation and eigenvalues
    then carry them too, and each matrix gives exactly what it gives alone.
    ``power`` may be an array that broadcasts against the stack axes: the
    eigenvalues are then computed once and serve every power.
    """
    if noise_power <= 0.0:
        raise DomainError("noise power must be positive")
    lam = _channel_eigenvalues(g)
    k = lam.shape[-1]
    power = np.asarray(power, dtype=float)[..., None]
    coef = power / (k * noise_power)
    cap = np.sum(np.log2(1.0 + coef * lam), axis=-1)
    return CapacityResult(capacity=float(cap) if cap.ndim == 0 else cap,
                          allocation=np.broadcast_to(power / k, cap.shape + (k,)).copy(),
                          eigenvalues=lam)


def capacity_waterfilling(g: np.ndarray, power: float, noise_power: float) -> CapacityResult:
    """Optimal power split across eigenmodes by the exact active-set rule.

    G may carry leading stack axes, as in capacity_equal_power.
    """
    if noise_power <= 0.0 or power <= 0.0:
        raise DomainError("power and noise power must be positive")
    lam = _channel_eigenvalues(g)
    k = lam.shape[-1]
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
