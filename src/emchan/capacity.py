"""MIMO capacity with equal-power and water-filling input covariances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
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


def capacity_equal_power(g: np.ndarray, power: float, noise_power: float) -> CapacityResult:
    """log2 det(I + P/(K sigma^2) G G^H) with K transmit streams.

    G may carry leading stack axes; the capacity, allocation and eigenvalues
    then carry them too, and each matrix gives exactly what it gives alone.
    """
    if noise_power <= 0.0:
        raise DomainError("noise power must be positive")
    lam = _channel_eigenvalues(g)
    k = lam.shape[-1]
    coef = power / (k * noise_power)
    cap = np.sum(np.log2(1.0 + coef * lam), axis=-1)
    return CapacityResult(capacity=float(cap) if cap.ndim == 0 else cap,
                          allocation=np.full(lam.shape, power / k), eigenvalues=lam)


def capacity_waterfilling(g: np.ndarray, power: float, noise_power: float) -> CapacityResult:
    """Optimal power split across eigenmodes by the exact active-set rule."""
    if noise_power <= 0.0 or power <= 0.0:
        raise DomainError("power and noise power must be positive")
    if np.ndim(g) != 2:
        raise DomainError("channel matrix must be 2-D")
    lam = _channel_eigenvalues(g)
    positive = lam[lam > 0.0]
    alloc = np.zeros_like(lam)
    if positive.size == 0:
        return CapacityResult(capacity=0.0, allocation=alloc, eigenvalues=lam)
    # with eigenvalues sorted descending, the active set is a prefix:
    # drop the weakest mode while its allocation would come out negative
    inv = noise_power / positive
    active = positive.size
    level = (power + inv.sum()) / active
    while active > 1 and level <= inv[active - 1]:
        active -= 1
        level = (power + inv[:active].sum()) / active
    alloc[:active] = level - inv[:active]
    cap = float(np.sum(np.log2(1.0 + alloc[:active] * positive[:active] / noise_power)))
    return CapacityResult(capacity=cap, allocation=alloc, eigenvalues=lam)
