"""MIMO capacity with equal-power and water-filling input covariances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError


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


def _gram(g, power, noise_power) -> np.ndarray:
    """The smaller Gram matrix of G (G G^H for a wide G, else G^H G), whose
    nonzero eigenvalues are those of G^H G, after both kernels' checks."""
    if not (np.isfinite(noise_power) and noise_power > 0.0):
        raise DomainError("noise power must be positive and finite")
    if not np.all(np.isfinite(power) & (np.asarray(power) >= 0.0)):
        raise DomainError("power must be nonnegative and finite")
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2:
        raise DomainError("channel matrix must be at least 2-D")
    if not np.all(np.isfinite(g)):
        raise DomainError("channel matrix entries must be finite")
    gh = g.conj().swapaxes(-1, -2)
    return g @ gh if g.shape[-2] < g.shape[-1] else gh @ g


def capacity_equal_power(g: np.ndarray, power, noise_power: float) -> float | np.ndarray:
    """log2 det(I + P/(K sigma^2) G G^H) with K transmit streams, as 2 sum
    log2 diag(L) for the Cholesky factor L of that (positive definite) matrix
    on the smaller side. G may carry stack axes and ``power`` may broadcast
    against them; each (power, matrix) pair gives exactly what it gives alone.
    Where rounding leaves that matrix not positive definite (SNR times the
    largest eigenvalue beyond about 1/eps), NumericalError is raised."""
    gram = _gram(g, power, noise_power)
    a = np.asarray(power, dtype=float)[..., None, None] / (np.shape(g)[-1] * noise_power) * gram
    try:
        chol = np.linalg.cholesky(a + np.eye(a.shape[-1]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("I + P/(K sigma^2) G G^H is not positive definite") from exc
    pivots = np.diagonal(chol, axis1=-2, axis2=-1).real
    cap = 2.0 * np.sum(np.log2(pivots), axis=-1)
    return float(cap) if cap.ndim == 0 else cap


def capacity_waterfilling(g: np.ndarray, power: float, noise_power: float) -> CapacityResult:
    """Optimal power split across eigenmodes by the exact active-set rule.

    G may carry leading stack axes, as in capacity_equal_power.
    """
    gram = _gram(g, power, noise_power)
    m, k = np.shape(g)[-2:]
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
