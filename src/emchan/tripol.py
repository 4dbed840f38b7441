"""Tri-polarized block channel and the grouped uplink/downlink estimator.

Receive ports split into a strong group (estimated via uplink reciprocity)
and a weak group (measured on the downlink and fed back after
normalization); a combining reference rescales the uplink part so the two
halves agree up to one global complex scalar.

The protocol runs whole: `estimate_joint` does the downlink measurement,
normalization, uplink estimate and assembly in one call, and
`benchmark_uplink_only` is the estimate it is compared with. Each takes one
channel, shaped (R, T), or a stack of trials, shaped (n, R, T). A stack takes
its seeds as a list with one seed (or generator) per trial, and each trial
draws exactly what it would draw alone: a single channel is the stack-of-one
case. The groups are the `PortGrouping.is_strong` mask, and a group's rows
are the channel or estimate indexed by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .seeds import generators


@dataclass(frozen=True, eq=False)
class TriPolChannel:
    """Channel whose receive/transmit ports group into x/y/z polarizations.

    ``matrix`` is (R, T), or (n, R, T) for a stack of n trials.
    """

    matrix: np.ndarray
    rx_ports: tuple[int, int, int]
    tx_ports: tuple[int, int, int]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim not in (2, 3):
            raise ShapeError("channel matrix must be 2-D, or 3-D for a stack of trials")
        if sum(self.rx_ports) != m.shape[-2] or sum(self.tx_ports) != m.shape[-1]:
            raise ShapeError("port counts must sum to the matrix dimensions")
        if any(n < 0 for n in self.rx_ports + self.tx_ports):
            raise DomainError("port counts must be nonnegative")
        object.__setattr__(self, "matrix", m)


def simulate_tripol_channel(rx_ports=(2, 4, 2), tx_ports=(8, 8, 0), z_gain_db: float = -10.0,
                            xpr_db: float = 8.0, rng=None) -> TriPolChannel:
    """Random tri-pol channel with a depressed third polarization.

    Entries are i.i.d. complex Gaussian scaled per block: cross-polarization
    blocks lose 10^(xpr/10) in power and every z-port row/column carries the
    z gain deficit. This stands in for measured tri-pol patterns.

    ``rng`` is one generator or seed, or a list of them for a stack with one
    channel per entry.
    """
    stacked, rngs = generators(rng)
    n_rx = sum(rx_ports)
    n_tx = sum(tx_ports)
    if n_rx < 1 or n_tx < 1:
        raise DomainError("need at least one port on each side")
    pol_of = lambda counts: np.repeat(np.arange(3), counts)
    rx_pol = pol_of(rx_ports)
    tx_pol = pol_of(tx_ports)
    # each trial draws its real and then its imaginary parts in one call
    z = np.empty((len(rngs), 2, n_rx, n_tx))
    for g, part in zip(rngs, z):
        g.standard_normal(out=part)
    xpr_amp = 10.0 ** (-xpr_db / 20.0)
    z_amp = 10.0 ** (z_gain_db / 20.0)
    gain = np.ones((n_rx, n_tx))
    gain *= np.where(rx_pol[:, None] == tx_pol[None, :], 1.0, xpr_amp)
    gain *= np.where(rx_pol[:, None] == 2, z_amp, 1.0)
    gain *= np.where(tx_pol[None, :] == 2, z_amp, 1.0)
    # (re + 1j im) / sqrt(2) * gain, part by part: numpy's complex division
    # by sqrt(2) multiplies each part by 1 / sqrt(2), so these are its
    # products, with no complex temporary
    z *= 1.0 / np.sqrt(2.0)
    z *= gain
    base = np.empty((len(rngs), n_rx, n_tx), dtype=complex)
    base.real, base.imag = z[:, 0], z[:, 1]
    return TriPolChannel(matrix=base if stacked else base[0], rx_ports=tuple(rx_ports),
                         tx_ports=tuple(tx_ports))


def _trial_stack(h: np.ndarray, rng_seed) -> tuple[np.ndarray, list]:
    """h as an (n, R, T) stack, and one seed per trial."""
    if h.ndim == 2:
        return h[None], [rng_seed]
    if h.ndim == 3 and isinstance(rng_seed, (list, tuple)) and len(rng_seed) == h.shape[0]:
        return h, list(rng_seed)
    raise ShapeError("a channel is 2-D, or an (n, R, T) stack with a list of n seeds")


# ---------------------------------------------------------------------------
# grouping


@dataclass(frozen=True, eq=False)
class PortGrouping:
    """Strong/weak split of the receive ports: ``is_strong`` is a boolean
    mask shaped like ``power``, which may carry a leading trial axis."""

    is_strong: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.is_strong, dtype=bool)
        power = np.asarray(self.power, dtype=float)
        if mask.shape != power.shape or power.ndim not in (1, 2):
            raise DomainError("need a strong-port mask shaped like the 1-D or 2-D port powers")
        lowest_strong = np.min(power, axis=-1, initial=np.inf, where=mask)
        highest_weak = np.max(power, axis=-1, initial=-np.inf, where=~mask)
        if np.any(lowest_strong < highest_weak - 1e-12):
            raise DomainError("every strong-group power must reach the weak-group maximum")
        object.__setattr__(self, "is_strong", mask)
        object.__setattr__(self, "power", power)


# Order statistics come from a sort: np.median and np.percentile load
# numpy.ma (through np.unique and the median's NaN check), about 14 ms and
# 1.2 MB per process.


def _median(power: np.ndarray) -> np.ndarray:
    """np.median(power, axis=-1, keepdims=True) of finite powers, bit for
    bit: the middle value, or the mean of the middle two."""
    s = np.sort(power, axis=-1)
    h = s.shape[-1] // 2
    if s.shape[-1] % 2:
        return s[..., h:h + 1]
    return (s[..., h - 1:h] + s[..., h:h + 1]) / 2.0


def percentiles(values, qs) -> list[float]:
    """np.percentile(values, q) of a 1-D sample of finite values, for each q
    in qs, bit for bit: numpy's default 'linear' rule on one sort."""
    s = np.sort(np.asarray(values, dtype=float))
    last = s.size - 1
    out = []
    for q in qs:
        index = last * (q / 100.0)
        lo = min(math.floor(index), last)
        a, b, t = s[lo], s[min(lo + 1, last)], index - lo
        out.append(float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t))
    return out


def group_ports(receive_power, rule: str = "median", threshold: float = 0.5) -> PortGrouping:
    """Split ports into strong/weak by receive power.

    The default rule keeps ports at or above the median; the threshold rule
    keeps ports with power >= threshold * max power. A 2-D ``receive_power``
    holds one trial per row and is split row by row.
    """
    power = np.asarray(receive_power, dtype=float)
    if power.ndim not in (1, 2) or power.shape[-1] < 1:
        raise DomainError("receive power must be a nonempty 1-D array, or 2-D for a stack")
    if not np.all(np.isfinite(power)):
        raise DomainError("receive power must be finite")
    if rule == "median":
        cut = _median(power)
    elif rule == "threshold":
        if not 0.0 < threshold <= 1.0:
            raise DomainError("threshold must lie in (0, 1]")
        cut = threshold * power.max(axis=-1, keepdims=True)
    else:
        raise DomainError("rule must be 'median' or 'threshold'")
    return PortGrouping(is_strong=power >= cut, power=power)


# ---------------------------------------------------------------------------
# noisy observations


def _as_matrix(channel) -> np.ndarray:
    if isinstance(channel, TriPolChannel):
        return channel.matrix
    return np.asarray(channel, dtype=complex)


def _noise_amplitude(snr_db, ref_power):
    """Per-component standard deviation of complex noise at the given SNR.

    ``snr_db`` is a scalar on purpose: numpy's array power can round
    differently from the scalar one in the last bit. ``ref_power`` may be an
    array.
    """
    return np.sqrt(ref_power * 10.0 ** (-snr_db / 10.0) / 2.0)


def _mean_entry_power(h: np.ndarray) -> np.ndarray:
    """Mean |entry|^2 of each matrix of an (n, R, T) stack."""
    return np.mean(np.abs(h) ** 2, axis=(-2, -1))


def _add_noise(x: np.ndarray, rows: np.ndarray, snr_db: float, ref_power: np.ndarray,
               rngs) -> None:
    """Add complex noise at ``snr_db`` below each trial's reference power to
    the rows of the (n, R, T) stack ``x`` that the (n, R) mask selects, in
    place.

    Trial k draws from ``rngs[k]`` the real parts of its selected rows, then
    their imaginary parts, each as one (rows, T) array. At an infinite SNR
    nothing is drawn.
    """
    if np.isinf(snr_db):
        return
    counts = rows.sum(axis=-1)
    z = np.empty((2, counts.sum(), x.shape[-1]))
    start = 0
    for rng, count in zip(rngs, counts):
        for part in z[:, start : start + count]:
            rng.standard_normal(out=part)
        start += count
    # amplitude * (re + 1j im) on real and imaginary parts separately: the
    # same products, without a complex temporary
    z *= np.repeat(_noise_amplitude(snr_db, ref_power), counts)[:, None]
    x.real[rows] += z[0]
    x.imag[rows] += z[1]


def benchmark_uplink_only(channel, per_port_snr_db, rng_seed) -> np.ndarray:
    """Uplink-only estimate of the full channel with per-port pilot SNRs.

    A stacked channel takes one row of SNRs and one seed per trial.
    """
    h0 = _as_matrix(channel)
    h, seeds = _trial_stack(h0, rng_seed)
    snrs = np.asarray(per_port_snr_db, dtype=float)
    if snrs.shape != h0.shape[:-1]:
        raise ShapeError("need one pilot SNR per receive port")
    snrs = snrs.reshape(h.shape[:-1])
    ref = _mean_entry_power(h)
    # rows at infinite SNR stay noiseless and take no draws; the others take
    # their real and then imaginary parts in row order, from one call per trial
    live = ~np.isinf(snrs)
    counts = live.sum(axis=-1)
    z = np.empty((counts.sum(), 2, h.shape[-1]))
    start = 0
    for seed, count in zip(seeds, counts):
        np.random.default_rng(seed).standard_normal(out=z[start : start + count])
        start += count
    z *= np.array([_noise_amplitude(snr, r)
                   for snr, r in zip(snrs[live], np.repeat(ref, counts))])[:, None, None]
    out = h.copy()
    out.real[live] += z[:, 0]
    out.imag[live] += z[:, 1]
    return out if h0.ndim == 3 else out[0]


# ---------------------------------------------------------------------------
# normalization and combining


@dataclass(frozen=True, eq=False)
class NormalizationRecord:
    """Frobenius norm and leading phase of a matrix; arrays for a stack."""

    amplitude: float | np.ndarray
    phase: float | np.ndarray

    def factor(self) -> complex | np.ndarray:
        return self.amplitude * np.exp(1j * self.phase)


def _records(x: np.ndarray, rows: np.ndarray) -> NormalizationRecord:
    """Normalization record of each trial's selected rows of the (n, R, T)
    stack ``x``: their Frobenius norm and the phase of their first nonzero
    entry in row-major order. A trial whose selected rows are all zero gets
    amplitude 0."""
    n = x.shape[0]
    amplitude = np.sqrt(np.sum(np.vecdot(x, x).real, axis=-1, where=rows))
    nonzero = (x != 0) & rows[..., None]
    first = x.reshape(n, -1)[np.arange(n), np.argmax(nonzero.reshape(n, -1), axis=-1)]
    return NormalizationRecord(amplitude=amplitude, phase=np.angle(first))


def combining_reference(rec1: NormalizationRecord,
                        rec2: NormalizationRecord) -> complex | np.ndarray:
    """delta = rho1 e^{j omega1} / (rho2 e^{j omega2}); one per trial for the
    records of a stack."""
    if np.any(np.asarray(rec2.amplitude) == 0.0):
        raise DomainError("reference normalization amplitude must be nonzero")
    delta = rec1.factor() / rec2.factor()
    return complex(delta) if np.ndim(delta) == 0 else delta


# ---------------------------------------------------------------------------
# assembly


@dataclass(frozen=True, eq=False)
class TriPolEstimate:
    """Assembled estimate, shaped like the channel, with the combining
    reference (one per trial for a stack) and the grouping it used."""

    assembled: np.ndarray
    delta: complex | np.ndarray
    grouping: PortGrouping


def _assemble(rows: np.ndarray, strong: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Normalize each trial's strong rows of the (n, R, T) stack ``rows`` and
    rescale them by 1/delta, in place; the weak rows already hold the
    normalized downlink measurement and stay as they are."""
    rec = _records(rows, strong)
    if np.any(rec.amplitude == 0.0):
        raise DomainError("cannot normalize a zero matrix")
    rows /= np.where(strong, rec.factor()[:, None], 1.0)[..., None]
    rows /= np.where(strong, delta[:, None], 1.0)[..., None]
    return rows


def estimate_joint(channel, grouping: PortGrouping, uplink_snr_db: float,
                   downlink_snr_db: float, rng_seed) -> TriPolEstimate:
    """Run the full grouped protocol on one channel draw, or on a stack of
    trials with a stacked grouping and a list of seeds, one per trial.

    The combining reference divides the weak-group record by the strong-group
    record; rescaling the normalized uplink estimate by its inverse puts both
    halves on the weak-group normalization, so the assembly agrees with the
    true channel up to one global complex scalar.
    """
    h0 = _as_matrix(channel)
    h, seeds = _trial_stack(h0, rng_seed)
    if grouping.power.shape != h0.shape[:-1]:
        raise ShapeError("grouping needs one port per channel row")
    strong = grouping.is_strong.reshape(h.shape[:-1])
    weak = ~strong
    has_weak = weak.any(axis=-1)
    streams = [(s if isinstance(s, np.random.SeedSequence) else np.random.SeedSequence(s)).spawn(2)
               for s in seeds]
    ref = _mean_entry_power(h)
    # downlink: a trial with a weak group measures every row; the rest draw nothing
    x = h.copy()
    _add_noise(x, np.broadcast_to(has_weak[:, None], strong.shape), downlink_snr_db, ref,
               [np.random.default_rng(down_seed) for _, down_seed in streams])
    rec_strong = _records(x, strong)
    rec_weak = _records(x, weak)
    if np.any(has_weak & ((rec_strong.amplitude == 0.0) | (rec_weak.amplitude == 0.0))):
        raise DomainError("cannot normalize a zero matrix")
    # a trial without a weak group keeps the uplink normalization: delta = 1
    delta = np.where(has_weak, combining_reference(rec_weak, rec_strong), 1.0)
    x /= np.where(has_weak, rec_weak.factor(), 1.0)[:, None, None]
    # uplink: the strong rows, in the same buffer, plus pilot noise
    x[strong] = h[strong]
    _add_noise(x, strong, uplink_snr_db, ref,
               [np.random.default_rng(up_seed) for up_seed, _ in streams])
    assembled = _assemble(x, strong, delta)
    if h0.ndim == 2:
        return TriPolEstimate(assembled=assembled[0], delta=complex(delta[0]), grouping=grouping)
    return TriPolEstimate(assembled=assembled, delta=delta, grouping=grouping)


def scalar_aligned(estimate, reference) -> tuple[np.ndarray, float | np.ndarray]:
    """Best least-squares complex scaling of the estimate onto the reference.

    With three or more axes, each matrix of the last two axes is aligned on
    its own and the errors come back as an array over the leading axes.
    """
    a = np.asarray(estimate, dtype=complex)
    b = np.asarray(reference, dtype=complex)
    if a.shape != b.shape:
        raise ShapeError("estimate and reference must share a shape")
    lead = a.shape[:-2]
    flat_a = a.reshape(lead + (-1,))
    flat_b = b.reshape(lead + (-1,))
    denom = np.vecdot(flat_a, flat_a)
    if np.any(denom == 0):
        raise DomainError("cannot align a zero estimate")
    ref_norm = np.sqrt(np.vecdot(flat_b, flat_b).real)
    if np.any(ref_norm == 0.0):
        raise DomainError("reference must be nonzero")
    c = np.vecdot(flat_a, flat_b) / denom
    aligned = c.reshape(lead + (1,) * (a.ndim - len(lead))) * a
    diff = (aligned - b).reshape(lead + (-1,))
    err = np.sqrt(np.vecdot(diff, diff).real) / ref_norm
    return aligned, float(err) if err.ndim == 0 else err
