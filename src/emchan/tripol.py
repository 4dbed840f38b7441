"""Tri-polarized block channel and the grouped uplink/downlink estimator.

Receive ports split into a strong group (estimated via uplink reciprocity)
and a weak group (measured on the downlink and fed back after
normalization); a combining reference rescales the uplink part so the two
halves agree up to one global complex scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class TriPolChannel:
    """Channel whose receive/transmit ports group into x/y/z polarizations."""

    matrix: np.ndarray
    rx_ports: tuple[int, int, int]
    tx_ports: tuple[int, int, int]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ShapeError("channel matrix must be 2-D")
        if sum(self.rx_ports) != m.shape[0] or sum(self.tx_ports) != m.shape[1]:
            raise ShapeError("port counts must sum to the matrix dimensions")
        if any(n < 0 for n in self.rx_ports + self.tx_ports):
            raise DomainError("port counts must be nonnegative")
        object.__setattr__(self, "matrix", m)

    def block(self, i: int, j: int) -> np.ndarray:
        if not (0 <= i < 3 and 0 <= j < 3):
            raise DomainError("polarization block indices must lie in 0..2")
        r0 = sum(self.rx_ports[:i])
        c0 = sum(self.tx_ports[:j])
        return self.matrix[r0 : r0 + self.rx_ports[i], c0 : c0 + self.tx_ports[j]]


def simulate_tripol_channel(rx_ports=(2, 4, 2), tx_ports=(8, 8, 0), z_gain_db: float = -10.0,
                            xpr_db: float = 8.0, rng=None) -> TriPolChannel:
    """Random tri-pol channel with a depressed third polarization.

    Entries are i.i.d. complex Gaussian scaled per block: cross-polarization
    blocks lose 10^(xpr/10) in power and every z-port row/column carries the
    z gain deficit. This stands in for measured tri-pol patterns.
    """
    rng = np.random.default_rng(rng)
    n_rx = sum(rx_ports)
    n_tx = sum(tx_ports)
    if n_rx < 1 or n_tx < 1:
        raise DomainError("need at least one port on each side")
    pol_of = lambda counts: np.repeat(np.arange(3), counts)
    rx_pol = pol_of(rx_ports)
    tx_pol = pol_of(tx_ports)
    base = (rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))) / np.sqrt(2.0)
    xpr_amp = 10.0 ** (-xpr_db / 20.0)
    z_amp = 10.0 ** (z_gain_db / 20.0)
    gain = np.ones((n_rx, n_tx))
    gain *= np.where(rx_pol[:, None] == tx_pol[None, :], 1.0, xpr_amp)
    gain *= np.where(rx_pol[:, None] == 2, z_amp, 1.0)
    gain *= np.where(tx_pol[None, :] == 2, z_amp, 1.0)
    return TriPolChannel(matrix=base * gain, rx_ports=tuple(rx_ports), tx_ports=tuple(tx_ports))


# ---------------------------------------------------------------------------
# grouping


@dataclass(frozen=True)
class PortGrouping:
    strong: tuple[int, ...]
    weak: tuple[int, ...]
    power: np.ndarray

    def __post_init__(self):
        power = np.asarray(self.power, dtype=float)
        ports = sorted(self.strong + self.weak)
        if ports != list(range(power.size)):
            raise DomainError("groups must partition the port indices")
        if self.weak and self.strong:
            if min(power[list(self.strong)]) < max(power[list(self.weak)]) - 1e-12:
                raise DomainError("every strong-group power must reach the weak-group maximum")
        object.__setattr__(self, "power", power)


def group_ports(receive_power, rule: str = "median", threshold: float = 0.5) -> PortGrouping:
    """Split ports into strong/weak by receive power.

    The default rule keeps ports at or above the median; the threshold rule
    keeps ports with power >= threshold * max power.
    """
    power = np.asarray(receive_power, dtype=float)
    if power.ndim != 1 or power.size < 1:
        raise DomainError("receive power must be a nonempty 1-D array")
    if rule == "median":
        cut = float(np.median(power))
    elif rule == "threshold":
        if not 0.0 < threshold <= 1.0:
            raise DomainError("threshold must lie in (0, 1]")
        cut = threshold * float(power.max())
    else:
        raise DomainError("rule must be 'median' or 'threshold'")
    strong = tuple(int(i) for i in np.flatnonzero(power >= cut))
    weak = tuple(int(i) for i in np.flatnonzero(power < cut))
    return PortGrouping(strong=strong, weak=weak, power=power)


# ---------------------------------------------------------------------------
# noisy observations


def _as_matrix(channel) -> np.ndarray:
    if isinstance(channel, TriPolChannel):
        return channel.matrix
    return np.asarray(channel, dtype=complex)


def _noise_amplitude(snr_db, ref_power) -> float:
    """Per-component standard deviation of complex noise at the given SNR.

    A scalar on purpose: numpy's array power can round differently from the
    scalar one in the last bit.
    """
    return np.sqrt(ref_power * 10.0 ** (-snr_db / 10.0) / 2.0)


def _noise(shape, snr_db, ref_power, rng) -> np.ndarray:
    if np.isinf(snr_db):
        return np.zeros(shape, dtype=complex)
    return _noise_amplitude(snr_db, ref_power) * (rng.standard_normal(shape)
                                                  + 1j * rng.standard_normal(shape))


def _mean_entry_power(matrix: np.ndarray) -> float:
    return float(np.mean(np.abs(matrix) ** 2))


def uplink_estimate(channel, strong, pilot_snr_db: float, rng_seed) -> np.ndarray:
    """Reciprocity estimate of the strong-group rows plus pilot noise."""
    h = _as_matrix(channel)
    strong = list(strong)
    if len(strong) == 0:
        raise DomainError("strong group must be nonempty")
    rng = np.random.default_rng(rng_seed)
    rows = h[strong, :]
    return rows + _noise(rows.shape, pilot_snr_db, _mean_entry_power(h), rng)


def downlink_measure(channel, grouping: PortGrouping, pilot_snr_db: float,
                     rng_seed) -> tuple[np.ndarray, np.ndarray]:
    """Full-dimension noisy measurement split into the two groups' rows."""
    h = _as_matrix(channel)
    rng = np.random.default_rng(rng_seed)
    noisy = h + _noise(h.shape, pilot_snr_db, _mean_entry_power(h), rng)
    return noisy[list(grouping.strong), :], noisy[list(grouping.weak), :]


def benchmark_uplink_only(channel, per_port_snr_db, rng_seed) -> np.ndarray:
    """Uplink-only estimate of the full channel with per-port pilot SNRs."""
    h = _as_matrix(channel)
    snrs = np.asarray(per_port_snr_db, dtype=float)
    if snrs.shape != (h.shape[0],):
        raise ShapeError("need one pilot SNR per receive port")
    rng = np.random.default_rng(rng_seed)
    ref = _mean_entry_power(h)
    # rows at infinite SNR stay noiseless and take no draws; the others take
    # their real and then imaginary parts in row order, from one call
    live = np.flatnonzero(~np.isinf(snrs))
    z = rng.standard_normal((live.size, 2, h.shape[1]))
    amplitude = np.array([_noise_amplitude(snrs[r], ref) for r in live])
    out = h.copy()
    out[live] += amplitude[:, None] * (z[:, 0] + 1j * z[:, 1])
    return out


# ---------------------------------------------------------------------------
# normalization and combining


@dataclass(frozen=True)
class NormalizationRecord:
    amplitude: float
    phase: float

    def factor(self) -> complex:
        return self.amplitude * np.exp(1j * self.phase)


def normalize(matrix) -> tuple[np.ndarray, NormalizationRecord]:
    """Scale out the Frobenius norm and the first nonzero entry's phase."""
    m = np.asarray(matrix, dtype=complex)
    rho = float(np.linalg.norm(m))
    if rho == 0.0:
        raise DomainError("cannot normalize a zero matrix")
    flat = m.ravel()
    first = flat[np.flatnonzero(flat)[0]]
    omega = float(np.angle(first))
    record = NormalizationRecord(amplitude=rho, phase=omega)
    return m / record.factor(), record


def combining_reference(rec1: NormalizationRecord, rec2: NormalizationRecord) -> complex:
    """delta = rho1 e^{j omega1} / (rho2 e^{j omega2})."""
    if rec2.amplitude == 0.0:
        raise DomainError("reference normalization amplitude must be nonzero")
    return complex(rec1.factor() / rec2.factor())


def quantize_feedback(matrix, bits: int) -> np.ndarray:
    """Uniform mid-rise quantizer on real/imaginary parts, range +/- max|.|."""
    if bits < 1:
        raise DomainError("need at least one quantizer bit")
    m = np.asarray(matrix, dtype=complex)
    scale = max(np.abs(m.real).max(), np.abs(m.imag).max())
    if scale == 0.0:
        return m.copy()
    levels = 2**bits
    step = 2.0 * scale / levels
    q = lambda x: np.clip((np.floor(x / step) + 0.5) * step, -scale, scale)
    return q(m.real) + 1j * q(m.imag)


# ---------------------------------------------------------------------------
# assembly


@dataclass(frozen=True)
class TriPolEstimate:
    strong_rows: np.ndarray
    weak_rows: np.ndarray
    delta: complex
    assembled: np.ndarray


def joint_estimate(h_strong_uplink, delta, h_weak_normalized, grouping: PortGrouping) -> TriPolEstimate:
    """Rescale the normalized uplink part by 1/delta and interleave the rows."""
    h_u = np.asarray(h_strong_uplink, dtype=complex)
    n_ports = grouping.power.size
    if h_u.shape[0] != len(grouping.strong):
        raise ShapeError("uplink rows must match the strong group")
    if not grouping.weak:
        assembled = np.zeros((n_ports, h_u.shape[1]), dtype=complex)
        normalized, _ = normalize(h_u)
        assembled[list(grouping.strong), :] = normalized
        return TriPolEstimate(strong_rows=normalized, weak_rows=np.zeros((0, h_u.shape[1])),
                              delta=complex(1.0), assembled=assembled)
    h_w = np.asarray(h_weak_normalized, dtype=complex)
    if h_w.shape[0] != len(grouping.weak) or h_w.shape[1] != h_u.shape[1]:
        raise ShapeError("weak rows must match the weak group and column count")
    if delta == 0:
        raise DomainError("combining reference must be nonzero")
    normalized, _ = normalize(h_u)
    adjusted = normalized / delta
    assembled = np.zeros((n_ports, h_u.shape[1]), dtype=complex)
    assembled[list(grouping.strong), :] = adjusted
    assembled[list(grouping.weak), :] = h_w
    return TriPolEstimate(strong_rows=adjusted, weak_rows=h_w, delta=complex(delta),
                          assembled=assembled)


def estimate_joint(channel, grouping: PortGrouping, uplink_snr_db: float,
                   downlink_snr_db: float, rng_seed, quantize_bits: int | None = None) -> TriPolEstimate:
    """Run the full grouped protocol on one channel draw.

    The combining reference divides the weak-group record by the strong-group
    record; rescaling the normalized uplink estimate by its inverse puts both
    halves on the weak-group normalization, so the assembly agrees with the
    true channel up to one global complex scalar.
    """
    h = _as_matrix(channel)
    seq = np.random.SeedSequence(rng_seed) if not isinstance(rng_seed, np.random.SeedSequence) else rng_seed
    up_seed, down_seed = seq.spawn(2)
    h_up = uplink_estimate(h, grouping.strong, uplink_snr_db, up_seed)
    if not grouping.weak:
        return joint_estimate(h_up, 1.0, np.zeros((0, h.shape[1])), grouping)
    h_strong_d, h_weak_d = downlink_measure(h, grouping, downlink_snr_db, down_seed)
    _, rec_strong = normalize(h_strong_d)
    weak_normalized, rec_weak = normalize(h_weak_d)
    if quantize_bits is not None:
        weak_normalized = quantize_feedback(weak_normalized, quantize_bits)
    delta = combining_reference(rec_weak, rec_strong)
    return joint_estimate(h_up, delta, weak_normalized, grouping)


def scalar_aligned(estimate, reference) -> tuple[np.ndarray, float]:
    """Best least-squares complex scaling of the estimate onto the reference."""
    a = np.asarray(estimate, dtype=complex)
    b = np.asarray(reference, dtype=complex)
    if a.shape != b.shape:
        raise ShapeError("estimate and reference must share a shape")
    denom = np.vdot(a, a)
    if denom == 0:
        raise DomainError("cannot align a zero estimate")
    c = np.vdot(a, b) / denom
    aligned = c * a
    ref_norm = np.linalg.norm(b)
    if ref_norm == 0.0:
        raise DomainError("reference must be nonzero")
    return aligned, float(np.linalg.norm(aligned - b) / ref_norm)
