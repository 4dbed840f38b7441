"""Cluster-delay-line table ingestion.

Tables carry per-cluster powers, departure/arrival angles and normalized
delays. The bundled table is the standard 23-cluster NLOS profile B with its
usual per-cluster angular spreads and cross-polarization statistics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DomainError
from .geometry import to_local_angles

# (azimuth departure, azimuth arrival, zenith departure, zenith arrival) in deg
CDL_B_SPREADS_DEG = (10.0, 22.0, 3.0, 7.0)
CDL_B_XPR_DB = (8.0, 3.0)  # mean, std

# A value in dB (a cluster power, a scenario field ending in _db) enters the
# studies as 10 ** (x / 10), and products of such powers with channel gains.
# A ratio of 1e30 lies far beyond any physical one and keeps them inside the
# float range; 1e6 dB overflows. So values in dB must lie within +-MAX_ABS_DB.
MAX_ABS_DB = 300.0


@dataclass(frozen=True)
class ClusterRow:
    index: int
    delay_norm: float
    power_db: float
    aod_deg: float
    aoa_deg: float
    zod_deg: float
    zoa_deg: float


@dataclass(frozen=True)
class ClusterTable:
    rows: tuple[ClusterRow, ...]
    spreads_deg: tuple[float, float, float, float] = CDL_B_SPREADS_DEG
    xpr_mu_db: float = CDL_B_XPR_DB[0]
    xpr_sigma_db: float = CDL_B_XPR_DB[1]

    def __post_init__(self):
        if len(self.rows) < 1:
            raise DomainError("cluster table must contain at least one cluster")
        if any(s <= 0.0 for s in self.spreads_deg):
            raise DomainError("angular spreads must be positive")
        for r in self.rows:
            for name, value in vars(r).items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise DomainError(f"cluster {r.index}: {name} must be finite, got {value!r}")
            if abs(r.power_db) > MAX_ABS_DB:
                raise DomainError(f"cluster {r.index}: power_db must lie within "
                                  f"+-{MAX_ABS_DB:g} dB, got {r.power_db!r}")
        if any(r.delay_norm < 0.0 for r in self.rows):
            raise DomainError("normalized delays must be nonnegative")

    @property
    def count(self) -> int:
        return len(self.rows)

    def powers_linear(self) -> np.ndarray:
        return np.array([10.0 ** (r.power_db / 10.0) for r in self.rows])

    def normalized_powers(self) -> np.ndarray:
        p = self.powers_linear()
        return p / p.sum()


def _parse_rows(fh) -> tuple[ClusterRow, ...]:
    reader = csv.DictReader(fh)
    need = {"cluster", "delay_norm", "power_db", "aod_deg", "aoa_deg", "zod_deg", "zoa_deg"}
    if reader.fieldnames is None or not need.issubset(reader.fieldnames):
        raise DomainError(f"cluster table missing columns {sorted(need)}")
    rows = []
    for rec in reader:
        rows.append(
            ClusterRow(
                index=int(rec["cluster"]),
                delay_norm=float(rec["delay_norm"]),
                power_db=float(rec["power_db"]),
                aod_deg=float(rec["aod_deg"]),
                aoa_deg=float(rec["aoa_deg"]),
                zod_deg=float(rec["zod_deg"]),
                zoa_deg=float(rec["zoa_deg"]),
            )
        )
    return tuple(rows)


def load_cluster_table(path, spreads_deg=CDL_B_SPREADS_DEG, xpr_mu_db=CDL_B_XPR_DB[0],
                       xpr_sigma_db=CDL_B_XPR_DB[1]) -> ClusterTable:
    with open(path, newline="") as fh:
        rows = _parse_rows(fh)
    return ClusterTable(rows=rows, spreads_deg=tuple(spreads_deg),
                        xpr_mu_db=xpr_mu_db, xpr_sigma_db=xpr_sigma_db)


def bundled_cdl_b() -> ClusterTable:
    ref = resources.files("emchan.data").joinpath("cdl_b.csv")
    with ref.open("r", newline="") as fh:
        rows = _parse_rows(fh)
    return ClusterTable(rows=rows)


def mixture_from_clusters(table: ClusterTable, side: str, boresight: str):
    """Angular power spectrum of the table as a directional mixture.

    ``side`` selects departure (transmit) or arrival (receive) angles; the
    cluster directions are rotated into the panel's local frame and each
    cluster gets concentration 1/(sigma_az * sigma_zen) in rad^-2, i.e. the
    inverse squared geometric-mean spread of that side.
    """
    from .wavenumber import VmfCluster, VmfMixture  # local import, no cycle at module load

    if side == "departure":
        angles = [(r.zod_deg, r.aod_deg) for r in table.rows]
        s_az, s_zen = table.spreads_deg[0], table.spreads_deg[2]
    elif side == "arrival":
        angles = [(r.zoa_deg, r.aoa_deg) for r in table.rows]
        s_az, s_zen = table.spreads_deg[1], table.spreads_deg[3]
    else:
        raise DomainError("side must be 'departure' or 'arrival'")
    concentration = 1.0 / (np.radians(s_az) * np.radians(s_zen))
    weights = table.normalized_powers()
    clusters = []
    for w, (zen_deg, az_deg) in zip(weights, angles):
        th, ph = to_local_angles(np.radians(zen_deg), np.radians(az_deg), boresight)
        clusters.append(
            VmfCluster(weight=float(w), mean_theta=float(th), mean_phi=float(ph),
                       concentration=float(concentration))
        )
    return VmfMixture(clusters=tuple(clusters))
