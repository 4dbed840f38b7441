"""Typed study scenarios: JSON loading, full validation, canonical hashing.

One scenario file per study. Field names carry units. Validation collects
every violation instead of stopping at the first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .cdl import bundled_cdl_b, load_cluster_table
from .emcore import WaveContext
from .errors import DomainError, ValidationError

DENSELY_SPACED = "densely-spaced"
NEAR_FIELD = "near-field"
TRI_POL = "tri-pol"
EM_CORE_VALIDATION = "em-core-validation"
STUDIES = (DENSELY_SPACED, NEAR_FIELD, TRI_POL, EM_CORE_VALIDATION)

_BORESIGHTS = ("+x", "-x", "+y", "-y", "+z", "-z")

# carrier of the densely-spaced and em-core studies. Their inputs are lengths
# in wavelengths and normalized distances k0*r, so their results do not depend
# on it; it only sets the length scale of the geometry they build.
REFERENCE_FREQUENCY_HZ = 4.7e9

# Gauss-Legendre nodes of order n come from an n x n companion matrix
# (7.7 MB and 0.3 s at n = 1000), so larger orders are refused.
MAX_QUADRATURE_ORDER = 1000

# A field in dB (name ending in _db) enters the studies as 10 ** (x / 10),
# and products of such powers with channel gains. A ratio of 1e30 lies far
# beyond any physical one and keeps them inside the float range; 1e6 dB
# overflows. So dB fields must lie within +-MAX_ABS_DB.
MAX_ABS_DB = 300.0

# k0*r points of the em-core sweep; each runs samples / EM_CORE_SWEEP_POINTS
# random directions, so samples must be a multiple of it.
EM_CORE_SWEEP_POINTS = 25


@dataclass(frozen=True)
class DenselySpacedScenario:
    """Capacity versus receive-element spacing for four array models."""

    name: str = DENSELY_SPACED
    master_seed: int = 0
    tx_side_wavelengths: float = 4.0
    rx_side_wavelengths: float = 1.0
    tx_spacing_wavelengths: float = 0.5
    rx_spacing_wavelengths: tuple = (0.5, 0.25, 0.125)
    realizations: int = 1000
    snr_db: float = 0.0
    xpr_mu_db: float = 8.0
    xpr_sigma_db: float = 3.0
    element_efficiency: float = 0.8
    schemes: tuple = ("ideal", "ni", "ni-pd", "proposed")
    tx_boresight: str = "+x"
    rx_boresight: str = "-x"
    cluster_table: str | None = None
    cluster_weights: tuple | None = None
    quadrature_order: int = 16

    study = DENSELY_SPACED


@dataclass(frozen=True)
class NearFieldScenario:
    """Planar-versus-spherical wavefront correlation over user distances."""

    name: str = NEAR_FIELD
    master_seed: int = 0
    frequency_hz: float = 6.7e9
    aperture_m: float = 1.53
    bs_elements: int = 128
    ue_elements: int = 4
    ue_spacing_wavelengths: float = 0.5
    drop_distances_m: tuple = (20.0, 35.0, 60.0, 100.0, 180.0, 300.0, 500.0)
    include_far_field_check: bool = True
    time_s: float = 0.0
    velocity_mps: tuple = (0.0, 0.0, 0.0)
    profile_elements: int = 64
    profile_aperture_m: float = 1.4
    profile_distance_m: float = 20.0

    study = NEAR_FIELD


@dataclass(frozen=True)
class TriPolScenario:
    """Grouped uplink/downlink estimation versus the uplink-only benchmark."""

    name: str = TRI_POL
    master_seed: int = 0
    cells: int = 3
    ues_per_cell: int = 50
    bs_ports: int = 256
    ue_ports: int = 8
    z_gain_db: float = -10.0
    xpr_db: float = 8.0
    pilot_snr_db: float = 10.0
    percentiles: tuple = tuple(float(p) for p in range(5, 100, 5))

    study = TRI_POL

    def rx_split(self) -> tuple[int, int, int]:
        """Receive ports per polarization (z last) in the ratio 1:2:1, summing to ue_ports."""
        q = self.ue_ports // 4
        return (q, 2 * q, q)

    def trials(self, scale: float = 1.0) -> int:
        return max(1, int(round(self.cells * self.ues_per_cell * scale)))


@dataclass(frozen=True)
class EmCoreValidationScenario:
    """Green-function decomposition residuals and field-region boundaries."""

    name: str = EM_CORE_VALIDATION
    master_seed: int = 0
    samples: int = 1000
    k0r_min: float = 0.1
    k0r_max: float = 1.0e4
    region_cases: tuple = ((6.7e9, 1.53), (15.0e9, 1.4))

    study = EM_CORE_VALIDATION


_SCENARIO_TYPES = {
    DENSELY_SPACED: DenselySpacedScenario,
    NEAR_FIELD: NearFieldScenario,
    TRI_POL: TriPolScenario,
    EM_CORE_VALIDATION: EmCoreValidationScenario,
}


# The entry type of the fields whose default is None: a value other than None
# must have this stand-in's type, as every other field its default's.
_OPTIONAL_TYPES = {"cluster_table": "", "cluster_weights": (0.0,)}

_EXPECTED = {bool: "true/false", int: "an integer", float: "a number", str: "a string",
             tuple: "a list"}


def _problem(value, like) -> str | None:
    """What keeps `value` from standing in for `like`, or None. A value must
    have like's type (a number may be an integer); a list's entries must each
    stand in for like[0]; a float must be finite."""
    kind = next(k for k in _EXPECTED if isinstance(like, k))
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)):
        return f"expected {_EXPECTED[kind]}, got {value!r}"
    if kind is tuple:
        return next(filter(None, (_problem(v, like[0]) for v in value)), None)
    try:
        if kind is float and not math.isfinite(value):
            return f"must be finite, got {value!r}"
    except OverflowError:  # JSON reads integers of any size
        return "out of range"
    return None


def _from_json(value, default):
    """A JSON value as the field holds it: lists as tuples, and an integer as a
    float where the default is one (validate_scenario reports one too large)."""
    if isinstance(value, list):
        return tuple(_from_json(v, None) for v in value)
    if isinstance(default, float) and type(value) is int:
        with contextlib.suppress(OverflowError):
            return float(value)
    return value


def _positive(scn, names, errors, strict=True):
    for n in names:
        v = getattr(scn, n)
        if strict and not v > 0:
            errors.append(f"{n}: must be positive, got {v!r}")
        if not strict and v < 0:
            errors.append(f"{n}: must be nonnegative, got {v!r}")


def _counts(scn, names, errors):
    for n in names:
        if getattr(scn, n) < 1:
            errors.append(f"{n}: count must be >= 1, got {getattr(scn, n)!r}")


def _cluster_count(scn: DenselySpacedScenario, errors: list) -> int | None:
    """Clusters in the table the study loads: the bundled CDL-B one or
    `cluster_table`. None, with the reason in `errors`, if it cannot be read."""
    if scn.cluster_table is None:
        return bundled_cdl_b().count
    if not Path(scn.cluster_table).is_file():
        errors.append(f"cluster_table: file not found: {scn.cluster_table!r}")
        return None
    try:
        return load_cluster_table(scn.cluster_table).count
    except (OSError, ValueError, TypeError, DomainError) as exc:
        errors.append(f"cluster_table: cannot read {scn.cluster_table!r}: {exc}")
        return None


def validate_scenario(scn) -> list[str]:
    """Every violated invariant as one message; empty list when valid. A field
    whose value does not have its default's type, holds a float that is not
    finite or lies beyond MAX_ABS_DB in dB, is reported once; the checks after
    that see its default in its place and skip the cross-field checks that
    read it."""
    errors: list[str] = []
    bad = {}
    for f in dataclasses.fields(scn):
        value = getattr(scn, f.name)
        if value is None and f.default is None:
            continue
        problem = _problem(value, _OPTIONAL_TYPES[f.name] if f.default is None else f.default)
        if not problem and f.name.endswith("_db") and not -MAX_ABS_DB <= value <= MAX_ABS_DB:
            problem = f"must lie within +-{MAX_ABS_DB:g} dB, got {value!r}"
        if problem:
            errors.append(f"{f.name}: {problem}")
            bad[f.name] = f.default
    if bad:
        scn = dataclasses.replace(scn, **bad)
    if isinstance(scn, DenselySpacedScenario):
        _counts(scn, ["realizations", "quadrature_order"], errors)
        _positive(scn, ["tx_side_wavelengths", "rx_side_wavelengths",
                        "tx_spacing_wavelengths"], errors)
        _positive(scn, ["xpr_sigma_db"], errors, strict=False)
        if scn.quadrature_order > MAX_QUADRATURE_ORDER:
            errors.append(f"quadrature_order: must be at most {MAX_QUADRATURE_ORDER}, "
                          f"got {scn.quadrature_order!r}")
        if not scn.rx_spacing_wavelengths:
            errors.append("rx_spacing_wavelengths: need at least one spacing")
        for s in scn.rx_spacing_wavelengths:
            if not s > 0:
                errors.append(f"rx_spacing_wavelengths: spacing must be positive, got {s!r}")
        if not 0.0 < scn.element_efficiency <= 1.0:
            errors.append(f"element_efficiency: must lie in (0, 1], got {scn.element_efficiency!r}")
        known = ("ideal", "ni", "ni-pd", "proposed")
        for s in scn.schemes:
            if s not in known:
                errors.append(f"schemes: unknown scheme {s!r} (known: {', '.join(known)})")
        if not scn.schemes:
            errors.append("schemes: need at least one scheme")
        if scn.tx_boresight not in _BORESIGHTS:
            errors.append(f"tx_boresight: unknown boresight {scn.tx_boresight!r}")
        if scn.rx_boresight not in _BORESIGHTS:
            errors.append(f"rx_boresight: unknown boresight {scn.rx_boresight!r}")
        # the study's own grid rule, on the lengths in metres it builds arrays with
        from .wavenumber import grid_intervals
        lam = WaveContext.from_frequency(REFERENCE_FREQUENCY_HZ).wavelength
        for side, spacings in (("tx", (scn.tx_spacing_wavelengths,)),
                               ("rx", scn.rx_spacing_wavelengths)):
            length = getattr(scn, f"{side}_side_wavelengths")
            if {f"{side}_side_wavelengths", f"{side}_spacing_wavelengths"} & bad.keys():
                continue
            for s in spacings:
                try:
                    if length > 0 and s > 0:
                        grid_intervals(length * lam, s * lam)
                except DomainError as exc:
                    errors.append(f"{side}_spacing_wavelengths: {exc} "
                                  f"(side {length!r}, spacing {s!r})")
        clusters = None if "cluster_table" in bad else _cluster_count(scn, errors)
        if scn.cluster_weights is not None:
            ws = scn.cluster_weights
            if any(w < 0 for w in ws):
                errors.append(f"cluster_weights: expected nonnegative numbers, got {ws!r}")
            else:
                total = float(sum(ws))
                if abs(total - 1.0) > 1e-6:
                    errors.append(f"cluster_weights: weights must sum to 1, got {total!r}")
                if clusters is not None and len(ws) != clusters:
                    errors.append(f"cluster_weights: expected {clusters} weights, got {len(ws)}")
    elif isinstance(scn, NearFieldScenario):
        _counts(scn, ["bs_elements", "ue_elements", "profile_elements"], errors)
        _positive(scn, ["frequency_hz", "aperture_m", "ue_spacing_wavelengths",
                        "profile_aperture_m", "profile_distance_m"], errors)
        _positive(scn, ["time_s"], errors, strict=False)
        if not scn.drop_distances_m:
            errors.append("drop_distances_m: need at least one distance")
        for d in scn.drop_distances_m:
            if not d > 0:
                errors.append(f"drop_distances_m: distance must be positive, got {d!r}")
        if len(scn.velocity_mps) != 3:
            errors.append("velocity_mps: expected three numbers")
    elif isinstance(scn, TriPolScenario):
        _counts(scn, ["cells", "ues_per_cell", "bs_ports"], errors)
        if scn.ue_ports not in (8, 12):
            errors.append(f"ue_ports: must be 8 or 12, got {scn.ue_ports!r}")
        if not scn.percentiles:
            errors.append("percentiles: need at least one percentile")
        for p in scn.percentiles:
            if not 0.0 < p < 100.0:
                errors.append(f"percentiles: must lie in (0, 100), got {p!r}")
    elif isinstance(scn, EmCoreValidationScenario):
        if not (scn.samples >= 1 and scn.samples % EM_CORE_SWEEP_POINTS == 0):
            errors.append(f"samples: must be a positive multiple of {EM_CORE_SWEEP_POINTS}, "
                          f"the sweep points, got {scn.samples!r}")
        _positive(scn, ["k0r_min"], errors)
        if not {"k0r_min", "k0r_max"} & bad.keys() and not scn.k0r_max > scn.k0r_min:
            errors.append(f"k0r_max: must exceed k0r_min, got {scn.k0r_max!r}")
        for case in scn.region_cases:
            if len(case) != 2 or any(v <= 0 for v in case):
                errors.append(f"region_cases: expected [frequency_hz, aperture_m] pairs, got {case!r}")
    if scn.master_seed < 0:
        errors.append(f"master_seed: must be nonnegative, got {scn.master_seed!r}")
    if not scn.name:
        errors.append("name: must be nonempty")
    return errors


def scenario_from_dict(payload: dict) -> object:
    """Build and fully validate a scenario from parsed JSON."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        raise ValidationError(["scenario must be a JSON object"])
    study = payload.get("study")
    if study not in _SCENARIO_TYPES:
        raise ValidationError(
            [f"study: expected one of {', '.join(STUDIES)}, got {study!r}"]
        )
    cls = _SCENARIO_TYPES[study]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        if key == "study":
            continue
        if key not in fields:
            errors.append(f"{key}: unknown field for study {study!r}")
            continue
        kwargs[key] = _from_json(value, fields[key].default)
    scn = cls(**kwargs)
    errors.extend(validate_scenario(scn))
    if errors:
        raise ValidationError(errors)
    return scn


def _read_scenario(path) -> object:
    """The scenario in a JSON file, checked as scenario_from_dict checks it."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError([f"cannot read scenario file: {exc}"]) from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    return scenario_from_dict(payload)


def load_scenario(path) -> object:
    """The scenario in a JSON file, with its study's channel modules loaded,
    so that a run of it imports nothing."""
    scn = _read_scenario(path)
    from .studies import _bind_study
    _bind_study(scn.study)
    return scn


def serialize_scenario(scn) -> dict:
    """JSON-ready dict with every field explicit; loads back to an equal scenario."""

    def plain(v):
        if isinstance(v, tuple):
            return [plain(x) for x in v]
        return v

    payload = {"study": scn.study}
    for f in dataclasses.fields(scn):
        payload[f.name] = plain(getattr(scn, f.name))
    return payload


def save_scenario(scn, path) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(serialize_scenario(scn), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def scenario_hash(scn) -> str:
    canon = json.dumps(serialize_scenario(scn), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
