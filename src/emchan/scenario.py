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
import sys
from dataclasses import dataclass
from pathlib import Path

from .cdl import MAX_ABS_DB, bundled_cdl_b, load_cluster_table
from .emcore import WaveContext
from .errors import DomainError, ValidationError
from .geometry import grid_intervals

DENSELY_SPACED = "densely-spaced"
NEAR_FIELD = "near-field"
TRI_POL = "tri-pol"
EM_CORE_VALIDATION = "em-core-validation"

_BORESIGHTS = ("+x", "-x", "+y", "-y", "+z", "-z")

# carrier of the densely-spaced and em-core studies. Their inputs are lengths
# in wavelengths and normalized distances k0*r, so their results do not depend
# on it; it only sets the length scale of the geometry they build.
REFERENCE_FREQUENCY_HZ = 4.7e9

# Gauss-Legendre nodes of order n take O(n^2) recurrence steps (about 50 ms
# at n = 1000), and the cell quadrature O(cells x n^2) spectrum evaluations,
# so larger orders are refused.
MAX_QUADRATURE_ORDER = 1000

# Largest near-field length in wavelengths at frequency_hz: the farthest drop,
# the far-field case at 10 x the Rayleigh distance, both apertures, the profile
# distance, the UE span and the Doppler displacement |v| t. A length of N
# wavelengths enters an LOS entry as the phase 2 pi N, and a double holds N
# only to within N eps / 2 (eps = 2.2e-16), so the phase can be off by
# pi eps N rad: 7e-4 rad at 1e12 wavelengths. Far beyond it a run fails
# outright: at a drop of 2.2e156 wavelengths the element offsets round away
# against the distance. The reference scenarios reach 9.8e4 wavelengths, in
# the far-field case of nearfield_15ghz.json.
MAX_NEAR_FIELD_WAVELENGTHS = 1e12

# k0*r points of the em-core sweep; each runs samples / EM_CORE_SWEEP_POINTS
# random directions, so samples must be a multiple of it.
EM_CORE_SWEEP_POINTS = 25

# Range of the em-core sweep's k0*r. The residual divides Frobenius norms,
# each the root of a sum of squares, so a term's norm must lie within
# [sqrt(DBL_MIN), sqrt(DBL_MAX)] = [1.5e-154, 1.3e154] for its squares to stay
# normal floats. The 1/R^3 term G_INF spans the widest range, with norm
# sqrt(6) k0 / (4 pi (k0 r)^3) (k0 = 98.5 rad/m at REFERENCE_FREQUENCY_HZ):
# it stays within it for k0*r in [1.13e-51, 5.05e51], and G_RNF and G_FF,
# falling as 1/(k0 r)^2 and 1/(k0 r), over wider spans. The bounds round that
# range inward. Below 1.13e-51 |G| overflows and the residual reads 0, then
# nan; from 1.3e156 the outer product r r^T overflows and it reads nan.
EM_CORE_K0R_MIN = 1e-50
EM_CORE_K0R_MAX = 1e50


@dataclass(frozen=True)
class DenselySpacedScenario:
    """capacity versus sub-wavelength receive spacing for four array models"""

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
    """planar-versus-exact wavefront correlation and phase profiles over distance"""

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
    """grouped uplink/downlink estimation compared with an uplink-only benchmark"""

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
    """field-kernel decomposition residuals and field-region boundaries"""

    name: str = EM_CORE_VALIDATION
    master_seed: int = 0
    samples: int = 1000
    k0r_min: float = 0.1
    k0r_max: float = 1.0e4
    region_cases: tuple = ((6.7e9, 1.53), (15.0e9, 1.4))

    study = EM_CORE_VALIDATION


# each docstring is the study's line in `emchan list-studies`
_SCENARIO_TYPES = {cls.study: cls for cls in (DenselySpacedScenario, NearFieldScenario,
                                              TriPolScenario, EmCoreValidationScenario)}
STUDIES = tuple(_SCENARIO_TYPES)


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


def _like(field):
    """The value whose type a field's values must have: its default, or for a
    default of None its _OPTIONAL_TYPES entry."""
    return _OPTIONAL_TYPES[field.name] if field.default is None else field.default


def _from_json(value, like):
    """A JSON value as the field holds it: lists as tuples, each entry read as
    like[0] (in nested lists too), and an integer as a float where like is one
    (validate_scenario reports one too large). So [20, 35] and [20.0, 35.0]
    give one scenario and one hash."""
    if isinstance(value, list):
        entry = like[0] if isinstance(like, tuple) and like else None
        return tuple(_from_json(v, entry) for v in value)
    if isinstance(like, float) and type(value) is int:
        with contextlib.suppress(OverflowError):
            return float(value)
    return value


def _must(ok, message):
    """A value rule: no message if ok(value), else `message` formatted with it as v."""
    return lambda v: [] if ok(v) else [message.format(v=v)]


def _each(entry_rule, empty=None):
    """A list rule: entry_rule's messages for every entry, and `empty` for no entries."""
    return lambda vs: [m for v in vs for m in entry_rule(v)] + ([empty] if empty and not vs else [])


_COUNT = _must(lambda v: v >= 1, "count must be >= 1, got {v!r}")
_POSITIVE = _must(lambda v: v > 0, "must be positive, got {v!r}")
_AT_MOST_MAX_ORDER = _must(lambda v: v <= MAX_QUADRATURE_ORDER,
                           f"must be at most {MAX_QUADRATURE_ORDER}, got {{v!r}}")
_REGION_CASE = _must(lambda case: len(case) == 2 and all(v > 0 for v in case),
                     "expected [frequency_hz, aperture_m] pairs, got {v!r}")
_SCHEMES = ("ideal", "ni", "ni-pd", "proposed")


def _carrier(frequency) -> list[str]:
    """The rule of a carrier frequency: WaveContext, which every study builds
    from it, must accept it."""
    try:
        WaveContext.from_frequency(frequency)
    except DomainError as exc:
        return [str(exc)]
    return []


def _weights(ws) -> list[str]:
    """The rule of cluster_weights: nonnegative, summing to 1 within 1e-6."""
    if any(w < 0 for w in ws):
        return [f"expected nonnegative numbers, got {ws!r}"]
    total = float(sum(ws))
    return [] if abs(total - 1.0) <= 1e-6 else [f"weights must sum to 1, got {total!r}"]


def _file_stem(name) -> list[str]:
    """The rule of `name`, the stem of every output file: it must not leave --out."""
    if not name:
        return ["must be nonempty"]
    if set(name) & {"/", "\\", "\0"} or name in (".", ".."):
        return [f"must be a file-name stem, without /, \\ or NUL and not . or .., got {name!r}"]
    return []


# The value rule of each field that has one, applied once the value has its
# default's type (and, in dB, lies within MAX_ABS_DB). Rules that read more
# than one field are in validate_scenario.
_RULES = {
    **dict.fromkeys(("realizations", "bs_elements", "ue_elements", "profile_elements", "cells",
                     "ues_per_cell", "bs_ports"), _COUNT),
    **dict.fromkeys(("tx_side_wavelengths", "rx_side_wavelengths", "tx_spacing_wavelengths",
                     "aperture_m", "ue_spacing_wavelengths", "profile_aperture_m",
                     "profile_distance_m"), _POSITIVE),
    **dict.fromkeys(("master_seed", "xpr_sigma_db", "time_s"),
                    _must(lambda v: v >= 0, "must be nonnegative, got {v!r}")),
    **dict.fromkeys(("tx_boresight", "rx_boresight"),
                    _must(lambda v: v in _BORESIGHTS, "unknown boresight {v!r}")),
    "name": _file_stem,
    "frequency_hz": lambda v: _POSITIVE(v) or _carrier(v),
    "quadrature_order": lambda v: _COUNT(v) + _AT_MOST_MAX_ORDER(v),
    "rx_spacing_wavelengths": _each(_must(lambda s: s > 0, "spacing must be positive, got {v!r}"),
                                    "need at least one spacing"),
    "cluster_weights": _weights,
    "element_efficiency": _must(lambda v: 0.0 < v <= 1.0, "must lie in (0, 1], got {v!r}"),
    "schemes": _each(_must(lambda s: s in _SCHEMES,
                           f"unknown scheme {{v!r}} (known: {', '.join(_SCHEMES)})"),
                     "need at least one scheme"),
    "drop_distances_m": _each(_must(lambda d: d > 0, "distance must be positive, got {v!r}"),
                              "need at least one distance"),
    "velocity_mps": _must(lambda v: len(v) == 3, "expected three numbers"),
    "ue_ports": _must(lambda v: v in (8, 12), "must be 8 or 12, got {v!r}"),
    "percentiles": _each(_must(lambda p: 0.0 < p < 100.0, "must lie in (0, 100), got {v!r}"),
                         "need at least one percentile"),
    "samples": _must(lambda v: v >= 1 and v % EM_CORE_SWEEP_POINTS == 0,
                     f"must be a positive multiple of {EM_CORE_SWEEP_POINTS}, "
                     "the sweep points, got {v!r}"),
    "region_cases": _each(lambda case: _REGION_CASE(case) or _carrier(case[0])),
    "k0r_min": _must(lambda v: v >= EM_CORE_K0R_MIN,
                     f"must be at least {EM_CORE_K0R_MIN:g}, where the field-kernel norms "
                     "stay within the float range, got {v!r}"),
    "k0r_max": _must(lambda v: v <= EM_CORE_K0R_MAX,
                     f"must be at most {EM_CORE_K0R_MAX:g}, where the field-kernel norms "
                     "stay within the float range, got {v!r}"),
}


def _near_field_lengths(scn: NearFieldScenario) -> list[str]:
    """The rule of every near-field length, which reads frequency_hz: at most
    MAX_NEAR_FIELD_WAVELENGTHS wavelengths, each named by its field."""
    try:
        lam = WaveContext.from_frequency(scn.frequency_hz).wavelength
    except DomainError:
        return []  # frequency_hz's own rule reports it
    aperture = scn.aperture_m / lam
    far_field = 20.0 * aperture * aperture  # 10 x 2 D^2 / lambda; ** would raise on overflow
    gaps = scn.ue_elements - 1  # JSON reads integers of any size
    ue_span = gaps * scn.ue_spacing_wavelengths if gaps <= sys.float_info.max else math.inf
    lengths = {  # field: (what, wavelengths)
        "aperture_m": (("the far-field case at 10 x the Rayleigh distance", far_field)
                       if scn.include_far_field_check else ("the aperture", aperture)),
        "ue_spacing_wavelengths": ("the UE span", ue_span),
        "drop_distances_m": ("the farthest drop", max(scn.drop_distances_m, default=0.0) / lam),
        "profile_aperture_m": ("the profile aperture", scn.profile_aperture_m / lam),
        "profile_distance_m": ("the profile distance", scn.profile_distance_m / lam),
        # an overflowing product is inf, which compares as too long
        "time_s": ("the Doppler displacement |velocity_mps| x time_s",
                   math.hypot(*(v * scn.time_s for v in scn.velocity_mps)) / lam),
    }
    return [f"{field}: {what} reaches {n:.3g} wavelengths at frequency_hz, beyond the "
            f"{MAX_NEAR_FIELD_WAVELENGTHS:g} within which a double resolves its phase"
            for field, (what, n) in lengths.items() if n > MAX_NEAR_FIELD_WAVELENGTHS]


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
    """Every violated invariant as one message; empty list when valid. Each
    field is checked in order: a value that does not have its default's type,
    holds a float that is not finite or lies beyond MAX_ABS_DB in dB, is
    reported once; any other value gets its rule in _RULES. The rules that read
    more than one field come last; they see the default in place of a value of
    the wrong type, and skip a check that reads it."""
    errors: list[str] = []
    bad = {}
    for f in dataclasses.fields(scn):
        value = getattr(scn, f.name)
        if value is None and f.default is None:
            continue
        problem = _problem(value, _like(f))
        if not problem and f.name.endswith("_db") and not -MAX_ABS_DB <= value <= MAX_ABS_DB:
            problem = f"must lie within +-{MAX_ABS_DB:g} dB, got {value!r}"
        if problem:
            errors.append(f"{f.name}: {problem}")
            bad[f.name] = f.default
        elif f.name in _RULES:
            errors.extend(f"{f.name}: {m}" for m in _RULES[f.name](value))
    if bad:
        scn = dataclasses.replace(scn, **bad)
    if isinstance(scn, DenselySpacedScenario):
        # the study's own grid rule, on the lengths in metres it builds arrays with
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
        ws = scn.cluster_weights
        if ws is not None and clusters is not None and len(ws) != clusters:
            errors.append(f"cluster_weights: expected {clusters} weights, got {len(ws)}")
    elif isinstance(scn, NearFieldScenario):
        errors.extend(_near_field_lengths(scn))
    elif (isinstance(scn, EmCoreValidationScenario) and not {"k0r_min", "k0r_max"} & bad.keys()
          and not scn.k0r_max > scn.k0r_min):
        errors.append(f"k0r_max: must exceed k0r_min, got {scn.k0r_max!r}")
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
        kwargs[key] = _from_json(value, _like(fields[key]))
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
    """JSON-ready dict with every field explicit; loads back to an equal scenario.
    Each value is written as _from_json reads it, so a scenario built in code
    with 1 for 1.0 serializes, and hashes, as its file does."""

    def plain(v):
        if isinstance(v, tuple):
            return [plain(x) for x in v]
        return v

    payload = {"study": scn.study}
    for f in dataclasses.fields(scn):
        payload[f.name] = plain(_from_json(plain(getattr(scn, f.name)), _like(f)))
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
