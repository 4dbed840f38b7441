"""Electromagnetic channel modeling and capacity studies.

Continuous-aperture and dense-array MIMO channels built from first
principles: free-space field kernels, wavenumber-domain statistics with
directional cluster spectra, exact spherical-wavefront array responses with
spatial non-stationarity, a grouped tri-polarized estimation protocol, and
water-filling capacity analysis, all driven by a reproducible scenario CLI.

`import emchan` loads numpy and nothing else of the package: each public
name below loads its module on first access, and a study's channel modules
load with a scenario of that study (see `emchan.studies`).
"""

import importlib as _importlib
import os as _os
import sys as _sys

# OpenBLAS reads its thread count once, when numpy loads it, and its idle pool
# threads spin through start-up. Parallel work comes from --jobs, so numpy
# starts on one BLAS thread unless it is already loaded or the user set a
# thread variable; the variable is removed again, so subprocesses inherit nothing.
_blas_start_pinned = "numpy" not in _sys.modules and not any(
    name in _os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if _blas_start_pinned:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _numpy  # noqa: F401
finally:
    if _blas_start_pinned:
        del _os.environ["OPENBLAS_NUM_THREADS"]

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "capacity": ("CapacityResult", "capacity_equal_power", "capacity_waterfilling"),
    "cdl": ("CDL_B_SPREADS_DEG", "CDL_B_XPR_DB", "ClusterRow", "ClusterTable", "bundled_cdl_b",
            "load_cluster_table", "mixture_from_clusters"),
    "emcore": ("FAR", "RADIATING_NEAR", "REACTIVE_NEAR", "SPEED_OF_LIGHT", "VACUUM_PERMEABILITY",
               "Aperture", "PortFunction", "WaveContext", "assemble_em_channel",
               "delta_aperture", "delta_ports", "dyadic_green", "field_region",
               "green_decomposition", "rayleigh_distance", "reactive_boundary"),
    "errors": ("DomainError", "EmchanError", "GeometryError", "NumericalError", "ShapeError",
               "SingularityError", "ValidationError"),
    "geometry": ("angles_from_vector", "panel_frame", "to_local_angles", "unit_vector"),
    "nearfield": ("ArrayGeometry", "BounceGeometry", "ClusterRay", "MotionState", "RaySet",
                  "Tap", "VisibilityModel", "attenuation_factor", "channel_impulse_response",
                  "cluster_rays", "locate_bounce_scatterers", "los_coefficient",
                  "narrowband_channel", "nlos_coefficient", "planar_wave_channel",
                  "spatial_correlation", "visibility_probability"),
    "patterns": ("Pattern", "PatternSet", "TablePattern", "dipole", "load_pattern_table",
                 "patch", "unit_gain", "vertical"),
    "results": ("Column", "ResultTable", "read_result_csv", "read_result_json",
                "result_schema", "write_results"),
    "scenario": ("DenselySpacedScenario", "EmCoreValidationScenario", "NearFieldScenario",
                 "TriPolScenario", "load_scenario", "save_scenario", "scenario_from_dict",
                 "scenario_hash", "serialize_scenario", "validate_scenario"),
    "seeds": ("STUDY_IDS", "realization_rng"),
    "studies": ("VERSION", "axes_note", "manifest_text", "run_study"),
    "tripol": ("NormalizationRecord", "PortGrouping", "TriPolChannel", "TriPolEstimate",
               "benchmark_uplink_only", "combining_reference", "estimate_joint",
               "group_ports", "scalar_aligned", "simulate_tripol_channel"),
    "wavenumber": ("EfficiencyMatrix", "VmfCluster", "VmfMixture", "WavenumberSupport",
                   "apply_polarization", "assemble_channel", "cell_power_fractions",
                   "coupling_variances", "fourier_harmonics", "hannan_efficiency",
                   "isotropic_mixture", "sample_wavenumber_channel", "uniform_planar_array",
                   "vmf_pdf", "wavenumber_support"),
}.items() for name in names}
# submodules reachable as attributes, as `import emchan.<module>` would make them
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS.keys() | _SUBMODULES)


def __getattr__(name: str):
    if name == "__version__":
        value = __getattr__("VERSION")
    elif name in _EXPORTS:
        value = getattr(_importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = _importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__) | {"__version__"})
