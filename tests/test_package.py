"""The package namespace loads lazily: every public name resolves on first
access to the object its submodule defines, and a study's runner finds its
channel-module names however it is reached."""

import importlib
import inspect
import types

import pytest

import emchan
from emchan import studies

# Every public name of `emchan` from when `import emchan` loaded all of its
# modules at once; none may be lost. Names leave only on purpose: the tri-pol
# single-channel steps, `scalar_green`, `wavenumber_to_angles` and
# `em_channel_entry` moved into the tests as oracles, and `EfficiencyMatrix`
# went because element efficiency acts once, on the densely-spaced study's
# power, and per-element weights are scaled rows of the harmonics.
EXPORTED_NAMES = frozenset("""
    Aperture ArrayGeometry BounceGeometry CDL_B_SPREADS_DEG CDL_B_XPR_DB CapacityResult ClusterRay
    ClusterRow ClusterTable Column DenselySpacedScenario DomainError
    EmCoreValidationScenario EmchanError FAR GeometryError MotionState NearFieldScenario
    NormalizationRecord NumericalError Pattern PatternSet PortFunction PortGrouping RADIATING_NEAR
    REACTIVE_NEAR RaySet ResultTable SPEED_OF_LIGHT STUDY_IDS ShapeError SingularityError
    TablePattern Tap TriPolChannel TriPolEstimate TriPolScenario VACUUM_PERMEABILITY VERSION ValidationError
    VisibilityModel VmfCluster VmfMixture WaveContext WavenumberSupport angles_from_vector
    apply_polarization assemble_channel assemble_em_channel attenuation_factor axes_note
    benchmark_uplink_only bundled_cdl_b capacity_equal_power capacity_waterfilling
    cell_power_fractions channel_impulse_response cluster_rays combining_reference
    coupling_variances delta_aperture delta_ports dipole dyadic_green estimate_joint field_region
    fourier_harmonics green_decomposition group_ports hannan_efficiency isotropic_mixture
    load_cluster_table load_pattern_table load_scenario locate_bounce_scatterers los_coefficient
    manifest_text mixture_from_clusters narrowband_channel nlos_coefficient panel_frame patch
    planar_wave_channel rayleigh_distance reactive_boundary read_result_csv read_result_json
    realization_rng result_schema run_study sample_wavenumber_channel save_scenario scalar_aligned
    scenario_from_dict scenario_hash serialize_scenario simulate_tripol_channel spatial_correlation
    to_local_angles uniform_planar_array unit_gain unit_vector validate_scenario vertical
    visibility_probability vmf_pdf wavenumber_support write_results
""".split())
SUBMODULES = frozenset("""
    capacity cdl emcore errors geometry nearfield patterns results scenario seeds studies
    tripol wavenumber
""".split())


def test_every_exported_name_is_its_submodules_object():
    assert sorted(emchan.__all__) == emchan.__all__
    assert set(emchan.__all__) == EXPORTED_NAMES | SUBMODULES
    for name in EXPORTED_NAMES | SUBMODULES:
        namespace = {}
        exec(f"from emchan import {name}", namespace)
        value = getattr(emchan, name)
        assert namespace[name] is value, name
        if name in SUBMODULES:
            assert value is importlib.import_module(f"emchan.{name}")
        else:
            home = importlib.import_module(f"emchan.{emchan._EXPORTS[name]}")
            assert getattr(home, name) is value, name


def test_lazy_table_has_no_stale_entries():
    assert emchan._EXPORTS.keys() == EXPORTED_NAMES
    assert emchan._SUBMODULES == SUBMODULES
    for name, module in emchan._EXPORTS.items():
        value = getattr(importlib.import_module(f"emchan.{module}"), name)
        if inspect.isclass(value) or inspect.isfunction(value):
            # defined there, not imported there from another module
            assert value.__module__ == f"emchan.{module}", name


def test_version_dir_and_unknown_names():
    assert emchan.__version__ == emchan.VERSION == studies.VERSION
    listed = dir(emchan)
    assert listed == sorted(listed)
    assert set(emchan.__all__) | {"__version__"} <= set(listed)
    assert not hasattr(emchan, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        emchan.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from emchan import no_such_name", {})


def _global_names(code: types.CodeType) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def _runner_names(func) -> set:
    """Global names of func and of the `studies` functions it reaches."""
    names, todo, seen = set(), [func], set()
    while todo:
        code = todo.pop().__code__
        if code in seen:
            continue
        seen.add(code)
        found = _global_names(code)
        names |= found
        todo += [value for name in found
                 if inspect.isfunction(value := vars(studies).get(name))
                 and value.__module__ == studies.__name__]
    return names


def test_study_module_list_binds_the_modules_the_runners_use():
    for study, modules in studies._STUDY_MODULES.items():
        used = _runner_names(studies._RUNNERS[study])
        for module in modules:
            names = {module} | {name for name, home in emchan._EXPORTS.items() if home == module}
            assert names & used, (study, module)
            home = importlib.import_module(f"emchan.{module}")
            assert getattr(studies, module) is home
            for name in names - {module}:
                assert getattr(studies, name) is getattr(home, name), name
    # names of other modules are not bound here, nor tripol's unexported ones
    for name in ("no_such_name", "panel_frame", "percentiles"):
        with pytest.raises(AttributeError, match=name):
            getattr(studies, name)
