import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from emchan import (
    Column,
    DenselySpacedScenario,
    EmCoreValidationScenario,
    NearFieldScenario,
    NumericalError,
    ResultTable,
    TriPolScenario,
    ValidationError,
    bundled_cdl_b,
    load_scenario,
    read_result_csv,
    read_result_json,
    result_schema,
    run_study,
    save_scenario,
    scenario_from_dict,
    scenario_hash,
    serialize_scenario,
    validate_scenario,
    write_results,
)
from emchan import cli, scenario, studies
from emchan.cli import main
from emchan.emcore import SPEED_OF_LIGHT

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_minimal_payload_gets_defaults():
    scn = scenario_from_dict({"study": "densely-spaced", "name": "d"})
    assert isinstance(scn, DenselySpacedScenario)
    assert scn.tx_side_wavelengths == 4.0
    assert scn.rx_spacing_wavelengths == (0.5, 0.25, 0.125)
    assert scn.schemes == ("ideal", "ni", "ni-pd", "proposed")
    for study, typ in (("near-field", NearFieldScenario), ("tri-pol", TriPolScenario),
                       ("em-core-validation", EmCoreValidationScenario)):
        assert isinstance(scenario_from_dict({"study": study, "name": "x"}), typ)


def test_unknown_study_and_fields_rejected():
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict({"study": "other", "name": "x"})
    assert "study" in exc.value.messages[0]
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict({"study": "tri-pol", "name": "x", "bogus_field": 3})
    assert any("bogus_field" in m and "unknown field" in m for m in exc.value.messages)


def test_cluster_weights_sum_reported():
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict({
            "study": "densely-spaced", "name": "w",
            "cluster_weights": [0.4, 0.5],
        })
    assert any("cluster_weights" in m and "sum to 1" in m for m in exc.value.messages)


@pytest.mark.parametrize("overrides, field", [
    ({"cluster_table": 5}, "cluster_table"),
    ({"cluster_weights": 5}, "cluster_weights"),
    ({"rx_spacing_wavelengths": [0.5, 0.3]}, "rx_spacing_wavelengths"),
    ({"tx_spacing_wavelengths": 0.3}, "tx_spacing_wavelengths"),
    ({"cluster_weights": [1.0]}, "cluster_weights"),
    ({"quadrature_order": 1001}, "quadrature_order"),
])
def test_densely_spaced_type_and_grid_errors_name_the_field(overrides, field):
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict({"study": "densely-spaced", "name": "d", **overrides})
    assert len(exc.value.messages) == 1
    assert exc.value.messages[0].startswith(f"{field}: ")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("overrides", [
    {"cluster_table": 5}, {"cluster_weights": 5}, {"rx_spacing_wavelengths": [0.3]},
    {"cluster_weights": [1.0]}, {"quadrature_order": 30000},
])
def test_cli_densely_spaced_field_errors_exit_one(tmp_path, capsys, command, overrides):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"study": "densely-spaced", "name": "d", **overrides}))
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")] if command == "run" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid: {next(iter(overrides))}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("study, field, value, bad", [
    ("tri-pol", "pilot_snr_db", math.nan, math.nan),
    ("near-field", "drop_distances_m", [5.0, math.inf], math.inf),
    ("densely-spaced", "cluster_weights", [math.nan] + [0.0] * (bundled_cdl_b().count - 1),
     math.nan),
    ("densely-spaced", "xpr_mu_db", math.inf, math.inf),
], ids=["nan-snr", "inf-distance", "nan-weight", "inf-xpr"])
def test_non_finite_numbers_are_invalid(tmp_path, capsys, command, study, field, value, bad):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"study": study, "name": "s", field: value}))
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")] if command == "run" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"invalid: {field}: must be finite, got {bad!r}\n"
    assert not (tmp_path / "o").exists()
    # a scenario built in code is checked by the run as well
    scn = dataclasses.replace(scenario_from_dict({"study": study, "name": "s"}),
                              **{field: tuple(value) if isinstance(value, list) else value})
    with pytest.raises(ValidationError) as exc:
        run_study(scn)
    assert exc.value.messages == [f"{field}: must be finite, got {bad!r}"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("study, field, value", [
    ("tri-pol", "pilot_snr_db", "1" + "0" * 400),
    ("near-field", "drop_distances_m", "[5.0, 1" + "0" * 400 + "]"),
    ("near-field", "drop_distances_m", "[-1" + "0" * 400 + "]"),
    ("em-core-validation", "region_cases", "[[28e9, 0.3], [1" + "0" * 400 + ", 0.3]]"),
    ("densely-spaced", "tx_side_wavelengths", "1" + "0" * 400),
    ("densely-spaced", "rx_spacing_wavelengths", "[0.5, 1" + "0" * 400 + "]"),
], ids=["snr", "distance", "negative-distance", "nested-entry", "side", "spacing"])
def test_integers_too_large_for_a_float_are_out_of_range(tmp_path, capsys, command, study, field,
                                                         value):
    path = tmp_path / "s.json"
    path.write_text(f'{{"study": "{study}", "name": "s", "{field}": {value}}}')
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")] if command == "run" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"invalid: {field}: out of range\n"
    assert not (tmp_path / "o").exists()
    # a scenario built in code is checked by the run as well
    big = json.loads(value)
    if isinstance(big, list):
        big = tuple(tuple(v) if isinstance(v, list) else v for v in big)
    scn = dataclasses.replace(scenario_from_dict({"study": study, "name": "s"}), **{field: big})
    with pytest.raises(ValidationError) as exc:
        run_study(scn)
    assert exc.value.messages == [f"{field}: out of range"]
    # an integer field takes any size
    assert scenario_from_dict({"study": study, "name": "s", "master_seed": 10**400})


@pytest.mark.parametrize("cls, field, value", [
    (DenselySpacedScenario, "realizations", "5"),
    (DenselySpacedScenario, "rx_spacing_wavelengths", 0.25),
    (NearFieldScenario, "drop_distances_m", 5.0),
    (TriPolScenario, "percentiles", 50.0),
    (DenselySpacedScenario, "snr_db", "x"),
    (NearFieldScenario, "bs_elements", 2.5),
    (TriPolScenario, "cells", True),
    (DenselySpacedScenario, "schemes", "ideal"),
])
def test_code_built_fields_of_another_type_are_invalid(cls, field, value):
    # a scenario built in code gets the type checks a scenario file gets
    scn = cls(**{field: value})
    messages = validate_scenario(scn)
    assert len(messages) == 1
    assert messages[0].startswith(f"{field}: expected ") and messages[0].endswith(f", got {value!r}")
    with pytest.raises(ValidationError) as exc:
        run_study(scn)
    assert exc.value.messages == messages


def _other_types(like) -> list:
    """Values that do not have the type of `like`; for a list, also one entry
    that does not have the type of its first entry."""
    if isinstance(like, bool):
        return [1, "true"]
    if isinstance(like, int):
        return [2.5, True, "1"]
    if isinstance(like, float):
        return ["1.0", True]
    if isinstance(like, str):
        return [5, True, (like,)]
    if isinstance(like, tuple):
        return [like[0], "x"] + [(like[0], wrong) for wrong in _other_types(like[0])]
    pytest.fail(f"no type rule for {like!r}")


@pytest.mark.parametrize("cls", [DenselySpacedScenario, NearFieldScenario, TriPolScenario,
                                 EmCoreValidationScenario])
def test_every_field_is_checked_against_its_default_type(cls):
    assert validate_scenario(cls()) == []
    for f in dataclasses.fields(cls):
        like = scenario._OPTIONAL_TYPES.get(f.name) if f.default is None else f.default
        assert like is not None, f"{cls.__name__}.{f.name}: name its entry type in _OPTIONAL_TYPES"
        for value in _other_types(like):
            messages = validate_scenario(cls(**{f.name: value}))
            assert len(messages) == 1, (f.name, value, messages)
            assert messages[0].startswith(f"{f.name}: "), (f.name, value, messages)


def test_cluster_weights_counted_against_the_table_the_run_loads(tmp_path):
    n = bundled_cdl_b().count
    weights = [1.0] + [0.0] * (n - 1)
    assert scenario_from_dict({"study": "densely-spaced", "name": "d",
                               "cluster_weights": weights}).cluster_weights == tuple(weights)
    one = tmp_path / "one.csv"
    one.write_text("cluster,delay_norm,power_db,aod_deg,aoa_deg,zod_deg,zoa_deg\n"
                   "1,0.0,0.0,20.0,160.0,80.0,100.0\n")
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict({"study": "densely-spaced", "name": "d", "cluster_table": str(one),
                            "cluster_weights": weights})
    assert exc.value.messages == [f"cluster_weights: expected 1 weights, got {n}"]
    bad = tmp_path / "bad.csv"
    bad.write_text("cluster,power_db\n1,0.0\n")
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict({"study": "densely-spaced", "name": "d", "cluster_table": str(bad)})
    assert len(exc.value.messages) == 1
    assert exc.value.messages[0].startswith("cluster_table: cannot read ")


def test_cluster_weights_within_the_validation_tolerance_run_as_normalized(tmp_path, capsys):
    # validation allows a sum within 1e-6 of 1; the run divides by the sum
    n = bundled_cdl_b().count
    weights = [1.0 / n] * n
    weights[0] += 5e-7
    total = sum(weights)
    assert 1e-12 < total - 1.0 < 1e-6
    tables = []
    for tag, ws in (("given", weights), ("by_hand", [w / total for w in weights])):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps({"study": "densely-spaced", "name": "w", "realizations": 5,
                                    "quadrature_order": 8, "cluster_weights": ws}))
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / tag)]) == 0
        tables.append(read_result_csv(tmp_path / tag / "w_capacity.csv"))
    capsys.readouterr()
    given, by_hand = tables
    assert given.columns == by_hand.columns
    assert [row[:2] for row in given.rows] == [row[:2] for row in by_hand.rows]
    np.testing.assert_allclose([row[2:] for row in given.rows],
                               [row[2:] for row in by_hand.rows], rtol=1e-12, atol=0.0)


def test_quadrature_order_bound():
    base = {"study": "densely-spaced", "name": "d"}
    assert scenario_from_dict({**base, "quadrature_order": 1000}).quadrature_order == 1000
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict({**base, "quadrature_order": 1001})
    assert exc.value.messages == ["quadrature_order: must be at most 1000, got 1001"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("study, field, value", [
    ("densely-spaced", "snr_db", 1e6),
    ("tri-pol", "z_gain_db", 1e6),
    ("tri-pol", "xpr_db", -1e6),
    ("tri-pol", "pilot_snr_db", 1e6),
    ("tri-pol", "pilot_snr_db", -1e6),
], ids=["snr", "z-gain", "xpr", "pilot", "negative-pilot"])
def test_db_fields_beyond_the_bound_are_invalid(tmp_path, capsys, command, study, field, value):
    # 10 ** (x / 10) of each of these overflows a float
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"study": study, "name": "s", field: value}))
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")] if command == "run" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"invalid: {field}: must lie within +-300 dB, got {value!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cls", [DenselySpacedScenario, NearFieldScenario, TriPolScenario,
                                 EmCoreValidationScenario])
def test_every_db_field_is_bounded(cls):
    """Each field in dB, including any added later, is valid up to the bound
    and reported once beyond it."""
    bound = scenario.MAX_ABS_DB
    for f in dataclasses.fields(cls):
        if not f.name.endswith("_db"):
            continue
        for edge in (-bound, bound):
            beyond = math.nextafter(edge, math.copysign(math.inf, edge))
            messages = validate_scenario(cls(**{f.name: edge}))
            assert not any(m.startswith(f"{f.name}: must lie") for m in messages), messages
            assert validate_scenario(cls(**{f.name: beyond})) == [
                f"{f.name}: must lie within +-300 dB, got {beyond!r}"]


# the largest frequency whose wavelength c / f overflows a float
FREQUENCY_BEYOND = math.nextafter(SPEED_OF_LIGHT / sys.float_info.max, 0.0)

# one weight per cluster of the bundled table: the given ones, then zeros
def _weights(w, *rest):
    return (w, *rest) + (0.0,) * (bundled_cdl_b().count - 1 - len(rest))


# values just beyond the rule of each field in scenario._RULES
JUST_BEYOND = {
    "name": ["", "a/b", "a\\b", "a\0b", ".", ".."],
    "master_seed": [-1],
    "tx_side_wavelengths": [0.0],
    "rx_side_wavelengths": [0.0],
    "tx_spacing_wavelengths": [0.0],
    "rx_spacing_wavelengths": [(), (0.5, 0.0)],
    "realizations": [0],
    "xpr_sigma_db": [-5e-324],
    "cluster_weights": [_weights(1.0, -5e-324), _weights(math.nextafter(1.0 + 1e-6, 2.0)),
                        _weights(math.nextafter(1.0 - 1e-6, 0.0))],
    "element_efficiency": [0.0, math.nextafter(1.0, 2.0)],
    "schemes": [(), ("ideal", "nii")],
    "tx_boresight": ["x"],
    "rx_boresight": ["+w"],
    "quadrature_order": [0, 1001],
    "frequency_hz": [0.0, FREQUENCY_BEYOND],
    "aperture_m": [0.0],
    "bs_elements": [0],
    "ue_elements": [0],
    "ue_spacing_wavelengths": [0.0],
    "drop_distances_m": [(), (20.0, 0.0)],
    "time_s": [-5e-324],
    "velocity_mps": [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0)],
    "profile_elements": [0],
    "profile_aperture_m": [0.0],
    "profile_distance_m": [0.0],
    "cells": [0],
    "ues_per_cell": [0],
    "bs_ports": [0],
    "ue_ports": [4, 9],
    "percentiles": [(), (0.0,), (50.0, 100.0)],
    "samples": [0, 24],
    "k0r_min": [0.0, math.nextafter(scenario.EM_CORE_K0R_MIN, 0.0)],
    "k0r_max": [math.nextafter(scenario.EM_CORE_K0R_MAX, math.inf)],
    "region_cases": [((6.7e9, 0.0),), ((6.7e9,),), ((FREQUENCY_BEYOND, 1.0),)],
}

# the fields with no entry in scenario._RULES, and what checks their values
CHECKED_WITHOUT_A_RULE = {
    "snr_db": "the dB bound",
    "xpr_mu_db": "the dB bound",
    "z_gain_db": "the dB bound",
    "xpr_db": "the dB bound",
    "pilot_snr_db": "the dB bound",
    "include_far_field_check": "its type: either value is valid",
    "cluster_table": "the cross-field read of the table that cluster_weights is counted against",
}


def test_every_field_has_a_value_rule_or_a_stated_other_check():
    # a new field either gets a rule in _RULES or says here why it needs none
    fields = {f.name for cls in scenario._SCENARIO_TYPES.values() for f in dataclasses.fields(cls)}
    assert not scenario._RULES.keys() & CHECKED_WITHOUT_A_RULE.keys()
    assert scenario._RULES.keys() | CHECKED_WITHOUT_A_RULE.keys() == fields
    assert JUST_BEYOND.keys() == scenario._RULES.keys()


@pytest.mark.parametrize("field", sorted(JUST_BEYOND))
def test_every_value_rule_refuses_a_value_just_beyond_it(field):
    owners = [cls for cls in scenario._SCENARIO_TYPES.values()
              if field in {f.name for f in dataclasses.fields(cls)}]
    assert owners, f"{field} is not a field of any scenario type"
    for cls in owners:
        for value in JUST_BEYOND[field]:
            messages = validate_scenario(cls(**{field: value}))
            assert len(messages) == 1, (cls.__name__, value, messages)
            assert messages[0].startswith(f"{field}: "), (cls.__name__, value, messages)


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name", ["../escaped", "absolute"])
def test_names_that_leave_the_output_directory_are_invalid(tmp_path, capsys, command, name):
    # every output file is <out>/<name>_<key>.<format>: a name with a slash
    # would write beside --out, an absolute one anywhere
    if name == "absolute":
        name = str(tmp_path / "x")
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"study": "em-core-validation", "name": name, "samples": 25}))
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")] if command == "run" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"invalid: name: must be a file-name stem, without /, \\ or NUL and not . or .., "
        f"got {name!r}\n")
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("study, overrides", [
    ("em-core-validation", {"samples": 25, "region_cases": [[1e9, 1e200]]}),
], ids=["reactive"])
def test_cli_run_of_a_region_boundary_beyond_the_float_range_exits_two(tmp_path, capsys, study,
                                                                        overrides):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"study": study, "name": "s", **overrides}))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {study} run failed: ")
    assert err.endswith(" m aperture overflows a float\n")
    assert not (tmp_path / "o").exists()


def test_cli_run_out_of_memory_is_one_error_line_with_exit_two(tmp_path, capsys, monkeypatch):
    # a stand-in for a run too large for the machine: none is started
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_study", exhausted)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"study": "tri-pol", "name": "s"}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: tri-pol run failed: out of memory\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("overrides, field", [
    ({"k0r_min": 1e-100, "k0r_max": 1.0}, "k0r_min"),
    ({"k0r_max": 1e200}, "k0r_max"),
], ids=["tiny", "huge"])
def test_cli_refuses_an_em_core_sweep_beyond_the_float_range(tmp_path, capsys, command,
                                                              overrides, field):
    # each of these passed validation, and the run then printed overflow
    # warnings and failed on a nan residual without naming a field
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"study": "em-core-validation", "name": "f", "samples": 25,
                                **overrides}))
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")] if command == "run" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"invalid: {field}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("k0r_min, k0r_max", [
    (scenario.EM_CORE_K0R_MIN, 1.0), (1.0, scenario.EM_CORE_K0R_MAX),
], ids=["min", "max"])
def test_em_core_sweep_at_its_bounds_runs(tmp_path, capsys, k0r_min, k0r_max):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"study": "em-core-validation", "name": "f", "samples": 25,
                                "k0r_min": k0r_min, "k0r_max": k0r_max}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    table = read_result_csv(tmp_path / "o" / "f_decomposition.csv")
    assert table.column("k0r")[::24] == [k0r_min, k0r_max]
    residuals = np.array(table.column("relative_residual"))
    assert residuals.size == 25 and np.all(np.isfinite(residuals))
    assert np.all(residuals < 1e-12)


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("overrides, field", [
    ({"drop_distances_m": [20.0, 1e155]}, "drop_distances_m"),
    ({"profile_distance_m": 1e155}, "profile_distance_m"),
    ({"profile_aperture_m": 1e155}, "profile_aperture_m"),
    ({"aperture_m": 1e100}, "aperture_m"),
    ({"aperture_m": 1e153}, "aperture_m"),
    ({"aperture_m": 1e300}, "aperture_m"),
    ({"ue_spacing_wavelengths": 1e300}, "ue_spacing_wavelengths"),
    ({"ue_elements": 10**400}, "ue_spacing_wavelengths"),
    ({"velocity_mps": [1e300, 0, 0], "time_s": 1e300}, "time_s"),
], ids=["drop", "profile-distance", "profile-aperture", "aperture", "aperture-1e153", "rayleigh",
        "ue-span", "ue-count", "doppler"])
def test_cli_refuses_near_field_lengths_beyond_the_phase_precision(tmp_path, capsys, command,
                                                                   overrides, field):
    # each of these passed validation, and the run then failed without naming
    # a field ("zero vector has no direction", a non-finite column, an
    # overflowing Rayleigh distance, or an OverflowError traceback)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"study": "near-field", "name": "s", **overrides}))
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")] if command == "run" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"invalid: {field}: ")
    assert f"beyond the {scenario.MAX_NEAR_FIELD_WAVELENGTHS:g} within which" in err
    assert not (tmp_path / "o").exists()


def test_near_field_length_bound_in_wavelengths():
    bound = scenario.MAX_NEAR_FIELD_WAVELENGTHS
    base = dict(ue_elements=2, ue_spacing_wavelengths=bound)
    assert validate_scenario(NearFieldScenario(**base)) == []
    messages = validate_scenario(NearFieldScenario(
        **{**base, "ue_spacing_wavelengths": math.nextafter(bound, math.inf)}))
    assert len(messages) == 1 and messages[0].startswith("ue_spacing_wavelengths: the UE span ")
    # a 1 km aperture is 2.2e4 wavelengths at 6.7 GHz, and its far-field case
    # at 10 x the Rayleigh distance 1e10
    assert validate_scenario(NearFieldScenario(aperture_m=1e3)) == []
    far = NearFieldScenario(aperture_m=1e6)
    assert [m.split(" reaches")[0] for m in validate_scenario(far)] == [
        "aperture_m: the far-field case at 10 x the Rayleigh distance"]
    assert validate_scenario(dataclasses.replace(far, include_far_field_check=False)) == []


def test_doppler_displacement_bound_in_wavelengths():
    # a 0.25 m wavelength and |v| = 5 m/s: 20 wavelengths per second, so the
    # displacement is exactly the bound at time_s = bound / 20
    bound = scenario.MAX_NEAR_FIELD_WAVELENGTHS
    inside = NearFieldScenario(frequency_hz=4.0 * SPEED_OF_LIGHT, velocity_mps=(3.0, 4.0, 0.0),
                               time_s=bound / 20.0)
    assert validate_scenario(inside) == []
    messages = validate_scenario(dataclasses.replace(
        inside, time_s=math.nextafter(inside.time_s, math.inf)))
    assert len(messages) == 1 and messages[0].startswith(
        "time_s: the Doppler displacement |velocity_mps| x time_s reaches ")


def test_a_huge_speed_at_time_zero_runs_as_zero_velocity(tmp_path, capsys):
    # the Doppler phase is that of the displacement v t, so at time_s 0 it is
    # exactly 0 whatever the speed; v / lambda alone overflows, and inf x 0
    # made every channel nan
    base = {"study": "near-field", "name": "n", "time_s": 0.0, "bs_elements": 4,
            "profile_elements": 4}
    tables = {}
    for velocity in ([1e308, 1e308, 1e308], [0.0, 0.0, 0.0]):
        path = tmp_path / f"{velocity[0]:g}.json"
        path.write_text(json.dumps({**base, "velocity_mps": velocity}))
        out = tmp_path / f"out-{velocity[0]:g}"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        tables[velocity[0]] = sorted((f.name, f.read_text()) for f in out.iterdir()
                                     if f.suffix == ".csv")
    assert tables[1e308] == tables[0.0]


def test_doppler_bound_reads_the_displacement_not_the_speed():
    # |v| overflows to inf, but v t is 2.1e8 m: 4.7e9 wavelengths at 6.7 GHz
    scn = NearFieldScenario(velocity_mps=(1.5e308, 1.5e308, 0.0), time_s=1e-300)
    assert math.isinf(math.hypot(*scn.velocity_mps))
    assert validate_scenario(scn) == []


@pytest.mark.parametrize("study, overrides, field", [
    ("near-field", {"frequency_hz": 1e-300}, "frequency_hz"),
    ("em-core-validation", {"samples": 25, "region_cases": [[1e-300, 1.0]]}, "region_cases"),
], ids=["near-field", "em-core"])
def test_cli_refuses_a_frequency_whose_wavelength_overflows(tmp_path, capsys, study, overrides,
                                                            field):
    # c / 1e-300 Hz is inf: the boundaries would read 0.0 m and the correlations nan
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"study": study, "name": "s", **overrides}))
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"invalid: {field}: frequency 1e-300 Hz has a wavelength beyond a float\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("column, value, problem", [
    ("power_db", "4000", "power_db must lie within +-300 dB, got 4000.0"),
    ("power_db", "-300.5", "power_db must lie within +-300 dB, got -300.5"),
    ("power_db", "nan", "power_db must be finite, got nan"),
    ("zoa_deg", "inf", "zoa_deg must be finite, got inf"),
], ids=["loud", "quiet", "nan-power", "inf-angle"])
def test_cluster_tables_with_numbers_the_study_cannot_use_are_invalid(tmp_path, capsys, command,
                                                                      column, value, problem):
    row = {"cluster": "1", "delay_norm": "0.0", "power_db": "0.0", "aod_deg": "20.0",
           "aoa_deg": "160.0", "zod_deg": "80.0", "zoa_deg": "100.0", column: value}
    table = tmp_path / "t.csv"
    table.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"study": "densely-spaced", "name": "s", "realizations": 2,
                                "cluster_table": str(table)}))
    argv = [command, str(path)] + (["--out", str(tmp_path / "o")] if command == "run" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"invalid: cluster_table: cannot read {str(table)!r}: cluster 1: {problem}\n")
    assert not (tmp_path / "o").exists()


def test_cli_runs_an_snr_of_300_db(tmp_path, capsys):
    # SNR times the largest eigenvalue far beyond 1/eps: I + SNR G G^H rounds
    # to a singular matrix, which the QR log-det never forms
    scn = DenselySpacedScenario(name="loud", **{**SMALL_BASES[DenselySpacedScenario],
                                                "snr_db": 300.0})
    out = tmp_path / "out"
    path = save_scenario(scn, tmp_path / "loud.json")
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "loud_capacity.csv").read_text().splitlines()[1:]
    capacities = [float(row.split(",")[2]) for row in rows]
    # 300 dB is about 99.7 bits per mode
    assert len(capacities) == 2 and all(95.0 < c < 1e4 for c in capacities)


@pytest.mark.parametrize("samples", [1, 24, 26, 49, 0, -25])
def test_em_core_samples_must_be_a_positive_multiple_of_the_sweep_points(samples):
    # each of the 25 k0*r points runs samples / 25 directions, so any other
    # count would run a different number than the file asks for
    base = {"study": "em-core-validation", "name": "v"}
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict({**base, "samples": samples})
    assert exc.value.messages == [
        f"samples: must be a positive multiple of 25, the sweep points, got {samples}"]
    assert validate_scenario(EmCoreValidationScenario(samples=samples)) == exc.value.messages
    scn = scenario_from_dict({**base, "samples": 50})
    assert len(run_study(scn)["decomposition"].rows) == 25


def test_all_violations_collected():
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict({
            "study": "densely-spaced", "name": "",
            "tx_side_wavelengths": -1.0, "realizations": 0, "master_seed": -4,
        })
    msgs = "\n".join(exc.value.messages)
    assert len(exc.value.messages) >= 4
    for field in ("name", "tx_side_wavelengths", "realizations", "master_seed"):
        assert field in msgs


def test_serialize_roundtrip_and_hash(tmp_path):
    scn = scenario_from_dict({"study": "near-field", "name": "nf",
                              "frequency_hz": 15e9, "aperture_m": 1.4})
    payload = serialize_scenario(scn)
    again = scenario_from_dict(payload)
    assert again == scn
    assert scenario_hash(again) == scenario_hash(scn)
    assert len(scenario_hash(scn)) == 16

    path = save_scenario(scn, tmp_path / "nf.json")
    loaded = load_scenario(path)
    assert loaded == scn

    other = scenario_from_dict({"study": "near-field", "name": "nf",
                                "frequency_hz": 6.7e9, "aperture_m": 1.4})
    assert scenario_hash(other) != scenario_hash(scn)


@pytest.mark.parametrize("study, field, ints, floats", [
    ("near-field", "drop_distances_m", [20, 35], [20.0, 35.0]),
    ("near-field", "velocity_mps", [0, 1, 0], [0.0, 1.0, 0.0]),
    ("densely-spaced", "rx_spacing_wavelengths", [1, 0.5], [1.0, 0.5]),
    ("densely-spaced", "cluster_weights", [1] + [0] * (bundled_cdl_b().count - 1),
     [1.0] + [0.0] * (bundled_cdl_b().count - 1)),
    ("tri-pol", "percentiles", [5, 50, 95], [5.0, 50.0, 95.0]),
    ("em-core-validation", "region_cases", [[6700000000, 2]], [[6.7e9, 2.0]]),
])
def test_list_entries_spelled_as_integers_give_one_scenario_and_hash(study, field, ints, floats):
    a, b = (scenario_from_dict({"study": study, "name": "s", field: value})
            for value in (ints, floats))
    assert a == b
    assert scenario_hash(a) == scenario_hash(b)
    assert serialize_scenario(a) == serialize_scenario(b)


def test_scenarios_built_in_code_hash_as_their_files_do():
    """A scenario built with integers where its fields hold floats equals
    the one spelled with floats, and hashes as it does."""
    ints = DenselySpacedScenario(name="x", rx_spacing_wavelengths=(1, 0.5), snr_db=0)
    floats = DenselySpacedScenario(name="x", rx_spacing_wavelengths=(1.0, 0.5), snr_db=0.0)
    assert ints == floats
    assert serialize_scenario(ints) == serialize_scenario(floats)
    assert scenario_hash(ints) == scenario_hash(floats)
    assert scenario_hash(ints) == scenario_hash(scenario_from_dict(serialize_scenario(ints)))
    nested = EmCoreValidationScenario(name="x", region_cases=((6700000000, 2),))
    assert (scenario_hash(nested)
            == scenario_hash(dataclasses.replace(nested, region_cases=((6.7e9, 2.0),))))


@pytest.mark.parametrize("name, digest", [
    ("densely_spaced", "24bf3e98429abda5"),
    ("emcore_validation", "24650f442a13ddb8"),
    ("nearfield_15ghz", "f211a2727871351c"),
    ("nearfield_6p7ghz", "5196d41774ffc248"),
    ("tripol", "9c8a66f7570c8954"),
])
def test_reference_scenario_hashes_are_pinned(name, digest):
    assert scenario_hash(load_scenario(SCENARIOS / f"{name}.json")) == digest


def test_load_scenario_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    with pytest.raises(ValidationError) as exc:
        load_scenario(bad)
    assert "parse error at line" in exc.value.messages[0]
    with pytest.raises(ValidationError) as exc:
        load_scenario(tmp_path / "missing.json")
    assert "cannot read" in exc.value.messages[0]


def test_bundled_scenarios_are_valid():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    files = sorted(root.glob("*.json"))
    assert len(files) >= 5
    for f in files:
        scn = load_scenario(f)
        assert validate_scenario(scn) == []


# Run in a fresh interpreter: reports the scipy and process-pool modules
# `import emchan` loads, and per scenario file the numpy, scipy or
# process-pool modules its jobs=1 run_study loads; with the command
# "validate", those `emchan validate` loads instead.
_MODULE_PROBE = """
import json, sys
from pathlib import Path

POOL = ("multiprocessing", "concurrent.futures.process")
import emchan
report = {"import emchan": sorted(m for m in sys.modules
                                  if m.startswith(("emchan.", "scipy") + POOL))}
command, *paths = sys.argv[1:]
for path in paths:
    if command == "validate":
        from emchan.cli import main
        loaded = set(sys.modules)
        assert main(["validate", path]) == 0
    else:
        scn = emchan.load_scenario(path)
        loaded = set(sys.modules)
        emchan.run_study(scn, scale=0.02, jobs=1)
    report[Path(path).name] = sorted(m for m in set(sys.modules) - loaded
                                     if m.startswith(("emchan.", "numpy.", "scipy") + POOL))
print(json.dumps({"phases": report, "loaded": sorted(sys.modules)}))
"""


def _probe_modules(*names: str, command: str = "run") -> dict:
    src = Path(studies.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _MODULE_PROBE, command,
                          *(str(SCENARIOS / n) for n in names)],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_studies_load_no_modules_and_no_scipy():
    """`import emchan` loads none of the package's modules, and import cost
    stays out of the study phase: a study's modules load with its scenario,
    scipy never, and the process pool only for jobs > 1."""
    every = sorted(path.name for path in SCENARIOS.glob("*.json"))
    report = _probe_modules(*every)["phases"]
    assert len(report) == 1 + len(every) == 6
    assert report == {name: [] for name in report}


@pytest.mark.parametrize("files, never", [
    (("nearfield_6p7ghz.json", "nearfield_15ghz.json"),
     ("emchan.tripol", "emchan.wavenumber", "emchan.capacity", "numpy.ma", "numpy.polynomial")),
    (("densely_spaced.json", "tripol.json"), ("emchan.nearfield", "numpy.ma")),
])
def test_a_process_loads_only_the_modules_of_its_studies(files, never):
    probe = _probe_modules(*files)
    assert probe["phases"] == {name: [] for name in probe["phases"]}
    loaded = set(probe["loaded"])
    assert {"emchan.studies", "emchan.scenario"} <= loaded
    assert not loaded & set(never)


def test_validate_loads_no_channel_module():
    """`emchan validate` checks a file without binding its study: only
    `load_scenario` (and so `run`) loads the channel modules."""
    files = ("densely_spaced.json", "nearfield_6p7ghz.json", "nearfield_15ghz.json",
             "tripol.json", "emcore_validation.json")
    loaded = set(_probe_modules(*files, command="validate")["loaded"])
    assert {"emchan.cli", "emchan.scenario"} <= loaded
    assert not loaded & {"emchan.nearfield", "emchan.patterns", "emchan.tripol",
                         "emchan.capacity", "emchan.wavenumber"}


def test_result_table_roundtrip(tmp_path):
    table = ResultTable(
        columns=(Column("x", "m"), Column("value", ""), Column("label", "")),
        metadata={"study": "demo", "seed": 3},
    )
    table.append(0.1, 1.0 / 3.0, "a")
    table.append(2.5e-7, np.float64(2.0), "b")
    csv_path = write_results(table, tmp_path / "t.csv", fmt="csv")
    json_path = write_results(table, tmp_path / "t.json", fmt="json")

    got_csv = read_result_csv(csv_path)
    got_json = read_result_json(json_path)
    assert [c.header() for c in got_csv.columns] == ["x(m)", "value()", "label()"]
    for got in (got_csv, got_json):
        assert len(got.rows) == 2
        assert got.rows[0][1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert got.rows[1][0] == pytest.approx(2.5e-7, rel=1e-12)
        assert got.rows[1][2] == "b"
    assert got_json.metadata["study"] == "demo"

    payload = json.loads(json_path.read_text())
    jsonschema.validate(payload, result_schema())

    with pytest.raises(ValidationError):
        Column("bad(name)")
    with pytest.raises(ValidationError):
        write_results(table, tmp_path / "t.xml", fmt="xml")


def test_read_result_json_rejects_other_versions(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"schema_version": "9.9", "columns": [], "rows": []}))
    with pytest.raises(ValidationError):
        read_result_json(path)


def test_run_study_rejects_bad_arguments(tmp_path, capsys):
    scn = scenario_from_dict({"study": "em-core-validation", "name": "v", "samples": 25})
    with pytest.raises(ValidationError):
        run_study(scn, scale=0.0)
    with pytest.raises(ValidationError):
        run_study(scn, jobs=0)
    for kwargs, message in (({"seed": -1}, "seed: must be nonnegative, got -1"),
                            ({"scale": math.nan}, "scale: must be finite, got nan"),
                            ({"scale": math.inf}, "scale: must be finite, got inf")):
        with pytest.raises(ValidationError) as exc:
            run_study(scn, **kwargs)
        assert exc.value.messages == [message]
    tri = scenario_from_dict({"study": "tri-pol", "name": "t", "cells": 1, "ues_per_cell": 2})
    with pytest.raises(ValidationError) as exc:
        run_study(tri, scale=math.nan)
    assert exc.value.messages == ["scale: must be finite, got nan"]
    path = save_scenario(scn, tmp_path / "v.json")
    for option in (["--seed", "-1"], ["--scale", "nan"]):
        assert main(["run", str(path), "--out", str(tmp_path / "o"), *option]) == 1
        assert capsys.readouterr().err.startswith(f"invalid: {option[0][2:]}: ")
    assert not (tmp_path / "o").exists()


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    scn_path = save_scenario(
        scenario_from_dict({"study": "em-core-validation", "name": "v", "samples": 25}),
        tmp_path / "v.json",
    )
    assert main(["validate", str(scn_path)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "em-core-validation" in out
    assert "work: 25 samples\n" in out
    for name, work in (
        ("densely_spaced", "1000 realizations x 4 schemes x 3 spacings = 12000 capacities"),
        ("nearfield_6p7ghz", "2 x (8 cases x 128 x 4 + 64 profile) = 8320 channel entries"),
        ("tripol", "150 trials of 8 x 256 channels"),
    ):
        assert main(["validate", str(SCENARIOS / f"{name}.json")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"work: {work}"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"study": "em-core-validation", "name": "", "samples": -1}))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.count("invalid:") >= 2

    assert main(["list-studies"]) == 0
    out = capsys.readouterr().out
    for study in ("densely-spaced", "near-field", "tri-pol", "em-core-validation"):
        assert study in out


def test_list_studies_prints_each_scenario_types_docstring(capsys):
    assert main(["list-studies"]) == 0
    assert capsys.readouterr().out == (
        "densely-spaced       capacity versus sub-wavelength receive spacing for four array models\n"
        "near-field           planar-versus-exact wavefront correlation and phase profiles over "
        "distance\n"
        "tri-pol              grouped uplink/downlink estimation compared with an uplink-only "
        "benchmark\n"
        "em-core-validation   field-kernel decomposition residuals and field-region boundaries\n")


def test_cli_run_writes_outputs_and_is_reproducible(tmp_path, capsys, caplog, monkeypatch):
    scn_path = save_scenario(
        scenario_from_dict({"study": "em-core-validation", "name": "demo", "samples": 25}),
        tmp_path / "s.json",
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    with caplog.at_level(logging.INFO, logger="emchan"):
        assert main(["run", str(scn_path), "--out", str(out_a), "--format", "json"]) == 0
    blas_lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("BLAS: ")]
    assert len(blas_lines) == 1 and "start-up count " in blas_lines[0]
    for path, _, _ in studies._blas_libraries():
        assert f"{os.path.basename(path)} on " in blas_lines[0]
    # below INFO the run does not look for BLAS libraries at all
    caplog.set_level(logging.WARNING, logger="emchan")
    monkeypatch.setattr("emchan.cli._blas_libraries", lambda: pytest.fail("maps read at WARNING"))
    assert main(["run", str(scn_path), "--out", str(out_b), "--format", "json"]) == 0
    capsys.readouterr()
    files_a = sorted(p.name for p in out_a.iterdir())
    assert files_a == ["demo_decomposition.json", "demo_manifest.txt", "demo_regions.json"]
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_jobs_equivalence(tmp_path, capsys):
    scn_path = save_scenario(
        scenario_from_dict({"study": "tri-pol", "name": "tp", "ues_per_cell": 2,
                            "cells": 1}),
        tmp_path / "tp.json",
    )
    out_1 = tmp_path / "j1"
    out_2 = tmp_path / "j2"
    assert main(["run", str(scn_path), "--out", str(out_1), "--scale", "1",
                 "--jobs", "1"]) == 0
    assert main(["run", str(scn_path), "--out", str(out_2), "--scale", "1",
                 "--jobs", "2"]) == 0
    capsys.readouterr()
    for p1 in sorted(out_1.iterdir()):
        p2 = out_2 / p1.name
        assert p1.read_bytes() == p2.read_bytes()


def test_cli_seed_override_changes_results(tmp_path, capsys):
    scn_path = save_scenario(
        scenario_from_dict({"study": "tri-pol", "name": "tp", "ues_per_cell": 2,
                            "cells": 1}),
        tmp_path / "tp.json",
    )
    out_1 = tmp_path / "s0"
    out_2 = tmp_path / "s9"
    assert main(["run", str(scn_path), "--out", str(out_1)]) == 0
    assert main(["run", str(scn_path), "--out", str(out_2), "--seed", "9"]) == 0
    capsys.readouterr()
    a = (out_1 / "tp_summary.csv").read_text()
    b = (out_2 / "tp_summary.csv").read_text()
    assert a != b


def test_cli_run_bad_scenario_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"study": "near-field", "name": "", "aperture_m": -2.0}))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "invalid:" in capsys.readouterr().err


def test_cli_run_unwritable_output_exit_two(tmp_path, capsys):
    scn_path = save_scenario(
        scenario_from_dict({"study": "em-core-validation", "name": "v", "samples": 25}),
        tmp_path / "s.json",
    )
    target = tmp_path / "blocked"
    target.write_text("file, not a directory")
    assert main(["run", str(scn_path), "--out", str(target)]) == 2
    assert capsys.readouterr().err != ""


# small, fast bases for the tests below
SMALL_BASES = {
    DenselySpacedScenario: dict(tx_side_wavelengths=1.0, rx_side_wavelengths=0.5,
                                rx_spacing_wavelengths=(0.5,), realizations=2,
                                schemes=("ideal", "proposed"), quadrature_order=4),
    NearFieldScenario: dict(bs_elements=8, ue_elements=2, drop_distances_m=(5.0, 20.0),
                            profile_elements=4),
    TriPolScenario: dict(cells=1, ues_per_cell=2, bs_ports=8, percentiles=(10.0, 50.0)),
    EmCoreValidationScenario: dict(samples=50),
}


def test_result_table_rejects_non_finite_cells():
    table = ResultTable(columns=(Column("label"), Column("value")))
    for bad in (float("nan"), np.inf, -np.inf, np.float64("nan")):
        with pytest.raises(NumericalError):
            table.append("x", bad)
    assert table.rows == []


def test_cli_run_non_finite_capacity_exit_two_writes_nothing(tmp_path, capsys, monkeypatch):
    real = studies.capacity_equal_power

    def nan_capacity(g, power, noise_power):
        return np.full(np.shape(real(g, power, noise_power)), np.nan)

    monkeypatch.setattr(studies, "capacity_equal_power", nan_capacity)
    scn = DenselySpacedScenario(name="nan", **SMALL_BASES[DenselySpacedScenario])
    scn_path = save_scenario(scn, tmp_path / "nan.json")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(scn_path), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def _field_perturbations(tmp_path) -> dict:
    """One perturbation per settable field: {type: {field: (base overrides, value)}}."""
    table = tmp_path / "one_cluster.csv"
    table.write_text("cluster,delay_norm,power_db,aod_deg,aoa_deg,zod_deg,zoa_deg\n"
                     "1,0.0,0.0,20.0,160.0,80.0,100.0\n")
    n_clusters = bundled_cdl_b().count
    return {
        DenselySpacedScenario: {
            "name": ({}, "renamed"),
            "master_seed": ({}, 3),
            "tx_side_wavelengths": ({}, 1.5),
            "rx_side_wavelengths": ({}, 1.0),
            "tx_spacing_wavelengths": ({}, 0.25),
            "rx_spacing_wavelengths": ({}, (0.25,)),
            "realizations": ({}, 3),
            "snr_db": ({}, 10.0),
            "xpr_mu_db": ({}, 2.0),
            "xpr_sigma_db": ({}, 0.0),
            "element_efficiency": ({}, 0.5),
            "schemes": ({}, ("ideal",)),
            "tx_boresight": ({}, "+y"),
            "rx_boresight": ({}, "+y"),
            "cluster_table": ({}, str(table)),
            "cluster_weights": ({}, (1.0,) + (0.0,) * (n_clusters - 1)),
            "quadrature_order": ({}, 6),
        },
        NearFieldScenario: {
            "name": ({}, "renamed"),
            "master_seed": ({}, 3),
            "frequency_hz": ({}, 15e9),
            "aperture_m": ({}, 0.5),
            "bs_elements": ({}, 9),
            "ue_elements": ({}, 3),
            "ue_spacing_wavelengths": ({}, 2.0),
            "drop_distances_m": ({}, (7.0,)),
            "include_far_field_check": ({}, False),
            "time_s": ({"velocity_mps": (0.0, 30.0, 0.0)}, 0.01),
            "velocity_mps": ({"time_s": 0.01}, (0.0, 30.0, 0.0)),
            "profile_elements": ({}, 5),
            "profile_aperture_m": ({}, 0.7),
            "profile_distance_m": ({}, 3.0),
        },
        TriPolScenario: {
            "name": ({}, "renamed"),
            "master_seed": ({}, 3),
            "cells": ({}, 2),
            "ues_per_cell": ({}, 3),
            "bs_ports": ({}, 12),
            "ue_ports": ({}, 12),
            "z_gain_db": ({}, -3.0),
            "xpr_db": ({}, 2.0),
            "pilot_snr_db": ({}, 0.0),
            "percentiles": ({}, (10.0, 90.0)),
        },
        EmCoreValidationScenario: {
            "name": ({}, "renamed"),
            "master_seed": ({}, 3),
            "samples": ({}, 100),
            "k0r_min": ({}, 0.5),
            "k0r_max": ({}, 1.0e3),
            "region_cases": ({}, ((28e9, 0.3),)),
        },
    }


def _outcome(scn) -> tuple[dict, dict]:
    tables = run_study(scn)
    rows = {key: t.rows for key, t in tables.items()}
    meta = {key: {k: v for k, v in t.metadata.items() if k != "scenario_hash"}
            for key, t in tables.items()}
    return rows, meta


def _rows_differ(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return True
    for key in a:
        if len(a[key]) != len(b[key]):
            return True
        for row_a, row_b in zip(a[key], b[key]):
            for x, y in zip(row_a, row_b):
                numeric = all(isinstance(v, (int, float)) for v in (x, y))
                if (not math.isclose(x, y, rel_tol=1e-9, abs_tol=0.0)) if numeric else x != y:
                    return True
    return False


def test_every_scenario_field_changes_the_result(tmp_path):
    outcomes = {}  # bases repeat across fields; run each once

    def outcome(scn):
        assert validate_scenario(scn) == []
        if scn not in outcomes:
            outcomes[scn] = _outcome(scn)
        return outcomes[scn]

    for cls, perturbations in _field_perturbations(tmp_path).items():
        assert set(perturbations) == {f.name for f in dataclasses.fields(cls)}, cls.__name__
        for name, (overrides, value) in perturbations.items():
            base = cls(**{**SMALL_BASES[cls], **overrides})
            rows_a, meta_a = outcome(base)
            rows_b, meta_b = outcome(dataclasses.replace(base, **{name: value}))
            assert _rows_differ(rows_a, rows_b) or meta_a != meta_b, f"{cls.__name__}.{name}"
