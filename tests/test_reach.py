"""Every function of the package runs in a command-line session, or has a
listed reason not to.

One fresh interpreter calls ``emchan.cli.main`` in process, under
``sys.setprofile``: ``validate`` and ``run --scale 0.05`` on each file in
``scenarios/``, ``list-studies``, one invalid scenario file, one run with
``EMCHAN_LOG=info`` and one densely-spaced run with its own ``cluster_table``
and ``cluster_weights``. A fresh interpreter, because caches and lazily bound
names that earlier tests filled would otherwise hide calls.

Every function, method and property defined in ``src/emchan`` whose code
never ran must be in ``UNREACHED`` with one of the reasons ``REASON`` allows,
and every entry there must name a defined function that did not run. A new
function that no session reaches needs a reason here, or it has to go.
"""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import emchan

ROOT = Path(__file__).resolve().parents[1]

# why a function no session reaches stays in the package
REASON = re.compile(r"criterion \d+|roadmap item \d+|benchmark|golden|user API|worker only")

UNREACHED = {
    "emchan.__dir__": "user API",
    # the port path: criterion 2 imports assemble_em_channel, delta_aperture
    # and delta_ports; item 2's modes table will run the Green operator's blocks
    "emcore.Aperture.__post_init__": "criterion 2",
    "emcore.Aperture.count": "criterion 2",
    "emcore.PortFunction.__post_init__": "criterion 2",
    "emcore.WaveContext.angular_frequency": "criterion 2",
    "emcore._green_blocks": "criterion 2",
    "emcore.assemble_em_channel": "criterion 2",
    "emcore.delta_aperture": "criterion 2",
    "emcore.delta_ports": "criterion 2",
    "emcore.Aperture.extent": "roadmap item 2",
    "emcore._max_pairwise_distance": "roadmap item 2",
    "emcore.field_region": "criterion 3",
    "wavenumber.hannan_efficiency": "criterion 4",
    "wavenumber.vmf_pdf": "criterion 5",
    "nearfield.attenuation_factor": "criterion 8",
    "nearfield.visibility_probability": "criterion 8",
    # the NLOS ray path: bench/child.py's cdl_response runs it, and its
    # install_tracing patches the per-entry functions
    "nearfield.BounceGeometry.__init__": "benchmark",
    "nearfield.BounceGeometry.__setattr__": "user API",
    "nearfield.BounceGeometry.rx_phi": "user API",
    "nearfield.BounceGeometry.rx_theta": "user API",
    "nearfield.BounceGeometry.tx_phi": "user API",
    "nearfield.BounceGeometry.tx_theta": "user API",
    "nearfield.ClusterRay.__post_init__": "benchmark",
    "nearfield.RaySet.__getitem__": "benchmark",
    "nearfield.RaySet.__init__": "benchmark",
    "nearfield.RaySet.__len__": "benchmark",
    "nearfield.RaySet.__setattr__": "user API",
    "nearfield.RaySet.stack": "benchmark",
    "nearfield.VisibilityModel.__post_init__": "benchmark",
    "nearfield._assemble_taps": "benchmark",
    "nearfield._cluster_attenuation": "benchmark",
    # no reference scenario moves its arrays: the Doppler factor of a
    # scenario's velocity_mps and time_s applies only where they do
    "nearfield._doppler": "user API",
    "nearfield._element_attenuation": "benchmark",
    "nearfield._k_weights": "benchmark",
    "nearfield._locate_bounces": "benchmark",
    "nearfield._logistic": "benchmark",
    "nearfield._nlos_block": "benchmark",
    "nearfield._ray_factors": "benchmark",
    "nearfield._seeded_visibility": "benchmark",
    "nearfield._take": "benchmark",
    "nearfield.channel_impulse_response": "benchmark",
    "nearfield.cluster_rays": "benchmark",
    "nearfield.locate_bounce_scatterers": "benchmark",
    "nearfield.los_coefficient": "benchmark",
    "nearfield.narrowband_channel": "benchmark",
    "nearfield.nlos_coefficient": "benchmark",
    "nearfield.planar_wave_channel": "benchmark",
    # measured and per-element patterns for the geometric tri-pol channel
    "patterns.PatternSet.per_element": "roadmap item 6",
    "patterns.TablePattern.__init__": "roadmap item 6",
    "patterns._bracket": "roadmap item 6",
    "patterns.load_pattern_table": "roadmap item 6",
    "patterns.patch": "roadmap item 6",
    "results.ResultTable.column": "user API",
    "results._parse_cell": "user API",
    "results.read_result_csv": "user API",
    "results.read_result_json": "user API",
    "results.result_schema": "user API",
    "scenario.save_scenario": "user API",
    "studies._pin_blas_threads": "worker only",
}


def _session(out: Path) -> None:
    """The command-line session whose calls count as reached."""
    import contextlib
    import io
    import logging

    from emchan.cli import main

    def cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(list(argv))

    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    # logging is configured by the first call, so the INFO run comes first
    os.environ["EMCHAN_LOG"] = "info"
    assert cli("run", str(scenarios[0]), "--scale", "0.05", "--out", str(out / "info")) == 0
    del os.environ["EMCHAN_LOG"]
    logging.getLogger().setLevel(logging.WARNING)
    for path in scenarios:
        assert cli("validate", str(path)) == 0
        assert cli("run", str(path), "--scale", "0.05", "--out", str(out / path.stem)) == 0
    assert cli("list-studies") == 0
    invalid = out / "invalid.json"
    invalid.write_text(json.dumps({"study": "tri-pol", "name": "", "ue_ports": 9}))
    assert cli("validate", str(invalid)) == 1
    table = out / "two_clusters.csv"
    table.write_text("cluster,delay_norm,power_db,aod_deg,aoa_deg,zod_deg,zoa_deg\n"
                     "1,0.0,0.0,20.0,160.0,80.0,100.0\n"
                     "2,0.5,-3.0,-40.0,120.0,95.0,85.0\n")
    custom = out / "custom.json"
    custom.write_text(json.dumps({"study": "densely-spaced", "name": "custom",
                                  "realizations": 2, "cluster_table": str(table),
                                  "cluster_weights": [0.75, 0.25]}))
    assert cli("run", str(custom), "--out", str(out / "custom")) == 0


def _code_key(code) -> str:
    return f"{code.co_filename}:{code.co_firstlineno}:{code.co_name}"


def _defined_functions(modules) -> dict:
    """Qualified name -> code key of every function, method and property
    defined in the package's source files."""
    found = {}

    def add(module, qualname, func):
        code = getattr(inspect.unwrap(func), "__code__", None)
        # dataclass-generated methods are compiled from strings, not from the module
        if code is not None and code.co_filename == module.__file__:
            found[f"{module.__name__.removeprefix('emchan.')}.{qualname}"] = _code_key(code)

    for module in [emchan, *modules]:
        for name, obj in vars(module).items():
            if not inspect.isclass(obj):
                if callable(obj):
                    add(module, name, obj)
                continue
            if obj.__module__ != module.__name__:
                continue
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    for func in (member.fget, member.fset, member.fdel):
                        if func is not None:
                            add(module, f"{name}.{attr}", func)
                elif isinstance(member, (staticmethod, classmethod)):
                    add(module, f"{name}.{attr}", member.__func__)
                elif inspect.isfunction(member):
                    add(module, f"{name}.{attr}", member)
    return found


def test_every_unreached_function_has_a_reason(package_modules, tmp_path):
    out = tmp_path / "reach.json"
    env = {**os.environ, "PYTHONPATH": str(Path(emchan.__file__).parents[1])}
    env.pop("EMCHAN_LOG", None)
    subprocess.run([sys.executable, __file__, str(out)], env=env, check=True, timeout=120)
    reached = set(json.loads(out.read_text()))
    defined = _defined_functions(package_modules)
    unreached = {name for name, key in defined.items() if key not in reached}
    assert sorted(unreached - UNREACHED.keys()) == [], "unreached and unlisted"
    assert sorted(UNREACHED.keys() - defined.keys()) == [], "listed but not defined"
    assert sorted(UNREACHED.keys() & (defined.keys() - unreached)) == [], "listed but reached"


def test_every_reason_is_a_known_kind():
    assert [(name, why) for name, why in UNREACHED.items() if not REASON.fullmatch(why)] == []


if __name__ == "__main__":
    out_file = Path(sys.argv[1])
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(record)
    try:
        _session(out_file.parent)
    finally:
        sys.setprofile(None)
    out_file.write_text(json.dumps(sorted({_code_key(code) for code in reached})))
