"""Command-line front end: validate scenarios, run studies, write tables.

Exit codes: 0 success, 1 scenario validation failure, 2 runtime failure.
Set EMCHAN_LOG=DEBUG|INFO|WARNING|ERROR to control log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import _blas_start_pinned
from .errors import EmchanError, ValidationError
from .results import write_results
from . import scenario as sc
from .scenario import load_scenario, scenario_hash
from .studies import _blas_libraries, manifest_text, run_study

log = logging.getLogger("emchan")

def _configure_logging():
    level_name = os.environ.get("EMCHAN_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emchan", description="run reproducible channel-model studies from scenario files"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a study and write its result tables")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--scale", type=float, default=1.0,
                     help="scale factor on Monte Carlo counts (default 1.0)")
    run.add_argument("--out", default=".", help="output directory (default: current)")
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="result table format (default csv)")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes for realizations (default 1)")

    val = sub.add_parser("validate", help="validate a scenario file and report every problem")
    val.add_argument("scenario", help="path to a scenario JSON file")

    sub.add_parser("list-studies", help="list the available study kinds")
    return parser


def _work_estimate(scn) -> str:
    """The work of a run at scale 1, from the scenario alone."""
    if scn.study == sc.DENSELY_SPACED:
        schemes, spacings = len(scn.schemes), len(scn.rx_spacing_wavelengths)
        return (f"{scn.realizations} realizations x {schemes} schemes x {spacings} spacings"
                f" = {scn.realizations * schemes * spacings} capacities")
    if scn.study == sc.NEAR_FIELD:
        cases = len(scn.drop_distances_m) + int(scn.include_far_field_check)
        entries = 2 * (cases * scn.bs_elements * scn.ue_elements + scn.profile_elements)
        return (f"2 x ({cases} cases x {scn.bs_elements} x {scn.ue_elements} + "
                f"{scn.profile_elements} profile) = {entries} channel entries")
    if scn.study == sc.TRI_POL:
        return f"{scn.trials()} trials of {scn.ue_ports} x {scn.bs_ports} channels"
    return f"{scn.samples} samples"


def _cmd_validate(path: str) -> int:
    scn = sc._read_scenario(path)  # binds no study: validation runs none
    print(f"valid: {scn.study} scenario {scn.name!r} (hash {scenario_hash(scn)})")
    print(f"work: {_work_estimate(scn)}")
    return 0


def _cmd_list_studies() -> int:
    for study, cls in sc._SCENARIO_TYPES.items():
        print(f"{study:20s} {cls.__doc__}")
    return 0


def _log_blas() -> None:
    """One INFO line: each loaded BLAS library with its thread count, and
    whether emchan set the count numpy started with."""
    libraries = []
    for path, pairs, _ in _blas_libraries():
        threads = ", ".join(str(get_threads()) for get_threads, _ in pairs) or "unknown"
        libraries.append(f"{os.path.basename(path)} on {threads} thread(s)")
    start = ("set to 1 by emchan" if _blas_start_pinned
             else "left to numpy (a thread variable is set or numpy was imported first)")
    log.info("BLAS: %s; start-up count %s", "; ".join(libraries) or "no library found", start)


def _cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    if log.isEnabledFor(logging.INFO):  # only then read /proc/self/maps
        _log_blas()
    seed = scn.master_seed if args.seed is None else args.seed
    try:
        tables = run_study(scn, seed=seed, scale=args.scale, jobs=args.jobs)
    except ValidationError:
        raise
    except EmchanError as exc:
        print(f"error: {scn.study} run failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {scn.study} run failed: out of memory", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for key, table in tables.items():
            path = out_dir / f"{scn.name}_{key}.{args.format}"
            write_results(table, path, fmt=args.format)
            log.info("wrote %s (%d rows)", path, len(table.rows))
            print(path)
        manifest = out_dir / f"{scn.name}_manifest.txt"
        manifest.write_text(manifest_text(scn, tables, args.format, seed, args.scale))
        print(manifest)
    except OSError as exc:
        print(f"error: cannot write results under {out_dir}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args.scenario)
        return _cmd_list_studies()
    except ValidationError as exc:
        for message in exc.messages:
            print(f"invalid: {message}", file=sys.stderr)
        return 1
    except EmchanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
