"""emchan benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each timed run is a fresh Python process
(bench/child.py) that imports emchan, loads the scenario, runs the study and
writes every table, the way `emchan run` does; its tables are checked
against bench/reference before its timings count. The environment is
recorded, never set.

--trace 0 repeats the workload for S seconds and prints the end-to-end
metrics (medians over the timed runs). --trace 1 alternates untraced and
traced serial runs for S seconds and prints the per-layer metrics. A run
that would end past the S seconds is not started, so a benchmark run takes
S seconds plus a warm-up. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from envinfo import blas_threads
from gate import check_tables, reference_dirs
from spans import percentile_us
from workloads import WORKLOADS, program_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out"

MIN_TIMED_RUNS = 3
RUN_BUDGET_S = 170.0  # the whole benchmark process must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "units/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# traced layer -> fields reported for it
TRACED_FIELDS = {
    "scenario.load_scenario": ("self_s",),
    "capacity.capacity_equal_power": ("calls", "self_s", "p50_us", "p99_us"),
    "capacity.capacity_waterfilling": ("calls", "self_s"),
    "numpy.linalg.svd": ("calls", "self_s", "gflop_computed"),
    "wavenumber.assemble_channel": ("calls", "self_s", "p50_us", "p99_us"),
    "wavenumber.cell_power_fractions": ("calls", "self_s"),
    "wavenumber.sample_wavenumber_channel": ("self_s",),
    "wavenumber.apply_polarization": ("self_s",),
    "wavenumber.fourier_harmonics": ("self_s",),
    "tripol.simulate_tripol_channel": ("self_s",),
    "tripol.group_ports": ("self_s",),
    "tripol.estimate_joint": ("self_s",),
    "tripol.benchmark_uplink_only": ("self_s",),
    "tripol.scalar_aligned": ("self_s",),
    "nearfield.channel_impulse_response": ("self_s",),
    "nearfield.planar_wave_channel": ("self_s",),
    "nearfield.locate_bounce_scatterers": ("calls", "self_s"),
    "nearfield.los_coefficient": ("calls", "self_s"),
    "nearfield.nlos_coefficient": ("calls", "self_s"),
    "cdl.cluster_rays": ("self_s",),
    "results.write_results": ("calls", "self_s", "bytes"),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us",
               "gflop_computed": "GFLOP", "bytes": "B"}
PER_LAYER = {
    "setup.import_s": "s",
    **{f"{layer}.{f}": FIELD_UNITS[f] for layer, fs in TRACED_FIELDS.items() for f in fs},
    "nearfield.entries": "count",
    "studies.self_s": "s",
    "studies.run_study_s": "s",
    "studies.realizations": "count",
    "trace.overhead_frac": "fraction",
    "run.cpu_per_wall": "ratio",
    "blas.threads": "count",
}


@dataclass
class Run:
    """One child process: its timings, resource use and gate verdict."""

    out: Path
    problems: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    t_spawn: float = 0.0
    t_exit: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def duration_s(self) -> float:
        """From spawn until the process had exited."""
        return self.t_exit - self.t_spawn

    @property
    def wall_s(self) -> float:
        return self.report["t_written"] - self.t_spawn

    @property
    def setup_s(self) -> float:
        return self.report["t_loaded"] - self.t_spawn

    @property
    def study_s(self) -> float:
        return self.report["t_studied"] - self.report["t_loaded"]

    @property
    def work_per_s(self) -> float:
        return self.report["work"] / self.study_s


class Harness:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline  # monotonic time by which every child must be gone
        self.refs = reference_dirs(workload, program_seed(seed))
        self.scratch = SCRATCH / f"{workload}-{os.getpid()}"
        self.runs: list[Run] = []

    def warm_up(self):
        """Import emchan once in a fresh process, untimed: it compiles the
        bytecode and fills the file cache, as a user's earlier runs would."""
        subprocess.run([sys.executable, str(HERE / "child.py"), "--workload", self.wl.name,
                        "--seed", str(self.seed), "--out", str(self.scratch / "warm-up"),
                        "--import-only"], cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=max(1.0, self.deadline - time.monotonic()))

    def spawn(self, traced: bool = False) -> Run:
        run = Run(out=self.scratch / f"run-{len(self.runs)}")
        self.runs.append(run)
        run.out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.wl.name,
               "--seed", str(self.seed), "--out", str(run.out)]
        if traced:
            cmd.append("--trace")
        with open(run.out / "log.txt", "w") as log:
            run.t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                run.t_exit = time.monotonic()
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
        run.cpu_s = usage.ru_utime + usage.ru_stime
        run.peak_rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            tail = (run.out / "log.txt").read_text().strip().splitlines()[-3:]
            run.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
            return run
        run.report = json.loads((run.out / "report.json").read_text())
        run.problems += check_tables(run.out / "tables", self.refs)
        return run

    def timed(self, seconds: float) -> list[Run]:
        """Repeat the workload at least MIN_TIMED_RUNS times, and then while
        a run of median length still ends within `seconds`."""
        end = time.monotonic() + seconds
        timed = []
        while (len(timed) < MIN_TIMED_RUNS
               or time.monotonic() + _median([r.duration_s for r in timed]) <= end):
            timed.append(self.spawn())
        return timed

    def traced(self, seconds: float) -> tuple[list[Run], list[Run]]:
        """Alternate untraced and traced runs, at least one pair, and then
        while a pair of median length still ends within `seconds`."""
        end = time.monotonic() + seconds
        plain, traced = [], []
        while not traced or time.monotonic() + _median(
                [p.duration_s + t.duration_s for p, t in zip(plain, traced)]) <= end:
            plain.append(self.spawn())
            traced.append(self.spawn(traced=True))
        return plain, traced


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end_samples(runs: list[Run]) -> dict:
    """Each end-to-end metric of every run that passed the correctness gate.
    Failed runs count in `failed`; their timings are not the program's."""
    passed = [r for r in runs if r.ok]
    if not passed:
        raise RuntimeError("no run passed the correctness gate")
    return {name: [getattr(r, name) for r in passed] for name in END_TO_END}


def layer_values(run: Run) -> dict:
    """Per-layer metrics of one traced run."""
    layers, counters = run.report["layers"], run.report["counters"]
    values = {"setup.import_s": run.report["t_imported"] - run.report["t_import"]}
    for layer, fields in TRACED_FIELDS.items():
        stats = layers.get(layer, {"calls": 0, "self_s": 0.0, "durations": []})
        for f in fields:
            if f in ("calls", "self_s"):
                value = stats[f]
            elif f in ("p50_us", "p99_us"):
                value = percentile_us(stats["durations"], int(f[1:3]))
            else:
                value = counters.get(f"{layer}.{f}", 0)
            values[f"{layer}.{f}"] = value
    values["nearfield.entries"] = sum(counters.get(f"nearfield.{n}.entries", 0)
                                      for n in ("channel_impulse_response",
                                                "planar_wave_channel"))
    study = layers["studies.run_study"]
    values["studies.self_s"] = study["self_s"]
    values["studies.run_study_s"] = study["total_s"]
    values["studies.realizations"] = run.report["realizations"]
    return values


def per_layer_metrics(plain: list[Run], traced: list[Run]) -> dict:
    """Medians over the runs that passed the correctness gate."""
    plain, traced = [r for r in plain if r.ok], [r for r in traced if r.ok]
    if not plain or not traced:
        raise RuntimeError("no untraced or no traced run passed the correctness gate")
    runs = [layer_values(r) for r in traced]
    values = {name: _median([v[name] for v in runs]) for name in runs[0]}
    base = _median([r.study_s for r in plain])
    values["trace.overhead_frac"] = (_median([r.study_s for r in traced]) - base) / base
    values["run.cpu_per_wall"] = _median([r.cpu_s / r.wall_s for r in plain])
    values["blas.threads"] = blas_threads(plain[0].report["env"])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def _print_summary(h: Harness, metrics: dict, runs_used: int, traced: list[Run] = (),
                   samples: dict | None = None):
    wl = h.wl
    failed = [r for r in h.runs if not r.ok]
    scales = ", ".join(f"{name} at scale {scale}" for name, scale in wl.scenarios)
    print(f"workload {wl.name}: seed {h.seed} (program seed {program_seed(h.seed)}), "
          f"{scales}, jobs 1, medians over {runs_used} passing runs")
    for name, m in metrics.items():
        unit = f"{wl.work_unit}/s" if name == "work_per_s" else m["unit"]
        spread = ""
        if samples:
            q = statistics.quantiles(samples[name], n=4) if runs_used > 1 else [m["value"]] * 3
            spread = f"  (quartiles {q[0]:.6g} .. {q[2]:.6g}, min {min(samples[name]):.6g})"
        print(f"  {name:44s} {m['value']:.6g} {unit}{spread}")
    print(f"  {'error_rate':44s} {len(failed) / len(h.runs):.6g} fraction "
          f"({len(failed)} of {len(h.runs)} runs failed)")
    for run in failed:
        print(f"  failed run {run.out.name}: {'; '.join(run.problems[:5])}")
    for run in traced[:1]:
        for root, tree in run.report.get("trees", {}).items():
            print(f"  span tree {root}: {tree['total_s']:.6f} s, "
                  f"self times add up to {tree['self_sum_s']:.6f} s")
    env = next((r.report["env"] for r in h.runs if r.report), None)
    print("env " + json.dumps(env, sort_keys=True))


def _checkout_problems(workload: str) -> list[str]:
    missing = [p for p in ["src/emchan/__init__.py"]
               + [f"scenarios/{s}" for s, _ in WORKLOADS[workload].scenarios]
               if not (ROOT / p).is_file()]
    return [f"missing {p} (run from the root of an emchan checkout)" for p in missing]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="emchan benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problems = _checkout_problems(args.workload)
    h = Harness(args.workload, args.seed, time.monotonic() + RUN_BUDGET_S)
    if not h.refs:
        problems.append(f"no reference tables for {args.workload} seed {program_seed(args.seed)}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2

    try:
        h.warm_up()
        if args.trace:
            plain, traced = h.traced(args.seconds)
            metrics = per_layer_metrics(plain, traced)
            _print_summary(h, metrics, sum(r.ok for r in traced), traced)
        else:
            samples = end_to_end_samples(h.timed(args.seconds))
            metrics = {name: {"value": _median(samples[name]), "unit": unit}
                       for name, unit in END_TO_END.items()}
            _print_summary(h, metrics, len(samples["wall_s"]), samples=samples)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        for run in h.runs:
            print(f"run {run.out.name}: {'; '.join(run.problems) or 'ok'}", file=sys.stderr)
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(h.scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no other benchmark is using it
        except OSError:
            pass

    failed = sum(1 for r in h.runs if not r.ok)
    print(json.dumps({"correct": failed == 0, "attempted": len(h.runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
