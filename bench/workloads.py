"""Workload definitions shared by the harness and the per-run child process.

This module imports nothing heavy, so the child can read it before it
times `import emchan`. Every workload runs its studies serially
(`jobs=1`). Why each workload exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# Reference tables exist for seeds 0 .. REFERENCE_SEEDS-1; any other
# benchmark seed is reduced modulo this count before it reaches the program.
REFERENCE_SEEDS = 32

# Relative and absolute tolerance of the correctness gate on numeric cells.
RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[tuple[str, float], ...]  # (file under scenarios/, --scale) in run order
    work_unit: str  # what work_per_s counts
    cdl_rays: int = 0  # rays of the CDL-B near-field response; 0 = none


WORKLOADS = {
    w.name: w
    for w in (
        Workload("capacity-mc", (("densely_spaced.json", 0.2), ("tripol.json", 1.0)),
                 work_unit="draws"),
        Workload("nearfield-cdl",
                 (("nearfield_6p7ghz.json", 1.0), ("nearfield_15ghz.json", 1.0)),
                 work_unit="entries", cdl_rays=24),
    )
}


def program_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS
