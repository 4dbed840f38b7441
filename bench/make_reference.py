"""Regenerate the correctness gate's reference tables.

    python3 bench/make_reference.py

Runs every workload's child once per reference seed, one after another,
and stores its CSV tables under bench/reference/<workload>/seed-<n>/.
Tables that come out byte-identical for every seed are stored once, in
all-seeds/. Run it
only at a commit whose numerics are trusted: the gate compares every
later run with these files.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from gate import REFERENCE
from workloads import REFERENCE_SEEDS, WORKLOADS

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, scratch: Path) -> Path:
    out = scratch / f"{workload}-{seed}"
    subprocess.run([sys.executable, str(HERE / "child.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out)],
                   cwd=HERE.parent, check=True)
    return out / "tables"


def main() -> int:
    names = sorted(WORKLOADS)
    scratch_root = HERE.parent / ".bench_out"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as tmp:
        scratch = Path(tmp)
        tables = {(n, s): _run(n, s, scratch) for n in names for s in range(REFERENCE_SEEDS)}
        for name in names:
            base = REFERENCE / name
            shutil.rmtree(base, ignore_errors=True)
            per_seed = [tables[(name, s)] for s in range(REFERENCE_SEEDS)]
            for csv in sorted(per_seed[0].glob("*.csv")):
                contents = {(d / csv.name).read_bytes() for d in per_seed}
                if len(contents) == 1:
                    (base / "all-seeds").mkdir(parents=True, exist_ok=True)
                    shutil.copy(csv, base / "all-seeds" / csv.name)
                    continue
                for s, d in enumerate(per_seed):
                    (base / f"seed-{s}").mkdir(parents=True, exist_ok=True)
                    shutil.copy(d / csv.name, base / f"seed-{s}" / csv.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
