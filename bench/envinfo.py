"""Record, never set, the environment a benchmark run executes in."""

from __future__ import annotations

import ctypes
import os
import platform
import re

# environment variables that set BLAS or OpenMP thread counts
_THREAD_VAR = re.compile(r"^(OMP_|OPENBLAS_|GOTO_|MKL_|BLIS_|VECLIB_|NUMEXPR_|SCIPY_OPENBLAS)")


def _loaded_blas_libraries() -> list[str]:
    """BLAS shared libraries (lib*blas*) mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/")
                  and re.match(r"lib.*blas", os.path.basename(p).lower()))


def _openblas_threads(path: str):
    """Thread count from the library's `*get_num_threads*` symbol, if any."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return {"symbol": symbol, "threads": int(fn())}
    return None


def environment() -> dict:
    import numpy as np

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    libraries = {os.path.basename(p): _openblas_threads(p) for p in _loaded_blas_libraries()}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_libraries": libraries,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if _THREAD_VAR.match(k)},
    }


def blas_threads(env: dict) -> int:
    """Largest thread count among the loaded BLAS libraries (0 if unknown)."""
    counts = [lib["threads"] for lib in env.get("blas_libraries", {}).values() if lib]
    return max(counts, default=0)
