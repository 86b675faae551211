"""Description of the machine a result was measured on."""

from __future__ import annotations

import os
import platform

import numpy as np

# glibc sysconf names; Python's os.sysconf_names does not list them
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def _sysconf(code: int):
    try:
        value = os.sysconf(code)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def describe() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "l2_bytes": _sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _sysconf(_SC_LEVEL3_CACHE_SIZE),
        "cpu": platform.processor() or platform.machine(),
    }
