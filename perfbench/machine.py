"""Facts about the machine and libraries, recorded beside every result."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_build() -> dict:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {}


def blas_threads_in_use() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def facts(thread_vars, blas_threads_requested: int) -> dict:
    blas = _blas_build()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "thread_env": {var: os.environ.get(var) for var in thread_vars},
        "blas_threads_requested": blas_threads_requested,
        "blas_threads_in_use": blas_threads_in_use(),
        "platform": platform.platform(),
    }
