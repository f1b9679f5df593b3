"""The machine a result was measured on, printed with every result."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

# symbol names across OpenBLAS builds: numpy/scipy wheels, then system builds
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "openblas_get_config64_",
                   "openblas_get_config")


def _loaded_blas() -> str | None:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    libs = sorted(p for p in paths if ".so" in p)
    return libs[0] if libs else None


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def describe(seed: int) -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "unknown", "blas_threads": None, "seed": seed}
    path = _loaded_blas()
    if path is not None:
        info["blas"] = os.path.basename(path)
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            return info
        config = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        if config:
            info["blas"] = config.decode().strip()
        info["blas_threads"] = _call(lib, _THREAD_SYMBOLS, ctypes.c_int)
    return info
