"""Facts about the machine and the numeric stack, recorded with every result.

Everything here only reads: /proc, /sys and the loaded BLAS library.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l2_size() -> str:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "2":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def _blas_library() -> ctypes.CDLL | None:
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line})
    for path in paths:
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def facts(blas_env: dict[str, str]) -> dict:
    """Machine facts; `blas_env` is the environment set before numpy loaded."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    lib = _blas_library()
    threads = _blas_call(
        lib, ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
              "openblas_get_num_threads"), ctypes.c_int)
    config = _blas_call(
        lib, ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"),
        ctypes.c_char_p)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": _l2_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": config.decode() if config else "unknown",
        "blas_threads": threads if threads is not None else "unknown",
        "blas_env": {k: os.environ.get(k) for k in blas_env},
    }
