"""One BLAS thread per process.

Every matrix in this package is at most 7x7, where OpenBLAS worker threads
never help: they spin beside the main thread, which doubles the CPU time of
a serial run, and a process pool forked from it oversubscribes the cores.
Importing :mod:`pointtomo` therefore caps the OpenBLAS copies bundled with
the numpy and scipy wheels to one thread through their exported setters.
Where a library or a symbol is missing (another BLAS, another wheel layout)
the cap does nothing, and :func:`blas_threads` reports what it found.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os

# package -> suffix of its bundled OpenBLAS's thread symbols
# (scipy_openblas_{get,set}_num_threads<suffix>)
_SUFFIXES = {"numpy": "64_", "scipy": ""}


def _thread_functions():
    """Yield (package, getter, setter) for each bundled OpenBLAS found."""
    for package, suffix in _SUFFIXES.items():
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), package + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
            try:
                lib = ctypes.CDLL(path)
                getter = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                setter = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            yield package, getter, setter


def limit_blas_threads() -> None:
    """Set every bundled OpenBLAS found to one thread."""
    for _, _, setter in _thread_functions():
        setter(1)


def blas_threads() -> dict:
    """Thread count of each bundled OpenBLAS found, keyed by its package."""
    return {package: getter() for package, getter, _ in _thread_functions()}
