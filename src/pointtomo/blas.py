"""One BLAS thread per process, and the cores the process may use.

Every matrix in this package is at most 7x7, where OpenBLAS worker threads
never help: they spin beside the main thread, which doubles the CPU time of
a serial run, and a process pool forked from it oversubscribes the cores.
Importing :mod:`pointtomo` therefore caps the OpenBLAS bundled with the
numpy wheel to one thread through its exported setter. The cap is global to
the process, so each thread of the Haar baseline's pool
(:func:`pointtomo.povm.haar_mean_c_norm`) calls the one-thread OpenBLAS too,
and the pool's threads do not spin on each other. Where the library or
a symbol is missing (another BLAS, another wheel layout) the cap does
nothing, and :func:`blas_threads` reports what it found. Other libraries'
BLAS copies are left alone: the package calls only numpy's.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

# the numpy wheel bundles OpenBLAS under the name it is built as,
# numpy.libs/libscipy_openblas64_*.so, whose thread symbols end in 64_
_LIBS = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")


def _thread_functions():
    """Yield (getter, setter) for each OpenBLAS bundled with numpy."""
    for path in sorted(glob.glob(os.path.join(_LIBS, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            getter = lib.scipy_openblas_get_num_threads64_
            setter = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        yield getter, setter


def available_cores() -> int:
    """The cores this process may run on: its affinity mask where the platform
    has one, else ``os.cpu_count()``, and at least 1."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:                   # no affinity call on this platform
        return os.cpu_count() or 1


def limit_blas_threads() -> None:
    """Set every OpenBLAS bundled with numpy to one thread."""
    for _, setter in _thread_functions():
        setter(1)


def blas_threads() -> dict:
    """Thread count of numpy's bundled OpenBLAS, keyed by ``numpy``; empty when
    none is found."""
    return {"numpy": getter() for getter, _ in _thread_functions()}
