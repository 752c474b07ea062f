"""The OpenBLAS that numpy loaded, reached through ctypes.

Each realization worker propagates a sector of `ONE_THREAD_BELOW` states or
more through two of the library's LAPACKE routines, in place on the
caller's buffer: the tridiagonal reduction `dsytrd` and the
divide-and-conquer `dstedc`; `evolve.propagate` applies the reduction's
reflectors itself, as GEMMs. Smaller sectors go through numpy's `eigh`.
ctypes releases the GIL for each call, so workers diagonalize in parallel.
OpenBLAS starts its own threads inside every call, so a worker pool on top
of them oversubscribes the cores; `one_blas_thread` pins OpenBLAS to one
thread, and `experiment.run_experiment` decides once per run whether to.
The thread count changes the bits LAPACK returns for large enough
matrices, so a run records the count it computed under.
"""
from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# symbol prefix and suffix, in the order they are tried; the library's
# LAPACKE symbols take the prefix without "openblas" and the same suffix
_SYMBOLS = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", ""))
_COL_MAJOR = 102  # LAPACK_COL_MAJOR

# A serial run whose matrices all have smaller dimension runs on one OpenBLAS
# thread. On a 2-core Xeon (OpenBLAS 0.3.31, default 2 threads) a second
# thread cut eigh's wall time by at most a sixth below it (D=330: 9.2 vs
# 7.7 ms), for twice the CPU time, by 9-22% at it and by 20-44% from D=495
# up (D=924: 119 vs 71 ms). It is also where `evolve.propagate` leaves the
# eigenvector path for the tridiagonal one. Its eigendecomposition and
# propagation of one basis state over 61 times, median ms of 31 alternating
# pairs, eigenvector path -> tridiagonal path (reflectors as compact-WY GEMMs):
#   D          210       252       330        462        495        792       924
#   1 thread  6.1->6.7  9.3->9.4  16.6->14.9  34.9->27.0  29.5->23.0  98->73  161->114
#   2 threads 5.3->5.5  7.4->6.9  13.4->11.7  27.5->21.3  31.7->25.1  86->67  127->89
# The tridiagonal path wins from D=330 and by 20-30% from this dimension up,
# but no workload has a sector below it and above 252, and a crossover here
# keeps every smaller sector's bits.
ONE_THREAD_BELOW = 462


@dataclass(frozen=True)
class OpenBLAS:
    library: str
    config: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    # Each LAPACKE routine returns LAPACK's info and takes C-contiguous
    # float64 arrays. A C buffer read column-major is the transpose, so a
    # symmetric matrix's own, and the columns LAPACK writes there are rows.
    # (a, d, e, tau): reduces the symmetric `a` to the tridiagonal
    # T = Q^T a Q, its diagonal into `d` and its off-diagonal into `e`, and
    # writes Q's Householder reflectors over `a`, their scales into `tau`
    sytrd: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int]
    # (d, e, z): the ascending eigenvalues of T over `d`, `e` destroyed, and
    # its eigenvectors into the D x D `z`, one per row
    stedc: Callable[[np.ndarray, np.ndarray, np.ndarray], int]


def _ld(a: np.ndarray) -> int:
    """LAPACK's leading dimension of C-contiguous `a` read column-major: its row length."""
    return max(a.shape[-1], 1)


@functools.cache
def openblas() -> OpenBLAS | None:
    """The OpenBLAS bundled with numpy, or None when none with LAPACKE is found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in _SYMBOLS:
            try:
                get_threads, set_threads, get_config = [
                    getattr(lib, f"{prefix}_{name}{suffix}")
                    for name in ("get_num_threads", "set_num_threads", "get_config")
                ]
                dsytrd, dstedc = [
                    getattr(lib, f"{prefix.removesuffix('openblas')}LAPACKE_{name}{suffix}")
                    for name in ("dsytrd", "dstedc")
                ]
            except AttributeError:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            config = get_config().decode()
            # lapack_int is 64 bits wide in an ILP64 build
            index = ctypes.c_int64 if "USE64BITINT" in config else ctypes.c_int
            char, ptr = ctypes.c_char, ctypes.c_void_p
            for routine, args in (
                (dsytrd, [char, index, ptr, index, ptr, ptr, ptr]),
                (dstedc, [char, index, ptr, ptr, ptr, index]),
            ):
                routine.argtypes, routine.restype = [ctypes.c_int, *args], index
            return OpenBLAS(
                path.name, config, get_threads, set_threads,
                sytrd=lambda a, d, e, tau: dsytrd(
                    _COL_MAJOR, b"L", len(a), a.ctypes.data, _ld(a),
                    d.ctypes.data, e.ctypes.data, tau.ctypes.data),
                stedc=lambda d, e, z: dstedc(
                    _COL_MAJOR, b"I", len(d), d.ctypes.data, e.ctypes.data, z.ctypes.data, _ld(z)),
            )
    return None


def blas_threads() -> int | None:
    """OpenBLAS's current thread count, or None when OpenBLAS is not found."""
    lib = openblas()
    return None if lib is None else lib.get_num_threads()


@contextmanager
def one_blas_thread() -> Iterator[int | None]:
    """Pin OpenBLAS to one thread inside the block, restoring the previous count.

    The count is process-wide, so it also holds for BLAS calls other threads
    make meanwhile. It is only ever lowered: when it is already 1 or
    OpenBLAS is not found, nothing is set. Yields the count in effect: 1, or
    None when OpenBLAS is not found.
    """
    lib = openblas()
    previous = None if lib is None else lib.get_num_threads()
    if previous in (None, 1):
        yield previous
        return
    lib.set_num_threads(1)
    try:
        yield 1
    finally:
        lib.set_num_threads(previous)
