"""The OpenBLAS that numpy loaded, reached through ctypes.

Each realization worker diagonalizes its sectors with the library's LAPACKE
`dsyevd` (`OpenBLAS.syevd`), in place on the caller's buffer; ctypes
releases the GIL for the call, so workers diagonalize in parallel. OpenBLAS
starts its own threads inside every call, so a worker pool on top of them
oversubscribes the cores. `one_blas_thread` pins OpenBLAS to one thread
while a pool runs. Outside a pool, `blas_threads_for` runs the `dsyevd` and
propagation products of a matrix below `ONE_THREAD_BELOW` rows on one
thread, where a second thread saves little time and spins for the rest. The
thread count changes the bits `dsyevd` returns for large enough matrices,
so a run records the count its sectors at or above that dimension computed
under.
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

# Matrices of smaller dimension run on one OpenBLAS thread. On a 2-core Xeon
# (OpenBLAS 0.3.31, default 2 threads) a second thread cut eigh's wall time
# by at most a sixth below it (D=330: 9.2 vs 7.7 ms), for twice the CPU
# time, by 9-22% at it and by 20-44% from D=495 up (D=924: 119 vs 71 ms)
ONE_THREAD_BELOW = 462


@dataclass(frozen=True)
class OpenBLAS:
    library: str
    config: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    # (a, w) -> LAPACK's info: writes the ascending eigenvalues of the
    # symmetric C-contiguous float64 matrix `a` into `w` and its eigenvectors
    # over `a`, one per row
    syevd: Callable[[np.ndarray, np.ndarray], int]


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
                dsyevd = getattr(lib, f"{prefix.removesuffix('openblas')}LAPACKE_dsyevd{suffix}")
            except AttributeError:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            config = get_config().decode()
            # lapack_int is 64 bits wide in an ILP64 build
            index = ctypes.c_int64 if "USE64BITINT" in config else ctypes.c_int
            dsyevd.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, index,
                               ctypes.c_void_p, index, ctypes.c_void_p]
            dsyevd.restype = index
            # a C buffer read column-major is the transpose, so a symmetric
            # matrix's own, and the column eigenvectors written there are rows
            return OpenBLAS(path.name, config, get_threads, set_threads, lambda a, w: dsyevd(
                _COL_MAJOR, b"V", b"L", len(a), a.ctypes.data, max(len(a), 1), w.ctypes.data))
    return None


def blas_threads() -> int | None:
    """OpenBLAS's current thread count, or None when OpenBLAS is not found."""
    lib = openblas()
    return None if lib is None else lib.get_num_threads()


@contextmanager
def one_blas_thread() -> Iterator[int | None]:
    """Pin OpenBLAS to one thread inside the block, restoring the previous count.

    The count is process-wide, so it also holds for BLAS calls other threads
    make meanwhile. Yields the count in effect: 1, or None when OpenBLAS is
    not found and nothing is changed.
    """
    lib = openblas()
    if lib is None:
        yield None
        return
    previous = lib.get_num_threads()
    lib.set_num_threads(1)
    try:
        yield 1
    finally:
        lib.set_num_threads(previous)


@contextmanager
def blas_threads_for(dim: int) -> Iterator[None]:
    """`one_blas_thread` for a matrix of dimension below `ONE_THREAD_BELOW`.

    The count is only ever lowered. At or above that dimension, when the
    count is already 1 (inside `one_blas_thread`), or when OpenBLAS is not
    found, the block runs unchanged and no thread count is set, so pool
    workers never touch the process-wide setting.
    """
    if dim < ONE_THREAD_BELOW and blas_threads() not in (None, 1):
        with one_blas_thread():
            yield
    else:
        yield
