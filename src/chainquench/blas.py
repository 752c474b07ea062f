"""The OpenBLAS that numpy loaded, reached through ctypes.

`evolve.propagate` runs a sector of `evolve.TRIDIAGONAL_FROM` states or
more through four of the library's LAPACKE routines, in place on the
caller's buffers: the tridiagonal reduction `dsytrd`, the divide-and-conquer
`dstedc`, and `dlarft` and `dlarfb`, which form and apply the reduction's
reflectors as compact-WY blocks. Smaller sectors go through numpy's `eigh`.
ctypes releases the GIL for each call, so threads diagonalize in parallel.
OpenBLAS starts its own threads inside every call, so realization workers,
or a serial run's sector helpers, on top of them oversubscribe the cores;
`one_blas_thread` pins OpenBLAS to one thread, and
`experiment.run_experiment` decides once per run whether to.
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
# thread, and propagates a state's sectors on up to as many threads as the
# library had (`experiment`). On a 2-core Xeon (OpenBLAS 0.3.31, default 2
# threads) a second thread cut eigh's wall time by at most a sixth below it
# (D=330: 9.2 vs 7.7 ms), for twice the CPU time, by 9-22% at it and by
# 20-44% from D=495 up (D=924: 119 vs 71 ms). A sector's eigendecomposition
# and propagation of one basis state over 61 times, median ms of 31
# alternating pairs, eigenvector path -> tridiagonal path (reflectors as
# compact-WY blocks):
#   D          210       252       330        462        495        792       924
#   1 thread  6.1->6.7  9.3->9.4  16.6->14.9  34.9->27.0  29.5->23.0  98->73  161->114
#   2 threads 5.3->5.5  7.4->6.9  13.4->11.7  27.5->21.3  31.7->25.1  86->67  127->89
# `evolve.propagate` leaves the eigenvector path at its own, lower
# dimension, `evolve.TRIDIAGONAL_FROM`; this one only sets the thread count.
ONE_THREAD_BELOW = 462


@dataclass(frozen=True)
class OpenBLAS:
    library: str
    config: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    # Each LAPACKE routine returns LAPACK's info and takes float64 arrays
    # whose rows are contiguous. A C buffer read column-major is the transpose,
    # so a symmetric matrix's own, and the columns LAPACK writes there are rows.
    # (a, d, e, tau): reduces the symmetric `a` to the tridiagonal
    # T = Q^T a Q, its diagonal into `d` and its off-diagonal into `e`, and
    # writes Q's Householder reflectors over `a`, their scales into `tau`
    sytrd: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int]
    # (d, e, z): the ascending eigenvalues of T over `d`, `e` destroyed, and
    # its eigenvectors into the D x D `z`, one per row
    stedc: Callable[[np.ndarray, np.ndarray, np.ndarray], int]
    # (v, tau, t): T into the k x k `t`'s upper triangle, where I - V T V^T is
    # the product of I - tau_j v_j v_j^T, j < k, and v_j is row j of the (k, n)
    # `v`, whose 1 at column j and 0s before it are taken as read
    larft: Callable[[np.ndarray, np.ndarray, np.ndarray], int]
    # (v, t, c, trans): each row x of `c` becomes (I - V T V^T) x, with T^T for b"T"
    larfb: Callable[[np.ndarray, np.ndarray, np.ndarray, bytes], int]


def _ld(a: np.ndarray) -> int:
    """LAPACK's leading dimension of row-contiguous `a` read column-major: its row stride."""
    return max(a.strides[0] // a.itemsize, 1)


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
                dsytrd, dstedc, dlarft, dlarfb = [
                    getattr(lib, f"{prefix.removesuffix('openblas')}LAPACKE_{name}{suffix}")
                    for name in ("dsytrd", "dstedc", "dlarft", "dlarfb")
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
                (dlarft, [char, char, index, index, ptr, index, ptr, ptr, index]),
                (dlarfb, [char] * 4 + [index] * 3 + [ptr, index] * 3),
            ):
                routine.argtypes, routine.restype = [ctypes.c_int, *args], index
            return OpenBLAS(
                path.name, config, get_threads, set_threads,
                sytrd=lambda a, d, e, tau: dsytrd(
                    _COL_MAJOR, b"L", len(a), a.ctypes.data, _ld(a),
                    d.ctypes.data, e.ctypes.data, tau.ctypes.data),
                stedc=lambda d, e, z: dstedc(
                    _COL_MAJOR, b"I", len(d), d.ctypes.data, e.ctypes.data, z.ctypes.data, _ld(z)),
                larft=lambda v, tau, t: dlarft(
                    _COL_MAJOR, b"F", b"C", v.shape[1], len(t), v.ctypes.data, _ld(v),
                    tau.ctypes.data, t.ctypes.data, _ld(t)),
                larfb=lambda v, t, c, trans: dlarfb(
                    _COL_MAJOR, b"L", trans, b"F", b"C", c.shape[1], len(c), len(t),
                    v.ctypes.data, _ld(v), t.ctypes.data, _ld(t), c.ctypes.data, _ld(c)),
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
