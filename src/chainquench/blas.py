"""The OpenBLAS that numpy loaded, reached through ctypes.

Each realization worker calls LAPACK's `eigh`, and OpenBLAS starts its own
threads inside every call, so a worker pool on top of them oversubscribes
the cores. `one_blas_thread` pins OpenBLAS to one thread while a pool runs.
The thread count changes the bits `eigh` returns for large enough matrices,
so a run records the count it computed under.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# symbol prefix and suffix, in the order they are tried
_SYMBOLS = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", ""))


@dataclass(frozen=True)
class OpenBLAS:
    library: str
    config: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


@functools.cache
def openblas() -> OpenBLAS | None:
    """The OpenBLAS bundled with numpy, or None when none is found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in _SYMBOLS:
            try:
                get_threads, set_threads, get_config = [
                    getattr(lib, f"{prefix}_{name}{suffix}")
                    for name in ("get_num_threads", "set_num_threads", "get_config")
                ]
            except AttributeError:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return OpenBLAS(path.name, get_config().decode(), get_threads, set_threads)
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
