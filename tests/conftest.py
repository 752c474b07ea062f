import ctypes
import importlib.util
import os
from pathlib import Path

import pytest

from chainquench import blas
from chainquench.blas import OpenBLAS


def _scipy_openblas():
    """The OpenBLAS bundled with scipy, beside numpy's, or None."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    for path in sorted((Path(spec.origin).parent.parent / "scipy.libs").glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads"):
            return lib
    return None


@pytest.fixture(autouse=True, scope="session")
def scipy_blas_on_one_thread():
    """Run the test oracles' scipy BLAS calls on one thread.

    Two OpenBLAS thread pools on the same cores make every small oracle
    product spin: on 2 cores, criterion 3 took 9.5 s with both at their
    default and 3.8 s with scipy's pinned. numpy's library, which the package under test
    uses, keeps its own setting. Nothing is pinned without scipy's library.
    """
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads.argtypes = [ctypes.c_int]
    previous = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(previous)


@pytest.fixture
def two_blas_threads():
    """The bundled OpenBLAS on 2 threads, restored afterwards."""
    lib = blas.openblas()
    previous = lib.get_num_threads()
    lib.set_num_threads(2)
    try:
        yield
    finally:
        lib.set_num_threads(previous)


@pytest.fixture
def host_with_8_gib(monkeypatch):
    """The memory guard sees 8 GiB of physical memory, whatever the host has."""
    sysconf = os.sysconf
    pages = 8 * 2**30 // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(
        os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name)
    )


_LAPACK = ("sytrd", "stedc", "larft", "larfb")


class _CountingOpenBLAS:
    """Stands in for the library: a thread count and every set call made."""

    def __init__(self, threads: int):
        self.threads = threads
        self.sets: list[int] = []

    def set(self, count: int) -> None:
        self.sets.append(count)
        self.threads = count


@pytest.fixture
def counting(monkeypatch):
    """A library whose thread count is `fake`'s, with the bundled LAPACK routines when found."""
    fake = _CountingOpenBLAS(threads=2)
    real = blas.openblas()
    lapack = {name: getattr(real, name, None) for name in _LAPACK}
    lib = OpenBLAS("fake", "fake", lambda: fake.threads, fake.set, **lapack)
    monkeypatch.setattr(blas, "openblas", lambda: lib)
    return fake
