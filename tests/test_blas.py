import numpy as np
import pytest

from chainquench import blas
from chainquench.blas import ONE_THREAD_BELOW, OpenBLAS, blas_threads, one_blas_thread, openblas
from chainquench.evolve import TimeGrid, decompose, evolve_series

needs_openblas = pytest.mark.skipif(openblas() is None, reason="OpenBLAS not found")


@pytest.fixture
def two_blas_threads():
    """The bundled OpenBLAS on 2 threads, restored afterwards."""
    lib = openblas()
    previous = lib.get_num_threads()
    lib.set_num_threads(2)
    try:
        yield
    finally:
        lib.set_num_threads(previous)


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
    fake = _CountingOpenBLAS(threads=2)
    lib = OpenBLAS("fake", "fake", lambda: fake.threads, fake.set)
    monkeypatch.setattr(blas, "openblas", lambda: lib)
    return fake


def _spectrum(dim):
    return decompose(np.diag(np.arange(dim, dtype=float)))


@needs_openblas
@pytest.mark.parametrize("dim", [ONE_THREAD_BELOW - 1, ONE_THREAD_BELOW])
def test_decompose_runs_eigh_on_one_thread_below_the_dimension(two_blas_threads, monkeypatch, dim):
    seen = []
    eigh = np.linalg.eigh

    def recording(H):
        seen.append(blas_threads())
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    _spectrum(dim)
    assert seen == [1 if dim < ONE_THREAD_BELOW else 2]
    assert blas_threads() == 2


@needs_openblas
def test_thread_count_restored_when_decompose_raises(two_blas_threads):
    with pytest.raises(np.linalg.LinAlgError, match="eigendecomposition failed"):
        decompose(np.full((4, 4), np.nan))
    assert blas_threads() == 2


def test_rule_lowers_the_count_only_below_the_dimension(counting):
    times = TimeGrid(0.1, 10.0, 5).times
    for dim, sets in ((4, [1, 2]), (ONE_THREAD_BELOW, [])):
        spec = _spectrum(dim)
        assert counting.sets == sets
        counting.sets.clear()
        evolve_series(spec, np.eye(dim)[0], times)
        assert counting.sets == sets
        counting.sets.clear()


def test_rule_sets_nothing_under_one_blas_thread(counting):
    with one_blas_thread():
        counting.sets.clear()
        evolve_series(_spectrum(4), np.eye(4)[0], TimeGrid(0.1, 10.0, 5).times)
        assert counting.sets == []
    assert counting.sets == [2]
