import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chainquench import blas
from chainquench.blas import ONE_THREAD_BELOW, blas_threads, one_blas_thread, openblas
from chainquench.evolve import TimeGrid, propagate, slater_series
from chainquench.hamiltonian import ChainParams, build_hamiltonian, sample_disorder
from chainquench.hilbert import enumerate_sector
from chainquench.states import max_coherent, neel

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


def _recording_eigh(monkeypatch, fake):
    """numpy's eigh, logging the fake library's thread count at each call."""
    seen, eigh = [], np.linalg.eigh

    def recording(a):
        seen.append(fake.threads)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return seen


# the run sets the thread count (tests/test_experiment.py); evolve never does
@needs_openblas
@pytest.mark.parametrize("dim", [ONE_THREAD_BELOW - 1, ONE_THREAD_BELOW])
def test_propagate_sets_no_thread_count(counting, monkeypatch, dim):
    # numpy's eigh below the dimension, dsytrd and dstedc from it on, all at
    # the caller's count
    seen = _recording_eigh(monkeypatch, counting)
    propagate(np.diag(np.arange(dim, dtype=float)), np.eye(dim)[0], TimeGrid(0.1, 10.0, 5).times)
    assert seen == ([2] if dim < ONE_THREAD_BELOW else [])
    assert counting.sets == []


def test_slater_series_sets_no_thread_count(counting, monkeypatch):
    seen = _recording_eigh(monkeypatch, counting)
    slater_series(_hamiltonian(4, 1), enumerate_sector(4, 2), 0b0011, TimeGrid(0.1, 10.0, 5).times)
    assert seen == [2] and counting.sets == []


@needs_openblas
def test_thread_count_unchanged_when_propagate_raises(two_blas_threads):
    with pytest.raises(np.linalg.LinAlgError, match="eigendecomposition failed for dim=4 matrix"):
        propagate(np.full((4, 4), np.nan), np.eye(4)[0], TimeGrid(0.1, 10.0, 5).times)
    assert blas_threads() == 2


def _hamiltonian(n_sites, n_particles=3):
    params = ChainParams(n_sites=n_sites, J=1.0, W=2.0, g=1.0)
    sector = enumerate_sector(n_sites, n_particles)
    return build_hamiltonian(params, sample_disorder(n_sites, 3), sector)


@pytest.fixture(params=[1, 2], ids=["1-thread", "2-threads"])
def blas_count(request):
    """The bundled OpenBLAS on 1 and on 2 threads, restored afterwards."""
    lib = openblas()
    previous = lib.get_num_threads()
    lib.set_num_threads(request.param)
    try:
        yield request.param
    finally:
        lib.set_num_threads(previous)


def _states(sector):
    """A Neel-like basis state (every other site from 0) and a random complex state."""
    neel_like = sum(1 << (2 * p) for p in range(sector.n_particles))
    basis = np.zeros(sector.dim, dtype=complex)
    basis[np.searchsorted(sector.states, neel_like)] = 1.0
    rng = np.random.default_rng(7)
    random = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
    return {"neel": basis, "random": random / np.linalg.norm(random)}


_TIMES = TimeGrid().times


@needs_openblas
@pytest.mark.parametrize("sector", [(11, 5), (12, 6)], ids=["D462", "D924"])  # at D*, and above
@pytest.mark.parametrize("state", ["neel", "random"])
def test_propagate_matches_the_eigenvector_path(blas_count, monkeypatch, sector, state):
    H = _hamiltonian(*sector)
    amps = _states(enumerate_sector(*sector))[state]
    with monkeypatch.context() as patched:
        # numpy's eigh at the library's count, which leaves H as it was
        patched.setattr(blas, "openblas", lambda: None)
        expected = propagate(H, amps, _TIMES)
    series = propagate(H, amps, _TIMES)
    assert series.shape == (len(_TIMES), len(H))
    np.testing.assert_allclose(series, expected, rtol=0, atol=1e-12)
    assert blas_threads() == blas_count


def _without_openblas(monkeypatch, H, amps):
    """propagate on the eigenvector path, at the library's count; H is left as it was."""
    with monkeypatch.context() as patched:
        patched.setattr(blas, "openblas", lambda: None)
        return propagate(H, amps, _TIMES)


def _reflector_free(kind):
    """A D* x D* symmetric matrix on which dsytrd returns some tau = 0."""
    rng = np.random.default_rng(11)
    dim = ONE_THREAD_BELOW
    if kind == "diagonal":
        return np.diag(rng.normal(size=dim))
    if kind == "tridiagonal":
        off = rng.normal(size=dim - 1)
        return np.diag(rng.normal(size=dim)) + np.diag(off, 1) + np.diag(off, -1)
    H = _hamiltonian(11, 5)
    cut = 1 if kind == "detached" else dim // 2  # a first state, or a half, coupled to nothing
    H[:cut, cut:] = H[cut:, :cut] = 0
    return H


@needs_openblas
@pytest.mark.parametrize("kind", ["diagonal", "tridiagonal", "detached", "two-blocks"])
def test_propagate_matches_the_eigenvector_path_where_reflectors_vanish(monkeypatch, kind):
    H = _reflector_free(kind)
    d, e, tau = np.empty(len(H)), np.empty(len(H) - 1), np.empty(len(H) - 1)
    openblas().sytrd(H.copy(), d, e, tau)
    assert (tau == 0).any()
    amps = _states(enumerate_sector(11, 5))["random"]
    expected = _without_openblas(monkeypatch, H, amps)
    np.testing.assert_allclose(propagate(H, amps, _TIMES), expected, rtol=0, atol=1e-12)


@needs_openblas
def test_propagate_matches_the_eigenvector_path_with_a_last_block_of_one(monkeypatch):
    # 513 reflectors: eight compact-WY blocks of 64, then one of a single reflector
    rng = np.random.default_rng(3)
    A = rng.normal(size=(514, 514))
    amps = rng.normal(size=514) + 1j * rng.normal(size=514)
    H = A + A.T
    expected = _without_openblas(monkeypatch, H, amps)
    np.testing.assert_allclose(propagate(H, amps, _TIMES), expected, rtol=0, atol=1e-12)


@needs_openblas
@pytest.mark.parametrize("case", ["neel12-W2", "neel12-W10", "max_coherent11"])
def test_propagate_matches_the_eigenvector_path_on_run_sectors(monkeypatch, case):
    n, state = (11, max_coherent(11)) if case == "max_coherent11" else (12, neel(12))
    params = ChainParams(n_sites=n, J=1.0, W=10.0 if case.endswith("W10") else 2.0, g=1.0)
    eps = sample_disorder(n, 5)
    blocks = [(s, amps) for s, amps in state.blocks if s.dim >= ONE_THREAD_BELOW]
    assert [s.dim for s, _ in blocks] == ([462, 462] if n == 11 else [924])
    for sector, amps in blocks:
        H = build_hamiltonian(params, eps, sector)
        expected = _without_openblas(monkeypatch, H, amps)
        np.testing.assert_allclose(propagate(H, amps, _TIMES), expected, rtol=0, atol=1e-12)


def _eigenvector_path(H, amps, times):
    """The eigenvector path's arithmetic, written out: the coefficients' real
    and imaginary parts from one product with V, then the dim-major phases'
    real columns beside their imaginary ones, transposed, times V^T."""
    eigenvalues, V = np.linalg.eigh(H)
    re, im = np.stack([amps.real, amps.imag], axis=1).T @ V
    phases = np.exp(np.outer(eigenvalues, times) * (-1j)) * (re + 1j * im)[:, None]
    product = np.concatenate([phases.real, phases.imag], axis=1).T @ V.T
    return product[:len(times)] + 1j * product[len(times):]


def test_propagate_below_the_crossover_is_the_eigenvector_path_bit_for_bit():
    H = _hamiltonian(10, 5)  # D = 252
    with one_blas_thread():  # as a serial run of such sectors computes
        for amps in _states(enumerate_sector(10, 5)).values():
            np.testing.assert_array_equal(propagate(H, amps, _TIMES), _eigenvector_path(H, amps, _TIMES))


def test_propagate_below_the_crossover_leaves_h_untouched():
    # below the dimension propagate's eigh only reads H, whatever its order
    H = _hamiltonian(8)
    amps = _states(enumerate_sector(8, 3))["random"]
    expected = propagate(H.copy(), amps, _TIMES)
    frozen = H.copy()
    frozen.setflags(write=False)
    for kept in (H, H.T.copy(order="F"), frozen):
        before = kept.copy()
        np.testing.assert_array_equal(propagate(kept, amps, _TIMES), expected)
        np.testing.assert_array_equal(kept, before)
    with pytest.raises(ValueError, match="propagate needs a square"):
        propagate(np.zeros((3, 4)), amps[:3], _TIMES)
    with pytest.raises(ValueError, match="propagate needs a real"):
        propagate(np.eye(3, dtype=complex), amps[:3], _TIMES)


def test_propagate_falls_back_to_numpy_eigh_without_openblas(monkeypatch):
    # so is every dimension without OpenBLAS, where numpy's eigh runs and H is left as it was
    monkeypatch.setattr(blas, "openblas", lambda: None)
    H = _hamiltonian(11, 5)  # D = 462
    kept = H.copy()
    amps = _states(enumerate_sector(11, 5))["random"]
    np.testing.assert_array_equal(propagate(H, amps, _TIMES), _eigenvector_path(kept, amps, _TIMES))
    np.testing.assert_array_equal(H, kept)
    with pytest.raises(np.linalg.LinAlgError, match="eigendecomposition failed for dim=4 matrix"):
        propagate(np.full((4, 4), np.nan), np.eye(4)[0], _TIMES)


def _recording(lib, fake, seen):
    """lib with each LAPACK routine logging (its name, the fake's thread count) into seen."""
    def record(name):
        routine = getattr(lib, name)

        def recorded(*args):
            seen.append((name, fake.threads))
            return routine(*args)

        return recorded

    return replace(lib, **{name: record(name) for name in ("sytrd", "larft", "larfb", "stedc")})


@needs_openblas
def test_propagate_keeps_the_count_on_the_tridiagonal_path(counting, monkeypatch):
    seen = []
    monkeypatch.setattr(blas, "openblas", lambda lib=_recording(blas.openblas(), counting, seen): lib)
    H, amps = _hamiltonian(11, 5), _states(enumerate_sector(11, 5))["neel"]
    propagate(H.copy(), amps, _TIMES)
    # every routine at the library's count: 461 reflectors in 8 compact-WY
    # blocks, each formed once and applied before and after dstedc
    assert seen == _tridiagonal_calls(2)
    assert counting.sets == []
    # a pool's workers, already on one thread, never set the count
    seen.clear()
    with one_blas_thread():
        counting.sets.clear()
        propagate(H.copy(), amps, _TIMES)
        assert counting.sets == []
    assert seen == _tridiagonal_calls(1)


def _tridiagonal_calls(threads):
    """The (routine, thread count) calls of one propagate at D=462."""
    names = ["sytrd", *["larft"] * 8, *["larfb"] * 8, "stedc", *["larfb"] * 8]
    return [(name, threads) for name in names]


@needs_openblas
@pytest.mark.parametrize("failing,calls", [
    ("sytrd", 1), ("larft", 1), ("larft", 8), ("larfb", 1), ("larfb", 16), ("stedc", 1)])
@pytest.mark.parametrize("info", [-5, 3])
def test_propagate_raises_on_any_nonzero_info_and_restores_the_count(
    two_blas_threads, monkeypatch, failing, calls, info
):
    # the routine fails on its `calls`-th call
    lib = openblas()
    routine, count = getattr(lib, failing), []

    def fails_at_call(*args):
        count.append(1)
        return info if len(count) == calls else routine(*args)

    monkeypatch.setattr(blas, "openblas", lambda: replace(lib, **{failing: fails_at_call}))
    H, amps = _hamiltonian(11, 5), _states(enumerate_sector(11, 5))["neel"]
    with pytest.raises(np.linalg.LinAlgError) as raised:
        propagate(H, amps, _TIMES)
    assert str(raised.value).startswith(
        f"eigendecomposition failed for dim=462 matrix: d{failing} info={info}")
    assert blas_threads() == 2


@needs_openblas
def test_propagate_nan_entry_is_dsytrd_info_minus_4(two_blas_threads):
    H = _hamiltonian(11, 5)
    H[3, 7] = H[7, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="dsytrd info=-4 .*NaN entry"):
        propagate(H, _states(enumerate_sector(11, 5))["neel"], _TIMES)
    assert blas_threads() == 2


@needs_openblas
def test_propagate_inf_entry_raises(two_blas_threads):
    # LAPACKE's scans look for NaN only: dsytrd takes the inf and turns it
    # into NaN reflectors, which a later routine's scan or the finite check finds
    H = _hamiltonian(11, 5)
    H[3, 7] = H[7, 3] = np.inf
    with pytest.raises(np.linalg.LinAlgError, match="eigendecomposition failed for dim=462 matrix"):
        propagate(H, _states(enumerate_sector(11, 5))["neel"], _TIMES)
    assert blas_threads() == 2


# with LAPACKE's NaN scans off, a NaN or inf entry at D=462 in a fresh
# interpreter; the finite check before the back-transform is all that is left
_UNSCANNED_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from chainquench.evolve import TimeGrid, propagate
from chainquench.hamiltonian import ChainParams, build_hamiltonian, sample_disorder
from chainquench.hilbert import enumerate_sector
sector = enumerate_sector(11, 5)
params = ChainParams(n_sites=11, J=1.0, W=2.0, g=1.0)
for bad in (np.nan, np.inf):
    H = build_hamiltonian(params, sample_disorder(11, 3), sector)
    H[3, 7] = H[7, 3] = bad
    try:
        propagate(H, np.eye(sector.dim)[0], TimeGrid().times)
    except np.linalg.LinAlgError as exc:
        print(exc)
"""


@needs_openblas
def test_propagate_without_lapacke_nan_scans_still_raises():
    src = Path(blas.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", _UNSCANNED_SCRIPT, str(src)],
                         capture_output=True, text=True, check=True, timeout=120,
                         env={**os.environ, "LAPACKE_NANCHECK": "0"})
    assert out.stdout.splitlines() == [
        "eigendecomposition failed for dim=462 matrix: non-finite propagated amplitudes"] * 2


@needs_openblas
def test_propagate_copies_what_it_cannot_overwrite():
    H = _hamiltonian(11, 5)
    amps = _states(enumerate_sector(11, 5))["neel"]
    expected = propagate(H.copy(), amps, _TIMES)
    frozen = H.copy()
    frozen.setflags(write=False)
    for kept in (H.T.copy(order="F"), frozen):
        before = kept.copy()
        np.testing.assert_array_equal(propagate(kept, amps, _TIMES), expected)
        np.testing.assert_array_equal(kept, before)
    with pytest.raises(ValueError, match="state has dim 461"):
        propagate(H, amps[1:], _TIMES)
    with pytest.raises(ValueError, match="propagate needs a square"):
        propagate(np.zeros((3, 4)), amps[:3], _TIMES)


# one propagate at D=924 in a fresh interpreter: the growth of its peak RSS
# from just before H is built, in units of 8 D^2 bytes; the tridiagonal path
# is warmed on a D=12 matrix by lowering the crossover for that one call
_PROPAGATE_PEAK_SCRIPT = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from chainquench import blas
from chainquench.evolve import TimeGrid, propagate
from chainquench.hamiltonian import ChainParams, build_hamiltonian, sample_disorder
from chainquench.hilbert import enumerate_sector
params = ChainParams(n_sites=12, J=1.0, W=2.0, g=1.0)
eps = sample_disorder(12, 1)
times = TimeGrid().times
crossover, blas.ONE_THREAD_BELOW = blas.ONE_THREAD_BELOW, 1
propagate(build_hamiltonian(params, eps, enumerate_sector(12, 1)), np.eye(12)[0], times)
blas.ONE_THREAD_BELOW = crossover
sector = enumerate_sector(12, 6)
amps = np.eye(sector.dim)[0]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
series = propagate(build_hamiltonian(params, eps, sector), amps, times)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024 / (8 * sector.dim**2))
"""


@needs_openblas
def test_propagate_peak_memory_is_h_z_and_the_workspace():
    # H, overwritten by T's eigenvectors Z, the reflectors' compact-WY blocks
    # beside it and dstedc's D^2 workspace: 3.1 here, the (n_times, D) arrays
    # included (2.65 at D=3432); one more D x D array, such as the product Q Z,
    # makes 4
    src = Path(blas.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", _PROPAGATE_PEAK_SCRIPT, str(src)],
                         capture_output=True, text=True, check=True, timeout=120)
    assert float(out.stdout) < 4.0


@needs_openblas
def test_propagate_allocates_no_second_square_array():
    # numpy's allocations only: the reflectors' compact-WY blocks, their V^T
    # copied out of H and their 64 x 64 T factors (0.7 of H at this D), and
    # the (n_times, D) phases and products; Z overwrites H, and LAPACK's own
    # workspace is not traced
    H = _hamiltonian(11, 5)  # D = 462
    amps = _states(enumerate_sector(11, 5))["neel"]
    propagate(H.copy(), amps, _TIMES)  # allocates whatever a first call does
    tracemalloc.start()
    try:
        propagate(H, amps, _TIMES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = len(H)
    assert peak < 0.6 * 8 * dim**2 + 3 * 16 * len(_TIMES) * dim
