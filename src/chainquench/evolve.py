"""Exact unitary evolution from Hermitian eigendecompositions.

One decomposition serves the whole time grid: the propagator at any t is
V exp(-i lambda t) V^dagger, with no step-error accumulation at long times.
`propagate` evolves a state under a many-body sector's dense Hamiltonian
and picks its method by the sector's dimension: below
`blas.ONE_THREAD_BELOW` states it is `evolve_series(decompose(H), ...)`,
which applies the full eigendecomposition; at or above it, V is never
formed, and the Householder reflectors of H's tridiagonal reduction go onto
the 2 n_times propagated columns instead of onto a D x D eigenvector
matrix. `slater_series` needs only the N x N one-particle decomposition:
without interaction (g = 0) a basis state stays a Slater determinant, and
its amplitudes are minors of the one-particle propagator. All return
time-major (n_times, dim) amplitudes over a `TimeGrid`'s times. The sector
Hamiltonians are real symmetric, so their eigenvectors are real, and the
real and imaginary parts of a state propagate through real products: no
complex copy of a D x D matrix is made. `decompose` leaves H as it was;
`propagate` may overwrite it, at or above that dimension with T's
eigenvectors and then the reflectors. The BLAS calls of a sector below
`blas.ONE_THREAD_BELOW` states run on one OpenBLAS thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import blas
from .hilbert import Sector, enumerate_sector


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues and the unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class TimeGrid:
    """n_points logarithmically spaced times from t_min to t_max, in units of 1/J."""

    t_min: float = 0.1
    t_max: float = 1000.0
    n_points: int = 61

    def __post_init__(self) -> None:
        if not 0 < self.t_min < self.t_max < np.inf:
            raise ValueError(f"need 0 < t_min < t_max < inf, got ({self.t_min}, {self.t_max})")
        if self.n_points < 2:
            raise ValueError("grid needs at least 2 points")

    @cached_property
    def times(self) -> np.ndarray:
        """The grid as a read-only array, with exact endpoints."""
        times = np.logspace(np.log10(self.t_min), np.log10(self.t_max), self.n_points)
        times[0] = self.t_min
        times[-1] = self.t_max
        if not np.all(np.diff(times) > 0):
            raise ValueError(f"{self.n_points} points between {self.t_min} and {self.t_max} "
                             "are not strictly increasing")
        times.setflags(write=False)
        return times


# the LAPACKE codes of a NaN in an array argument, which LAPACKE scans first
_NAN_INFO = {"dsytrd": (-4,), "dstedc": (-4, -5), "dormtr": (-7, -9, -10)}


def _check_info(info: int, routine: str, dim: int) -> None:
    """Raise LinAlgError for a nonzero LAPACK info, naming no array: by then
    each holds whatever LAPACK left in it."""
    if info:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed for dim={dim} matrix: {routine} info={info}"
            + (" (LAPACKE's code for a NaN entry)" if info in _NAN_INFO[routine] else "")
        )


def _square_dim(H: np.ndarray, caller: str) -> int:
    """The dimension of a real square H; ValueError for any other."""
    if np.iscomplexobj(H):
        raise ValueError(f"{caller} needs a real symmetric matrix")
    shape = np.shape(H)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{caller} needs a square matrix, got shape {shape}")
    return shape[0]


def decompose(H: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a dense real symmetric sector Hamiltonian.

    numpy's `eigh`, on one OpenBLAS thread below `blas.ONE_THREAD_BELOW`
    states; H is left as it was.
    """
    dim = _square_dim(H, "decompose")
    with blas.blas_threads_for(dim):
        try:
            return SpectralDecomposition(*np.linalg.eigh(H))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"eigendecomposition failed for dim={dim} matrix: {exc}")


def evolve_series(
    spec: SpectralDecomposition, amplitudes: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Amplitudes at every grid time, as a time-major (n_times, dim) array.

    The eigenvectors must be real, as those of a real symmetric H are, so
    every product runs in real arithmetic on the real and imaginary parts.
    """
    if len(amplitudes) != spec.dim:
        raise ValueError(f"state has dim {len(amplitudes)}, decomposition {spec.dim}")
    V = spec.eigenvectors
    if np.iscomplexobj(V):
        raise ValueError("evolve_series needs real eigenvectors, of a real symmetric matrix")
    amplitudes = np.asarray(amplitudes)
    with blas.blas_threads_for(spec.dim):
        # dim-major phases: this operand order fixes the CSV bits. Time-major
        # ones, V @ phases, move them by up to 4e-15 at D=252 and run no
        # faster (one thread, 61 times); V's memory order changes neither
        re, im = np.stack([amplitudes.real, amplitudes.imag], axis=1).T @ V
        product = _phased(spec.eigenvalues, re + 1j * im, times).T @ V.T
    return _complex_rows(product)


def _phased(eigenvalues: np.ndarray, coefficients: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The eigenbasis state at every time, as real and imaginary parts: (dim, 2 n_times)."""
    phases = np.exp(np.outer(eigenvalues, times) * (-1j))
    phases *= coefficients[:, None]
    # one complex (dim, n_times) array and its real copy live at once
    return np.concatenate([phases.real, phases.imag], axis=1)


def _complex_rows(product: np.ndarray) -> np.ndarray:
    """The time-major complex amplitudes from real (2 n_times, dim) parts, real rows first."""
    n_times = len(product) // 2
    series = np.empty((n_times, product.shape[1]), dtype=complex)
    series.real, series.imag = product[:n_times], product[n_times:]
    return series


def propagate(H: np.ndarray, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """A sector's amplitudes at every grid time, time-major (n_times, dim); may overwrite H.

    Below `blas.ONE_THREAD_BELOW` states, or when no OpenBLAS is found, this
    is `evolve_series(decompose(H), amplitudes, times)`, bit for bit, and H
    is left as it was. At or above it the eigenvectors V = Q Z are never
    formed: LAPACK reduces H in place to the tridiagonal T = Q^T H Q
    (`dsytrd`) and diagonalizes T = Z diag(lambda) Z^T (`dstedc`), and Q's
    Householder reflectors go onto the 2 real columns of the state and the
    2 n_times real columns of
    psi(t) = Q Z exp(-i lambda t) Z^T Q^T psi0 (`dormtr`). That skips the
    2 D^3 product Q Z. Z overwrites H after the first `dormtr`; the
    reflectors, copied aside, return for the second, so H ends holding them
    over the rest of Z. The call holds H, their copy (half of H) and
    `dstedc`'s D^2 workspace. `dsytrd`, `dstedc` and the products keep the
    library's thread count, as every sector of that size does; `dormtr` runs
    on one OpenBLAS thread, where a second one costs time on such thin
    blocks. H is copied first unless it is writeable C-contiguous float64.
    """
    dim = _square_dim(H, "propagate")
    if len(amplitudes) != dim:
        raise ValueError(f"state has dim {len(amplitudes)}, matrix {dim}")
    lib = blas.openblas()
    if lib is None or dim < blas.ONE_THREAD_BELOW:
        return evolve_series(decompose(H), amplitudes, times)
    H = np.require(H, np.float64, ["C", "W"])
    amplitudes = np.asarray(amplitudes)
    eigenvalues, e, tau = np.empty(dim), np.empty(dim - 1), np.empty(dim - 1)
    _check_info(lib.sytrd(H, eigenvalues, e, tau), "dsytrd", dim)
    state = np.array([amplitudes.real, amplitudes.imag], dtype=np.float64)
    with blas.one_blas_thread():
        _check_info(lib.ormtr(b"T", H, tau, state), "dormtr", dim)
    # dormtr reads reflector i from row i of H's buffer, column i + 2 on, only
    reflectors = [H[i, i + 2:] for i in range(dim - 2)]
    saved = [row.copy() for row in reflectors]
    _check_info(lib.stedc(eigenvalues, e, H), "dstedc", dim)  # Z over H, one per row
    re, im = state @ H.T  # the coefficients Z^T Q^T psi0
    # the (dim, 2 n_times) block Z parts, column-major: C-ordered, it is its transpose
    product = _phased(eigenvalues, re + 1j * im, times).T @ H
    for row, copy in zip(reflectors, saved):
        row[...] = copy
    with blas.one_blas_thread():
        _check_info(lib.ormtr(b"N", H, tau, product), "dormtr", dim)
    return _complex_rows(product)


@lru_cache(maxsize=None)
def _laplace_tables(n_sites: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expansion of every j-particle minor along its last column.

    Row m is state m of the j-particle sector: `sites[m, p]` is its p-th
    occupied site (0-based, ascending), `rest[m, p]` the index in the
    (j - 1)-particle sector of the state without that site, and `sign[p]` the
    cofactor sign (-1)^(j - 1 - p) of that row in the last column.
    """
    states = enumerate_sector(n_sites, j).states
    occupied = (states[:, None] >> np.arange(n_sites)) & 1
    sites = np.nonzero(occupied)[1].reshape(len(states), j)
    rest = np.searchsorted(enumerate_sector(n_sites, j - 1).states, states[:, None] ^ (1 << sites))
    sign = (-1.0) ** (j - 1 - np.arange(j))
    for table in (sites, rest, sign):
        table.setflags(write=False)
    return sites, rest, sign


def slater_series(
    spec1: SpectralDecomposition, sector: Sector, x0: int, times: np.ndarray
) -> np.ndarray:
    """Non-interacting evolution of basis state x0, as time-major (n_times, dim) amplitudes.

    `spec1` decomposes the one-particle Hamiltonian h, the N x N matrix of the
    one-particle sector in site order. The amplitude on basis state x of
    `sector` is det A(t)[sites(x), :], where A(t) = U(t)[:, sites(x0)] holds
    the occupied columns of U(t) = exp(-i h t) (Peschel, J. Phys. A 36, L205,
    2003). The minors are built by Laplace expansion, one particle count at a
    time, so the cost is sum_j j C(N, j) per time instead of a dim^3
    decomposition.
    """
    n = sector.n_sites
    if spec1.dim != n:
        raise ValueError(f"one-particle decomposition has dim {spec1.dim}, chain has {n} sites")
    occupied = np.flatnonzero((int(x0) >> np.arange(n)) & 1)
    if len(occupied) != sector.n_particles:
        raise ValueError(f"state {int(x0):#b} is not in the {sector.n_particles}-particle sector")
    V = spec1.eigenvectors
    phases = np.exp(np.outer(np.asarray(times), spec1.eigenvalues) * (-1j))
    A = (V * phases[:, None, :]) @ V[occupied].conj().T  # (n_times, N, k)
    minors = np.ones((len(phases), 1), dtype=complex)  # the one 0-particle minor
    for j in range(1, sector.n_particles + 1):
        sites, rest, sign = _laplace_tables(n, j)
        column = A[:, :, j - 1]
        minors = sum(s * column[:, sites[:, p]] * minors[:, rest[:, p]] for p, s in enumerate(sign))
    return minors
