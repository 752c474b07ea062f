"""Exact unitary evolution from Hermitian eigendecompositions.

One decomposition serves the whole time grid: the propagator at any t is
V exp(-i lambda t) V^dagger, with no step-error accumulation at long times.
`evolve_series` applies the full eigendecomposition of a many-body sector.
`slater_series` needs only the N x N one-particle one: without interaction
(g = 0) a basis state stays a Slater determinant, and its amplitudes are
minors of the one-particle propagator. Both return time-major
(n_times, dim) amplitudes over a `TimeGrid`'s times. The sector
Hamiltonians are real symmetric, so their eigenvectors V are real, and
`evolve_series` propagates the real and imaginary parts of a state with real
products of V: no complex copy of V is made. `decompose` overwrites its
argument: LAPACK writes the eigenvectors over H, so the dense path of a
sector holds H and LAPACK's workspace, three D x D arrays, and never a copy
of either. `decompose` and `evolve_series` run their BLAS calls on one
OpenBLAS thread for a sector below `blas.ONE_THREAD_BELOW` states.
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


def decompose(H: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a dense real symmetric sector Hamiltonian, in place.

    The eigenvectors overwrite H: LAPACK's `dsyevd` runs on H's own buffer,
    and `eigenvectors` is `H.T`, a view of it, so the call holds H and
    LAPACK's 2 D^2 workspace and copies nothing. H then holds the
    eigenvectors as rows; pass `H.copy()` to keep H. An H that is not a
    writeable C-contiguous float64 array is copied first and left as it was,
    and so is every H when no OpenBLAS is found and numpy's `eigh` runs.
    """
    if np.iscomplexobj(H):
        raise ValueError("decompose needs a real symmetric matrix")
    shape = np.shape(H)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"decompose needs a square matrix, got shape {shape}")
    lib = blas.openblas()
    dim = shape[0]
    with blas.blas_threads_for(dim):
        if lib is None:
            return SpectralDecomposition(*np.linalg.eigh(H))
        H = np.require(H, np.float64, ["C", "W"])
        eigenvalues = np.empty(dim)
        info = lib.syevd(H, eigenvalues)
    if info:  # H holds whatever LAPACK left in it, so the message reads none of it
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed for dim={dim} matrix: dsyevd info={info}"
            + (" (LAPACKE's code for a NaN entry)" if info == -5 else "")
        )
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=H.T)


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
    n_times = len(times)
    with blas.blas_threads_for(spec.dim):
        # dim-major phases: on decompose's F-ordered V these operand layouts
        # take the BLAS kernels that time-major ones take on a C-ordered V
        re, im = np.stack([amplitudes.real, amplitudes.imag], axis=1).T @ V
        phases = np.exp(np.outer(spec.eigenvalues, times) * (-1j))
        phases *= (re + 1j * im)[:, None]
        parts = np.concatenate([phases.real, phases.imag], axis=1)  # (dim, 2 n_times)
        del phases  # so at most two (n_times, dim) complex arrays live at once
        product = parts.T @ V.T
    del parts
    series = np.empty((n_times, spec.dim), dtype=complex)
    series.real, series.imag = product[:n_times], product[n_times:]
    return series


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
