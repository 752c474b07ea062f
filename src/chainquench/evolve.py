"""Exact unitary evolution from Hermitian eigendecompositions.

One eigendecomposition serves the whole time grid: the propagator at any t
is V exp(-i lambda t) V^dagger, with no step-error accumulation at long
times. There are two evolution functions, and each runs its own eigensolve.
`propagate` evolves a state under a many-body sector's dense Hamiltonian
and picks its method by the sector's dimension: below
`blas.ONE_THREAD_BELOW` states it applies numpy's `eigh` eigenvectors,
leaving H as it was; at or above it, V is never formed, and the Householder
reflectors of H's tridiagonal reduction, in LAPACK's compact-WY blocks, go
onto the 2 n_times propagated columns instead of onto a D x D eigenvector
matrix, over H's own buffer. `slater_series` needs only the N x N
one-particle Hamiltonian h: without interaction (g = 0) a basis state stays
a Slater determinant, and its amplitudes are minors of the one-particle
propagator. Both return time-major (n_times, dim) amplitudes over a
`TimeGrid`'s times. The sector Hamiltonians are real symmetric, so their
eigenvectors are real, and the real and imaginary parts of a state
propagate through real products: no complex copy of a D x D matrix is made.
Neither function changes the OpenBLAS thread count: each runs at the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import blas
from .hilbert import Sector, enumerate_sector


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
_NAN_INFO = {"dsytrd": (-4,), "dstedc": (-4, -5), "dlarft": (-6, -8), "dlarfb": (-9, -11, -13)}


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


def _eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's eigh of H, whose failure message names H's dimension."""
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"eigendecomposition failed for dim={len(H)} matrix: {exc}")


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


# reflectors per compact-WY block: wide enough for GEMM speed, narrow enough
# that the blocks' T factors stay small
_WY_BLOCK = 64


def _wy_blocks(lib: blas.OpenBLAS, H: np.ndarray,
               tau: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Q = H(0) H(1) ... H(D-2) of `dsytrd`'s lower reduction, as blocks (s, V^T, T).

    Reflector i is I - tau_i v_i v_i^T, where v_i is 0 up to entry i, 1 at
    i + 1 and row i of H from column i + 2 on. Each block of reflectors
    s, s + 1, ... multiplies to I - V T V^T on coordinates s + 1 on, with T
    from `dlarft`. V^T is copied out of H, so H may then be overwritten.
    """
    blocks = []
    for s in range(0, len(tau), _WY_BLOCK):
        b = min(_WY_BLOCK, len(tau) - s)
        Vt = H[s:s + b, s + 1:].copy()  # row j: reflector s + j
        T = np.zeros((b, b))  # dlarft writes the upper triangle; dlarfb reads all of it
        _check_info(lib.larft(Vt, tau[s:s + b], T), "dlarft", len(H))
        blocks.append((s, Vt, T))
    return blocks


def _reflect(lib: blas.OpenBLAS, blocks: list[tuple[int, np.ndarray, np.ndarray]],
             rows: np.ndarray, trans: bytes) -> None:
    """Q^T x (trans b"T") or Q x (b"N") over each row x of `rows`, in place: `dlarfb` a block."""
    for s, Vt, T in blocks if trans == b"T" else reversed(blocks):
        _check_info(lib.larfb(Vt, T, rows[:, s + 1:], trans), "dlarfb", rows.shape[1])


def propagate(H: np.ndarray, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """A sector's amplitudes at every grid time, time-major (n_times, dim); may overwrite H.

    Below `blas.ONE_THREAD_BELOW` states, or when no OpenBLAS is found, this
    applies the eigenvectors V of numpy's `eigh` and leaves H as it was. At
    or above it V = Q Z is never formed: LAPACK reduces H in place to the
    tridiagonal T = Q^T H Q (`dsytrd`) and diagonalizes
    T = Z diag(lambda) Z^T (`dstedc`), and Q's Householder reflectors,
    copied out of H into compact-WY blocks (`dlarft`), go (`dlarfb`) onto
    the 2 real columns of the state and the 2 n_times real columns of
    psi(t) = Q Z exp(-i lambda t) Z^T Q^T psi0. That skips the 2 D^3 product
    Q Z. Z overwrites H, so H ends holding it, one eigenvector per row. The
    call holds H, the blocks (half of H) and `dstedc`'s D^2 workspace. A
    non-finite propagated column raises LinAlgError, as LAPACKE's scans
    find NaN only. H is copied first unless it is writeable
    C-contiguous float64.
    """
    dim = _square_dim(H, "propagate")
    if len(amplitudes) != dim:
        raise ValueError(f"state has dim {len(amplitudes)}, matrix {dim}")
    amplitudes = np.asarray(amplitudes)
    lib = blas.openblas()
    if lib is None or dim < blas.ONE_THREAD_BELOW:
        eigenvalues, V = _eigh(H)
        # dim-major phases: this operand order fixes the CSV bits. Time-major
        # ones, V @ phases, move them by up to 4e-15 at D=252 and run no
        # faster (one thread, 61 times); V's memory order changes neither
        re, im = np.stack([amplitudes.real, amplitudes.imag], axis=1).T @ V
        product = _phased(eigenvalues, re + 1j * im, times).T @ V.T
        return _complex_rows(product)
    H = np.require(H, np.float64, ["C", "W"])
    eigenvalues, e, tau = np.empty(dim), np.empty(dim - 1), np.empty(dim - 1)
    _check_info(lib.sytrd(H, eigenvalues, e, tau), "dsytrd", dim)
    blocks = _wy_blocks(lib, H, tau)
    state = np.array([amplitudes.real, amplitudes.imag], dtype=np.float64)
    _reflect(lib, blocks, state, b"T")
    _check_info(lib.stedc(eigenvalues, e, H), "dstedc", dim)  # Z over H, one per row
    re, im = state @ H.T  # the coefficients Z^T Q^T psi0
    # the (dim, 2 n_times) block Z parts, column-major: C-ordered, it is its transpose
    product = _phased(eigenvalues, re + 1j * im, times).T @ H
    if not np.isfinite(product).all():
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed for dim={dim} matrix: non-finite propagated amplitudes")
    _reflect(lib, blocks, product, b"N")
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


def slater_series(h: np.ndarray, sector: Sector, x0: int, times: np.ndarray) -> np.ndarray:
    """Non-interacting evolution of basis state x0, as time-major (n_times, dim) amplitudes.

    `h` is the one-particle Hamiltonian, the real symmetric N x N matrix of
    the one-particle sector in site order. The amplitude on basis state x of
    `sector` is det A(t)[sites(x), :], where A(t) = U(t)[:, sites(x0)] holds
    the occupied columns of U(t) = exp(-i h t) (Peschel, J. Phys. A 36, L205,
    2003). The minors are built by Laplace expansion, one particle count at a
    time, so the cost is sum_j j C(N, j) per time instead of a dim^3
    decomposition.
    """
    n = sector.n_sites
    if _square_dim(h, "slater_series") != n:
        raise ValueError(f"one-particle Hamiltonian has shape {np.shape(h)}, chain has {n} sites")
    occupied = np.flatnonzero((int(x0) >> np.arange(n)) & 1)
    if len(occupied) != sector.n_particles:
        raise ValueError(f"state {int(x0):#b} is not in the {sector.n_particles}-particle sector")
    eigenvalues, V = _eigh(h)
    phases = np.exp(np.outer(np.asarray(times), eigenvalues) * (-1j))
    A = (V * phases[:, None, :]) @ V[occupied].T  # (n_times, N, k)
    minors = np.ones((len(phases), 1), dtype=complex)  # the one 0-particle minor
    for j in range(1, sector.n_particles + 1):
        sites, rest, sign = _laplace_tables(n, j)
        column = A[:, :, j - 1]
        minors = sum(s * column[:, sites[:, p]] * minors[:, rest[:, p]] for p, s in enumerate(sign))
    return minors
