"""Exact unitary evolution from Hermitian eigendecompositions.

One decomposition serves the whole time grid: the propagator at any t is
V exp(-i lambda t) V^dagger, with no step-error accumulation at long times.
`evolve_series` applies the full eigendecomposition of a many-body sector.
`slater_series` needs only the N x N one-particle one: without interaction
(g = 0) a basis state stays a Slater determinant, and its amplitudes are
minors of the one-particle propagator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import Sector, enumerate_sector
from .states import BlockState


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues and the unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing positive times, in units of 1/J."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("time grid must be a nonempty 1-d array")
        if times[0] <= 0:
            raise ValueError("times must be positive")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.times)


def default_time_grid(t_min: float = 0.1, t_max: float = 1000.0, n_points: int = 61) -> TimeGrid:
    """Logarithmically spaced grid with exact endpoints."""
    if not 0 < t_min < t_max:
        raise ValueError(f"need 0 < t_min < t_max, got ({t_min}, {t_max})")
    if n_points < 2:
        raise ValueError("grid needs at least 2 points")
    times = np.logspace(np.log10(t_min), np.log10(t_max), n_points)
    times[0] = t_min
    times[-1] = t_max
    return TimeGrid(times=times)


def decompose(H: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a dense real symmetric sector Hamiltonian."""
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed for dim={len(H)} matrix "
            f"(max |entry| = {np.max(np.abs(H)):.3e}): {exc}"
        ) from exc
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def evolve_series(
    spec: SpectralDecomposition, amplitudes: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Amplitudes at every grid time, as a (dim, n_times) array."""
    if len(amplitudes) != spec.dim:
        raise ValueError(f"state has dim {len(amplitudes)}, decomposition {spec.dim}")
    coeffs = spec.eigenvectors.conj().T @ amplitudes
    phases = np.exp(np.outer(spec.eigenvalues, np.asarray(times)) * (-1j))
    return spec.eigenvectors @ (phases * coeffs[:, None])


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


def evolve_state(specs: dict[int, SpectralDecomposition], psi0: BlockState, t) -> BlockState:
    """Evolve each block under specs[its particle number].

    Blocks are matched by particle number, not by position or dimension:
    sectors k and N - k have the same dimension but different Hamiltonians.
    A scalar t gives (dim,) blocks; a 1-d array of times gives time-major
    (n_times, dim) blocks.
    """
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ValueError("time must be nonnegative")
    blocks = []
    for sector, amps in psi0.blocks:
        spec = specs.get(sector.n_particles)
        if spec is None:
            raise ValueError(
                f"no decomposition supplied for the {sector.n_particles}-particle block"
            )
        series = evolve_series(spec, amps, times.reshape(-1))
        blocks.append((sector, series.T.reshape(times.shape + (-1,))))
    return BlockState(n_sites=psi0.n_sites, blocks=tuple(blocks))
