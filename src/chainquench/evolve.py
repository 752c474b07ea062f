"""Exact unitary evolution by full Hermitian eigendecomposition.

One decomposition per sector serves the whole time grid: the propagator at
any t is V exp(-i lambda t) V^dagger, with no step-error accumulation at
long times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
