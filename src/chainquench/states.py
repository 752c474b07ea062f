"""Initial states for the quench protocol.

Ket strings |b1 b2 ... bN> are read left to right as sites 1..N, so the
alternating half-filled state occupies sites 1, 3, 5, ... and the fully
polarized incoherent state occupies the left half of the chain. Every state
is a `BlockState(n_sites, sectors, amplitudes)`: its particle-number sectors
and one amplitude array over their states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import sqrt

import numpy as np

from .hilbert import Sector, enumerate_sector, full_space


@dataclass(frozen=True, eq=False)
class BlockState:
    """A pure state as particle-number blocks, at most one per count.

    All amplitudes lie in one C-ordered array, shaped (dim,) at one time or
    time-major (n_times, dim) over a grid, with dim summed over `sectors`:
    block j holds sector j's amplitudes in its basis order, in the columns
    after those of the blocks before it, and `blocks` gives them as views of
    those columns. C-ordered amplitudes are held without a copy, any others
    are copied into C order.
    """

    n_sites: int
    sectors: tuple[Sector, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not self.sectors:
            raise ValueError("a state needs at least one sector")
        counts = [sector.n_particles for sector in self.sectors]
        if len(set(counts)) != len(counts):
            raise ValueError(f"one block per particle count, got counts {counts}")
        for sector in self.sectors:
            if sector.n_sites != self.n_sites:
                raise ValueError(f"a {sector.n_sites}-site sector in a {self.n_sites}-site state")
        dim = sum(sector.dim for sector in self.sectors)
        if np.shape(self.amplitudes)[-1:] != (dim,):
            raise ValueError(f"amplitudes shaped {np.shape(self.amplitudes)} for the {dim} "
                             f"states of particle counts {counts}")
        # C order keeps each time's amplitudes contiguous, so every reduction
        # over them runs exactly as it would on that time's state alone
        object.__setattr__(self, "amplitudes", np.ascontiguousarray(self.amplitudes))

    @property
    def blocks(self) -> tuple[tuple[Sector, np.ndarray], ...]:
        """(sector, amplitudes) per block, each a view of its columns."""
        stops = accumulate(sector.dim for sector in self.sectors)
        return tuple((sector, self.amplitudes[..., stop - sector.dim:stop])
                     for sector, stop in zip(self.sectors, stops))

    @property
    def time_shape(self) -> tuple[int, ...]:
        """() at one time, (n_times,) over a grid."""
        return self.amplitudes.shape[:-1]

    def norm2(self):
        """Squared norm, one value per time."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=-1)


def _basis_state(bits: int, sector: Sector) -> BlockState:
    amps = np.zeros(sector.dim, dtype=complex)
    amps[np.searchsorted(sector.states, bits)] = 1.0
    return BlockState(sector.n_sites, (sector,), amps)


def neel(n_sites: int) -> BlockState:
    """Alternating occupation |1010...10>, leftmost site occupied, half filling."""
    if n_sites % 2:
        raise ValueError("alternating half filling needs an even number of sites")
    bits = sum(1 << i for i in range(0, n_sites, 2))
    return _basis_state(bits, enumerate_sector(n_sites, n_sites // 2))


def max_incoherent(n_sites: int) -> BlockState:
    """All particles on the left half of the chain, |1...10...0>."""
    if n_sites % 2:
        raise ValueError("half filling needs an even number of sites")
    bits = (1 << (n_sites // 2)) - 1
    return _basis_state(bits, enumerate_sector(n_sites, n_sites // 2))


def max_coherent(n_sites: int) -> BlockState:
    """Uniform superposition of all 2^N occupation states.

    Mixes even and odd particle numbers, so it is not a physical fermionic
    state; it is still useful as the extreme-coherence reference point.
    """
    amps = np.full(2**n_sites, 2.0 ** (-n_sites / 2.0), dtype=complex)
    return BlockState(n_sites, full_space(n_sites), amps)


def w_state(n_sites: int) -> BlockState:
    """Uniform single-excitation superposition over all sites."""
    if n_sites < 1:
        raise ValueError("chain needs at least one site")
    sector = enumerate_sector(n_sites, 1)
    amps = np.full(sector.dim, 1.0 / sqrt(n_sites), dtype=complex)
    return BlockState(sector.n_sites, (sector,), amps)
