"""Initial states for the quench protocol.

Ket strings |b1 b2 ... bN> are read left to right as sites 1..N, so the
alternating half-filled state occupies sites 1, 3, 5, ... and the fully
polarized incoherent state occupies the left half of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .hilbert import Sector, enumerate_sector, full_space


@dataclass(frozen=True, eq=False)
class BlockState:
    """A pure state as particle-number blocks, at most one per count.

    Each block holds amplitudes in its sector's basis order, shaped (dim,) at
    one time or time-major (n_times, dim) over a grid; all blocks share the
    leading shape. A state of definite particle number is a single block.
    """

    n_sites: int
    blocks: tuple[tuple[Sector, np.ndarray], ...]

    def __post_init__(self) -> None:
        # C order keeps each time's amplitudes contiguous, so every reduction
        # over a block runs exactly as it would on that time's state alone
        blocks = tuple((sector, np.ascontiguousarray(amps)) for sector, amps in self.blocks)
        counts = [sector.n_particles for sector, _ in blocks]
        if len(set(counts)) != len(counts):
            raise ValueError(f"one block per particle count, got counts {counts}")
        for sector, amps in blocks:
            if sector.n_sites != self.n_sites:
                raise ValueError(f"a {sector.n_sites}-site sector in a {self.n_sites}-site state")
            if amps.shape[-1:] != (sector.dim,):
                raise ValueError(f"{sector.n_particles}-particle block: amplitudes shaped "
                                 f"{amps.shape} for {sector.dim} states")
        if len({amps.shape[:-1] for _, amps in blocks}) > 1:
            raise ValueError(f"blocks of different leading shapes {[a.shape for _, a in blocks]}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def time_shape(self) -> tuple[int, ...]:
        """() at one time, (n_times,) over a grid."""
        return np.broadcast_shapes(*(amps.shape[:-1] for _, amps in self.blocks))

    def norm2(self):
        """Squared norm, one value per time."""
        return sum(np.sum(np.abs(amps) ** 2, axis=-1) for _, amps in self.blocks)


def _basis_state(bits: int, sector: Sector) -> BlockState:
    amps = np.zeros(sector.dim, dtype=complex)
    amps[np.searchsorted(sector.states, bits)] = 1.0
    return BlockState(n_sites=sector.n_sites, blocks=((sector, amps),))


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
    amp = 2.0 ** (-n_sites / 2.0)
    blocks = tuple(
        (sector, np.full(sector.dim, amp, dtype=complex))
        for sector in full_space(n_sites)
    )
    return BlockState(n_sites=n_sites, blocks=blocks)


def w_state(n_sites: int) -> BlockState:
    """Uniform single-excitation superposition over all sites."""
    if n_sites < 1:
        raise ValueError("chain needs at least one site")
    sector = enumerate_sector(n_sites, 1)
    amps = np.full(sector.dim, 1.0 / sqrt(n_sites), dtype=complex)
    return BlockState(n_sites=sector.n_sites, blocks=((sector, amps),))
