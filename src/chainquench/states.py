"""Initial states for the quench protocol.

Ket strings |b1 b2 ... bN> are read left to right as sites 1..N, so the
alternating half-filled state occupies sites 1, 3, 5, ... and the fully
polarized incoherent state occupies the left half of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from .hilbert import Sector, enumerate_sector, full_space


@dataclass(frozen=True, eq=False, init=False)
class BlockState:
    """A pure state as particle-number blocks, at most one per count.

    All amplitudes lie in one C-ordered array, shaped (dim,) at one time or
    time-major (n_times, dim) over a grid, with dim summed over `sectors`:
    block j holds sector j's amplitudes in its basis order, in the columns
    after those of the blocks before it. `BlockState(n_sites, blocks)` takes
    (sector, amplitudes) pairs of one leading shape, and `blocks` gives them
    back as views of their columns. A state of definite particle number is a
    single block, held without a copy when its amplitudes are C-ordered.
    """

    n_sites: int
    sectors: tuple[Sector, ...]
    amplitudes: np.ndarray

    def __init__(self, n_sites: int, blocks: Iterable[tuple[Sector, np.ndarray]]) -> None:
        blocks = tuple((sector, np.asarray(amps)) for sector, amps in blocks)
        if not blocks:
            raise ValueError("a state needs at least one block")
        for sector, amps in blocks:
            if amps.shape[-1:] != (sector.dim,):
                raise ValueError(f"{sector.n_particles}-particle block: amplitudes shaped "
                                 f"{amps.shape} for {sector.dim} states")
        if len({amps.shape[:-1] for _, amps in blocks}) > 1:
            raise ValueError(f"blocks of different leading shapes {[a.shape for _, a in blocks]}")
        # C order keeps each time's amplitudes contiguous, so every reduction
        # over them runs exactly as it would on that time's state alone
        parts = [amps for _, amps in blocks]
        if len(parts) == 1:
            amplitudes = np.ascontiguousarray(parts[0])
        else:  # concatenate alone would follow its inputs' order
            dim = sum(amps.shape[-1] for amps in parts)
            amplitudes = np.empty(parts[0].shape[:-1] + (dim,), np.result_type(*parts))
            np.concatenate(parts, axis=-1, out=amplitudes)
        self._hold(n_sites, tuple(sector for sector, _ in blocks), amplitudes)

    @classmethod
    def empty(cls, n_sites: int, sectors: Sequence[Sector],
              time_shape: tuple[int, ...] = ()) -> BlockState:
        """A complex state on `sectors` whose amplitudes are still to be written,
        block by block through `blocks`."""
        state = cls.__new__(cls)
        dim = sum(sector.dim for sector in sectors)
        state._hold(n_sites, tuple(sectors), np.empty(time_shape + (dim,), dtype=complex))
        return state

    def _hold(self, n_sites: int, sectors: tuple[Sector, ...], amplitudes: np.ndarray) -> None:
        counts = [sector.n_particles for sector in sectors]
        if len(set(counts)) != len(counts):
            raise ValueError(f"one block per particle count, got counts {counts}")
        for sector in sectors:
            if sector.n_sites != n_sites:
                raise ValueError(f"a {sector.n_sites}-site sector in a {n_sites}-site state")
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "sectors", sectors)
        object.__setattr__(self, "amplitudes", amplitudes)

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
