"""Occupation-number basis states, particle-number sectors, and fermionic sign rules.

A basis state is a plain integer: site i (1-based, numbered left to right)
is occupied iff bit (i - 1) is set. Sectors list their states in ascending
integer order; that ordering fixes the matrix conventions everywhere else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np


@dataclass(frozen=True, eq=False)
class Sector:
    """All basis states with a fixed particle number on a fixed chain."""

    n_sites: int
    n_particles: int
    states: np.ndarray  # ascending int64 bit patterns

    @property
    def dim(self) -> int:
        return len(self.states)


@lru_cache(maxsize=None)
def enumerate_sector(n_sites: int, n_particles: int) -> Sector:
    """Enumerate all bit patterns with the given popcount, ascending."""
    if not 0 <= n_particles <= n_sites:
        raise ValueError(
            f"particle count {n_particles} outside [0, {n_sites}]"
        )
    patterns = sorted(
        sum(1 << i for i in sites)
        for sites in itertools.combinations(range(n_sites), n_particles)
    )
    assert len(patterns) == comb(n_sites, n_particles)
    states = np.asarray(patterns, dtype=np.int64)
    states.setflags(write=False)
    return Sector(n_sites=n_sites, n_particles=n_particles, states=states)


@lru_cache(maxsize=None)
def full_space(n_sites: int) -> tuple[Sector, ...]:
    """All sectors of the chain, k = 0..N, in particle-number order."""
    return tuple(enumerate_sector(n_sites, k) for k in range(n_sites + 1))


def sites_between_mask(i: int, j: int) -> int:
    """Bit mask of the sites strictly between sites i and j."""
    lo, hi = sorted((i, j))
    return ((1 << (hi - 1)) - 1) ^ ((1 << lo) - 1)
