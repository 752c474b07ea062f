"""Disordered fermion chain Hamiltonians restricted to a particle-number sector.

The model is nearest-neighbour hopping J, on-site disorder W * eps_i with
eps_i uniform on [-1, 1], and an optional nearest-neighbour density-density
interaction g. g = 0 is the non-interacting (Anderson) chain. All matrix
elements are real; matrices are stored dense and exactly symmetric. The
parts that do not depend on the disorder (occupations, hop positions and
string signs) are computed once per sector and bond list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import Sector, sites_between_mask

BOUNDARIES = ("open", "periodic")


@dataclass(frozen=True)
class ChainParams:
    """Chain size and couplings (hbar = 1, energies in units of J)."""

    n_sites: int
    J: float = 1.0
    W: float = 0.0
    g: float = 0.0
    boundary: str = "open"

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError("chain needs at least 2 sites")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        for name in ("J", "W", "g"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def bonds(self) -> list[tuple[int, int]]:
        """Nearest-neighbour site pairs; the wrap-around pair only if periodic."""
        pairs = [(i, i + 1) for i in range(1, self.n_sites)]
        if self.boundary == "periodic":
            pairs.append((self.n_sites, 1))
        return pairs


def sample_disorder(n_sites: int, seed: int) -> np.ndarray:
    """Draw n_sites independent uniforms on [-1, 1], deterministic in seed (read-only)."""
    rng = np.random.default_rng(seed)
    eps = rng.uniform(-1.0, 1.0, n_sites)
    eps.setflags(write=False)
    return eps


@lru_cache(maxsize=None)
def _hop_tables(
    sector: Sector, bonds: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The disorder-free parts of every Hamiltonian on `sector`, read-only.

    `occupation[m, i]` is n_{i+1} of basis state m. Every hop along a bond,
    in bond order, is one entry of `flat` (its row * dim + column in the
    dense matrix) and of `sign`, the fermionic string sign of the hop.
    """
    states = sector.states
    occupation = ((states[:, None] >> np.arange(sector.n_sites)) & 1).astype(np.float64)
    flat, sign = [], []
    for a, b in bonds:
        bit_a = np.int64(1 << (a - 1))
        bit_b = np.int64(1 << (b - 1))
        hoppable = ((states & bit_a) != 0) ^ ((states & bit_b) != 0)
        src = states[hoppable]
        dst = src ^ (bit_a | bit_b)
        # sign is the parity of occupied sites strictly between the bond ends;
        # it is the same for both hop directions
        crossed = np.bitwise_count(src & np.int64(sites_between_mask(a, b)))
        sign.append(1.0 - 2.0 * (crossed & 1))
        flat.append(np.searchsorted(states, dst) * sector.dim + np.flatnonzero(hoppable))
    tables = occupation, np.concatenate(flat), np.concatenate(sign)
    for table in tables:
        table.setflags(write=False)
    return tables


def build_hamiltonian(params: ChainParams, eps: np.ndarray, sector: Sector) -> np.ndarray:
    """Dense real symmetric Hamiltonian in the ascending basis order of `sector`.

    Diagonal: W * sum_i eps_i n_i + g * sum_bonds n_a n_b. Off-diagonal:
    J times the fermionic string sign between states that differ by one
    hop along a bond. Symmetric pairs of entries are written from the two
    hop directions, whose string signs agree exactly.
    """
    if len(eps) != params.n_sites:
        raise ValueError(f"disorder has {len(eps)} components for {params.n_sites} sites")
    if sector.n_sites != params.n_sites:
        raise ValueError(f"sector is for {sector.n_sites} sites, params for {params.n_sites}")

    bonds = tuple(params.bonds())
    occupation, flat, sign = _hop_tables(sector, bonds)
    dim = sector.dim
    H = np.zeros((dim, dim))
    diag = params.W * (occupation @ eps)
    for a, b in bonds:
        diag += params.g * occupation[:, a - 1] * occupation[:, b - 1]
    H[np.diag_indices(dim)] = diag
    np.add.at(H.reshape(-1), flat, params.J * sign)
    return H
