"""Disordered fermion chain Hamiltonians restricted to a particle-number sector.

The model is nearest-neighbour hopping J, on-site disorder W * eps_i with
eps_i uniform on [-1, 1), and an optional nearest-neighbour density-density
interaction g. g = 0 is the non-interacting (Anderson) chain. All matrix
elements are real; matrices are stored dense and exactly symmetric. The
parts that do not depend on the disorder (occupations, hop positions and
string signs) are computed once per sector and bond list. The disorder is
numpy's `default_rng(seed).uniform` stream, drawn here in pure Python, so
no run imports numpy's random module and a CSV does not depend on numpy's
`Generator`, whose streams NEP 19 leaves free to change between versions.
"""

from __future__ import annotations

import operator
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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and the
# 128-bit LCG multiplier of PCG64 (O'Neill, PCG, HMC-CS-2014-0905, 2014)
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_state(entropy: tuple[int, ...], n_words: int) -> list[int]:
    """numpy's `SeedSequence(entropy).generate_state(n_words, uint64)` as
    Python ints: the integers' 32-bit words, low first, are hashed into a
    4-word pool, and the 64-bit words are read out of the pool by a second hash."""
    words = []
    for value in map(operator.index, entropy):
        if value < 0:
            raise ValueError(f"a seed must be nonnegative, got {value}")
        words.append(value & _M32)
        while value := value >> 32:
            words.append(value & _M32)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, const = [], _INIT_B
    for i in range(2 * n_words):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return [low | high << 32 for low, high in zip(out[::2], out[1::2])]


def sample_disorder(n_sites: int, seed: int) -> np.ndarray:
    """Draw n_sites independent uniforms on [-1, 1), deterministic in seed (read-only).

    Bit for bit numpy's `default_rng(seed).uniform(-1, 1, n_sites)`: PCG64
    seeded from `seed_state((seed,), 4)`, each draw one LCG step and the
    XSL-RR output u, mapped to -1 + 2 (u >> 11) 2^-53.
    """
    s_high, s_low, i_high, i_low = seed_state((seed,), 4)
    inc = ((i_high << 64 | i_low) << 1 | 1) & _M128
    # seeding: state 0 stepped once, plus initstate, stepped again
    state = ((inc + (s_high << 64 | s_low)) * _PCG_MULT + inc) & _M128
    eps = np.empty(n_sites)
    for i in range(n_sites):
        state = (state * _PCG_MULT + inc) & _M128
        # XSL-RR: the state's halves xor-ed, rotated right by its top 6 bits
        word, rot = ((state >> 64) ^ state) & _M64, state >> 122
        u = (word >> rot | word << (64 - rot)) & _M64
        eps[i] = -1.0 + 2.0 * ((u >> 11) * 2.0**-53)
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
