"""Brute-force reference implementations used only by the tests.

Everything here is deliberately independent of the package internals:
states are occupation tuples, operators are applied one at a time with
explicit anticommutation bookkeeping, density matrices are materialized,
and sums run in plain Python loops. The exceptions are `hop_sign`, the
scalar form of the package's string-sign rule, kept here so the tests can
check `sites_between_mask` hop by hop against operator application, and the
two converters between a `BlockState` and its full 2^N amplitudes
(`dense_amplitudes`, `blocks_from_dense`).
"""

from __future__ import annotations

import numpy as np

from chainquench.hilbert import full_space, sites_between_mask
from chainquench.states import BlockState


def occ_tuple(bits: int, n_sites: int) -> tuple[int, ...]:
    return tuple((bits >> i) & 1 for i in range(n_sites))


def tuple_bits(occ) -> int:
    return sum(bit << i for i, bit in enumerate(occ))


def annihilate(occ, site):
    """Apply c_site to an ordered Fock state; returns (new occ, sign) or (None, 0)."""
    if not occ[site - 1]:
        return None, 0
    sign = -1 if sum(occ[: site - 1]) % 2 else 1
    new = list(occ)
    new[site - 1] = 0
    return tuple(new), sign


def create(occ, site):
    """Apply c^dagger_site; returns (new occ, sign) or (None, 0)."""
    if occ[site - 1]:
        return None, 0
    sign = -1 if sum(occ[: site - 1]) % 2 else 1
    new = list(occ)
    new[site - 1] = 1
    return tuple(new), sign


def hop_sign(state: int, i: int, j: int) -> int:
    """Sign of moving the particle on site i to the empty site j.

    Reordering the creation operators back into site order crosses every
    occupied site strictly between i and j once, so the sign is (-1) to
    that count. Adjacent hops therefore always give +1.
    """
    if i == j:
        raise ValueError("hop requires two distinct sites")
    if not (state >> (i - 1)) & 1:
        raise ValueError(f"site {i} is not occupied in state {state:#b}")
    if (state >> (j - 1)) & 1:
        raise ValueError(f"site {j} is already occupied in state {state:#b}")
    crossed = state & sites_between_mask(i, j)
    return -1 if crossed.bit_count() & 1 else 1


def hop_amplitude(bits: int, src: int, dst: int, n_sites: int):
    """<final| c^dagger_dst c_src |bits> by operator application.

    Returns (final bits, amplitude sign) or (None, 0) if the term kills
    the state.
    """
    occ = occ_tuple(bits, n_sites)
    inter, s1 = annihilate(occ, src)
    if inter is None:
        return None, 0
    fin, s2 = create(inter, dst)
    if fin is None:
        return None, 0
    return tuple_bits(fin), s1 * s2


def dense_hamiltonian(n_sites, J, W, g, epsilon, boundary="open"):
    """Full 2^N matrix assembled term by term from the model Hamiltonian."""
    dim = 2**n_sites
    H = np.zeros((dim, dim))
    bonds = [(i, i + 1) for i in range(1, n_sites)]
    if boundary == "periodic":
        bonds.append((n_sites, 1))
    for s in range(dim):
        occ = occ_tuple(s, n_sites)
        H[s, s] += W * sum(epsilon[i] * occ[i] for i in range(n_sites))
        for a, b in bonds:
            H[s, s] += g * occ[a - 1] * occ[b - 1]
        for a, b in bonds:
            # J (c^dagger_b c_a + c^dagger_a c_b)
            for src, dst in ((a, b), (b, a)):
                final, sign = hop_amplitude(s, src, dst, n_sites)
                if final is not None:
                    H[final, s] += J * sign
    return H


def dense_amplitudes(psi):
    """A BlockState's amplitudes on all 2^N basis states (bit pattern = index)."""
    out = np.zeros(psi.time_shape + (1 << psi.n_sites,), dtype=complex)
    for sector, amps in psi.blocks:
        out[..., sector.states] = amps
    return out


def blocks_from_dense(amplitudes, n_sites):
    """Split full 2^N amplitudes (last axis) into their nonzero sector blocks."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape[-1:] != (1 << n_sites,):
        raise ValueError(
            f"expected {1 << n_sites} amplitudes for {n_sites} sites, got {amplitudes.shape}"
        )
    sectors = tuple(s for s in full_space(n_sites) if np.any(amplitudes[..., s.states] != 0))
    states = np.concatenate([sector.states for sector in sectors])
    return BlockState(n_sites, sectors, amplitudes[..., states])


def dense_partial_trace(vec, n_sites, keep_sites):
    """Outer-product-then-trace reduction of a full 2^N pure state."""
    rho = np.outer(vec, np.conj(vec))
    keep = [s - 1 for s in keep_sites]
    rest = [i for i in range(n_sites) if i not in keep]
    dim_keep = 2 ** len(keep)
    out = np.zeros((dim_keep, dim_keep), dtype=complex)

    def assemble(a, b):
        idx = 0
        for m, pos in enumerate(keep):
            idx |= ((a >> m) & 1) << pos
        for m, pos in enumerate(rest):
            idx |= ((b >> m) & 1) << pos
        return idx

    for a in range(dim_keep):
        for a2 in range(dim_keep):
            acc = 0.0 + 0.0j
            for b in range(2 ** len(rest)):
                acc += rho[assemble(a, b), assemble(a2, b)]
            out[a, a2] = acc
    return out


def quantifiers_from_rho(rho):
    """Raw (C, P, E) by direct double loops over the density matrix."""
    d = rho.shape[0]
    C = 0.0
    P_off = 0.0
    E = 0.0
    for j in range(d):
        for k in range(d):
            if j == k:
                continue
            geo = np.sqrt(max(rho[j, j].real, 0.0) * max(rho[k, k].real, 0.0))
            C += abs(rho[j, k])
            P_off += geo
            E += geo - abs(rho[j, k])
    return C, d - 1 - P_off, E


def random_density_matrix(rng, d):
    """rho = A A^dagger / tr, for A with iid complex normal entries."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)
