"""l1-norm coherence, predictability, and entanglement of occupation-basis states.

For a density matrix rho of dimension d in a fixed reference basis:

    coherence      C = sum_{j != k} |rho_jk|
    predictability P = d - 1 - sum_{j != k} sqrt(rho_jj rho_kk)
    entanglement   E = sum_{j != k} (sqrt(rho_jj rho_kk) - |rho_jk|)

so C + P + E = d - 1 identically. Reported triples are divided by d - 1
of the relevant space, making the three quantities sum to one. Global
quantities use the full 2^N computational dimension (components outside
the occupied particle-number sectors are zero and contribute nothing);
n-site window quantities use 2^n. Window density matrices come from the
sector blocks alone, never from dense 2^N amplitudes: one gather per window
and one real Gram per group of complements beside the same window patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .hilbert import enumerate_sector
from .states import BlockState

NORM_ATOL = 1e-8


@dataclass(frozen=True)
class QuantifierTriple:
    """Normalized (C, P, E), one value per time; sums to 1 for pure states."""

    C: float | np.ndarray
    P: float | np.ndarray
    E: float | np.ndarray


# Every function below reduces over trailing axes only, so on a C-ordered stack
# of inputs along leading (time) axes it gives, bit for bit, the stack of the
# separate results.


def _diag_probs(m: np.ndarray) -> np.ndarray:
    # tiny negative diagonals from numerical noise would poison the sqrt
    return np.clip(np.diagonal(m, axis1=-2, axis2=-1).real, 0.0, None)


def _off_diagonal_sum(a: np.ndarray) -> np.ndarray:
    return a.sum(axis=(-2, -1)) - np.trace(a, axis1=-2, axis2=-1)


def coherence_l1(rho: np.ndarray) -> float | np.ndarray:
    """Sum of absolute off-diagonal elements of each (..., d, d) matrix."""
    return _off_diagonal_sum(np.abs(rho))


def predictability_l1(rho: np.ndarray) -> float | np.ndarray:
    """d - 1 minus the off-diagonal sum of sqrt(rho_jj rho_kk); diagonal-only."""
    p = _diag_probs(rho)
    s = np.sqrt(p).sum(axis=-1)
    return p.shape[-1] - 1 - (s * s - p.sum(axis=-1))


def entanglement_l1(rho: np.ndarray) -> float | np.ndarray:
    """Term-by-term sum of sqrt(rho_jj rho_kk) - |rho_jk| over j != k.

    Computed directly rather than via d - 1 - C - P, so cancellation in
    the identity stays a checkable property instead of a built-in truth.
    """
    root = np.sqrt(_diag_probs(rho))
    return _off_diagonal_sum(root[..., :, None] * root[..., None, :] - np.abs(rho))


def _check_norm(psi: BlockState) -> None:
    deviation = np.max(np.abs(psi.norm2() - 1.0))
    if deviation > NORM_ATOL:
        raise ValueError(f"state is not normalized: max ||psi|^2 - 1| = {float(deviation)!r}")


def global_quantifiers(psi: BlockState) -> QuantifierTriple:
    """Whole-chain triple of a pure state; no bipartition, so E = 0.

    Uses the pure-state shortcut: with s1 = sum_j |psi_j| over all 2^N
    components, raw C = s1^2 - 1 and raw P = 2^N - s1^2. Equivalent to
    building |psi><psi| explicitly but never materializes it.
    """
    _check_norm(psi)
    d = 1 << psi.n_sites
    s1 = np.concatenate([np.abs(amps) for _, amps in psi.blocks], axis=-1).sum(axis=-1)
    scale = d - 1
    return QuantifierTriple(C=(s1 * s1 - 1.0) / scale, P=(d - s1 * s1) / scale, E=0.0)


@lru_cache(maxsize=None)
def _gather_plan(n_sites: int, counts: tuple[int, ...], first_site: int, width: int):
    """Where one window's amplitudes lie in blocks of particle counts `counts`.

    A complement b (the sites outside the window) of popcount c sits beside
    the patterns a of popcount in counts - c. By that set, `index` groups the
    blocks' real and imaginary parts into rows (a, re/im) by columns b, both
    ascending. Places come from ranks: a sort's first call maps code.
    """
    low = first_site - 1
    states = np.concatenate([enumerate_sector(n_sites, k).states for k in counts])
    pattern = (states >> low) & ((1 << width) - 1)
    rest = (states >> (low + width) << low) | (states & ((1 << low) - 1))
    # bit j of beside[c]: patterns of popcount j sit beside complements of popcount c
    beside = [sum(1 << (k - c) for k in counts if 0 <= k - c <= width)
              for c in range(n_sites - width + 1)]
    group = np.array(beside)[np.bitwise_count(rest)]
    index = np.empty(2 * len(states), dtype=np.intp)
    groups, start = [], 0
    for mask in filter(None, dict.fromkeys(beside)):
        patterns = np.array([a for a in range(1 << width) if mask >> a.bit_count() & 1])
        members = np.flatnonzero(group == mask)
        # b's rank among the group's complements: those below it, class by class
        classes = [enumerate_sector(n_sites - width, c).states
                   for c, other in enumerate(beside) if other == mask]
        n_rest = sum(map(len, classes))
        column = sum(np.searchsorted(below, rest[members]) for below in classes)
        place = start + 2 * np.searchsorted(patterns, pattern[members]) * n_rest + column
        index[place], index[place + n_rest] = 2 * members, 2 * members + 1
        groups.append((patterns, slice(start, start + 2 * len(members))))
        start += 2 * len(members)
    index.setflags(write=False)
    return index, tuple(groups)


def _window_matrices(psi: BlockState, width: int, firsts: Iterable[int]) -> Iterator[np.ndarray]:
    """Each window's (..., 2^w, 2^w) density matrix in turn, from the sector blocks:
    x x^T + y y^T + i (y x^T - x y^T) for each group's gathered parts x, y."""
    _check_norm(psi)
    parts = [np.asarray(amps, dtype=complex).reshape(-1, sector.dim).view(np.float64)
             for sector, amps in psi.blocks]
    columns = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    buffer = np.empty(columns.shape)
    counts = tuple(sector.n_particles for sector, _ in psi.blocks)
    d = 1 << width
    for first in firsts:
        index, groups = _gather_plan(psi.n_sites, counts, first, width)
        np.take(columns, index, axis=-1, out=buffer, mode="clip")
        rho = np.zeros((len(buffer), d, d), dtype=complex)
        for patterns, part in groups:
            r = buffer[:, part].reshape(len(buffer), 2 * len(patterns), -1)
            # a 3-D stack even at one time: each time's Gram is the same product
            g = r @ r.swapaxes(-1, -2)
            # all patterns add in place, so such a window peaks at rho and one Gram
            block = ... if len(patterns) == d else (slice(None), patterns[:, None], patterns)
            rho.real[block] += g[:, 0::2, 0::2]
            rho.real[block] += g[:, 1::2, 1::2]
            rho.imag[block] += g[:, 1::2, 0::2]
            rho.imag[block] -= g[:, 0::2, 1::2]
        del g  # before the next window's rho and Gram, which is twice its size
        yield rho.reshape(psi.time_shape + (d, d))


def partial_trace(psi: BlockState, keep_sites: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a contiguous site window, (..., 2^w, 2^w).

    Works in the occupation (qubit) representation with sites in chain
    order: rho[a, a'] = sum_b psi[a (x) b] conj(psi[a' (x) b]) over the
    complement configurations b. Basis index a encodes the window
    occupations with the first kept site as the least significant bit.
    Only contiguous windows are supported; there the window diagonal agrees
    with the fermionic-mode one and no reordering signs arise.
    """
    keep = tuple(int(s) for s in keep_sites)
    if not keep:
        raise ValueError("keep_sites must be nonempty")
    n_sites = psi.n_sites
    if any(not 1 <= s <= n_sites for s in keep):
        raise ValueError(f"sites {keep} outside chain 1..{n_sites}")
    if keep != tuple(range(keep[0], keep[0] + len(keep))):
        raise NotImplementedError(
            f"only contiguous ascending site windows are supported, got {keep}"
        )
    return next(_window_matrices(psi, len(keep), [keep[0]]))


def local_quantifiers(psi: BlockState, n: int) -> QuantifierTriple:
    """Average normalized triple over all N - n + 1 contiguous n-site windows."""
    n_sites = psi.n_sites
    if not 1 <= n <= n_sites:
        raise ValueError(f"window size {n} outside 1..{n_sites}")
    c_sum = p_sum = e_sum = 0.0
    n_windows = n_sites - n + 1
    for rho in _window_matrices(psi, n, range(1, n_windows + 1)):
        c_sum += coherence_l1(rho)
        p_sum += predictability_l1(rho)
        e_sum += entanglement_l1(rho)
        del rho  # before the next window's Gram, which is twice its size
    scale = ((1 << n) - 1) * n_windows
    return QuantifierTriple(C=c_sum / scale, P=p_sum / scale, E=e_sum / scale)


_QUANTIFIER_ALIASES = {
    "p": "predictability",
    "predictability": "predictability",
    "c": "coherence",
    "coherence": "coherence",
    "e": "entanglement",
    "entanglement": "entanglement",
}


def measurement_cost(n_sites: int, quantifier: str) -> int:
    """Observable count for estimating a quantifier on an N-qubit register.

    Predictability needs only the N single-site occupation observables;
    coherence and entanglement need the full 4^N Pauli-string budget of
    state tomography.
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    kind = _QUANTIFIER_ALIASES.get(str(quantifier).lower())
    if kind is None:
        raise ValueError(f"unknown quantifier {quantifier!r}")
    if kind == "predictability":
        return n_sites
    return 4**n_sites
