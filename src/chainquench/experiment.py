"""Disorder-averaged quench protocol.

For each realization: draw on-site energies, build a Hamiltonian, evolve
the chosen initial state over the time grid into one time-major
(n_times, dim) state, and evaluate the quantifier triple at every time.
Without interaction (g = 0) a basis state (`neel`, `max_incoherent`)
evolves as a Slater determinant: `evolve.slater_series` diagonalizes the
N x N one-particle Hamiltonian. Every other run hands the dense Hamiltonian
of each sector the state occupies to `evolve.propagate`, which diagonalizes
it through its eigenvectors below `evolve.TRIDIAGONAL_FROM` (200) states
and through its tridiagonal form from there up. A state of one sector holds
`propagate`'s array as it is; one of several is propagated sector by sector
into the columns of one array. Realizations are
independent and run on the calling thread and, in a pooled or helped run,
on helper threads beside it; aggregation always folds them in
realization-index order. `run_experiment` sets the OpenBLAS thread count
once for the whole run: one thread for a worker pool, and for a serial run
whose largest matrix lies below `blas.ONE_THREAD_BELOW` (462) states, so
those runs are bit-identical to each other; any other serial run keeps the
library's count, and its results can differ from a pooled run's in the last
digits. A serial run on one thread whose library had more than one runs its
realizations two at a time instead, on the calling thread and one helper,
when two of them fit in memory.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from math import comb
from typing import Callable, Sequence

import numpy as np

from .blas import ONE_THREAD_BELOW, blas_threads, one_blas_thread
from .evolve import TimeGrid, propagate, slater_series
from .hamiltonian import ChainParams, build_hamiltonian, sample_disorder
from .hilbert import enumerate_sector
from .quantifiers import global_quantifiers, local_quantifiers
from .states import BlockState, max_coherent, max_incoherent, neel, w_state

MODES = ("global", "local")

SUPERSELECTION_WARNING = (
    "initial state max_coherent superposes even and odd particle numbers, "
    "which fermion parity superselection forbids; simulated regardless"
)

_BASIS_STATES = ("neel", "max_incoherent")  # one half-filled occupation pattern each

_STATE_FACTORIES: dict[str, Callable] = {
    "neel": neel,
    "max_incoherent": max_incoherent,
    "max_coherent": max_coherent,
    "w_state": w_state,
}


def _slater(config: ExperimentConfig) -> bool:
    """Whether a run evolves as a Slater determinant: no interaction, basis-state start."""
    return config.chain.g == 0 and config.initial_state in _BASIS_STATES


def _largest_matrix(config: ExperimentConfig) -> int:
    """The dimension of the largest matrix a realization diagonalizes: the
    N x N one-particle Hamiltonian on the Slater path, else the largest sector."""
    n = config.chain.n_sites
    return n if _slater(config) else comb(n, 1 if config.initial_state == "w_state" else n // 2)


class MemoryLimitError(ValueError):
    """The realizations that would run at once do not fit in physical memory."""


@dataclass(frozen=True)
class ExperimentConfig:
    chain: ChainParams
    initial_state: str
    grid: TimeGrid
    realizations: int
    master_seed: int
    mode: str = "global"
    window: int | None = None

    def __post_init__(self) -> None:
        if self.initial_state not in _STATE_FACTORIES:
            raise ValueError(
                f"initial_state must be one of {tuple(_STATE_FACTORIES)}, got {self.initial_state!r}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "local":
            if self.window is None or not 1 <= self.window <= self.chain.n_sites:
                raise ValueError(
                    f"local mode needs a window size in 1..{self.chain.n_sites}, "
                    f"got {self.window}"
                )
        elif self.window is not None:
            raise ValueError("window is only meaningful in local mode")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.initial_state in _BASIS_STATES and self.chain.n_sites % 2:
            raise ValueError(
                f"{self.initial_state} requires an even chain, got N={self.chain.n_sites}"
            )
        # checked first, so that the memory guard's comb(N, k) and 2^N are quick
        if self.chain.n_sites > 63:
            raise ValueError(
                "basis states are 63-bit patterns, so a chain has at most 63 sites, "
                f"got N={self.chain.n_sites}"
            )
        self.check_memory()
        self.grid.times  # builds the grid, which must be strictly increasing

    def check_memory(self, workers: int = 1) -> None:
        """Raise MemoryLimitError unless the realizations `workers` run at once fit."""
        # peak memory of one realization's largest step, sized before any
        # array exists, times the realizations that run at once:
        # - two (n_times, D) amplitude arrays on the dense path, over the D
        #   states of every occupied sector (2^N for max_coherent), and four
        #   on the Slater path, whose Laplace steps sum products of gathered
        #   minors (tracemalloc, N=12 and 14 Néel, 200 times: 4.0 of them);
        # - 2.7 dense Hamiltonians of the largest sector, unless the run is a
        #   Slater one: H, overwritten by T's eigenvectors, the reflectors'
        #   compact-WY blocks (half of it, plus their 64 x 64 T factors) and
        #   dstedc's D^2 workspace (ru_maxrss of a child, N=14 Néel, D=3432:
        #   2.65); below evolve.TRIDIAGONAL_FROM (200) states numpy's eigh
        #   takes 6.2-6.7, < 2.1 MB, and is left uncounted;
        # - in local mode, the amplitudes, the gather buffer, one window's
        #   matrices and their Gram, 3 * 16 n_times 4^w, 16 D bytes of cached
        #   plan per window and 6 more while one is built (tracemalloc, 2000
        #   times: 2.01 amplitudes for max_coherent at N=12 and 2.05 at N=10;
        #   61 times: 2.02 for Néel, 3.05 window matrices at w=8).
        n = self.chain.n_sites
        n_times = self.grid.n_points
        concurrent = min(workers, self.realizations)
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if _slater(self):
            total = comb(n, n // 2)
            largest = 4 * 16 * n_times * total
        else:
            d = _largest_matrix(self)
            total = 2**n if self.initial_state == "max_coherent" else d
            largest = max(2 * 16 * n_times * total, 2.7 * 8 * d**2)
        if self.mode == "local":
            plans = (n - self.window + 7) * total
            largest = max(largest, 16 * (n_times * (2 * total + 3 * 4**self.window) + plans))
        if largest * concurrent > memory:
            raise MemoryLimitError(
                f"N={n} with n_times={n_times} and {concurrent} realization(s) at once "
                f"needs more than the {memory / 2**30:.3g} GiB of physical memory"
            )

    def warnings(self) -> tuple[str, ...]:
        if self.initial_state == "max_coherent":
            return (SUPERSELECTION_WARNING,)
        return ()


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Disorder means and standard errors of (C, P, E) over the grid, from `run_experiment`."""

    times: np.ndarray
    c_mean: np.ndarray
    c_sem: np.ndarray
    p_mean: np.ndarray
    p_sem: np.ndarray
    e_mean: np.ndarray
    e_sem: np.ndarray
    config: ExperimentConfig
    seeds: tuple[int, ...]
    workers: int = 1
    # OpenBLAS threads every BLAS call of the run ran under; None when
    # OpenBLAS is not found
    blas_threads: int | None = None


def realization_seed(master_seed: int, index: int) -> int:
    """Per-realization seed; depends only on (master_seed, index)."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


def _propagated(config: ExperimentConfig, eps: np.ndarray, psi0: BlockState) -> BlockState:
    """psi0 over the time grid, each sector under its own dense Hamiltonian."""
    times = config.grid.times

    def evolved(sector, amps):
        # no name holds a Hamiltonian, so each is freed once its sector is propagated
        return propagate(build_hamiltonian(config.chain, eps, sector), amps, times)

    # one sector holds propagate's array as it is: an empty one made first
    # would sit through the eigensolve beside it
    if len(psi0.sectors) == 1:
        ((sector, amps),) = psi0.blocks
        return BlockState(psi0.n_sites, psi0.sectors, evolved(sector, amps))
    amplitudes = np.empty(times.shape + psi0.amplitudes.shape, complex)
    psi_t = BlockState(psi0.n_sites, psi0.sectors, amplitudes)
    for (sector, amps), (_, columns) in zip(psi0.blocks, psi_t.blocks):
        columns[...] = evolved(sector, amps)
    return psi_t


def _single_trajectory(config: ExperimentConfig, index: int) -> tuple[int, np.ndarray]:
    seed = realization_seed(config.master_seed, index)
    eps = sample_disorder(config.chain.n_sites, seed)
    psi0 = _STATE_FACTORIES[config.initial_state](config.chain.n_sites)
    times = config.grid.times
    if _slater(config):
        ((sector, amps),) = psi0.blocks
        ((m,),) = np.nonzero(amps)
        h = build_hamiltonian(config.chain, eps, enumerate_sector(config.chain.n_sites, 1))
        series = amps[m] * slater_series(h, sector, sector.states[m], times)
        psi_t = BlockState(psi0.n_sites, psi0.sectors, series)
    else:
        psi_t = _propagated(config, eps, psi0)

    if config.mode == "global":
        trip = global_quantifiers(psi_t)
    else:
        trip = local_quantifiers(psi_t, config.window)
    rows = np.empty((len(times), 3))
    rows[:, 0], rows[:, 1], rows[:, 2] = trip.C, trip.P, trip.E
    return seed, rows


def _helpers(config: ExperimentConfig, n_workers: int, library: int | None) -> int:
    """The threads that run realizations beside the calling thread: the rest
    of a pool, else one for a serial run on one BLAS thread whose library had
    more than one, when it has two realizations or more and two fit in memory.

    Only the caller and one helper have been measured for a serial run (on 2
    cores), so a library of more threads takes no more helpers."""
    if n_workers > 1:
        return min(n_workers, config.realizations) - 1
    if (library is None or library < 2 or config.realizations < 2
            or _largest_matrix(config) >= ONE_THREAD_BELOW):
        return 0
    try:
        config.check_memory(2)
    except MemoryLimitError:
        return 0
    return 1


def run_experiment(config: ExperimentConfig, n_workers: int = 1) -> TrajectoryRecord:
    """Run all realizations and aggregate disorder statistics.

    The calling thread runs realizations, and `_helpers` threads beside it:
    n_workers - 1 with n_workers > 1, and at most one in a serial run.
    OpenBLAS runs on one thread for the whole run when a pool runs or the
    largest matrix is below `blas.ONE_THREAD_BELOW` states, else at the
    library's count.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    config.check_memory(n_workers)
    library = blas_threads()  # before the run's own pin
    helpers = _helpers(config, n_workers, library)
    one_thread = n_workers > 1 or _largest_matrix(config) < ONE_THREAD_BELOW
    results = [None] * config.realizations  # (seed, rows) per realization
    queue = deque(range(config.realizations))

    def drain() -> None:
        try:
            while True:
                try:
                    k = queue.popleft()
                except IndexError:
                    return
                results[k] = _single_trajectory(config, k)
        finally:
            queue.clear()  # after a failure, no thread starts another realization

    # the pool is left, and its helpers awaited, before the pin is restored
    with (one_blas_thread() if one_thread else nullcontext(library) as threads,
          ThreadPoolExecutor(max_workers=max(helpers, 1)) as pool):
        helping = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for task in helping:
            task.result()

    seeds = tuple(seed for seed, _ in results)
    stack = np.stack([rows for _, rows in results])  # (r, T, 3)
    mean = stack.mean(axis=0)
    r = config.realizations
    if r > 1:
        sem = stack.std(axis=0, ddof=1) / np.sqrt(r)
    else:
        sem = np.zeros_like(mean)

    return TrajectoryRecord(
        times=config.grid.times,
        c_mean=mean[:, 0],
        c_sem=sem[:, 0],
        p_mean=mean[:, 1],
        p_sem=sem[:, 1],
        e_mean=mean[:, 2],
        e_sem=sem[:, 2],
        config=config,
        seeds=seeds,
        workers=n_workers,
        blas_threads=threads,
    )


def run_sweep(
    base: ExperimentConfig,
    W_values: Sequence[float],
    g_values: Sequence[float],
    n_workers: int = 1,
) -> list[TrajectoryRecord]:
    """Cartesian (W, g) sweep sharing the master seed.

    Disorder draws depend only on (master_seed, realization index, N), so
    every cell sees identical epsilon vectors realization by realization;
    interacting and non-interacting runs are exactly paired.
    """
    if len(W_values) == 0 or len(g_values) == 0:
        raise ValueError("sweep value lists must be nonempty")
    configs = [
        replace(base, chain=replace(base.chain, W=float(W), g=float(g)))
        for W in W_values
        for g in g_values
    ]
    for config in configs:  # every cell fits before any computes
        config.check_memory(n_workers)
    return [run_experiment(config, n_workers=n_workers) for config in configs]


def make_default_config(
    n_sites: int = 12,
    J: float = 1.0,
    W: float = 2.0,
    g: float = 1.0,
    initial_state: str = "neel",
    mode: str = "global",
    window: int | None = None,
    realizations: int = 100,
    master_seed: int = 0,
    grid: TimeGrid = TimeGrid(),
    boundary: str = "open",
) -> ExperimentConfig:
    """Convenience constructor with the headline protocol defaults."""
    return ExperimentConfig(
        chain=ChainParams(n_sites=n_sites, J=J, W=W, g=g, boundary=boundary),
        initial_state=initial_state,
        grid=grid,
        realizations=realizations,
        master_seed=master_seed,
        mode=mode,
        window=window,
    )
