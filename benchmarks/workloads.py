"""Benchmark workloads: what each one runs, why, and the config it feeds the CLI.

Each workload is one `chainquench run` or `chainquench sweep` invocation. The
benchmark seed becomes the config's `master_seed` unchanged, so at a given
seed realization k draws the same disorder vector in every workload: the g=1
cell of `fig2_sweep_t2` and `neel12_local2_t1` diagonalize identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

DEFAULT_SEED = 20240301

# The paper's protocol grid: 61 log-spaced times from 0.1 to 1000 (units of 1/J).
GRID = {"t_min": 0.1, "t_max": 1000.0, "n_points": 61}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "run" or "sweep"
    threads: int
    config: dict = field(hash=False)  # the CLI config, minus master_seed

    def make_config(self, seed: int) -> dict:
        """The JSON config the CLI receives for this benchmark seed."""
        return {**self.config, "master_seed": seed}

    def cells(self) -> list[tuple[float, float]]:
        """The (W, g) pairs one invocation computes, in CLI output order."""
        if self.command == "sweep":
            return [(float(w), float(g)) for w in self.config["W_values"] for g in self.config["g_values"]]
        return [(float(self.config["W"]), float(self.config["g"]))]

    def csv_names(self) -> list[str]:
        if self.command == "sweep":
            return [f"traj_W{w:g}_g{g:g}.csv" for w, g in self.cells()]
        return ["trajectory.csv"]

    def realizations(self) -> int:
        """Realizations one invocation completes, over all cells."""
        return len(self.cells()) * self.config["realizations"]

    def sector_dims(self) -> list[int]:
        n = self.config["n_sites"]
        if self.config["initial_state"] == "max_coherent":
            return [comb(n, k) for k in range(n + 1)]
        if self.config["initial_state"] == "neel":
            return [comb(n, n // 2)]
        raise ValueError(f"no sector rule for initial state {self.config['initial_state']!r}")

    def computed_counts(self) -> dict[str, int]:
        """Operation counts of one invocation, derived from sector dims and grid.

        They are computed, not observed, so they repeat exactly for a fixed
        workload; a later change can rest a count-based claim on them.
        """
        dims = self.sector_dims()
        r = self.realizations()
        t = self.config["time_grid"]["n_points"]
        local_calls = r * t if self.config["mode"] == "local" else 0
        windows = self.config["n_sites"] - self.config.get("window", 0) + 1
        return {
            "evolve.decompose.dim3_sum": r * sum(d**3 for d in dims),
            "evolve.propagate.dim_times_sum": r * sum(d * t for d in dims),
            "quantifiers.local.partial_traces": local_calls * windows,
        }


def _config(n_sites: int, initial_state: str, realizations: int, **extra) -> dict:
    return {
        "n_sites": n_sites,
        "J": 1.0,
        "boundary": "open",
        "initial_state": initial_state,
        "time_grid": dict(GRID),
        "realizations": realizations,
        **extra,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig2_sweep_t2",
            why="paper's paired Anderson/interacting sweep at N=12 on 2 workers; eigh-bound, "
            "the only worker-pool run and the only g=0 cell",
            command="sweep",
            threads=2,
            config=_config(12, "neel", 10, W=2.0, g=1.0, mode="global", W_values=[2.0], g_values=[0.0, 1.0]),
        ),
        Workload(
            name="neel12_local2_t1",
            why="serial baseline on the same g=1 matrices as the sweep; eigh plus per-time "
            "local quantifiers, no worker pool",
            command="run",
            threads=1,
            config=_config(12, "neel", 25, W=2.0, g=1.0, mode="local", window=2),
        ),
        Workload(
            name="maxcoh10_local2_t1",
            why="multi-sector path: 11 sectors of small eigh per realization, quantifier-bound "
            "multi-block partial traces",
            command="run",
            threads=1,
            config=_config(10, "max_coherent", 40, W=2.0, g=1.0, mode="local", window=2),
        ),
    )
}
