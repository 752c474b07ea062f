"""Output checks that decide whether one CLI invocation failed.

Every check reads the files the CLI wrote; none imports the package or numpy,
so the benchmark process stays small while a child is timed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import Workload

CSV_HEADER = ["t", "C_mean", "C_sem", "P_mean", "P_sem", "E_mean", "E_sem"]
# means of per-realization triples that each sum to 1 up to rounding
SUM_TOL = 1e-9
# local E is a sum of nonnegative gaps up to rounding
E_TOL = 1e-12
# distance to the stored reference trajectories; one and two BLAS threads
# differ by at most 3e-14 on every workload, so this absorbs thread-count bit
# changes in eigh while any change to the physics still shows
REF_ATOL = 1e-9


def read_csv(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"{path.name}: header is {rows[:1]}, expected {CSV_HEADER}")
    return [[float(x) for x in row] for row in rows[1:]]


def check_csv(path: Path, mode: str, n_points: int) -> list[str]:
    """Problems in one trajectory CSV: shape, finiteness, C+P+E=1 and E's sign."""
    try:
        rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    if len(rows) != n_points or any(len(row) != len(CSV_HEADER) for row in rows):
        return [f"{path.name}: {len(rows)} rows, expected {n_points} of {len(CSV_HEADER)} cells"]
    problems = []
    for i, (t, c, c_sem, p, p_sem, e, e_sem) in enumerate(rows, start=1):
        where = f"{path.name} row {i}"
        if not all(math.isfinite(x) for x in (t, c, c_sem, p, p_sem, e, e_sem)):
            problems.append(f"{where}: non-finite cell")
            continue
        if abs(c + p + e - 1.0) > SUM_TOL:
            problems.append(f"{where}: |C+P+E-1| = {abs(c + p + e - 1.0):.3e} > {SUM_TOL}")
        if mode == "global" and (e != 0.0 or e_sem != 0.0):
            problems.append(f"{where}: E = {e!r} in global mode")
        if mode == "local" and e < -E_TOL:
            problems.append(f"{where}: E = {e!r} < -{E_TOL}")
    return problems


def check_reference(path: Path, reference: Path) -> list[str]:
    """Cells farther than REF_ATOL from the stored reference trajectory."""
    try:
        got, want = read_csv(path), read_csv(reference)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: reference comparison impossible: {exc}"]
    if len(got) != len(want):
        return [f"{path.name}: {len(got)} rows, reference has {len(want)}"]
    worst = max(abs(a - b) for g, w in zip(got, want) for a, b in zip(g, w))
    if not worst <= REF_ATOL:
        return [f"{path.name}: max |difference| to reference {worst:.3e} > {REF_ATOL}"]
    return []


def check_invocation(
    workload: Workload, out_dir: Path, returncode: int, reference_dir: Path | None = None
) -> list[str]:
    """All problems with one invocation's exit code and outputs; empty means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    config = workload.config
    problems = []
    for name in workload.csv_names():
        path = out_dir / name
        problems += check_csv(path, config["mode"], config["time_grid"]["n_points"])
        manifest = path.with_suffix(".manifest.json")
        try:
            seeds = json.loads(manifest.read_text())["realization_seeds"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{manifest.name}: unreadable: {exc}")
        else:
            if len(seeds) != config["realizations"]:
                problems.append(f"{manifest.name}: {len(seeds)} realizations, expected {config['realizations']}")
        if reference_dir is not None and not problems:
            problems += check_reference(path, reference_dir / name)
    return problems
