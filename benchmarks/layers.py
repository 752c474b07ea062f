"""Per-layer metrics and self times from the spans of one traced invocation."""

from __future__ import annotations

import math
from collections import defaultdict


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for a layer with no calls."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: duration minus the part of it that child spans cover.

    Children of one span may overlap when they run on pool workers, so the
    covered part is the union of their intervals, clipped to the parent.
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = _union_length(
            [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]]
        )
        totals[s["name"]] += (s["end"] - s["start"]) - covered
    return dict(totals)


def layer_metrics(spans: list[dict], workers: int) -> dict[str, float]:
    """The per-layer metrics of one traced invocation, by metric name."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in by_name[name]]

    def calls_total(name: str) -> dict[str, float]:
        return {f"{name}.calls": len(by_name[name]), f"{name}.total_s": sum(durations(name))}

    runs = by_name["experiment.run_experiment"]
    run_ids = {s["id"] for s in runs}
    run_wall = sum(s["end"] - s["start"] for s in runs)
    child_time = sum(s["end"] - s["start"] for s in spans if s["parent"] in run_ids)
    build, decompose = durations("hamiltonian.build"), durations("evolve.decompose")
    local = durations("quantifiers.local")
    writes = by_name["cli.write"]

    return {
        "hilbert.enumerate_sector.cold_ms": 1e3 * sum(
            s["end"] - s["start"] for s in by_name["hilbert.enumerate_sector"] if s["cold"]
        ),
        **calls_total("hamiltonian.build"),
        "hamiltonian.build.p50_ms": 1e3 * percentile(build, 50),
        **calls_total("evolve.decompose"),
        "evolve.decompose.p50_ms": 1e3 * percentile(decompose, 50),
        "evolve.decompose.p80_ms": 1e3 * percentile(decompose, 80),
        **calls_total("evolve.propagate"),
        **calls_total("quantifiers.local"),
        "quantifiers.local.p50_us": 1e6 * percentile(local, 50),
        "quantifiers.local.p98_us": 1e6 * percentile(local, 98),
        **calls_total("quantifiers.global"),
        "experiment.run_experiment.total_s": run_wall,
        "experiment.covered_frac": child_time / (workers * run_wall) if run_wall else 0.0,
        "cli.write.calls": len(writes),
        "cli.write.total_ms": 1e3 * sum(s["end"] - s["start"] for s in writes),
        "cli.write.bytes": sum(s["bytes"] for s in writes),
    }
