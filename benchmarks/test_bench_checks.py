"""The benchmark's output checks: a NaN trajectory fails, a sound one passes.

W = J = 1e308 overflows the Hamiltonian to inf; the CLI still writes an
all-NaN CSV and exits 0, so only the output checks can catch it.
"""

import json
from pathlib import Path

import pytest

from chainquench.cli import main
from checks import check_invocation
from layers import layer_metrics
from run import DEFAULT_SECONDS, END_TO_END, layer_unit
from workloads import WORKLOADS, Workload


def _workload(**overrides) -> Workload:
    config = {
        "n_sites": 4,
        "J": 1.0,
        "W": 2.0,
        "g": 1.0,
        "boundary": "open",
        "initial_state": "neel",
        "mode": "global",
        "time_grid": {"t_min": 0.1, "t_max": 100.0, "n_points": 7},
        "realizations": 2,
        **overrides,
    }
    return Workload(name="small", why="checker test", command="run", threads=1, config=config)


def _invoke(workload: Workload, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workload.make_config(7)))
    out = tmp_path / "out"
    code = main([workload.command, "--config", str(config_path), "--out-dir", str(out)])
    return code, out


def test_nan_trajectory_counts_as_failed(tmp_path):
    workload = _workload(W=1e308, J=1e308)
    code, out = _invoke(workload, tmp_path)
    assert code == 0  # the defect: nothing upstream of the checks notices
    problems = check_invocation(workload, out, code)
    assert problems and all("non-finite" in p for p in problems)


@pytest.mark.parametrize("mode, window", [("global", None), ("local", 2)])
def test_sound_trajectory_passes(tmp_path, mode, window):
    extra = {"window": window} if window else {}
    workload = _workload(mode=mode, **extra)
    code, out = _invoke(workload, tmp_path)
    assert check_invocation(workload, out, code) == []


def test_reference_mismatch_counts_as_failed(tmp_path):
    workload = _workload(mode="local", window=2)
    code, out = _invoke(workload, tmp_path)
    reference = tmp_path / "reference"
    reference.mkdir()
    rows = (out / "trajectory.csv").read_text().splitlines()
    cells = rows[-1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    (reference / "trajectory.csv").write_text("\n".join(rows[:-1] + [",".join(cells)]) + "\n")
    [problem] = check_invocation(workload, out, code, reference)
    assert "reference" in problem


def test_nonzero_exit_counts_as_failed(tmp_path):
    assert check_invocation(_workload(), tmp_path, 3) == ["exit code 3"]


def test_benchmark_json_matches_the_harness():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert declared["run_seconds"] == DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    reported = {**layer_metrics([], 1), **_workload().computed_counts(), "trace.overhead_frac": 0.0}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {n: layer_unit(n) for n in reported}
