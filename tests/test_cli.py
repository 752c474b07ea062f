import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainquench import experiment
from chainquench.blas import blas_threads, openblas
from chainquench.cli import (
    _FIELDS,
    MANIFEST_FORMAT_VERSION,
    _checked,
    config_to_dict,
    main,
    parse_config,
)
from chainquench.evolve import TimeGrid
from chainquench.experiment import ExperimentConfig
from chainquench.hamiltonian import ChainParams

BASE_CONFIG = {
    "n_sites": 6,
    "J": 1.0,
    "W": 3.0,
    "g": 1.0,
    "initial_state": "neel",
    "mode": "global",
    "time_grid": {"t_min": 0.1, "t_max": 100.0, "n_points": 9},
    "realizations": 2,
    "master_seed": 7,
}


def _write_config(tmp_path, name="config.json", **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_csv_and_manifest(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0

    csv_path = out / "trajectory.csv"
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "C_mean", "C_sem", "P_mean", "P_sem", "E_mean", "E_sem"]
    assert len(rows) == 1 + 9
    # numeric cells round-trip
    values = [float(x) for x in rows[1]]
    assert values[0] == pytest.approx(0.1)

    manifest = json.loads((out / "trajectory.manifest.json").read_text())
    assert manifest["config"]["n_sites"] == 6
    assert manifest["master_seed"] == 7
    assert manifest["csv"] == "trajectory.csv"
    assert len(manifest["realization_seeds"]) == 2
    assert manifest["format_version"] == MANIFEST_FORMAT_VERSION == 2
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    # N=6: every matrix is below blas.ONE_THREAD_BELOW, so the run pins one thread
    assert env["workers"] == 1 and env["blas_threads"] == (1 if openblas() else None)


def test_run_is_byte_reproducible(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out-dir", str(out2), "--threads", "2"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_pooled_run_records_one_blas_thread(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--threads", "2"]) == 0
    env = json.loads((out / "trajectory.manifest.json").read_text())["environment"]
    blas = openblas()
    assert env["workers"] == 2
    assert env["blas_threads"] == (1 if blas else None)
    assert env["blas_library"] == (blas.library if blas else None)


def test_serial_run_from_the_crossover_up_records_the_library_count(tmp_path):
    # N=12 Neel at g=1 diagonalizes a 924-state sector at the library's count
    cfg = _write_config(tmp_path, n_sites=12, realizations=1)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    env = json.loads((out / "trajectory.manifest.json").read_text())["environment"]
    assert env["workers"] == 1 and env["blas_threads"] == blas_threads()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_threads_below_one_rejected(tmp_path, command, capsys):
    cfg = _write_config(tmp_path, W_values=[2], g_values=[0])
    for threads in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out"), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_odd_chain_for_neel(tmp_path):
    cfg = _write_config(tmp_path, n_sites=5)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


def test_run_rejects_unknown_keys(tmp_path):
    cfg = _write_config(tmp_path, typo_key=1)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


def test_run_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 2


def test_seed_override(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg), "--out-dir", str(out1), "--seed", "99"])
    main(["run", "--config", str(cfg), "--out-dir", str(out2)])
    m1 = json.loads((out1 / "trajectory.manifest.json").read_text())
    assert m1["master_seed"] == 99
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()
    out3 = tmp_path / "c"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out3), "--seed", "-5"]) == 2
    assert not out3.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_sites": 6.7},
        {"n_sites": True},
        {"n_sites": "6"},
        {"realizations": True},
        {"realizations": 2.5},
        {"master_seed": 7.5},
        {"master_seed": False},
        {"master_seed": -1},
        {"mode": "local", "window": True},
        {"time_grid": {"n_points": 9.5}},
        {"W": "2"},
        {"g": True},
        {"J": None},
        {"boundary": 5},
        {"time_grid": {"tmax": 10}},
        {"time_grid": {"t_min": True}},
        {"time_grid": {"t_max": "10"}},
        {"n_sites": 40},  # too large for memory; rejected before any enumeration
        {"time_grid": {"t_max": float("inf")}},  # written as the JSON literal Infinity
        {"J": float("nan")},
        {"W": float("inf")},
        {"g": float("-inf")},
        {"time_grid": {"t_min": float("nan")}},
        {"time_grid": {"t_max": float("-inf")}},
        {"time_grid": {"t_min": 1.0, "t_max": 1.0 + 2**-52, "n_points": 100}},  # not increasing
    ],
    ids=lambda overrides: ",".join(f"{k}={v!r}" for k, v in overrides.items()),
)
def test_run_rejects_bad_integer_fields(tmp_path, overrides):
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_run_rejects_numbers_too_large_for_a_float(tmp_path, capsys):
    # JSON integer literals have no size limit; 10**400 is written out in full
    out = tmp_path / "out"
    for overrides in ({"W": 10**400}, {"time_grid": {"t_max": -(10**400)}}):
        cfg = _write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "too large for a float" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_chains_beyond_63_bit_patterns(tmp_path, capsys):
    # the bit-pattern width is checked before the memory guard sizes anything
    # and before anything is enumerated
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, n_sites=64, initial_state="w_state")
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "63-bit" in capsys.readouterr().err
    assert not out.exists()
    cfg = _write_config(tmp_path, n_sites=63, initial_state="w_state", realizations=1)
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0


def test_run_with_nan_propagated_amplitudes_exits_3(tmp_path, capsys):
    # at W=1e306 the eigenvalues times t overflow and the phases turn NaN;
    # N=12 Neel's 924 states take the tridiagonal path, which must not write them
    out = tmp_path / "out"
    grid = {"t_min": 0.1, "t_max": 1000.0, "n_points": 5}
    cfg = _write_config(tmp_path, n_sites=12, W=1e306, realizations=1, time_grid=grid)
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 3
    assert "eigendecomposition failed for dim=924 matrix" in capsys.readouterr().err
    assert not out.exists()


def test_run_sizes_window_matrices_and_slater_amplitudes(tmp_path, host_with_8_gib, capsys):
    out = tmp_path / "out"
    grid = {"t_min": 0.1, "t_max": 1000.0, "n_points": 61}
    # 16 * 61 * 4**12 bytes of window matrices; rejected before any compute
    cfg = _write_config(tmp_path, n_sites=12, mode="local", window=12, time_grid=grid)
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "physical memory" in capsys.readouterr().err
    # a dense N=18 Hamiltonian takes 8 * comb(18, 9)**2 bytes (18.9 GB)
    cfg = _write_config(tmp_path, n_sites=18, realizations=1)
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "physical memory" in capsys.readouterr().err
    # the time axis alone: 16 * n_times * D bytes of amplitudes, D = 924 at
    # N=12 Neel, 6 at N=4 and 2**12 for max_coherent at N=12
    for overrides in ({"n_sites": 12, "time_grid": {"n_points": 10**6}},
                      {"n_sites": 4, "time_grid": {"n_points": 10**12}},
                      {"n_sites": 12, "initial_state": "max_coherent",
                       "time_grid": {"n_points": 150_000}}):
        cfg = _write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"n_times={overrides['time_grid']['n_points']} " in capsys.readouterr().err
    assert not out.exists()
    # without interaction the Neel state needs only its (n_times, comb(18, 9)) amplitudes
    grid = {"t_min": 0.1, "t_max": 1000.0, "n_points": 5}
    cfg = _write_config(tmp_path, n_sites=18, g=0.0, realizations=1, time_grid=grid)
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "trajectory.csv").exists()


def test_run_and_sweep_size_memory_for_their_workers(tmp_path, host_with_8_gib, monkeypatch, capsys):
    def no_realization(config, index):
        raise AssertionError("a realization started")

    monkeypatch.setattr(experiment, "_single_trajectory", no_realization)
    out = tmp_path / "out"
    # N=16 Néel at g=1 needs 3.6 GB per realization: one or two workers fit
    # in 8 GiB and three do not, in a run or in a sweep's g=1 cell
    cfg = _write_config(tmp_path, n_sites=16, realizations=3, W_values=[2.0], g_values=[0.0, 1.0])
    for command in ("run", "sweep"):
        assert main([command, "--config", str(cfg), "--out-dir", str(out), "--threads", "3"]) == 2
        assert "3 realization(s) at once" in capsys.readouterr().err
    # with two realizations only two run at once, whatever --threads says
    cfg = _write_config(tmp_path, n_sites=16, realizations=2)
    with pytest.raises(AssertionError, match="a realization started"):
        main(["run", "--config", str(cfg), "--out-dir", str(out), "--threads", "3"])
    assert not out.exists()


def test_out_dir_under_a_file_is_rejected_before_any_realization(tmp_path, monkeypatch, capsys):
    def no_realization(config, index):
        raise AssertionError("a realization started")

    monkeypatch.setattr(experiment, "_single_trajectory", no_realization)
    (tmp_path / "afile").write_text("")
    cfg = _write_config(tmp_path, W_values=[2.0], g_values=[0.0, 1.0])
    for command in ("run", "sweep"):
        for out in (tmp_path / "afile", tmp_path / "afile" / "sub"):
            assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
            assert str(out) in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == ""


def test_out_dir_that_cannot_be_made_is_rejected_before_any_realization(
    tmp_path, monkeypatch, capsys
):
    def no_realization(config, index):
        raise AssertionError("a realization started")

    monkeypatch.setattr(experiment, "_single_trajectory", no_realization)
    cfg = _write_config(tmp_path, W_values=[2.0], g_values=[0.0, 1.0])
    out = tmp_path / "new" / ("a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
    for command in ("run", "sweep"):
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "File name too long" in capsys.readouterr().err
    # the probe removes the parent it made on the way
    assert not (tmp_path / "new").exists()


@st.composite
def _configs(draw):
    n_sites = draw(st.integers(2, 8))
    mode = draw(st.sampled_from(["global", "local"]))
    states = ["w_state", "max_coherent"] + (["neel", "max_incoherent"] if n_sites % 2 == 0 else [])
    t_min = draw(st.floats(1e-6, 1e6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return ExperimentConfig(
        chain=ChainParams(n_sites, draw(finite), draw(finite), draw(finite),
                          draw(st.sampled_from(["open", "periodic"]))),
        initial_state=draw(st.sampled_from(states)),
        grid=TimeGrid(t_min, t_min * draw(st.floats(1.5, 1e9)), draw(st.integers(2, 100))),
        realizations=draw(st.integers(1, 10**6)),
        master_seed=draw(st.integers(0, 2**64)),
        mode=mode,
        window=draw(st.integers(1, n_sites)) if mode == "local" else None,
    )


@given(_configs())
def test_config_round_trips_through_its_json(config):
    echoed = json.loads(json.dumps(config_to_dict(config)))
    assert parse_config(_checked("config", echoed, _FIELDS)) == config


@pytest.mark.parametrize("mode,window", [("global", None), ("local", 2)])
def test_manifest_config_reruns_to_the_same_csv(tmp_path, mode, window):
    cfg = _write_config(tmp_path, mode=mode, window=window)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--config", str(cfg), "--out-dir", str(first)]) == 0
    echoed = json.loads((first / "trajectory.manifest.json").read_text())["config"]
    assert echoed["window"] == window
    path = tmp_path / "echoed.json"
    path.write_text(json.dumps(echoed))
    assert main(["run", "--config", str(path), "--out-dir", str(second)]) == 0
    assert (first / "trajectory.csv").read_bytes() == (second / "trajectory.csv").read_bytes()


def test_numbers_take_the_type_of_their_key(tmp_path):
    # 6.0 is the integer 6 and 3 the float 3.0, in the run and in its manifest
    def outputs(out):
        manifest = json.loads((out / "trajectory.manifest.json").read_text())
        del manifest["created_utc"]
        return (out / "trajectory.csv").read_bytes(), json.dumps(manifest)

    cfg = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
    loose = _write_config(tmp_path, name="loose.json", n_sites=6.0, W=3, g=1, realizations=2.0,
                          time_grid={"t_min": 0.1, "t_max": 100, "n_points": 9.0})
    assert main(["run", "--config", str(loose), "--out-dir", str(tmp_path / "b")]) == 0
    assert outputs(tmp_path / "a") == outputs(tmp_path / "b")


REQUIRED = {"n_sites": 4, "initial_state": "neel", "realizations": 1, "master_seed": 3}


def test_omitted_keys_take_the_library_defaults(tmp_path, capsys):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(REQUIRED))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    echoed = json.loads((out / "trajectory.manifest.json").read_text())["config"]
    assert echoed == {
        **REQUIRED,
        "J": 1.0,
        "W": 0.0,
        "g": 0.0,
        "boundary": "open",
        "mode": "global",
        "window": None,
        "time_grid": {"t_min": 0.1, "t_max": 1000.0, "n_points": 61},
    }
    assert all(isinstance(echoed[key], float) for key in ("J", "W", "g"))
    for key in REQUIRED:
        path.write_text(json.dumps({k: v for k, v in REQUIRED.items() if k != key}))
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "missing")]) == 2
        assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("key", REQUIRED)
def test_a_missing_required_key_is_named(tmp_path, capsys, command, key):
    raw = {k: v for k, v in REQUIRED.items() if k != key}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, "W_values": [2], "g_values": [0]} if command == "sweep" else raw))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config lacks the required keys [{key!r}]\n"
    assert not out.exists()


def test_sweep_emits_one_file_per_cell(tmp_path):
    cfg = _write_config(tmp_path, W_values=[2, 6, 10], g_values=[0, 1], realizations=1)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == [
        "traj_W10_g0.csv",
        "traj_W10_g1.csv",
        "traj_W2_g0.csv",
        "traj_W2_g1.csv",
        "traj_W6_g0.csv",
        "traj_W6_g1.csv",
    ]
    # r = 1 runs report zero standard errors
    with open(out / "traj_W2_g0.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["C_sem"]) == 0.0 and float(r["P_sem"]) == 0.0 for r in rows)


def test_sweep_sizes_only_the_cells_it_runs(tmp_path, host_with_8_gib):
    # the config's own g=1 names a dense N=18 cell that would not fit; the
    # sweep's only cell is a Slater run that does
    grid = {"t_min": 0.1, "t_max": 1000.0, "n_points": 5}
    cfg = _write_config(tmp_path, n_sites=18, g=1.0, W_values=[2.0], g_values=[0.0],
                        realizations=1, time_grid=grid)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == ["traj_W2_g0.csv"]


def test_sweep_requires_value_lists(tmp_path):
    cfg = _write_config(tmp_path, W_values=[], g_values=[0, 1])
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    cfg = _write_config(tmp_path, name="c2.json")
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    cfg = _write_config(tmp_path, name="c3.json", W_values=["x"], g_values=[0, 1])
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    # a string is no list, a bool no number, and a non-finite cell fails before any cell runs
    for values in ({"W_values": "12", "g_values": [0]}, {"W_values": [2], "g_values": [True]},
                   {"W_values": [2, float("nan")], "g_values": [0]},
                   {"W_values": [float("inf")], "g_values": [0]},
                   {"W_values": [2], "g_values": [0, float("-inf")]}):
        cfg = _write_config(tmp_path, name="c4.json", **values)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()


def test_sweep_rejects_colliding_output_names(tmp_path):
    # [1, 1] repeats a cell; 0.1234567 and 0.1234568 differ but print alike under :g
    for w_values in ([1, 1], [0.1234567, 0.1234568]):
        cfg = _write_config(tmp_path, W_values=w_values, g_values=[0, 1], realizations=1)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()


def _write_synthetic_csv(path, times, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "C_mean", "C_sem", "P_mean", "P_sem", "E_mean", "E_sem"])
        for t, v in zip(times, values):
            writer.writerow([repr(float(t)), "0", "0", repr(float(v)), "0", "0", "0"])


def test_fit_recovers_synthetic_slope(tmp_path, capsys):
    times = np.logspace(-1, 3, 61)
    _write_synthetic_csv(tmp_path / "traj.csv", times, 0.7 - 0.03 * np.log(times))
    assert main(["fit", str(tmp_path / "traj.csv"), "--quantity", "P"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"] == pytest.approx(0.7, abs=1e-10)
    assert payload["b"] == pytest.approx(0.03, abs=1e-10)
    assert payload["label"] == "LogDecay"
    assert payload["window"]["t_low"] == pytest.approx(100.0)


def test_fit_window_flags(tmp_path, capsys):
    times = np.logspace(-1, 3, 61)
    _write_synthetic_csv(tmp_path / "traj.csv", times, np.full_like(times, 0.5))
    code = main(
        ["fit", str(tmp_path / "traj.csv"), "--quantity", "P", "--window-low", "1", "--window-high", "1000"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "Saturated"
    assert payload["n_points"] == 46


def test_fit_missing_column(tmp_path, capsys):
    missing = "has no ['C_sem', 'P_mean', 'P_sem', 'E_mean', 'E_sem'] cells"
    path = tmp_path / "bad.csv"
    path.write_text("t,C_mean\n1.0,0.5\n")
    assert main(["fit", str(path), "--quantity", "P"]) == 2
    assert f"line 2 {missing}" in capsys.readouterr().err
    # a short row: its missing cells are missing columns too
    times = np.logspace(-1, 3, 61)
    _write_synthetic_csv(path, times, np.full_like(times, 0.5))
    with open(path, "a") as fh:
        fh.write("100.0,0.5\n")
    assert main(["fit", str(path), "--quantity", "P"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"line 63 {missing}" in captured.err


def test_fit_rejects_bad_flags(tmp_path, capsys):
    times = np.logspace(-1, 3, 61)
    path = tmp_path / "traj.csv"
    _write_synthetic_csv(path, times, np.full_like(times, 0.5))
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(path), "--quantity", "X"])
    assert exc.value.code == 2
    capsys.readouterr()
    for flag, value, name in (
        ("--sig", "-3", "sig"), ("--sig", "nan", "sig"),
        ("--abs-tol", "nan", "abs_tol"), ("--abs-tol", "-1", "abs_tol"),
        ("--window-low", "nan", "t_low"), ("--window-low", "inf", "t_low"),
        ("--window-high", "inf", "t_high"), ("--window-high", "nan", "t_high"),
    ):
        assert main(["fit", str(path), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{name} must be finite" in captured.err


def test_fit_rejects_nan_trajectory(tmp_path, capfd):
    # every value cell NaN, as a run whose numerics broke down would write it
    path = tmp_path / "nan.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "C_mean", "C_sem", "P_mean", "P_sem", "E_mean", "E_sem"])
        for t in np.logspace(-1, 3, 61):
            writer.writerow([repr(float(t))] + ["nan"] * 6)
    assert main(["fit", str(path), "--quantity", "P"]) == 2
    assert capfd.readouterr().out == ""
    # NaN times leave no fit window: still bad input
    _write_synthetic_csv(path, np.full(61, np.nan), np.full(61, 0.5))
    assert main(["fit", str(path), "--quantity", "P"]) == 2
    # so is a window that holds t = 0, rejected before LAPACK sees log(0)
    times = np.concatenate([[0.0], np.logspace(-1, 3, 60)])
    _write_synthetic_csv(path, times, 0.7 - 0.03 * np.log(np.maximum(times, 0.1)))
    capfd.readouterr()
    assert main(["fit", str(path), "--quantity", "P", "--window-low", "0"]) == 2
    captured = capfd.readouterr()
    assert captured.out == "" and "DLASCL" not in captured.err
    # finite values whose residual sum of squares overflows: no Infinity in the JSON
    _write_synthetic_csv(path, np.logspace(-1, 3, 61), 1e300 * (-1.0) ** np.arange(61))
    assert main(["fit", str(path), "--quantity", "P"]) == 2
    captured = capfd.readouterr()
    assert captured.out == "" and "residual sum of squares is inf" in captured.err
    assert "RuntimeWarning" not in captured.err


def test_fit_on_generated_localized_run(tmp_path, capsys):
    # end to end: strong disorder, no interaction -> late-time P saturates
    cfg = _write_config(
        tmp_path,
        W=8.0,
        g=0.0,
        realizations=4,
        master_seed=5,
        time_grid={"t_min": 0.1, "t_max": 1000.0, "n_points": 61},
    )
    out = tmp_path / "al"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["fit", str(out / "trajectory.csv"), "--quantity", "P"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "Saturated"


def test_cost_outputs(capsys):
    assert main(["cost", "12", "P"]) == 0
    assert capsys.readouterr().out.strip() == "12"
    assert main(["cost", "12", "C"]) == 0
    assert capsys.readouterr().out.strip() == str(4**12)


def test_cost_rejects_zero_sites():
    assert main(["cost", "0", "P"]) == 2


# `run` with a realization helper and a two-worker `sweep` in a fresh
# interpreter, then the modules it imported: the disorder is drawn in-package
# and helpers are plain threads, so neither numpy's random module nor
# concurrent.futures is loaded on the run path
_IMPORT_GUARD_SCRIPT = """
import json, sys, threading
sys.path.insert(0, sys.argv[1])
from chainquench import experiment
from chainquench.blas import openblas
from chainquench.cli import main
lib = openblas()
if lib is not None:
    lib.set_num_threads(2)  # a serial run below 462 states takes its helper
threads, real = set(), experiment._single_trajectory
started = threading.Barrier(2, timeout=30)
def recorded(config, index):  # the first two realizations start on two threads
    threads.add(threading.get_ident())
    if lib is not None and index < 2:
        started.wait()
    return real(config, index)
experiment._single_trajectory = recorded
codes = [main(["run", "--config", sys.argv[2], "--out-dir", sys.argv[4]])]
experiment._single_trajectory, run_threads = real, len(threads)
codes.append(main(["sweep", "--config", sys.argv[3], "--out-dir", sys.argv[5], "--threads", "2"]))
print(json.dumps({"codes": codes, "openblas": lib is not None, "threads": run_threads,
                  "loaded": [m for m in ("numpy.random", "concurrent.futures") if m in sys.modules]}))
"""


def test_run_and_sweep_import_neither_numpy_random_nor_concurrent_futures(tmp_path):
    run = _write_config(tmp_path, "run.json", n_sites=8, initial_state="max_coherent",
                        mode="local", window=2, realizations=3)
    sweep = _write_config(tmp_path, "sweep.json", W_values=[2.0], g_values=[0.0, 1.0])
    src = Path(experiment.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD_SCRIPT, str(src), str(run), str(sweep),
         str(tmp_path / "run"), str(tmp_path / "sweep")],
        capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0] and report["loaded"] == []
    assert report["threads"] == (2 if report["openblas"] else 1)
