"""Command-line front end: run experiments, sweep parameters, fit, count costs.

Outputs are a trajectory CSV per run plus a JSON manifest that echoes the
full resolved configuration and the numeric environment (numpy, BLAS and
thread counts), enough to regenerate the CSV bit for bit. A config whose
keys, types or values are wrong (every number must be finite), or an output
directory that cannot be made, exits 2 before any realization starts.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .blas import openblas
from .detect import DEFAULT_ABS_TOL, DEFAULT_SIG, FitWindow, fit_log, last_decade
from .evolve import TimeGrid
from .experiment import (
    ExperimentConfig,
    MemoryLimitError,
    TrajectoryRecord,
    run_experiment,
    run_sweep,
)
from .hamiltonian import ChainParams
from .quantifiers import measurement_cost

CSV_HEADER = ["t", "C_mean", "C_sem", "P_mean", "P_sem", "E_mean", "E_sem"]
MANIFEST_FORMAT_VERSION = 2

# JSON type of every config key. A dict is an object whose keys are checked
# the same way, [float] a list of numbers, and (int, None) an integer or null.
_FIELDS = {
    "n_sites": int,
    "J": float,
    "W": float,
    "g": float,
    "boundary": str,
    "initial_state": str,
    "mode": str,
    "window": (int, None),
    "time_grid": {"t_min": float, "t_max": float, "n_points": int},
    "realizations": int,
    "master_seed": int,
    "W_values": [float],
    "g_values": [float],
}
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}
_REQUIRED = ("n_sites", "initial_state", "realizations", "master_seed")


class ConfigError(Exception):
    pass


def _checked(key: str, value, kind):
    """`value` as the `_FIELDS` type `kind`; integers take integral floats, numbers
    no bools, and both only finite values (not JSON's NaN, Infinity, -Infinity)."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be a JSON object, got {value!r}")
        unknown = set(value) - set(kind)
        if unknown:
            raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
        return {k: _checked(k, v, kind[k]) for k, v in value.items()}
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {key!r} must be a list, got {value!r}")
        return [_checked(key, v, kind[0]) for v in value]
    if isinstance(kind, tuple):
        return None if value is None else _checked(key, value, kind[0])
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and (
            isinstance(value, int) or math.isfinite(value) and (kind is float or value.is_integer())
        )
    if not ok:
        raise ConfigError(f"config key {key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # a JSON integer literal beyond the float range
        raise ConfigError(f"config key {key!r} is too large for a float") from None


def load_config_file(path: str | Path) -> dict:
    """Read a JSON config and check every key against `_FIELDS`."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _checked("config", raw, _FIELDS)


def parse_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """The experiment of a checked config; each omitted key takes its callee's default."""
    if seed_override is not None:
        raw = {**raw, "master_seed": seed_override}
    if missing := [key for key in _REQUIRED if key not in raw]:
        raise ConfigError(f"config lacks the required keys {missing}")

    def given(*keys: str) -> dict:
        return {key: raw[key] for key in keys if key in raw}

    try:
        return ExperimentConfig(
            chain=ChainParams(**given("n_sites", "J", "W", "g", "boundary")),
            grid=TimeGrid(**raw.get("time_grid", {})),
            **given("initial_state", "realizations", "master_seed", "mode", "window"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        **asdict(config.chain),
        "initial_state": config.initial_state,
        "mode": config.mode,
        "window": config.window,
        "time_grid": asdict(config.grid),
        "realizations": config.realizations,
        "master_seed": config.master_seed,
    }


def write_trajectory_csv(path: Path, record: TrajectoryRecord) -> None:
    columns = [
        record.times,
        record.c_mean,
        record.c_sem,
        record.p_mean,
        record.p_sem,
        record.e_mean,
        record.e_sem,
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in zip(*columns):
            # repr of a Python float round-trips exactly
            writer.writerow([repr(float(x)) for x in row])


def write_manifest(path: Path, record: TrajectoryRecord, csv_name: str) -> None:
    blas = openblas()
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "tool": "chainquench",
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "csv": csv_name,
        "master_seed": record.config.master_seed,
        "config": config_to_dict(record.config),
        "realization_seeds": list(record.seeds),
        "warnings": list(record.config.warnings()),
        "environment": {
            "numpy": np.__version__,
            "blas_library": blas.library if blas else None,
            "blas_config": blas.config if blas else None,
            "cpu_count": os.cpu_count(),
            "workers": record.workers,
            "blas_threads": record.blas_threads,
        },
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _check_out_dir(out_dir: Path) -> None:
    """Raise ConfigError unless `out_dir` is a directory or can be made one; makes none."""
    missing = []
    try:
        missing = [path for path in (out_dir, *out_dir.parents) if not path.is_dir()]
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir {out_dir}: {exc}") from exc
    finally:
        # innermost first; rmdir removes only empty directories, so only those
        # made here, and fails on a path that was never made
        for path in missing:
            try:
                path.rmdir()
            except OSError:
                pass


def _emit(record: TrajectoryRecord, out_dir: Path, stem: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    write_trajectory_csv(csv_path, record)
    write_manifest(out_dir / f"{stem}.manifest.json", record, csv_path.name)
    print(csv_path)


def cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(load_config_file(args.config), seed_override=args.seed)
    _check_out_dir(Path(args.out_dir))
    record = run_experiment(config, n_workers=args.threads)
    _emit(record, Path(args.out_dir), "trajectory")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    raw = load_config_file(args.config)
    w_values = raw.get("W_values")
    g_values = raw.get("g_values")
    if not w_values or not g_values:
        raise ConfigError("sweep needs nonempty W_values and g_values lists")
    base = parse_config(raw, seed_override=args.seed)
    stems = [f"traj_W{w:g}_g{g:g}" for w in w_values for g in g_values]
    clashes = sorted({stem for stem in stems if stems.count(stem) > 1})
    if clashes:
        raise ConfigError(f"W_values/g_values give more than one cell the output name {clashes}")
    _check_out_dir(Path(args.out_dir))
    records = run_sweep(base, w_values, g_values, n_workers=args.threads)
    for record, stem in zip(records, stems):
        _emit(record, Path(args.out_dir), stem)
    return 0


def _read_trajectory_csv(path: str | Path) -> np.ndarray:
    """The (n, 7) array of a trajectory CSV, its columns in `CSV_HEADER` order."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = []
            for row in reader:  # a missing column has no key, a short row's cells are None
                if missing := [c for c in CSV_HEADER if row.get(c) is None]:
                    raise ConfigError(f"{path} line {reader.line_num} has no {missing} cells")
                rows.append([float(row[c]) for c in CSV_HEADER])
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path} has a non-numeric cell: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path} contains no data rows")
    return np.asarray(rows)


def cmd_fit(args: argparse.Namespace) -> int:
    data = _read_trajectory_csv(args.csv)
    times = data[:, CSV_HEADER.index("t")]
    values = data[:, CSV_HEADER.index(f"{args.quantity}_mean")]
    try:
        if args.window_low is None and args.window_high is None:
            window = last_decade(times)
        else:
            low = args.window_low if args.window_low is not None else float(times[0])
            high = args.window_high if args.window_high is not None else float(times[-1])
            window = FitWindow(t_low=low, t_high=high)
        result = fit_log(times, values, window, abs_tol=args.abs_tol, sig=args.sig)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {"quantity": args.quantity, "window": asdict(window), **asdict(result)}
    print(json.dumps(payload, indent=2))
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    try:
        print(measurement_cost(args.n_sites, args.quantifier))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return 0


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainquench",
        description="Quench dynamics of disordered fermion chains with "
        "coherence/predictability/entanglement trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_exec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--threads", type=_worker_count, default=1,
                       help="number of realization workers (default 1); with 2 or more, "
                       "each worker uses one BLAS thread")
        p.add_argument("--seed", type=int, default=None, help="override master seed")

    p_run = sub.add_parser("run", help="single disorder-averaged experiment")
    add_exec_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="Cartesian (W, g) sweep with paired disorder")
    add_exec_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit a - b*log(t) to a trajectory CSV")
    p_fit.add_argument("csv", help="trajectory CSV produced by run/sweep")
    p_fit.add_argument("--quantity", choices=["C", "P", "E"], default="P")
    p_fit.add_argument("--window-low", type=float, default=None)
    p_fit.add_argument("--window-high", type=float, default=None)
    p_fit.add_argument("--abs-tol", type=float, default=DEFAULT_ABS_TOL)
    p_fit.add_argument("--sig", type=float, default=DEFAULT_SIG)
    p_fit.set_defaults(func=cmd_fit)

    p_cost = sub.add_parser("cost", help="observable count for a quantifier")
    p_cost.add_argument("n_sites", type=int)
    p_cost.add_argument("quantifier", help="P, C, or E (or full names)")
    p_cost.set_defaults(func=cmd_cost)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MemoryLimitError) as exc:
        # run_experiment and run_sweep size every realization's memory before
        # the first one starts
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError, OverflowError) as exc:
        # errors surfacing after config validation are numeric in nature
        # (np.linalg.LinAlgError is a ValueError; int64 bit patterns overflow
        # from 64 sites on)
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
