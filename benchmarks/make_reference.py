"""Store the reference trajectories the benchmark compares against at its default seed.

    python3 benchmarks/make_reference.py [NAME ...]

Runs each named workload (default: all) once at DEFAULT_SEED and copies its
CSVs to benchmarks/reference/<workload>/. Rerun it only when a workload's
config changes; at the default seed every later build must reproduce these
files within checks.REF_ATOL.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import check_invocation
from run import REFERENCE, WORK, invoke
from workloads import DEFAULT_SEED, WORKLOADS


def main(names: list[str]) -> int:
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        run_dir = WORK / "reference" / name
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(workload.make_config(DEFAULT_SEED), indent=2))
        op = invoke(workload, config_path, run_dir / "out")
        problems = check_invocation(workload, run_dir / "out", op["returncode"])
        if problems:
            print(f"{name}: not stored: {problems}", file=sys.stderr)
            return 1
        target = REFERENCE / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for csv_name in workload.csv_names():
            shutil.copyfile(run_dir / "out" / csv_name, target / csv_name)
        print(f"{name}: stored {workload.csv_names()} in {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
