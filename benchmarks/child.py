"""Run the chainquench CLI in this process, optionally with layer spans.

    python3 child.py --src SRC --marker M.json [--spans S.json --run-id ID] -- run --config ...
    python3 child.py --src SRC --probe

The benchmark starts one of these per CLI invocation. It imports the package
from SRC, records when the first Hamiltonian build begins (the end of set-up)
and calls `chainquench.cli.main` with the arguments after `--`.

With --spans it also wraps each layer function at the names
`chainquench.experiment` and `chainquench.cli` bind it, plus the bindings
through which sector enumeration is reached, and records one span per call:
id, name, start, end, parent span and thread. Spans stay in memory and are
written when the CLI returns. The package source is not modified.

--probe imports the package and numpy, prints the numeric environment as
JSON and exits; the benchmark runs it once before timing, which also warms
the file cache.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import importlib
import itertools
import json
import os
import sys
import threading
import time

# span name -> bindings (module under chainquench, attribute) to wrap
LAYERS = {
    "cli.parse": [("cli", "load_config_file"), ("cli", "parse_config")],
    "cli.write": [("cli", "write_trajectory_csv"), ("cli", "write_manifest")],
    "experiment.run_sweep": [("cli", "run_sweep")],
    "experiment.run_experiment": [("cli", "run_experiment"), ("experiment", "run_experiment")],
    "hamiltonian.sample_disorder": [("experiment", "sample_disorder")],
    # enumeration is cached; it is reached through the state factories, the
    # full-space helper and the partial-trace scatter tables
    "hilbert.enumerate_sector": [
        ("states", "enumerate_sector"),
        ("hilbert", "enumerate_sector"),
        ("quantifiers", "enumerate_sector"),
    ],
    "hamiltonian.build": [("experiment", "build_hamiltonian")],
    "evolve.decompose": [("experiment", "decompose")],
    "evolve.propagate": [("experiment", "evolve_series"), ("experiment", "evolve_multisector_series")],
    "quantifiers.local": [("experiment", "local_quantifiers")],
    "quantifiers.global": [("experiment", "global_quantifiers")],
}
# run_experiment looks initial states up in this table, not by module name
STATE_TABLE = ("experiment", "_STATE_FACTORIES")
STATE_SPAN = "states.initial"


class Tracer:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._enumerated: set = set()

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a pool worker's outermost span belongs to the span its submitter
        # (the main thread, blocked in run_experiment) has open
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            span = {"id": next(self._ids), "run": self.run_id, "name": name,
                    "parent": self._parent(stack), "thread": tid}
            stack.append(span["id"])
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                stack.pop()
                self.spans.append(span)
            self._annotate(span, args, result)
            return result

        return traced

    def _annotate(self, span: dict, args: tuple, result) -> None:
        name = span["name"]
        if name == "hilbert.enumerate_sector":
            key = args[:2]
            span["cold"] = key not in self._enumerated
            self._enumerated.add(key)
        elif name == "evolve.decompose":
            span["dim"] = int(result.dim)
        elif name == "cli.write":
            span["bytes"] = os.path.getsize(args[0])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "clock": "CLOCK_MONOTONIC, seconds", "spans": self.spans}, fh)


def _module(name: str):
    return importlib.import_module(f"chainquench.{name}")


def install_tracer(tracer: Tracer) -> list[str]:
    """Wrap every binding in LAYERS; returns the bindings that do not exist."""
    missing = []
    for span_name, bindings in LAYERS.items():
        for module_name, attr in bindings:
            module = _module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, tracer.wrap(span_name, getattr(module, attr)))
            else:
                missing.append(f"{module_name}.{attr}")
    table = getattr(_module(STATE_TABLE[0]), STATE_TABLE[1], None)
    if table is None:
        missing.append(".".join(STATE_TABLE))
    else:
        for key in list(table):
            table[key] = tracer.wrap(STATE_SPAN, table[key])
    return missing


def install_setup_marker(marks: dict) -> None:
    """Record the monotonic time of the first Hamiltonian build."""
    experiment = _module("experiment")
    build = experiment.build_hamiltonian

    @functools.wraps(build)
    def marked(*args, **kwargs):
        if "first_build" not in marks:
            marks["first_build"] = time.monotonic()
        return build(*args, **kwargs)

    experiment.build_hamiltonian = marked


def _openblas_runtime() -> dict:
    """Thread count and config string from the OpenBLAS that numpy loaded."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            try:
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return {"library": os.path.basename(path), "num_threads": get_threads(),
                    "config": get_config().decode()}
    return {"library": None, "num_threads": None, "config": None}


def probe() -> dict:
    import platform

    import numpy

    import chainquench.cli  # noqa: F401  (warms the file cache the timed runs read)

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_build": deps.get("blas", {}),
        "blas_runtime": _openblas_runtime(),
        "chainquench": chainquench.__version__,
        "chainquench_path": os.path.dirname(chainquench.__file__),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the chainquench package")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--marker", help="JSON file for the set-up marker")
    parser.add_argument("--spans", help="JSON file for spans; enables tracing")
    parser.add_argument("--run-id", default="")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import chainquench

    expected = os.path.join(os.path.abspath(args.src), "chainquench")
    if os.path.dirname(os.path.abspath(chainquench.__file__)) != expected:
        print(f"child: imported {chainquench.__file__}, expected {expected}", file=sys.stderr)
        return 4
    if args.probe:
        print(json.dumps(probe()))
        return 0

    import chainquench.cli

    marks: dict = {}
    tracer = Tracer(args.run_id) if args.spans else None
    missing = install_tracer(tracer) if tracer else []
    install_setup_marker(marks)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    try:
        code = chainquench.cli.main(cli_args)
    finally:
        if tracer:
            tracer.dump(args.spans)
        if args.marker:
            with open(args.marker, "w") as fh:
                json.dump({**marks, "unbound": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
