"""The chainquench benchmark: time the real CLI end to end, or trace its layers.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each operation is one `chainquench run`/`sweep` invocation in a fresh child
process with the inherited environment: BLAS and OpenMP thread variables are
left as found. Invocations repeat until --seconds is used up; every metric is
the median over the run's invocations.

--trace 0 reports the end-to-end metrics. --trace 1 alternates an untraced
and a traced invocation of the same config and reports the per-layer metrics
from the traced ones; their CSVs must equal the untraced CSVs byte for byte.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Per-invocation details, the environment block
and, for traced runs, the spans are written under .bench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_invocation
from layers import layer_metrics, self_times
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
REFERENCE = HERE / "reference"
# matches run_seconds in BENCHMARK.json
DEFAULT_SECONDS = 40.0
# a hung child is killed so that a run still ends within its time limit
OP_TIMEOUT_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "realizations_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "_ms": "ms",
    "_us": "us",
    "_s": "s",
    "_frac": "fraction",
    ".bytes": "bytes",
}


def layer_unit(name: str) -> str:
    return next((unit for suffix, unit in PER_LAYER_UNITS.items() if name.endswith(suffix)), "count")


def child_argv(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), "--src", str(SRC), *args]


def environment(workload_threads: dict[str, int]) -> dict:
    """Numeric environment of the children: interpreter, numpy, BLAS, cores, threads, commit."""
    probe = subprocess.run(child_argv("--probe"), capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if probe.returncode != 0:
        raise RuntimeError(f"environment probe failed: {probe.stderr.strip()}")
    digest = hashlib.sha256()
    for path in sorted((SRC / "chainquench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        **json.loads(probe.stdout),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "threads": workload_threads,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def invoke(workload: Workload, config_path: Path, out_dir: Path, run_id: str | None = None) -> dict:
    """Run one CLI invocation in a child process and measure it.

    With a run id the child traces its layers into out_dir/spans.json.
    """
    out_dir.mkdir(parents=True)
    marker = out_dir / "marker.json"
    extra = ["--spans", str(out_dir / "spans.json"), "--run-id", run_id] if run_id else []
    argv = child_argv("--marker", str(marker), *extra, "--", workload.command, "--config",
                      str(config_path), "--out-dir", str(out_dir), "--threads", str(workload.threads))
    with open(out_dir / "stdout.txt", "w") as out, open(out_dir / "stderr.txt", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = {
        "returncode": proc.returncode,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        "out_dir": str(out_dir.relative_to(ROOT)),
        "traced": run_id is not None,
    }
    try:
        marks = json.loads(marker.read_text())
    except (OSError, ValueError):
        marks = {}
    op["unbound"] = marks.get("unbound", [])
    first_build = marks.get("first_build")
    if first_build is not None:
        op["setup_s"] = first_build - start
        op["realizations_per_s"] = workload.realizations() / (op["wall_s"] - op["setup_s"])
    return op


def median_of(ops: list[dict], key: str) -> float:
    values = [op[key] for op in ops if key in op]
    return statistics.median(values) if values else 0.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run_id = f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(workload.make_config(seed), indent=2))
    reference = REFERENCE / workload.name if seed == DEFAULT_SEED else None

    def attempt(traced: bool) -> dict:
        out_dir = run_dir / f"op{len(ops):03d}"
        op = invoke(workload, config_path, out_dir, run_id if traced else None)
        op["problems"] = check_invocation(workload, out_dir, op["returncode"], reference)
        if op["returncode"] == 0 and "setup_s" not in op:
            op["problems"].append("no Hamiltonian build was recorded")
        ops.append(op)
        return op

    ops: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        round_start = time.monotonic()
        plain = attempt(traced=False)
        if trace:
            top = attempt(traced=True)
            top["problems"] += csv_mismatches(workload, ROOT / plain["out_dir"], ROOT / top["out_dir"])
            if not top["problems"]:
                top["layers"] = trace_summary(workload, ROOT / top["out_dir"] / "spans.json")
        now = time.monotonic()
        if now + (now - round_start) > deadline:
            break

    passed = [o for o in ops if not o["problems"]] or ops
    untraced = [o for o in passed if not o["traced"]]
    if trace:
        with_layers = [o["layers"]["metrics"] for o in ops if "layers" in o]
        metrics = {
            name: {"value": statistics.median(m[name] for m in with_layers) if with_layers else 0.0,
                   "unit": layer_unit(name)}
            for name in sorted({**layer_metrics([], 1), **workload.computed_counts()})
        }
        traced = [o for o in passed if o["traced"]]
        overhead = median_of(traced, "wall_s") / median_of(untraced, "wall_s") - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    else:
        metrics = {name: {"value": median_of(untraced, name), "unit": unit} for name, unit in END_TO_END.items()}
    return {"run_id": run_id, "workload": workload.name, "seed": seed, "trace": int(trace),
            "attempted": len(ops), "failed": sum(1 for o in ops if o["problems"]),
            "samples": len(untraced), "metrics": metrics, "ops": ops}


def csv_mismatches(workload: Workload, plain_dir: Path, traced_dir: Path) -> list[str]:
    problems = []
    for name in workload.csv_names():
        try:
            same = (plain_dir / name).read_bytes() == (traced_dir / name).read_bytes()
        except OSError as exc:
            problems.append(f"{name}: cannot compare traced and untraced CSV: {exc}")
            continue
        if not same:
            problems.append(f"{name}: traced CSV differs from the untraced CSV")
    return problems


def trace_summary(workload: Workload, spans_path: Path) -> dict:
    spans = json.loads(spans_path.read_text())["spans"]
    metrics = {**layer_metrics(spans, workload.threads), **workload.computed_counts()}
    return {"metrics": dict(sorted(metrics.items())), "self_s": self_times(spans),
            "computed": sorted(workload.computed_counts())}


def report(result: dict, env: dict) -> None:
    """Human-readable lines for one workload run."""
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"threads {env['threads'][result['workload']]}: "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for op in result["ops"]:
        for problem in op["problems"]:
            print(f"  FAILED {op['out_dir']}: {problem}")
        if op["unbound"]:
            print(f"  {op['out_dir']}: not traced, binding absent: {', '.join(op['unbound'])}")
    for name, m in result["metrics"].items():
        note = "" if result["trace"] else f" median of {result['samples']}"
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']:<8}{note}")
    layered = [op for op in result["ops"] if "layers" in op]
    if layered:
        print("  self time by span (last traced invocation):")
        for name, value in sorted(layered[-1]["layers"]["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<36} {value:>10.4f} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "chainquench" / "cli.py").is_file():
        print(f"error: no chainquench source under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    env = environment({name: WORKLOADS[name].threads for name in names})
    print("environment " + json.dumps(env))
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result["environment"] = env
        (WORK / f"result-{result['run_id']}.json").write_text(json.dumps(result, indent=2))
        report(result, env)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
