"""The repository benchmark: train and serve workloads, end to end and per layer.

Usage, from the repository root::

    python3 perf/run.py --workload serve-hot --seed 0 --seconds 20 --trace 0
    python3 perf/run.py --seed 0 --out result.json         # all four workloads
    python3 perf/run.py --workload train-retail --trace 1  # per-layer metrics

Each workload runs in its own child process (``workloads.py``).  The
runner builds the workload's inputs from ``--seed`` and the expected
outputs, checks afterwards that no process of the child and no
``repro-shm-*`` shared-memory segment outlived it, prints every metric
by name with its unit, and ends its standard output with one JSON line::

    {"correct": true, "attempted": 612, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace
1`` the per-layer ones (README.md defines both).  The exit code is 0 only
when every output was correct; without the repository's ``src/`` it is 2
and no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Set

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for inputs, models and logs; removed after each workload.
WORK_ROOT = os.path.join(ROOT, ".perf_work")

#: End-to-end metrics (``--trace 0``), name -> unit.
E2E = {
    "setup_s": "s",
    "p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), name -> unit.  A metric a workload
#: never exercises (the pool on a serial fit, the gateway on a fit)
#: reads 0.
PER_LAYER = {
    "data.load_ms": "ms",
    "enumeration.ms": "ms",
    "enumeration.queries": "count",
    "engine.fill_ms": "ms",
    "engine.statistic_ms": "ms",
    "engine.hom_checks": "count",
    "engine.backtrack_nodes": "count",
    "engine.plan_compilations": "count",
    "engine.cache_hit_ratio": "fraction",
    "runtime.pool_start_ms": "ms",
    "runtime.run_ms": "ms",
    "runtime.broadcast_ms": "ms",
    "runtime.close_ms": "ms",
    "runtime.broadcast_misses": "count",
    "runtime.fallbacks": "count",
    "linsep.ms": "ms",
    "serve.export_ms": "ms",
    "serve.predict_batch_ms": "ms",
    "serve.batch_size": "count",
    "data.parse_ms": "ms",
    "gateway.http_ms": "ms",
    "gateway.batch_wait_ms": "ms",
    "gateway.unattributed_ms": "ms",
    "gateway.cpu_ms_per_req": "ms",
    "gateway.fused": "count",
    "gateway.shed": "count",
    "client.late_p99_ms": "ms",
    "trace.coverage": "fraction",
    "trace.overhead": "fraction",
}

#: Spare seconds a child gets beyond ``--seconds`` for set-up and checks.
CHILD_GRACE_S = 110
SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro-shm-"


def environment() -> Dict[str, Any]:
    """Where the numbers come from: code, machine, interpreter, load."""
    from repro.runtime import preferred_start_method

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True,
        )
        sha = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "start_method": preferred_start_method(),
        "backend": "python",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "loadavg_before": os.getloadavg(),
    }


def _shm_segments() -> Set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def _group_members(pgid: int) -> List[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _reap_group(pgid: int) -> List[int]:
    """Kill whatever is left of a child's process group; return its pids.

    Helpers such as multiprocessing's resource tracker exit on their own
    shortly after the process that started them, so they get a grace
    period first.
    """
    deadline = time.monotonic() + 3
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)
    left = _group_members(pgid)
    if left:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 10
        while _group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
    return left


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    from workloads import prepare

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    errors: List[str] = []
    result: Dict[str, Any] = {}
    shm_before = _shm_segments()
    try:
        spec = prepare(name, args.seed, work, ROOT, args.smoke, args.tamper)
        spec.update(
            seconds=args.seconds,
            trace=args.trace,
            result=os.path.join(work, "result.json"),
        )
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workloads.py"), spec_path],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = child.wait(timeout=args.seconds + CHILD_GRACE_S)
            if code != 0:
                errors.append(f"workload process exited with code {code}")
        except subprocess.TimeoutExpired:
            errors.append("workload process did not finish in time")
        finally:
            left = _reap_group(child.pid)
            child.wait()
            if left:
                errors.append(f"processes outlived the workload: {left}")
        leaked = _shm_segments() - shm_before
        for segment in sorted(leaked):
            errors.append(f"shared-memory segment outlived the workload: {segment}")
            try:
                os.unlink(os.path.join(SHM_DIR, segment))
            except OSError:
                pass
        if os.path.exists(spec["result"]):
            with open(spec["result"]) as handle:
                result = json.load(handle)
        spans = os.path.join(work, "spans.jsonl")
        if args.out and os.path.exists(spans):
            shutil.copyfile(spans, f"{args.out}.{name}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not result:
        # The workload died before reporting: count it as one failure.
        result = {"attempted": 1, "failed": 1}
    errors = result.get("errors", []) + errors
    measured = result.get("metrics", {})
    units = PER_LAYER if args.trace else E2E
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": not errors and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": errors,
        "metrics": {
            metric: {"value": float(measured.get(metric, 0.0)), "unit": unit}
            for metric, unit in units.items()
        } if measured else {},
        "samples": result.get("samples", {}),
        "counts": result.get("counts", {}),
        "detail": result.get("detail", {}),
    }


def _terminate(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def build_parser() -> argparse.ArgumentParser:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see perf/README.md)."
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS) + ["all"], default="all",
        help="workload to run (default: all four, each in turn)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measured seconds per workload (default 20)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: record layer spans and report the per-layer metrics",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the full record (environment header, metrics, "
        "counts) as JSON; traced runs add FILE.<workload>.spans.jsonl",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, for checking the benchmark itself",
    )
    parser.add_argument(
        "--tamper", action="store_true",
        help="corrupt one expected output; the run must then fail",
    )
    return parser


def main(argv: List[str]) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"error: no repro package under {SRC}; run from a checkout of "
            "the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [HERE, SRC]
    args = build_parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    header = environment()
    runs = [run_workload(name, args) for name in names]
    header["loadavg_after"] = os.getloadavg()

    for run in runs:
        samples = ", ".join(f"{k}={v}" for k, v in run["samples"].items())
        print(f"{run['workload']} (seed {run['seed']}; {samples}):")
        for metric, reading in run["metrics"].items():
            print(f"  {metric:26s} {reading['value']:14.4f} {reading['unit']}")
        latency = run["detail"].get("latency_ms")
        if latency:
            print(f"  open-loop latency ms ({run['samples']['open_loop']} "
                  "samples): " + ", ".join(
                      f"{name} {value:.2f}" for name, value in latency.items()))
        for error in run["errors"]:
            print(f"  ERROR {error}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"env": header, "runs": runs}, handle, indent=1)
    metrics: Dict[str, Any] = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run['workload']}/"
        for metric, reading in run["metrics"].items():
            metrics[prefix + metric] = reading
    correct = all(run["correct"] for run in runs)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
