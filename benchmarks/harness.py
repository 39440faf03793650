"""Shared reporting utilities for the benchmark suite.

Every benchmark regenerates one artifact of the paper (a Table 1 cell or a
theorem's size/complexity shape).  Timings come from pytest-benchmark; the
*paper-style rows* — who wins, what grows, where the crossover is — are
printed by :func:`report` and collected into ``benchmarks/results/`` so that
EXPERIMENTS.md can reference stable output files.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the rows
inline).
"""

from __future__ import annotations

import math
import os
import time
from typing import Callable, Dict, List, Sequence, Tuple

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Environment knob behind the benchmark suite's ``--workers`` flag
#: (``pytest benchmarks/ --workers N`` sets it; see benchmarks/conftest.py).
WORKERS_ENV = "REPRO_BENCH_WORKERS"

#: Environment knob behind the benchmark suite's ``--backend`` flag:
#: the evaluation backend engines and executors built through this
#: harness use (``python`` or ``numpy``).
BACKEND_ENV = "REPRO_BENCH_BACKEND"

__all__ = [
    "report",
    "timed",
    "timed_with_counters",
    "bench_workers",
    "bench_backend",
    "bench_engine",
    "bench_executor",
    "environment_header",
    "growth_exponent",
    "RESULTS_DIR",
    "WORKERS_ENV",
    "BACKEND_ENV",
]


def bench_workers(default: int = 1) -> int:
    """The worker count benches should shard over (the ``--workers`` flag)."""
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, default)))
    except ValueError:
        return max(1, default)


def bench_backend(default: str = "python") -> str:
    """The evaluation backend benches should run on (``--backend`` flag)."""
    from repro.cq.engine import BACKENDS

    backend = os.environ.get(BACKEND_ENV, default)
    return backend if backend in BACKENDS else default


def bench_engine(**kwargs):
    """A fresh :class:`repro.cq.engine.EvaluationEngine` on the suite backend."""
    from repro.cq.engine import EvaluationEngine

    kwargs.setdefault("backend", bench_backend())
    return EvaluationEngine(**kwargs)


def bench_executor(workers: int = None):
    """A fresh :class:`repro.runtime.Executor` for ``workers`` processes.

    ``None`` reads the suite-wide ``--workers`` flag.  The pool's engines
    run on the suite-wide ``--backend``.  Callers own the executor and
    should ``close()`` it (or use it as a context manager).
    """
    from repro.runtime import make_executor

    return make_executor(
        bench_workers() if workers is None else workers,
        backend=bench_backend(),
    )


def environment_header() -> str:
    """One comment line pinning the evaluation environment of a report.

    Every results file records which backend produced it and the numpy
    version in play, so persisted tables from different backends are never
    conflated.
    """
    import numpy

    return f"# backend={bench_backend()} numpy={numpy.__version__}"


def report(
    name: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    append: bool = False,
) -> None:
    """Print a paper-style table and persist it under benchmarks/results/.

    ``append=True`` adds the table to the end of an existing results file
    (separated by a blank line) instead of overwriting it — for benches
    whose single results artifact collects more than one table.
    """
    widths = [
        max(len(str(header)), *(len(str(row[i])) for row in rows))
        if rows
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    table = "\n".join(lines)
    header = environment_header()
    print(f"\n[{name}]\n{header}\n{table}")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    mode = "a" if append and os.path.exists(path) else "w"
    with open(path, mode) as handle:
        if mode == "a":
            handle.write("\n")
        handle.write(header + "\n")
        handle.write(table + "\n")


def timed(function: Callable[[], object]) -> Tuple[float, object]:
    """Wall-clock one call; returns (seconds, result)."""
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


def timed_with_counters(
    engine, function: Callable[[], object]
) -> Tuple[float, object, Dict[str, int]]:
    """Wall-clock one call and the engine work it caused.

    ``engine`` is a :class:`repro.cq.engine.EvaluationEngine`; the returned
    dict is the delta of its :meth:`work_snapshot` across the call (hom
    checks attempted, backtrack nodes expanded, cover games played, cache
    hits/misses), so benches can report work done, not just wall-clock.
    """
    before = engine.work_snapshot()
    start = time.perf_counter()
    result = function()
    seconds = time.perf_counter() - start
    after = engine.work_snapshot()
    delta = {key: after[key] - before[key] for key in after}
    return seconds, result, delta


def growth_exponent(
    sizes: Sequence[float], times: Sequence[float]
) -> float:
    """Least-squares slope of log(time) against log(size).

    A polynomial algorithm of degree d shows slope ≈ d; an exponential one
    shows a slope that keeps increasing with the size range.  Zero-ish
    times are clamped to a microsecond to keep the logs finite.
    """
    xs = [math.log(max(size, 1e-9)) for size in sizes]
    ys = [math.log(max(t, 1e-6)) for t in times]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    numerator = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    )
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return 0.0
    return numerator / denominator
