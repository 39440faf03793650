"""Smoke-run every benchmark module once, inside the regular test suite.

The benches under ``benchmarks/`` are normally only exercised with
``pytest benchmarks/ --benchmark-only``, so an API change could silently
break them between benchmark runs.  Here each ``bench_*.py`` module is
imported and each of its test functions executed exactly once with a
stand-in ``benchmark`` fixture (single call, no timing repetition), with
result tables redirected to a temp dir so committed artifacts under
``benchmarks/results/`` are not overwritten by test runs.

Deselect with ``-m "not benchsmoke"`` for a fast unit-only run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
MODULES = sorted(path.stem for path in BENCHMARKS_DIR.glob("bench_*.py"))

if str(BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS_DIR))


class _BenchmarkOnce:
    """Minimal pytest-benchmark stand-in: run the function a single time."""

    def __call__(self, function, *args, **kwargs):
        return function(*args, **kwargs)

    def pedantic(self, function, args=(), kwargs=None, **_ignored):
        return function(*args, **(kwargs or {}))


def test_all_bench_modules_are_covered():
    assert len(MODULES) >= 28
    assert "bench_engine" in MODULES
    assert "bench_plan" in MODULES
    assert "bench_gateway" in MODULES
    assert "bench_stream" in MODULES
    assert "bench_vectorized" in MODULES


@pytest.mark.benchsmoke
@pytest.mark.parametrize("module_name", MODULES)
def test_bench_module_smoke(module_name, monkeypatch, tmp_path):
    harness = importlib.import_module("harness")
    monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))

    module = importlib.import_module(module_name)
    functions = [
        obj
        for name, obj in sorted(vars(module).items())
        if name.startswith("test_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]
    assert functions, f"{module_name} defines no test functions"
    for function in functions:
        kwargs = {}
        if "benchmark" in inspect.signature(function).parameters:
            kwargs["benchmark"] = _BenchmarkOnce()
        function(**kwargs)
