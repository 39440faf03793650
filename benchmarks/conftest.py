"""Make the benchmarks directory importable and add the ``--backend`` flag."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        action="store",
        choices=("python", "numpy"),
        default=None,
        help="evaluation backend for engines built through the harness "
        "(exported as REPRO_BENCH_BACKEND; default: python)",
    )


def pytest_configure(config):
    backend = config.getoption("--backend", default=None)
    if backend is not None:
        from harness import BACKEND_ENV

        os.environ[BACKEND_ENV] = backend
